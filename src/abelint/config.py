"""Run configuration: tolerances, geometry constants, bound calibration."""

from __future__ import annotations

import dataclasses
import json
import os


@dataclasses.dataclass
class RunConfig:
    # numeric continuation
    rtol: float = 1e-11
    atol: float = 1e-13
    max_step_factor: float = 0.2      # step <= factor * dist(path, singular set)
    min_path_distance: float = 1e-9   # relative; closer paths raise PathTooClose
    zero_on_path_tol: float = 1e-9    # |w| below tol * scale aborts winding

    # winding / argument principle
    winding_tol: float = 0.1          # |Delta arg/2pi - round| must stay below

    # quasiunipotence
    qu_tol: float = 1e-6
    qu_max_order: int = 64
    qu_relaxed: bool = False          # accept |eig| = 1 without root-of-unity

    # slit geometry
    theta: float = 0.1                # scale-separation threshold
    geom_tol: float = 1e-9            # relative tolerance for exact-ish checks

    # variation-of-argument bound: exponent nu(d) = c_var * d
    c_var: float = 3.0

    # headline bound constants (calibration only, not certified)
    c_poly: float = 1.0               # Poly(d,l,m) = c_poly * (d l^4 m)^5
    c_tower: float = 1.0              # 2^(2^(c_tower n^60 log n))

    @staticmethod
    def from_json(path) -> "RunConfig":
        with open(path) as fh:
            data = json.load(fh)
        known = {f.name for f in dataclasses.fields(RunConfig)}
        unknown = set(data) - known
        if unknown:
            from .errors import ParseError

            raise ParseError(f"unknown config keys: {sorted(unknown)}")
        return RunConfig(**data)

    @staticmethod
    def load(path=None) -> "RunConfig":
        path = path or os.environ.get("ABELINT_CONFIG")
        if path:
            return RunConfig.from_json(path)
        return RunConfig()
