"""Checks on time steps, shared by the integrators and the CLI schema.

The module uses ``math``/``cmath`` only, so the config schema can count
steps without importing numpy.
"""

from __future__ import annotations

import cmath
import math


def require_step(dt: complex) -> None:
    """ValueError unless the step dt is finite and nonzero."""
    if dt == 0 or not cmath.isfinite(dt):
        raise ValueError(f"dt must be finite and nonzero, got {dt!r}")


def step_count(span: float, dt: float) -> int:
    """span/dt as an integer; ValueError unless it is one to 1e-9 relative."""
    if not (math.isfinite(span) and math.isfinite(dt)) or dt == 0:
        raise ValueError(f"need a finite span and a finite nonzero step, got "
                         f"{span!r} and {dt!r}")
    n_steps = int(round(span / dt))
    if abs(n_steps * dt - span) > 1e-9 * max(1.0, abs(span)):
        raise ValueError(f"{span!r} is not an integer multiple of the step {dt!r}")
    return n_steps
