"""Checks on scalar arguments and time steps, shared by the library and the CLI schema.

The module uses ``math``/``cmath`` only, so the config schema can check
numbers and count steps without importing numpy.
"""

from __future__ import annotations

import cmath
import math

#: Fewest imaginary-time steps a gap estimate takes: its decay fit needs a
#: window of samples.
GAP_MIN_STEPS = 8


def _finite(value) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def is_finite_number(value) -> bool:
    """True for an int or float, not a bool, that is a finite float."""
    return not isinstance(value, bool) and isinstance(value, (int, float)) and _finite(value)


def require(name: str, value, above: float | None = None,
            minimum: float | None = None) -> None:
    """ValueError unless ``value``, a real scalar (numpy's too), is finite,
    > ``above`` and >= ``minimum``; e.g. "gamma must be nonnegative and finite, got nan"."""
    if not (_finite(value) and (above is None or value > above)
            and (minimum is None or value >= minimum)):
        rule = [] if above is None else ["positive" if above == 0 else f"> {above}"]
        if minimum is not None:
            rule.append("nonnegative" if minimum == 0 else f">= {minimum}")
        raise ValueError(f"{name} must be {' and '.join(rule + ['finite'])}, got {value!r}")


def require_count(name: str, value, minimum: int) -> None:
    """ValueError unless ``value`` is an integer that ``range`` takes (numpy's too), not a
    bool as in the schema's ``integer``, and >= ``minimum``; e.g. "stride must be >= 1 and
    an integer, got 1.5"."""
    if isinstance(value, bool) or not hasattr(value, "__index__") or value < minimum:
        raise ValueError(f"{name} must be >= {minimum} and an integer, got {value!r}")


def require_step(dt: complex) -> None:
    """ValueError unless the step dt is finite and nonzero."""
    if dt == 0 or not cmath.isfinite(dt):
        raise ValueError(f"dt must be finite and nonzero, got {dt!r}")


def require_one_hbar(spec_hbar: float, name: str, hbar: float) -> None:
    """ValueError unless a spec's hbar equals the ``hbar`` of its state, called ``name``:
    a stepper divides its phases by one and the state's momenta scale with the other."""
    if spec_hbar != hbar:
        raise ValueError(f"spec.hbar = {spec_hbar!r} differs from {name} = {hbar!r}; "
                         "build the spec and the state with one hbar")


def step_count(span: float, dt: float, minimum: int = 0) -> int:
    """span/dt as an integer; ValueError unless it is one to 1e-9 relative and
    at least ``minimum``, the caller's floor (``GAP_MIN_STEPS`` for a gap fit)."""
    if dt == 0 or not (math.isfinite(dt) and math.isfinite(span / dt)):
        raise ValueError(f"need a finite span, a finite nonzero step and a finite "
                         f"span/step, got {span!r} and {dt!r}")
    n_steps = int(round(span / dt))
    if abs(n_steps * dt - span) > 1e-9 * max(1.0, abs(span)):
        raise ValueError(f"{span!r} is not an integer multiple of the step {dt!r}")
    if n_steps < minimum:
        raise ValueError(f"a span of {span!r} in steps of {dt!r} counts {n_steps}, "
                         f"fewer than {minimum}")
    return n_steps
