"""Symplectic propagation of classical phase-space ensembles.

A Liouville density is represented as a weighted set of trajectories; each
Verlet step is the kick-drift-kick map

    p1 = p - U'(x) dt/2,   x1 = x + K'(p1) dt,   p2 = p1 - U'(x1) dt/2,

which is second-order, time-reversible and area-preserving.  Weights ride
along unchanged.  Explicitly time-dependent forces are handled by a
fictitious coordinate/momentum pair advancing at unit rate; since both
components of the pair grow identically, the ensemble carries them as a
single clock ``s``.

All Verlet stepping goes through one first-same-as-last (FSAL) loop,
``_kick_drift_kick``: the closing force ``U'(x1, s + dt)`` of one step is
the opening force of the next, so ``n`` steps evaluate ``U'`` ``n + 1``
times instead of ``2n``.  Reusing the force changes no bit of the result.
The loop steps raw ``x``, ``p`` and ``s``; ``propagate_ensemble`` builds a
``ClassicalEnsemble`` only for the snapshots it returns, and
``verlet_step`` and ``multi_dim_verlet_step`` are the loop run for one
step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .steps import require_step


@dataclass(frozen=True)
class ClassicalSpec:
    """Derivatives of a separable Hamiltonian H = K(p) + U(x).

    ``dk_dp(p, s_p)`` is the velocity, ``du_dx(x, s_x)`` the potential
    gradient (the force is its negative).  Autonomous systems simply ignore
    the second argument.
    """

    dk_dp: Callable[[np.ndarray, float], np.ndarray]
    du_dx: Callable[[np.ndarray, float], np.ndarray]


@dataclass(frozen=True)
class ClassicalEnsemble:
    """Weighted phase-space points (x_c, p_c, w_c) plus the fictitious clock s."""

    x: np.ndarray
    p: np.ndarray
    weights: np.ndarray
    s: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "x", np.atleast_1d(np.asarray(self.x, dtype=float)))
        object.__setattr__(self, "p", np.atleast_1d(np.asarray(self.p, dtype=float)))
        object.__setattr__(self, "weights",
                           np.atleast_1d(np.asarray(self.weights, dtype=float)))
        if not (self.x.shape == self.p.shape == self.weights.shape):
            raise ValueError("x, p and weights must have equal lengths")
        if np.any(self.weights < 0):
            raise ValueError("weights must be nonnegative")
        total = self.weights.sum()
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1, got {total!r}")


def uniform_weights(n: int) -> np.ndarray:
    return np.full(n, 1.0 / n)


def extend_time_dependent(dk_dp_t: Callable, du_dx_t: Callable) -> ClassicalSpec:
    """Autonomize dx/dt = K'(p, t), dp/dt = -U'(x, t).

    The returned spec reads the fictitious pair (s_x, s_p) instead of wall
    time; both advance at unit rate from s = 0, so after integrating for a
    time T the ensemble clock equals T.  For callables that ignore their
    second argument the (x, p) dynamics is unchanged.
    """
    return ClassicalSpec(dk_dp=dk_dp_t, du_dx=du_dx_t)


def _kick_drift_kick(x: np.ndarray, p: np.ndarray, s: float, dt: float,
                     n_steps: int, spec: ClassicalSpec, stride: int):
    """The FSAL Verlet loop: yields (x, p, s) after every ``stride`` steps and the last.

    Forces are evaluated at clock values s, the drift velocity at s + dt/2,
    and the closing kick at s + dt, matching the unit-rate flow of the
    fictitious pair.  The closing force is kept as the next step's opening
    force, so ``du_dx`` is called ``n_steps + 1`` times.  The arrays are
    never updated in place: a yielded array or a force may share memory
    with the state.
    """
    half = dt / 2.0
    force = np.asarray(spec.du_dx(x, s))
    for m in range(n_steps):
        p = p - force * half
        x = x + np.asarray(spec.dk_dp(p, s + half)) * dt
        s = s + dt
        force = np.asarray(spec.du_dx(x, s))
        p = p - force * half
        if (m + 1) % stride == 0 or m == n_steps - 1:
            yield x, p, s


def verlet_step(ensemble: ClassicalEnsemble, dt: float,
                spec: ClassicalSpec) -> ClassicalEnsemble:
    """One kick-drift-kick step (the FSAL loop run once); weights are never mutated."""
    return propagate_ensemble(ensemble, dt, 1, spec)[1]


def multi_dim_verlet_step(x: np.ndarray, p: np.ndarray, dt: float,
                          grad_u: Callable, grad_k: Callable
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Componentwise Verlet for vector coordinates and momenta."""
    require_step(dt)
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    if x.shape != p.shape:
        raise ValueError(f"coordinate shape {x.shape} != momentum shape {p.shape}")
    spec = ClassicalSpec(dk_dp=lambda q, s: grad_k(q), du_dx=lambda q, s: grad_u(q))
    [(x1, p1, _)] = _kick_drift_kick(x, p, 0.0, dt, 1, spec, 1)
    return x1, p1


def propagate_ensemble(ensemble: ClassicalEnsemble, dt: float, n_steps: int,
                       spec: ClassicalSpec, stride: int = 1
                       ) -> list[ClassicalEnsemble]:
    """Verlet trajectory of an ensemble, sampled every ``stride`` steps (incl. start).

    The last step is always sampled, so a partial final stride still ends
    the list.  One FSAL loop serves all steps (see the module docstring);
    only the sampled states become ``ClassicalEnsemble`` objects.
    """
    require_step(dt)
    if n_steps < 0:
        raise ValueError(f"n_steps must be >= 0, got {n_steps!r}")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    steps = _kick_drift_kick(ensemble.x, ensemble.p, ensemble.s, dt, n_steps,
                             spec, stride)
    return [ensemble, *(ClassicalEnsemble(x, p, ensemble.weights, s)
                        for x, p, s in steps)]


@dataclass(frozen=True)
class EhrenfestSeries:
    """Weighted first moments along a trajectory of ensembles."""

    times: np.ndarray
    x_mean: np.ndarray
    p_mean: np.ndarray
    force_mean: np.ndarray


def ehrenfest_series(snapshots: Sequence[ClassicalEnsemble],
                     spec: ClassicalSpec) -> EhrenfestSeries:
    """<x>, <p> and <-U'(x)> per snapshot, using the ensemble clock as time."""
    if len(snapshots) == 0:
        raise ValueError("need at least one snapshot")
    times = np.array([e.s for e in snapshots])
    x_mean = np.array([np.sum(e.weights * e.x) for e in snapshots])
    p_mean = np.array([np.sum(e.weights * e.p) for e in snapshots])
    force = np.array([-np.sum(e.weights * np.asarray(spec.du_dx(e.x, e.s)))
                      for e in snapshots])
    return EhrenfestSeries(times=times, x_mean=x_mean, p_mean=p_mean,
                           force_mean=force)
