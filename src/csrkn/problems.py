"""Benchmark second-order systems q'' = f(t, q).

Every callable broadcasts over a leading batch axis: f maps (..., d) to
(..., d), and each conserved quantity maps (q, qp) of shape (..., d) to
(...), or to (..., k) for a vector invariant, so one call covers a whole
trajectory.  Problems are immutable and re-entrant.

The Kepler and Henon-Heiles forces are ``_PlanarForce`` callables.  Each
holds one per-point kernel, ``on_points``, on Python floats: f runs it on
an input of any size and ``integrate`` on its own stage list, so both give
the same values to the bit, and f returns a fresh array.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf, sqrt
from typing import TYPE_CHECKING, Callable, Mapping

import numpy as np

if TYPE_CHECKING:
    from .integrator import Trajectory


@dataclass(frozen=True)
class SecondOrderProblem:
    """A system q'' = f(t, q) with optional conserved quantities.

    ``hamiltonian`` and the ``invariants`` (names to functionals of (q, qp))
    broadcast as the module says; ``exact`` maps a time to the exact
    (q, qp) when a closed-form solution exists.
    """

    name: str
    f: Callable[[float, np.ndarray], np.ndarray]
    q0: np.ndarray
    qp0: np.ndarray
    hamiltonian: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    invariants: Mapping[str, Callable] = field(default_factory=dict)
    exact: Callable[[float], tuple[np.ndarray, np.ndarray]] | None = None


# One state's x @ x is a BLAS dot and its x ** 3 the C pow of a float64
# scalar; over a batch, a sum over the last axis or numpy's array power
# round differently, so these keep each state's value to the bit.
def _squared_norm(x: np.ndarray) -> np.ndarray:
    return np.matmul(x[..., None, :], x[..., :, None])[..., 0, 0]


def _cube(x: np.ndarray) -> np.ndarray:
    return np.array([v ** 3 for v in x.ravel().tolist()]).reshape(x.shape)


_ORIGIN = "acceleration is undefined at the origin"


class _PlanarForce:
    """f(t, q) of a force on points of the plane that does not read t.

    ``on_points`` maps the flat coordinate list [x0, y0, x1, y1, ...] to the
    flat force list on Python floats.  A plain class: a dataclass would add
    about 0.6 ms to every import.
    """

    __slots__ = ("on_points",)

    def __init__(self, on_points: Callable[[list], list]):
        self.on_points = on_points

    def __call__(self, t, q) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        if q.shape[-1:] != (2,):
            raise ValueError(f"expected points of the plane (last axis of "
                             f"length 2), got shape {q.shape}")
        return np.array(self.on_points(q.ravel().tolist())).reshape(q.shape)


def _kepler_points(xy: list) -> list:
    points = iter(xy)
    forces = []
    for x, y in zip(points, points):
        r2 = x * x + y * y
        if r2 == 0.0:
            raise ValueError(_ORIGIN)
        den = -r2 * sqrt(r2)
        if den == 0.0:
            # r^2 sqrt(r^2) underflowed to -0.0, where Python raises on
            # x / den: x * -inf is numpy's x / -0.0 (+-inf, or NaN for
            # x = 0), which integrate reports as a non-finite force
            forces.append(x * -inf)
            forces.append(y * -inf)
        else:
            forces.append(x / den)
            forces.append(y / den)
    return forces


def kepler() -> SecondOrderProblem:
    """Planar two-body problem on the unit circular orbit.

    Conserves the energy, the angular momentum q1 p2 - q2 p1 and the
    Laplace-Runge-Lenz vector (identically zero on this orbit).
    """

    def hamiltonian(q, qp):
        return 0.5 * _squared_norm(qp) - 1.0 / np.hypot(q[..., 0], q[..., 1])

    def angular_momentum(q, qp):
        return q[..., 0] * qp[..., 1] - q[..., 1] * qp[..., 0]

    def runge_lenz(q, qp):
        q1, q2, p1, p2 = q[..., 0], q[..., 1], qp[..., 0], qp[..., 1]
        ell = q1 * p2 - q2 * p1
        r = np.hypot(q1, q2)
        return np.stack([p2 * ell - q1 / r, -p1 * ell - q2 / r,
                         np.zeros_like(r)], axis=-1)

    def exact(t):
        return (np.array([np.cos(t), np.sin(t)]),
                np.array([-np.sin(t), np.cos(t)]))

    return SecondOrderProblem(
        name="kepler", f=_PlanarForce(_kepler_points),
        q0=np.array([1.0, 0.0]), qp0=np.array([0.0, 1.0]),
        hamiltonian=hamiltonian,
        invariants={"angmom": angular_momentum, "rlp": runge_lenz},
        exact=exact)


def _henon_heiles_points(xy: list) -> list:
    points = iter(xy)
    forces = []
    for x, y in zip(points, points):
        forces.append(-x - 2.0 * x * y)
        forces.append(-y - x * x + y * y)
    return forces


def henon_heiles() -> SecondOrderProblem:
    """Cubic stellar-motion potential; chaotic at the standard start state."""

    def hamiltonian(q, qp):
        q1, q2 = q[..., 0], q[..., 1]
        return (0.5 * _squared_norm(qp) + 0.5 * _squared_norm(q)
                + q1 * q1 * q2 - _cube(q2) / 3.0)

    return SecondOrderProblem(
        name="henon-heiles", f=_PlanarForce(_henon_heiles_points),
        q0=np.array([0.1, -0.5]), qp0=np.array([0.0, 0.0]),
        hamiltonian=hamiltonian)


def harmonic() -> SecondOrderProblem:
    """Unit oscillator q'' = -q; clean closed form for order studies."""

    def f(t, q):
        return -np.asarray(q, dtype=float)

    def hamiltonian(q, qp):
        return 0.5 * (_squared_norm(qp) + _squared_norm(q))

    def exact(t):
        return (np.array([np.cos(t)]), np.array([-np.sin(t)]))

    return SecondOrderProblem(
        name="harmonic", f=f,
        q0=np.array([1.0]), qp0=np.array([0.0]),
        hamiltonian=hamiltonian, exact=exact)


PROBLEMS = {
    "kepler": kepler,
    "henon-heiles": henon_heiles,
    "harmonic": harmonic,
}


def problem_from_name(name: str) -> SecondOrderProblem:
    try:
        return PROBLEMS[name]()
    except KeyError:
        raise ValueError(f"unknown problem {name!r}; choose from "
                         f"{', '.join(PROBLEMS)}") from None


def invariant_drift(trajectory: "Trajectory", invariant: Callable) -> np.ndarray:
    """|invariant(state_k) - invariant(state_0)| per recorded sample, from
    one broadcast call; vector invariants are compared in the max-norm."""
    values = np.asarray(invariant(trajectory.q, trajectory.qp),
                        dtype=float).reshape(len(trajectory.q), -1)
    return np.abs(values - values[0]).max(axis=1)
