"""Benchmark second-order systems q'' = f(t, q).

Every callable broadcasts over a leading batch axis: f maps (..., d) to
(..., d) and the scalar functionals map a single state (q, qp) to a float
or a small vector.  Problems are immutable and re-entrant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping

import numpy as np

if TYPE_CHECKING:
    from .integrator import Trajectory


@dataclass(frozen=True)
class SecondOrderProblem:
    """A system q'' = f(t, q) with optional conserved quantities.

    ``invariants`` maps names to functionals of (q, qp); ``exact`` maps a
    time to the exact (q, qp) when a closed-form solution exists.
    """

    name: str
    dim: int
    f: Callable[[float, np.ndarray], np.ndarray]
    q0: np.ndarray
    qp0: np.ndarray
    hamiltonian: Callable[[np.ndarray, np.ndarray], float] | None = None
    invariants: Mapping[str, Callable] = field(default_factory=dict)
    exact: Callable[[float], tuple[np.ndarray, np.ndarray]] | None = None


def kepler() -> SecondOrderProblem:
    """Planar two-body problem on the unit circular orbit.

    Conserves the energy, the angular momentum q1 p2 - q2 p1 and the
    Laplace-Runge-Lenz vector (identically zero on this orbit).
    """

    # r2 by a dot product and the origin test on a list: numpy's reductions
    # cost more than the force itself on a few stages, and a dot with ones
    # adds the two squares exactly as sum() does
    ones = np.ones(2)

    def f(t, q):
        q = np.asarray(q, dtype=float)
        r2 = (q * q).dot(ones)[..., None]
        if 0.0 in r2.ravel().tolist():
            raise ValueError("acceleration is undefined at the origin")
        return q / (-r2 * np.sqrt(r2))

    def hamiltonian(q, qp):
        return 0.5 * float(qp @ qp) - 1.0 / float(np.hypot(q[0], q[1]))

    def angular_momentum(q, qp):
        return float(q[0] * qp[1] - q[1] * qp[0])

    def runge_lenz(q, qp):
        ell = q[0] * qp[1] - q[1] * qp[0]
        r = float(np.hypot(q[0], q[1]))
        return np.array([qp[1] * ell - q[0] / r,
                         -qp[0] * ell - q[1] / r,
                         0.0])

    def exact(t):
        return (np.array([np.cos(t), np.sin(t)]),
                np.array([-np.sin(t), np.cos(t)]))

    return SecondOrderProblem(
        name="kepler", dim=2, f=f,
        q0=np.array([1.0, 0.0]), qp0=np.array([0.0, 1.0]),
        hamiltonian=hamiltonian,
        invariants={"angmom": angular_momentum, "rlp": runge_lenz},
        exact=exact)


def henon_heiles() -> SecondOrderProblem:
    """Cubic stellar-motion potential; chaotic at the standard start state."""

    def f(t, q):
        q = np.asarray(q, dtype=float)
        q1, q2 = q[..., 0], q[..., 1]
        # in place from -q: the same operations in the same order as
        # -q1 - 2 q1 q2 and -q2 - q1^2 + q2^2, with fewer temporaries
        force = -q
        force[..., 0] -= 2.0 * q1 * q2
        force2 = force[..., 1]
        force2 -= q1 * q1
        force2 += q2 * q2
        return force

    def hamiltonian(q, qp):
        return float(0.5 * (qp @ qp) + 0.5 * (q @ q)
                     + q[0] * q[0] * q[1] - q[1] ** 3 / 3.0)

    return SecondOrderProblem(
        name="henon-heiles", dim=2, f=f,
        q0=np.array([0.1, -0.5]), qp0=np.array([0.0, 0.0]),
        hamiltonian=hamiltonian)


def harmonic() -> SecondOrderProblem:
    """Unit oscillator q'' = -q; clean closed form for order studies."""

    def f(t, q):
        return -np.asarray(q, dtype=float)

    def hamiltonian(q, qp):
        return 0.5 * float(qp @ qp + q @ q)

    def exact(t):
        return (np.array([np.cos(t)]), np.array([-np.sin(t)]))

    return SecondOrderProblem(
        name="harmonic", dim=1, f=f,
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
    """|invariant(state_k) - invariant(state_0)| per recorded sample.

    Vector invariants are compared in the max-norm.
    """
    values = np.array([invariant(q, qp)
                       for q, qp in zip(trajectory.q, trajectory.qp)],
                      dtype=float).reshape(len(trajectory.q), -1)
    return np.abs(values - values[0]).max(axis=1)
