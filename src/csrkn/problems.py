"""Benchmark second-order systems q'' = f(t, q).

Every callable broadcasts over a leading batch axis: f maps (..., d) to
(..., d), and each conserved quantity maps (q, qp) of shape (..., d) to
(...), or to (..., k) for a vector invariant, so one call covers a whole
trajectory.  Problems are immutable and re-entrant.

Each built-in force is a ``_PointForce``, written once as its expressions
at one point: f runs them per point on Python floats on an input of any
size, and ``integrate``'s generated run writes them out on its stage
values; both give the same values to the bit, and f returns a fresh array.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from functools import cache
from math import inf, sqrt
from string import ascii_lowercase
from typing import TYPE_CHECKING, Callable, Mapping

import numpy as np

from .basis import _reals

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
_COORDINATES = "xyz"


def _compiled(label, parameters, signature, lines, namespace):
    """make(*parameters), which returns the function of this signature and
    body lines; label names the source in tracebacks."""
    exec(compile(f"def make({', '.join(parameters)}):\n"
                 f"    def {signature}:\n"
                 + "".join(f"        {line}\n" for line in lines)
                 + f"    return {signature.partition('(')[0]}\n",
                 label, "exec"), namespace)
    return namespace["make"]


@cache
def _points(expressions: tuple):
    """make(on_zero), which returns on_points(xs): the flat force list of
    the expressions at each point of the flat coordinate list xs, or
    on_zero(x, ...) at a point where one divides by zero, if given."""
    names = ", ".join(_COORDINATES[:len(expressions)])
    return _compiled(f"<points {names}>", ["on_zero"], "on_points(xs)", [
        "points, forces = iter(xs), []",
        f"for {names}, in zip({', '.join(['points'] * len(expressions))}):",
        f"    try: forces += {''.join(f'({e}), ' for e in expressions)}",
        "    except ZeroDivisionError:",
        "        if on_zero is None: raise",
        f"        forces += on_zero({names})",
        "return forces"], {"sqrt": sqrt})


def _refused(node):
    """The first node of an expression tree, depth first, outside the force
    grammar, or None: int and float constants, names other than sqrt,
    sqrt(...) of one positional argument, binary + - * /, unary - and +
    and :=."""
    if isinstance(node, ast.Constant):
        return None if type(node.value) in (int, float) else node
    if isinstance(node, ast.Name):
        return None if node.id != "sqrt" else node
    if isinstance(node, ast.NamedExpr):
        return _refused(node.value)
    if isinstance(node, ast.UnaryOp) and isinstance(
            node.op, (ast.UAdd, ast.USub)):
        return _refused(node.operand)
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div)):
        return _refused(node.left) or _refused(node.right)
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "sqrt" and len(node.args) == 1
            and not node.keywords):
        return _refused(node.args[0])
    return node


@cache
def _check(expressions: tuple) -> None:
    """ValueError unless there are one to three expressions that the run
    and on_points can write in among their own names: each one expression,
    also in parentheses (a comment would cut off on_points' line), that
    reads only one-letter lowercase names and sqrt, assigns only
    one-letter lowercase names other than the coordinates, and is built
    from ``_refused``'s grammar alone.  The error names the first
    expression that is not and the name or construct it refuses."""
    if not 1 <= len(expressions) <= len(_COORDINATES):
        raise ValueError(f"a point force takes 1 to {len(_COORDINATES)} "
                         f"expressions, got {len(expressions)}")
    coordinates, letters = _COORDINATES[:len(expressions)], {*ascii_lowercase}
    readable, assignable = letters | {"sqrt"}, letters - {*coordinates}
    for expression in expressions:
        if not isinstance(expression, str):
            raise TypeError(f"force expression must be a string, got "
                            f"{expression!r}")
        try:
            ast.parse(expression, mode="eval")
            tree = ast.parse(f"({expression})", mode="eval")
        except SyntaxError:
            raise ValueError(f"force expression {expression!r} does not "
                             f"parse") from None
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.id not in (
                    readable if isinstance(node.ctx, ast.Load) else assignable):
                raise ValueError(
                    f"force expression {expression!r} uses {node.id!r}: it "
                    f"may read only one-letter names and sqrt, and assign "
                    f"only one-letter names other than "
                    f"{', '.join(coordinates)}")
        refused = _refused(tree.body)
        if refused is not None:
            raise ValueError(
                f"force expression {expression!r} uses "
                f"{ast.unparse(refused)!r}: it may use only int and float "
                f"constants, one-letter names, sqrt of one argument, "
                f"binary + - * /, unary - and +, and :=")


class _PointForce:
    """f(t, q) of a force at each point that does not read t.

    ``expressions`` are its d components at one point as source in
    one-letter names, the coordinates x, y, z and temporaries, numbers,
    + - * /, := and sqrt; ``_check`` rejects any other name or construct
    when the force is made.
    Points of the line (d = 1) are the entries of an array of any shape,
    other points the last axis.  ``on_points`` (compiled on first use)
    evaluates them on a flat coordinate list; ``integrate``'s run writes
    them out, and hands its stage list to ``on_points`` where one divides
    by zero.  A plain class: a dataclass would add about 0.6 ms to every
    import.
    """

    __slots__ = ("expressions", "on_zero")

    def __init__(self, expressions: tuple, on_zero: Callable | None = None):
        if not isinstance(expressions, tuple):  # a str reads as its letters
            raise TypeError(f"expressions must be a tuple of strings, got "
                            f"{expressions!r}")
        _check(expressions)
        self.expressions = expressions
        self.on_zero = on_zero

    on_points = property(lambda self: _points(self.expressions)(self.on_zero))

    def __call__(self, t, q) -> np.ndarray:
        q, d = _reals("q", q), len(self.expressions)
        if d > 1 and q.shape[-1:] != (d,):
            space = "the plane" if d == 2 else "space"
            raise ValueError(f"expected points of {space} (last axis of "
                             f"length {d}), got shape {q.shape}")
        return np.array(self.on_points(q.ravel().tolist())).reshape(q.shape)


def _kepler_on_zero(x, y):
    # r^2 sqrt(r^2) is 0 at the origin or where it underflows to -0.0, for
    # which x * -inf is numpy's x / -0.0: +-inf, or NaN for x = 0
    if x * x + y * y == 0.0:
        raise ValueError(_ORIGIN)
    return x * -inf, y * -inf


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
        name="kepler", f=_PointForce((
            "x / (d := -(r := x * x + y * y) * sqrt(r))", "y / d"),
            _kepler_on_zero),
        q0=np.array([1.0, 0.0]), qp0=np.array([0.0, 1.0]),
        hamiltonian=hamiltonian,
        invariants={"angmom": angular_momentum, "rlp": runge_lenz},
        exact=exact)


def henon_heiles() -> SecondOrderProblem:
    """Cubic stellar-motion potential; chaotic at the standard start state."""

    def hamiltonian(q, qp):
        q1, q2 = q[..., 0], q[..., 1]
        return (0.5 * _squared_norm(qp) + 0.5 * _squared_norm(q)
                + q1 * q1 * q2 - _cube(q2) / 3.0)

    return SecondOrderProblem(
        name="henon-heiles", f=_PointForce((
            "-x - 2.0 * x * y", "-y - x * x + y * y")),
        q0=np.array([0.1, -0.5]), qp0=np.array([0.0, 0.0]),
        hamiltonian=hamiltonian)


def harmonic() -> SecondOrderProblem:
    """Unit oscillator q'' = -q; clean closed form for order studies."""

    def hamiltonian(q, qp):
        return 0.5 * (_squared_norm(qp) + _squared_norm(q))

    def exact(t):
        return (np.array([np.cos(t)]), np.array([-np.sin(t)]))

    return SecondOrderProblem(
        name="harmonic", f=_PointForce(("-x",)),
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
