"""Shared fixtures: closed-form tableau entries and cached long runs."""

import math

import numpy as np
import pytest

import csrkn

S3 = math.sqrt(3.0)
S5 = math.sqrt(5.0)
S6 = math.sqrt(6.0)
PI = math.pi

# Closed-form reference tableaux of the four built-in methods at gamma = 0.
# Entries were derived by hand from the construction and cross-checked
# against the discrete stage conditions (each coupling row must sum to
# c_i^2 / 2) and the adjoint identity, so every entry is pinned three ways.
REFERENCE_TABLEAUX = {
    "legendre4": {
        "c": [(3 - S3) / 6, (3 + S3) / 6],
        "a_bar": [[1 / 12, (1 - S3) / 12],
                  [(1 + S3) / 12, 1 / 12]],
        "b_bar": [(3 + S3) / 12, (3 - S3) / 12],
        "b_prime": [0.5, 0.5],
    },
    "chebyshev4": {
        "c": [(2 - S3) / 4, 0.5, (2 + S3) / 4],
        "a_bar": [[13 / 216, (85 - 60 * S3) / 864, (13 - 12 * S3) / 216],
                  [(17 + 12 * S3) / 432, 5 / 108, (17 - 12 * S3) / 432],
                  [(13 + 12 * S3) / 216, (85 + 60 * S3) / 864, 13 / 216]],
        "b_bar": [(2 + S3) / 18, 5 / 18, (2 - S3) / 18],
        "b_prime": [2 / 9, 5 / 9, 2 / 9],
    },
    "hermite4": {
        "c": [(2 - S6) / 4, 0.5, (2 + S6) / 4],
        "a_bar": [[11 / 216, (91 - 42 * S6) / 432, (11 - 6 * S6) / 216],
                  [(13 + 6 * S6) / 432, 7 / 108, (13 - 6 * S6) / 432],
                  [(11 + 6 * S6) / 216, (91 + 42 * S6) / 432, 11 / 216]],
        "b_bar": [(2 + S6) / 36, 7 / 18, (2 - S6) / 36],
        "b_prime": [1 / 9, 7 / 9, 1 / 9],
    },
    "hermite3": {
        "c": [-S6 / 2, 0.0, S6 / 2],
        "a_bar": [[(4 - 3 * S6) / 432, (70 - 21 * S6) / 108, (40 + 87 * S6) / 432],
                  [(-7 - 9 * S6) / 216, 7 / 108, (-7 + 9 * S6) / 216],
                  [(40 - 87 * S6) / 432, (70 + 21 * S6) / 108, (4 + 3 * S6) / 432]],
        "b_bar": [(-5 - S6) / 36, 7 / 9, (-5 + S6) / 36],
        "b_prime": [(4 - 3 * S6) / 36, 7 / 9, (4 + 3 * S6) / 36],
    },
}

# Published coupling-coefficient solutions of the four constructions.
REFERENCE_ALPHA = {
    "legendre4": {(0, 0): 1 / 6, (0, 1): -S3 / 12, (0, 2): S5 / 60},
    "chebyshev4": {(0, 0): 5 / 24, (0, 1): -math.sqrt(PI) / 8,
                   (0, 2): math.sqrt(2.0) * PI / 64},
    "hermite4": {(0, 0): 5 / 24, (0, 1): -PI ** 0.25 / 8,
                 (0, 2): math.sqrt(2.0 * PI) / 32},
    "hermite3": {(0, 0): 7 / 12, (0, 1): -math.sqrt(2.0) * PI ** 0.25 / 4,
                 (1, 1): -math.sqrt(PI) / 2, (0, 2): math.sqrt(2.0 * PI) / 4},
}

CAPTION_ORDERS = {"legendre4": 4, "chebyshev4": 4, "hermite4": 4, "hermite3": 3}
SYMMETRIC_METHODS = ("legendre4", "chebyshev4", "hermite4")


def reference_tableau_arrays(name):
    ref = REFERENCE_TABLEAUX[name]
    return {key: np.array(value, dtype=float) for key, value in ref.items()}


@pytest.fixture(scope="session")
def bases():
    return {family: csrkn.make_basis(family, 8) for family in csrkn.Family}


@pytest.fixture(scope="session")
def tableaux():
    return {name: csrkn.builtin_tableau(name) for name in csrkn.BUILTIN_METHODS}


@pytest.fixture(scope="session")
def coefficient_sets():
    return {name: csrkn.builtin_coefficients(name)
            for name in csrkn.BUILTIN_METHODS}


def _long_runs(problem):
    config = csrkn.SolverConfig()
    return {name: csrkn.integrate(csrkn.builtin_tableau(name), problem, 0.0,
                                  problem.q0, problem.qp0, 0.1, 10_000,
                                  config)
            for name in csrkn.BUILTIN_METHODS}


@pytest.fixture(scope="session")
def kepler_long_runs():
    """h = 0.1 over t in [0, 1000] for every built-in method."""
    return _long_runs(csrkn.kepler())


@pytest.fixture(scope="session")
def henon_heiles_long_runs():
    return _long_runs(csrkn.henon_heiles())
