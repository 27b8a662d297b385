"""Acceptance suite: one test per criterion, one printed line each.

The long h = 0.1 runs over t in [0, 1000] are shared through session
fixtures, so the whole suite stays well under a minute.
"""

import numpy as np

import csrkn
from csrkn.cli import main

from conftest import (CAPTION_ORDERS, SYMMETRIC_METHODS,
                      reference_tableau_arrays)

METHODS = csrkn.BUILTIN_METHODS


def _report(label, detail):
    print(f"PASS {label}: {detail}")


def test_criterion_1_tableau_reproduction(tmp_path, tableaux):
    worst = 0.0
    for name in METHODS:
        out = tmp_path / f"{name}.txt"
        assert main(["derive", "--method", name, "--gamma", "0",
                     "--out", str(out)]) == 0
        parsed = csrkn.parse_tableau(out.read_text())
        ref = reference_tableau_arrays(name)
        for key in ("c", "a_bar", "b_bar", "b_prime"):
            err = float(np.max(np.abs(getattr(parsed, key) - ref[key])))
            assert err < 1e-12, (name, key, err)
            worst = max(worst, err)
    _report("criterion 1 (tableau reproduction)",
            f"all four reference tableaux matched, max error {worst:.2e}")


def test_criterion_2_alpha_reproduction(bases):
    from conftest import REFERENCE_ALPHA
    from csrkn.construction import method_spec

    worst = 0.0
    for name, reference in REFERENCE_ALPHA.items():
        spec = method_spec(name)
        alpha = csrkn.solve_alpha(bases[spec.family], spec)
        for key, value in reference.items():
            err = abs(alpha[key] - value)
            assert err < 1e-12, (name, key)
            worst = max(worst, err)
    _report("criterion 2 (coupling coefficients)",
            f"all published solutions matched, max error {worst:.2e}")


def test_criterion_3_condition_suite(tableaux, coefficient_sets):
    for name, tableau in tableaux.items():
        report = csrkn.check_discrete(tableau)
        assert report.predicted_order == CAPTION_ORDERS[name], name
        continuous = csrkn.check_continuous(coefficient_sets[name])
        deg_b, deg_a_tau, deg_a_sigma = coefficient_sets[name].degrees
        bound = csrkn.order_bound_with_quadrature(
            continuous.b_order, continuous.cn_order, continuous.dn_order,
            2 * tableau.s, deg_b, deg_a_tau, deg_a_sigma)
        assert bound == CAPTION_ORDERS[name], name
        assert csrkn.check_symplectic(tableau) < 1e-12, name
    for name in SYMMETRIC_METHODS:
        assert csrkn.check_symmetric(tableaux[name]) < 1e-12, name
    hermite3 = csrkn.check_discrete(tableaux["hermite3"])
    assert abs(hermite3.b_residuals[3] - 0.5) < 1e-12
    assert csrkn.check_symmetric(tableaux["hermite3"]) is None
    _report("criterion 3 (condition suite)",
            "orders (4, 4, 4, 3); symplectic < 1e-12; symmetry < 1e-12 "
            "for the three reversible methods; hermite3 weight residual 1/2")


def test_criterion_4_empirical_order(tableaux):
    kepler = csrkn.kepler()
    slopes = {}
    for name, tableau in tableaux.items():
        estimate = csrkn.empirical_order(tableau, kepler, 0.1, 5)
        target = CAPTION_ORDERS[name]
        assert abs(estimate.mean_slope - target) < 0.2, (name, estimate)
        slopes[name] = estimate.mean_slope
    _report("criterion 4 (empirical order)",
            ", ".join(f"{n} {s:.3f}" for n, s in slopes.items()))


def test_criterion_5_quadratic_invariant(kepler_long_runs):
    kepler = csrkn.kepler()
    drifts = {}
    for name, trajectory in kepler_long_runs.items():
        drift = csrkn.invariant_drift(trajectory,
                                      kepler.invariants["angmom"]).max()
        assert drift < 1e-11, (name, drift)
        drifts[name] = drift
    _report("criterion 5 (angular momentum)",
            ", ".join(f"{n} {d:.2e}" for n, d in drifts.items()))


def test_criterion_6_energy_boundedness(kepler_long_runs,
                                        henon_heiles_long_runs):
    ratios = []
    for problem, runs in ((csrkn.kepler(), kepler_long_runs),
                          (csrkn.henon_heiles(), henon_heiles_long_runs)):
        for name, trajectory in runs.items():
            drift = csrkn.invariant_drift(trajectory, problem.hamiltonian)
            early = drift[:101].max()
            assert early > 0.0
            ratio = drift.max() / early
            assert drift.max() <= 10.0 * early, (problem.name, name, ratio)
            ratios.append(ratio)
    _report("criterion 6 (no secular energy drift)",
            f"max late/early drift ratio {max(ratios):.2f} (bound 10)")


def test_criterion_7_symmetry_round_trip(tableaux):
    kepler = csrkn.kepler()

    def round_trip(tableau):
        q1, qp1 = csrkn.rkn_step(tableau, kepler, 0.0, kepler.q0,
                                 kepler.qp0, 0.1)
        q0, qp0 = csrkn.rkn_step(tableau, kepler, 0.1, q1, qp1, -0.1)
        return max(np.max(np.abs(q0 - kepler.q0)),
                   np.max(np.abs(qp0 - kepler.qp0)))

    residuals = {name: round_trip(tableaux[name]) for name in METHODS}
    for name in SYMMETRIC_METHODS:
        assert residuals[name] < 1e-12, (name, residuals[name])
    assert residuals["hermite3"] > 1e-7
    _report("criterion 7 (round trip)",
            ", ".join(f"{n} {r:.2e}" for n, r in residuals.items()))


def test_criterion_8_henon_heiles_confinement(henon_heiles_long_runs):
    boxes = {}
    for name, trajectory in henon_heiles_long_runs.items():
        box = float(np.max(np.abs(trajectory.q)))
        assert box <= 1.2, (name, box)
        boxes[name] = box
    _report("criterion 8 (orbit confinement)",
            ", ".join(f"{n} {b:.3f}" for n, b in boxes.items()))


def test_criterion_9_basis_and_quadrature_properties(bases):
    for family, basis in bases.items():
        for i in range(9):
            for j in range(9):
                value = csrkn.inner_product(basis, basis.poly(i),
                                            basis.poly(j))
                assert abs(value - (i == j)) < 1e-12, (family, i, j)
        for s in range(1, 7):
            rule = csrkn.gauss_rule(basis, s)
            assert csrkn.exactness_degree(rule, basis) == 2 * s - 1
            if family.symmetric_weight:
                assert np.max(np.abs(rule.nodes + rule.nodes[::-1] - 1)) < 1e-13
                assert np.max(np.abs(rule.weights - rule.weights[::-1])) < 1e-13
    _report("criterion 9 (basis and quadrature)",
            "orthonormality 1e-12; exactness 2s-1 for s <= 6; "
            "reflection symmetry of symmetric-weight rules")


def test_error_growth_envelope(kepler_long_runs):
    # loose linear-growth envelope: endpoint error at t = 1000 stays within
    # 2000x the error at t = 1
    kepler = csrkn.kepler()
    config = csrkn.SolverConfig()
    worst = 0.0
    for name, trajectory in kepler_long_runs.items():
        q_ref, qp_ref = kepler.exact(trajectory.times[-1])
        late = max(np.max(np.abs(trajectory.q[-1] - q_ref)),
                   np.max(np.abs(trajectory.qp[-1] - qp_ref)))
        short = csrkn.integrate(csrkn.builtin_tableau(name), kepler, 0.0,
                                kepler.q0, kepler.qp0, 0.1, 10, config)
        q1_ref, qp1_ref = kepler.exact(short.times[-1])
        early = max(np.max(np.abs(short.q[-1] - q1_ref)),
                    np.max(np.abs(short.qp[-1] - qp1_ref)))
        ratio = late / early
        assert ratio <= 2000.0, (name, ratio)
        worst = max(worst, ratio)
    _report("error growth envelope",
            f"max endpoint ratio err(1000)/err(1) = {worst:.0f} (bound 2000)")
