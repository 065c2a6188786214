"""Acceptance suite: one test per certified criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Every tolerance here is pinned; seeds and coupling strengths are fixed so
the runs sit in the truncation-dominated regime where drift scaling is
meaningful.  Expect a few minutes of wall time for the full module.
"""

import numpy as np
from itertools import combinations

from synclab import equilibria, reduce_kuramoto, reduce_sphere
from synclab import invariants as inv
from synclab.integrate import IntegratorSettings, Projection, integrate, integrate_batch
from synclab.state import (
    Flavor,
    make_phase_config,
    make_sphere_config,
    make_unitary_config,
    random_unitary,
)


def _report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def _rel_drift(values):
    v = np.asarray(values)
    return float(np.max(np.abs(v - v[0])) / max(abs(v[0]), 1e-8))


def test_criterion_01_functional_I_conserved_with_step_scaling():
    theta0 = np.random.default_rng(12345).uniform(0, 2 * np.pi, 6)

    def drift(dt):
        cfg = make_phase_config(theta0, 0.0, 16.0, 0.0, Flavor.COSINE)
        traj = integrate(cfg, IntegratorSettings(dt=dt, record_every=10), 5.0)
        return _rel_drift([inv.functional_I(s) for s in traj.states])

    d1, d2 = drift(1e-3), drift(5e-4)
    ratio = d1 / d2
    ok = d1 < 1e-6 and 12.0 <= ratio <= 20.0
    _report("criterion 1 (cyclic sine product conserved)", ok,
            f"rel drift {d1:.3e} at dt=1e-3, halving ratio {ratio:.1f}")


def test_criterion_02_functional_J_conserved_log_space():
    theta0 = np.random.default_rng(12345).uniform(0, 2 * np.pi, 6)
    worst = 0.0
    for alpha in (-0.4, 0.3, 1.2):
        cfg = make_phase_config(theta0, 0.0, 1.0, alpha, Flavor.COSINE)
        traj = integrate(cfg, IntegratorSettings(dt=1e-3, record_every=10), 5.0)
        logs = np.array([inv.functional_J_alpha_log(s, alpha)[1]
                         for s in traj.states])
        worst = max(worst, float(np.max(np.abs(np.expm1(logs - logs[0])))))
    _report("criterion 2 (frustrated invariant conserved)", worst < 1e-6,
            f"worst rel drift {worst:.3e} over alpha in {{-0.4, 0.3, 1.2}}")


def test_criterion_03_cross_ratios_conserved_including_endpoints():
    theta0 = np.random.default_rng(12345).uniform(0, 2 * np.pi, 6)
    worst = 0.0
    for alpha in (np.pi / 2, -np.pi / 2, 0.7):
        cfg = make_phase_config(theta0, 0.0, 1.0, alpha, Flavor.COSINE)
        traj = integrate(cfg, IntegratorSettings(dt=1e-3, record_every=10), 5.0)
        for quad in combinations(range(6), 4):
            worst = max(worst, _rel_drift(
                [inv.cross_ratio_K(s, *quad) for s in traj.states]))
    _report("criterion 3 (phase cross-ratios conserved incl alpha=+-pi/2)",
            worst < 1e-6, f"worst drift {worst:.3e} over 15 quadruples x 3 alphas")


def test_criterion_04_dichotomy():
    sync = reduce_kuramoto.dichotomy_check(
        np.linspace(0.0, 0.9, 6), 0.5, 1.0, 60.0,
        settings=IntegratorSettings(dt=1e-3, record_every=100))
    rng = np.random.default_rng(2024)
    inco = reduce_kuramoto.dichotomy_check(
        np.sort(rng.uniform(0, 2 * np.pi, 6)), -0.5, 1.0, 200.0,
        settings=IntegratorSettings(dt=1e-3, record_every=100))
    ok = (sync.verdict == "SyncR1" and sync.r_final > 0.999
          and sync.precondition_ok
          and inco.verdict == "IncoherenceR0" and inco.r_final < 1e-3
          and inco.precondition_ok and inco.total_phase_monotone)
    _report("criterion 4 (sync/incoherence dichotomy)", ok,
            f"R_sync(60) = {sync.r_final:.6f}, R_inco(200) = {inco.r_final:.2e}, "
            f"total phase monotone: {inco.total_phase_monotone}")


def test_criterion_05_kuramoto_reduction():
    settings = IntegratorSettings(dt=1e-3, record_every=10)
    worst_err = worst_f = worst_g = 0.0
    for n in (4, 6, 8):
        rng = np.random.default_rng(42 + n)
        theta0 = np.sort(rng.uniform(0.3, 5.9, n))
        for alpha in (0.0, 0.4, np.pi / 2):
            cfg = make_phase_config(theta0, 0.0, 1.0, alpha, Flavor.SINE)
            data = reduce_kuramoto.project_phase_config(cfg)
            full = integrate(cfg, settings, 3.0)
            red = reduce_kuramoto.integrate_fg(data, settings, 3.0)
            rep = reduce_kuramoto.reconstruct_and_compare(full, red)
            worst_err = max(worst_err, rep.max_error)
            env = np.exp(cfg.kappa * red.times)
            worst_f = max(worst_f, float(np.max(np.abs(red.f) / env)) - 1.0)
            worst_g = max(worst_g, float(np.max(
                (np.abs(red.g) - 1e-9) / np.maximum(env - 1.0, 1e-300))) - 1.0)
    ok = worst_err < 1e-5 and worst_f < 1e-6 and worst_g < 1e-6
    _report("criterion 5 (circle stereographic reduction)", ok,
            f"max recon err {worst_err:.3e}, bound excesses "
            f"f: {worst_f:.2e}, g: {worst_g:.2e}")


def _concyclic_six_points(dim):
    # four points on a non-great circle (consecutive order) plus two generic
    angles = np.array([0.2, 1.4, 2.9, 4.6])
    r, h = 0.8, 0.6
    pts = np.zeros((6, dim))
    pts[:4, 0] = r * np.cos(angles)
    pts[:4, 1] = r * np.sin(angles)
    pts[:4, 2] = h
    pts[4] = np.r_[0.3, -0.5, 0.1, np.zeros(dim - 3)]
    pts[5] = np.r_[-0.2, 0.25, -0.9, np.zeros(dim - 3)]
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def test_criterion_06_sphere_cross_ratio_and_ptolemy():
    worst_h = worst_p = 0.0
    rng = np.random.default_rng(31)
    for d in (2, 3):
        skews = [np.zeros((d + 1, d + 1)), rng.standard_normal((d + 1, d + 1))]
        for omega in skews:
            cfg = make_sphere_config(_concyclic_six_points(d + 1), omega,
                                     kappa=1.0)
            traj = integrate(cfg, IntegratorSettings(
                dt=1e-3, record_every=10, projection=Projection.NORMALIZE), 5.0)
            for quad in combinations(range(6), 4):
                worst_h = max(worst_h, _rel_drift(
                    [inv.sphere_cross_ratio_H(s, *quad) for s in traj.states]))
            worst_p = max(worst_p, max(
                abs(inv.ptolemy_residual(s, 0, 1, 2, 3)) for s in traj.states))
    ok = worst_h < 1e-6 and worst_p < 1e-6
    _report("criterion 6 (chord cross-ratios conserved, circles invariant)",
            ok, f"worst H drift {worst_h:.3e}, worst Ptolemy residual {worst_p:.3e}")


def test_criterion_07_monotone_functionals():
    rng = np.random.default_rng(55)
    x0 = rng.standard_normal((6, 3))
    results = []
    for kappa in (1.0, -1.0):
        cfg = make_sphere_config(x0, None, kappa=kappa)
        traj = integrate(cfg, IntegratorSettings(
            dt=1e-3, record_every=10, projection=Projection.NORMALIZE), 5.0)
        dm = np.array([inv.sphere_squared_diameter(s) for s in traj.states])
        diffs = np.diff(dm)
        ok = np.all(diffs <= 1e-9) if kappa > 0 else np.all(diffs >= -1e-9)
        results.append(bool(ok))
    # operator-normalized frustration: rho^2 non-decreasing
    w = rng.standard_normal((3, 3))
    w = (w - w.T) / 2
    w *= 0.5 / np.linalg.norm(w, 2)
    scale = np.sqrt(1.0 + 0.25)          # ||I + W||_op for skew W
    cfg = make_sphere_config(x0, None, kappa=1.0, a=1.0 / scale, w=w / scale)
    traj = integrate(cfg, IntegratorSettings(
        dt=1e-3, record_every=10, projection=Projection.NORMALIZE), 5.0)
    rho2 = np.array([inv.sphere_order_parameter(s) ** 2 for s in traj.states])
    results.append(bool(np.all(np.diff(rho2) >= -1e-9)))
    _report("criterion 7 (diameter and order parameter monotone)",
            all(results),
            f"D_M dec (k=+1): {results[0]}, D_M inc (k=-1): {results[1]}, "
            f"rho^2 non-decreasing: {results[2]}")


def test_criterion_08_sphere_reduction_chain():
    rng = np.random.default_rng(17)
    x0 = rng.standard_normal((5, 3))
    cfg = make_sphere_config(x0, None, kappa=1.0)
    rep = reduce_sphere.reduction_chain_report(
        cfg, IntegratorSettings(dt=1e-3, record_every=30), 3.0)
    ok = (rep.three_way_max < 1e-4 and rep.m_orthogonality < 1e-8
          and rep.a_min > 0.0 and rep.inner_product_law_residual < 1e-5)
    _report("criterion 8 (sphere reduction chain)",
            ok, f"three-way {rep.three_way_max:.3e}, M orth "
                f"{rep.m_orthogonality:.3e}, a_min {rep.a_min:.3f}, "
                f"inner-product law {rep.inner_product_law_residual:.3e}")


def test_criterion_09_sphere_aggregation_with_rate():
    psi = np.pi / 6           # two extremal points 60 degrees apart: gap 0.5
    pts = np.array([
        [np.sin(psi), 0.0, np.cos(psi)],
        [-np.sin(psi), 0.0, np.cos(psi)],
        [0.0, 0.3, 1.0],
        [0.1, -0.2, 1.0],
        [0.05, 0.12, 1.0],
        [-0.08, 0.03, 1.0],
    ])
    rng = np.random.default_rng(5)
    w = rng.standard_normal((3, 3))
    w = (w - w.T) / 2
    w *= 0.1 / np.linalg.norm(w, 2)
    cfg = make_sphere_config(pts, None, kappa=1.0, a=1.0, w=w)
    res = reduce_sphere.sphere_aggregation_check(
        cfg, 30.0, IntegratorSettings(dt=1e-3, record_every=25))
    ok = (res.hypothesis_ok and res.verdict == "Aggregated"
          and res.final_max_distance < 1e-4 and res.rate_consistent)
    _report("criterion 9 (sphere aggregation with rate check)", ok,
            f"max dist {res.final_max_distance:.2e}, rate {res.fitted_rate:.2f} "
            f">= 0.5 x {res.predicted_rate:.2f}")


def test_criterion_10_skew_frustration_conservation():
    rng = np.random.default_rng(99)
    w3 = rng.standard_normal((3, 3))
    settings = IntegratorSettings(dt=1e-3, record_every=20,
                                  projection=Projection.NORMALIZE)

    cfg5 = make_sphere_config(rng.standard_normal((5, 3)), None, kappa=1.0,
                              a=0.0, w=w3)
    traj5 = integrate(cfg5, settings, 20.0)
    prod_drift = _rel_drift([inv.skew_frustration_product(s)
                             for s in traj5.states])
    min_dist5 = min(inv.min_pairwise_distance(s) for s in traj5.states)

    cfg2 = make_sphere_config(rng.standard_normal((2, 3)), None, kappa=1.0,
                              a=0.0, w=w3)
    traj2 = integrate(cfg2, settings, 20.0)
    inner_drift = _rel_drift([float(s[0] @ s[1]) for s in traj2.states])
    min_dist2 = min(inv.min_pairwise_distance(s) for s in traj2.states)

    ok = (prod_drift < 1e-6 and inner_drift < 1e-6
          and min(min_dist5, min_dist2) > 1e-3)
    _report("criterion 10 (skew-frustration conservation)", ok,
            f"product drift {prod_drift:.3e}, inner drift {inner_drift:.3e}, "
            f"min pair distance {min(min_dist5, min_dist2):.3f}")


def test_criterion_11_matrix_aggregation():
    settings = IntegratorSettings(dt=1e-3, record_every=1)
    rng = np.random.default_rng(8)
    u0 = equilibria.spread_unitary_family(rng, 5, 2, 1.2)
    plain = equilibria.matrix_aggregation_check(
        make_unitary_config(u0, kappa=1.0), 40.0, settings)

    phi = 2.0 * np.arcsin(np.sqrt(0.09 / 8.0))   # ||V - I||_F = 0.3 exactly
    v = np.diag([np.exp(1j * phi), np.exp(-1j * phi)])
    u0f = equilibria.spread_unitary_family(np.random.default_rng(9), 5, 2, 1.0)
    frustrated = equilibria.matrix_aggregation_check(
        make_unitary_config(u0f, kappa=1.0, v=v), 40.0, settings)

    ok = (plain.hypothesis_ok and plain.verdict == "Aggregated"
          and plain.final_diameter < 1e-4 and plain.riccati_ok
          and frustrated.hypothesis_ok and frustrated.verdict == "Aggregated")
    _report("criterion 11 (matrix aggregation)", ok,
            f"D(40) = {plain.final_diameter:.2e}, riccati excess "
            f"{plain.max_riccati_excess:.2e} <= 1e-3, frustrated run "
            f"D(40) = {frustrated.final_diameter:.2e}")


def test_criterion_12_matrix_cross_ratio_spectra():
    u0 = equilibria.spread_unitary_family(np.random.default_rng(8), 5, 2, 1.2)
    cfg = make_unitary_config(u0, kappa=1.0)
    traj = integrate(cfg, IntegratorSettings(dt=1e-3, record_every=10,
                                             projection=Projection.POLAR), 3.0)
    worst = 0.0
    for quad in combinations(range(5), 4):
        base = inv.matrix_cross_ratio_spectrum(traj.states[0], *quad)
        for s in traj.states:
            spec = inv.matrix_cross_ratio_spectrum(s, *quad)
            worst = max(worst, inv.spectrum_matching_distance(base, spec))
    _report("criterion 12 (matrix cross-ratio spectra conserved)",
            worst < 1e-5, f"worst eigenvalue drift {worst:.3e}")


def test_criterion_13_group_representation_equilibria():
    rng = np.random.default_rng(13)
    settings = IntegratorSettings(dt=1e-3, record_every=10 ** 9,
                                  projection=Projection.POLAR)
    worst_res = 0.0
    worst_move = 0.0
    worst_diam = 0.0
    for n in (3, 4, 5):
        cfg = make_unitary_config(equilibria.cyclic_rep(n).matrices, kappa=1.0)
        _, res = equilibria.is_equilibrium(cfg)
        worst_res = max(worst_res, res)
        traj = integrate(cfg, settings, 10.0)
        worst_move = max(worst_move, float(np.max(
            np.linalg.norm(traj.final_state - cfg.u, axis=(1, 2)))))
    for n in (3, 4):
        rep = equilibria.symmetric_standard_rep(n)
        cfg = make_unitary_config(rep.matrices, kappa=1.0,
                                  v=random_unitary(rng, n - 1))
        _, res = equilibria.is_equilibrium(cfg)
        worst_res = max(worst_res, res)
        worst_diam = max(worst_diam, abs(
            inv.matrix_diameter(rep.matrices) - np.sqrt(2 * n)))
        traj = integrate(cfg, settings, 10.0)
        worst_move = max(worst_move, float(np.max(
            np.linalg.norm(traj.final_state - cfg.u, axis=(1, 2)))))
    ok = worst_res < 1e-10 and worst_diam < 1e-10 and worst_move < 1e-6
    _report("criterion 13 (group-representation equilibria)", ok,
            f"max residual {worst_res:.2e}, diameter error {worst_diam:.2e}, "
            f"max drift over T=10: {worst_move:.2e}")


def test_criterion_14_pole_count_constraint():
    settings = IntegratorSettings(dt=1e-3, record_every=10 ** 9,
                                  projection=Projection.NORMALIZE)
    runs = []
    for run in range(20):
        rng = np.random.default_rng(1000 + run)
        x0 = rng.standard_normal((8, 3))
        omega = rng.standard_normal((3, 3)) if run % 2 == 0 else None
        runs.append((make_sphere_config(x0, omega, kappa=1.0), settings, 50.0, None))
    # the 20 members advance as one batch, each equal to its single run
    worst_minority = 0
    for _, _, xf in integrate_batch(runs):
        pole = xf.mean(axis=0)
        pole /= np.linalg.norm(pole)
        north = int(np.sum(xf @ pole > 0.0))
        worst_minority = max(worst_minority, min(north, 8 - north))
    _report("criterion 14 (pole-count constraint)", worst_minority <= 1,
            f"worst minority-pole count over 20 seeded runs: {worst_minority}")
