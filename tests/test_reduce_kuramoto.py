import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synclab import reduce_kuramoto as rk
from synclab.errors import CoincidentPhase
from synclab.integrate import IntegratorSettings, integrate
from synclab.invariants import drift, make_observable
from synclab.state import Flavor, make_phase_config, random_phase_config


def test_projection_closed_forms():
    x = rk.project_phases(np.array([np.pi / 2, np.pi, np.pi / 3]), 0.0)
    np.testing.assert_allclose(x, [1.0, 0.0, np.sqrt(3)], rtol=1e-6, atol=1e-12)


def test_projection_rejects_coincident_phase():
    with pytest.raises(CoincidentPhase):
        rk.project_phases(2 * np.pi, 0.0)


@settings(max_examples=60, deadline=None)
@given(st.floats(1e-6, 2 * np.pi - 1e-6))
def test_projection_is_half_angle_cotangent(beta):
    assert float(rk.project_phases(beta, 0.0)) == pytest.approx(
        1.0 / np.tan(beta / 2.0), rel=1e-9, abs=1e-9)


def _oracle_chart(theta_j, theta_n):
    # the scalar chart the array form replaced, kept as the oracle
    beta = theta_j - theta_n
    if abs(float(np.mod(beta + np.pi, 2.0 * np.pi) - np.pi)) < rk.COINCIDENCE_TOL:
        raise CoincidentPhase(f"phase difference {beta!r} is a projection pole")
    c, s = np.cos(beta), np.sin(beta)
    if abs(1.0 - c) > abs(s):
        return float(s / (1.0 - c))
    return float((1.0 + c) / s)


def test_array_chart_matches_scalar_formula_bit_for_bit():
    rng = np.random.default_rng(3)
    ref = rng.uniform(-10.0, 10.0, 40)
    # random phases, and phases next to the branch switch at +-pi/2 and at pi
    edges = np.array([np.pi / 2, -np.pi / 2, np.pi, -np.pi, 3 * np.pi / 2])
    theta = np.concatenate([rng.uniform(-20.0, 20.0, (40, 200)),
                            ref[:, None] + edges + rng.uniform(-1e-9, 1e-9, (40, 5)),
                            ref[:, None] + np.nextafter(edges, 0.0)], axis=1)
    got = rk.project_phases(theta, ref[:, None])
    want = np.array([[_oracle_chart(t, r) for t in row] for row, r in zip(theta, ref)])
    assert np.array_equal(got, want)
    assert all(rk.project_phases(t, ref[0]) == w for t, w in zip(theta[0], want[0]))
    cfg = make_phase_config(np.append(theta[0], ref[0]))
    assert np.array_equal(rk.project_phase_config(cfg).x0, want[0])


def test_array_chart_rejects_any_coincident_phase():
    with pytest.raises(CoincidentPhase):
        rk.project_phases(np.array([[0.5, 1.0], [2.0, 0.3 + 4 * np.pi]]),
                          np.array([[0.1], [0.3]]))


def test_ab_all_coincident_empty_sum():
    a, b = rk.ab_coefficients(np.array([]), m=4, kappa=1.0, alpha=0.0)
    assert a == pytest.approx(0.0)
    assert b == pytest.approx(1.0)


def test_ab_half_pi_single_projected_zero():
    n = 5
    a, b = rk.ab_coefficients(np.array([0.0]), m=n - 1, kappa=1.0,
                              alpha=np.pi / 2)
    assert a == pytest.approx((n - 2) / n)
    assert b == pytest.approx(0.0)


def test_ab_bounds_random_instances():
    rng = np.random.default_rng(0)
    for _ in range(200):
        x = rng.standard_normal(rng.integers(0, 8)) * rng.uniform(0.1, 20)
        n = x.size + int(rng.integers(1, 4))
        kappa = rng.uniform(0.1, 5.0)
        alpha = rng.uniform(-np.pi, np.pi)
        a, b = rk.ab_coefficients(x, n - x.size, kappa, alpha)
        assert abs(a) <= kappa + 1e-12
        assert abs(b) <= kappa + 1e-12


def test_ab_matches_projected_flow_derivative():
    # d/dt of the projected points equals A + B x along the sine flow
    from synclab.dynamics import make_rhs
    rng = np.random.default_rng(1)
    theta = np.sort(rng.uniform(0.2, 6.0, 6))
    kappa, alpha = 1.3, 0.4
    cfg = make_phase_config(theta, 0.0, kappa, alpha)
    x = rk.project_phases(theta[:-1], theta[-1])
    d = make_rhs(cfg)(cfg.theta)
    eps = 1e-7
    xp, xm = (rk.project_phases(t[:-1], t[-1]) for t in (theta + eps * d, theta - eps * d))
    numeric = (xp - xm) / (2 * eps)
    a, b = rk.ab_coefficients(x, 1, kappa, alpha)
    np.testing.assert_allclose(numeric, a + b * x, rtol=1e-5, atol=1e-6)


def test_projection_bookkeeping_with_multiplicity():
    theta = np.array([1.0, 0.5, 0.5 + 2 * np.pi, 2.2, 0.5])
    cfg = make_phase_config(theta, 0.0, 1.0, 0.0)
    data = rk.project_phase_config(cfg)
    assert data.m == 3  # indices 1 and 2 coincide with the reference 0.5
    assert data.x0.size == 2
    assert list(data.perm) == [0, 3, 1, 2, 4]


@pytest.mark.parametrize("alpha, flavor", [(0.4, Flavor.SINE), (1.1, Flavor.COSINE)])
def test_co_integrate_with_oscillators_coincident_with_the_reference(alpha, flavor):
    # oscillators 1 and 2 coincide with the reference; the full flow runs in
    # the caller's order, which is the order reconstruction reads it in
    theta = np.array([1.0, 0.5, 0.5 + 2 * np.pi, 2.2, 0.5])
    cfg = make_phase_config(theta, 0.0, 1.0, alpha, flavor)
    report = rk.co_integrate(cfg, IntegratorSettings(dt=1e-3, record_every=10), 3.0)
    assert report.max_error < 1e-10
    assert report.affine_identity_residual < 1e-10


def test_project_rejects_heterogeneous_frequencies():
    cfg = make_phase_config([0.1, 1.0, 2.0], nu=[0.0, 0.1, 0.0])
    with pytest.raises(ValueError):
        rk.project_phase_config(cfg)


def test_fg_frozen_for_zero_coupling():
    cfg = make_phase_config([0.3, 1.0, 2.5], kappa=0.0)
    data = rk.project_phase_config(cfg)
    red = rk.integrate_fg(data, IntegratorSettings(dt=1e-2), 2.0)
    np.testing.assert_allclose(red.f, 1.0, atol=1e-14)
    np.testing.assert_allclose(red.g, 0.0, atol=1e-14)


@pytest.mark.parametrize("alpha", [0.0, 0.7, 1.2])
def test_fg_constant_coefficient_oracle(alpha):
    # all oscillators coincident: the linear ODE solves in closed form
    kappa, t_final = 1.4, 2.0
    cfg = make_phase_config(np.full(4, 0.8), 0.0, kappa, alpha)
    data = rk.project_phase_config(cfg)
    assert data.m == 4 and data.x0.size == 0
    red = rk.integrate_fg(data, IntegratorSettings(dt=1e-3, record_every=100),
                          t_final)
    f_exact = np.exp(kappa * np.cos(alpha) * red.times)
    g_exact = np.tan(alpha) * (f_exact - 1.0)
    np.testing.assert_allclose(red.f, f_exact, rtol=1e-10)
    np.testing.assert_allclose(red.g, g_exact, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("alpha", [0.0, 0.3, np.pi / 2])
def test_reconstruction_error_small(alpha):
    rng = np.random.default_rng(42)
    theta0 = np.sort(rng.uniform(0.3, 5.9, 5))
    cfg = make_phase_config(theta0, 0.0, 1.0, alpha)
    report = rk.co_integrate(cfg, IntegratorSettings(dt=1e-3, record_every=10), 3.0)
    assert report.max_error < 1e-5
    assert report.affine_identity_residual < 1e-6


def test_reconstruction_zero_horizon():
    cfg = make_phase_config([0.3, 1.0, 2.5], kappa=1.0)
    report = rk.co_integrate(cfg, IntegratorSettings(dt=1e-3), 0.0)
    assert report.max_error < 1e-14


def test_reconstruct_rejects_mismatched_grids():
    cfg = make_phase_config([0.3, 1.0, 2.5], kappa=1.0)
    data = rk.project_phase_config(cfg)
    full = integrate(cfg, IntegratorSettings(dt=1e-2), 1.0)
    red = rk.integrate_fg(data, IntegratorSettings(dt=1e-2), 0.5)
    with pytest.raises(ValueError):
        rk.reconstruct_and_compare(full, red)


def _oracle_affine_identity_residual(full, reduced):
    # the (N-1)^4 formulation reconstruct_and_compare replaced, kept as the oracle
    data = reduced.data
    lead = data.perm[: data.x0.size]
    x0 = data.x0
    diffs0 = x0[:, None] - x0[None, :]
    worst = 0.0
    for theta in full.states:
        xt = rk.project_phases(theta[lead], theta[-1])
        if xt.size >= 2:
            diffs_t = xt[:, None] - xt[None, :]
            lhs = diffs_t[:, :, None, None] * diffs0[None, None, :, :]
            rhs = diffs0[:, :, None, None] * diffs_t[None, None, :, :]
            scale = max(1.0, float(np.max(np.abs(lhs))))
            worst = max(worst, float(np.max(np.abs(lhs - rhs))) / scale)
    return worst


def _full_and_reduced(n, seed, t_final):
    cfg = random_phase_config(np.random.default_rng(seed), n, kappa=1.0, alpha=0.4)
    data = rk.project_phase_config(cfg)
    full_cfg = make_phase_config(cfg.theta[data.perm], cfg.nu[data.perm],
                                 cfg.kappa, data.alpha, Flavor.SINE)
    settings = IntegratorSettings(dt=1e-2, record_every=10)
    return (integrate(full_cfg, settings, t_final),
            rk.integrate_fg(data, settings, t_final))


@pytest.mark.parametrize("n", [2, 5, 30])
def test_affine_identity_residual_matches_four_index_formula(n):
    for seed in range(3):
        full, red = _full_and_reduced(n, seed, 1.0)
        got = rk.reconstruct_and_compare(full, red).affine_identity_residual
        assert abs(got - _oracle_affine_identity_residual(full, red)) <= 1e-15


def _oracle_max_error(full, reduced):
    # the per-record reconstruction loop, kept as the oracle
    lead = reduced.data.perm[: reduced.data.x0.size]
    worst = 0.0
    for idx, theta in enumerate(full.states):
        xt = np.array([_oracle_chart(theta[j], theta[-1]) for j in lead])
        recon = reduced.g[idx] + reduced.f[idx] * reduced.data.x0
        worst = max(worst, float(np.max(np.abs(recon - xt))) if xt.size else 0.0)
    return worst


@pytest.mark.parametrize("n", [2, 5, 30])
def test_reconstruction_error_matches_per_record_loop(n):
    for seed in range(3):
        full, red = _full_and_reduced(n, seed, 1.0)
        got = rk.reconstruct_and_compare(full, red).max_error
        assert got == _oracle_max_error(full, red)


def test_reconstruct_and_compare_at_n100():
    # the four-index formulation needed 0.77 GB per array here
    full, red = _full_and_reduced(100, 0, 0.2)
    report = rk.reconstruct_and_compare(full, red)
    assert np.isfinite(report.max_error)
    assert 0.0 <= report.affine_identity_residual < 1e-10


def test_appendix_bounds_hold_on_random_runs():
    rng = np.random.default_rng(7)
    for _ in range(3):
        theta0 = np.sort(rng.uniform(0.2, 6.0, 6))
        kappa = rng.uniform(0.5, 1.5)
        cfg = make_phase_config(theta0, 0.0, kappa, 0.4)
        data = rk.project_phase_config(cfg)
        red = rk.integrate_fg(data, IntegratorSettings(dt=1e-3, record_every=50),
                              3.0)
        env = np.exp(kappa * red.times)
        assert np.all(np.abs(red.f) <= env * (1 + 1e-6))
        assert np.all(np.abs(red.g) <= (env - 1.0) * (1 + 1e-6) + 1e-9)
        assert np.all(red.f > 0)


def test_dichotomy_single_oscillator_syncs_immediately():
    res = rk.dichotomy_check(np.array([0.4]), 0.5, 1.0, 1.0)
    assert res.verdict == "SyncR1"
    assert res.r_final == pytest.approx(1.0)


def test_dichotomy_precondition_reporting():
    # spread 3.0 exceeds 2*alpha = 1.0: flagged but still classified
    res = rk.dichotomy_check(np.array([0.0, 3.0]), 0.5, 1.0, 1.0,
                             settings=IntegratorSettings(dt=1e-2))
    assert not res.precondition_ok
    assert res.verdict in ("SyncR1", "IncoherenceR0", "Inconclusive")


def test_as_sine_alpha_conversion():
    sine_cfg = make_phase_config([0.0], alpha=0.7, flavor=Flavor.SINE)
    cos_cfg = make_phase_config([0.0], alpha=0.7, flavor=Flavor.COSINE)
    assert rk.as_sine_alpha(sine_cfg) == 0.7
    assert rk.as_sine_alpha(cos_cfg) == pytest.approx(np.pi / 2 - 0.7)


def test_dichotomy_refuses_a_run_of_one_record():
    # one record has no monotonicity to judge; the check used to report
    # total_phase_monotone=True from it
    with pytest.raises(ValueError, match="at least two records"):
        rk.dichotomy_check(np.linspace(0.0, 0.9, 6), 0.5, 1.0, 0.0)


def test_total_phase_monotone_judgment_equals_the_diff_test():
    # dichotomy_check judges the total phase through drift(); on two or more
    # records that equals the direct test np.all(np.diff(sums) >= -1e-9)
    ob = make_observable("total_phase", make_phase_config([0.0, 1.0]))
    rng = np.random.default_rng(2)
    for _ in range(200):
        sums = np.cumsum(rng.choice([1e-8, 0.0, -5e-10, -1e-9, -2e-9],
                                    size=rng.integers(2, 8)))
        assert drift(ob, sums, 1e-9).verdict == bool(np.all(np.diff(sums) >= -1e-9))
