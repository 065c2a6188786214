import numpy as np
import pytest

from synclab.errors import IntegrationError
from synclab.integrate import (
    IntegratorSettings,
    Projection,
    Scheme,
    _integrate_array,
    convergence_order,
    default_settings,
    integrate,
    polar_factor,
)
from synclab.state import (
    make_phase_config,
    make_sphere_config,
    random_sphere_config,
    random_unitary_config,
    validate,
)


def test_settings_validation():
    with pytest.raises(ValueError):
        IntegratorSettings(dt=0.0)
    with pytest.raises(ValueError):
        IntegratorSettings(rtol=0.5)
    with pytest.raises(ValueError):
        IntegratorSettings(record_every=0)


def test_zero_horizon_returns_initial_state_only():
    cfg = make_phase_config([0.1, 0.2])
    traj = integrate(cfg, IntegratorSettings(), 0.0)
    assert len(traj) == 1
    np.testing.assert_array_equal(traj.states[0], cfg.theta)


def test_two_oscillator_tanh_law_oracle():
    # Delta' = -kappa sin Delta, so tan(Delta/2) decays exactly exponentially
    kappa, delta0, t_final = 1.0, 0.1, 10.0
    cfg = make_phase_config([0.0, delta0], kappa=kappa)
    traj = integrate(cfg, IntegratorSettings(dt=1e-3, record_every=100), t_final)
    deltas = traj.states[:, 1] - traj.states[:, 0]
    oracle = 2.0 * np.arctan(np.tan(delta0 / 2.0) * np.exp(-kappa * traj.times))
    np.testing.assert_allclose(deltas, oracle, atol=1e-9)
    assert np.all(np.diff(np.abs(deltas)) <= 1e-15)
    assert abs(deltas[-1]) < 1e-3


def test_sphere_projection_keeps_unit_norm():
    rng = np.random.default_rng(5)
    cfg = random_sphere_config(rng, 3, 2)
    traj = integrate(cfg, default_settings(cfg, record_every=50), 2.0)
    for s in traj.states:
        np.testing.assert_allclose(np.linalg.norm(s, axis=1), 1.0, atol=1e-10)
        assert validate(cfg.with_state(s)) == []


def test_polar_projection_keeps_unitarity():
    rng = np.random.default_rng(6)
    cfg = random_unitary_config(rng, 3, 2, h_scale=0.5)
    traj = integrate(cfg, default_settings(cfg, record_every=50), 2.0)
    for s in traj.states:
        assert validate(cfg.with_state(s)) == []


def test_manifold_drift_scales_as_dt4_without_projection():
    rng = np.random.default_rng(7)
    cfg = random_sphere_config(rng, 4, 2)

    def drift(dt):
        traj = integrate(cfg, IntegratorSettings(dt=dt, record_every=1000), 2.0)
        return max(np.max(np.abs(np.linalg.norm(s, axis=1) - 1.0))
                   for s in traj.states)

    d1, d2 = drift(2e-3), drift(1e-3)
    assert 10.0 < d1 / d2 < 24.0


def test_deterministic_trajectories():
    rng = np.random.default_rng(8)
    cfg = random_sphere_config(rng, 4, 2)
    s = default_settings(cfg, dt=1e-2)
    t1 = integrate(cfg, s, 1.0)
    t2 = integrate(cfg, s, 1.0)
    assert np.array_equal(t1.states, t2.states)
    assert np.array_equal(t1.times, t2.times)


def test_projection_mode_must_match_model():
    cfg = make_phase_config([0.0, 1.0])
    with pytest.raises(ValueError):
        integrate(cfg, IntegratorSettings(projection=Projection.NORMALIZE), 1.0)


def test_nonfinite_state_detected():
    # kappa scaled to overflow quickly through the exponential-free flow is
    # hard to trigger; inject through an absurd dt on a stiff sphere flow
    cfg = make_sphere_config(np.eye(3), kappa=1e8)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(IntegrationError):
            integrate(cfg, IntegratorSettings(dt=1e3, record_every=1), 2e3)


def test_dopri5_nan_error_estimate_ends_the_run():
    # y' = y turns NaN once |y| > 1.5 (at t = ln 1.5): every later error
    # estimate is NaN, which must shrink the step until it underflows
    max_calls = 20_000
    calls = 0

    def rhs(y):
        nonlocal calls
        calls += 1
        if calls > max_calls:
            pytest.fail(f"DOPRI5 still looping after {max_calls} rhs calls")
        return np.where(abs(y) > 1.5, np.nan, y)

    settings = IntegratorSettings(scheme=Scheme.DOPRI5, dt=0.5)
    with pytest.raises(IntegrationError):
        _integrate_array(rhs, np.array([1.0]), settings, 2.0)


def test_dopri5_matches_rk4_on_smooth_flow():
    rng = np.random.default_rng(9)
    cfg = random_sphere_config(rng, 4, 2)
    t_rk = integrate(cfg, IntegratorSettings(dt=1e-4, record_every=10 ** 9), 2.0)
    t_dp = integrate(cfg, IntegratorSettings(scheme=Scheme.DOPRI5, dt=1e-2,
                                             rtol=1e-10, atol=1e-12,
                                             record_every=10 ** 9), 2.0)
    assert abs(t_dp.times[-1] - 2.0) < 1e-12
    np.testing.assert_allclose(t_dp.final_state, t_rk.final_state, atol=1e-8)


def test_convergence_order_exact_on_linear_system():
    cfg = make_phase_config([0.0, 1.0], nu=[0.5, -0.25], kappa=0.0)
    est = convergence_order(cfg, Scheme.RK4)
    assert est.exact


def test_convergence_order_rk4():
    rng = np.random.default_rng(10)
    theta = rng.uniform(0, 2 * np.pi, 5)
    cfg = make_phase_config(theta, kappa=1.0, alpha=0.2)
    est = convergence_order(cfg, Scheme.RK4)
    assert not est.exact
    assert 3.7 <= est.order <= 4.3


def test_convergence_order_dopri5_on_sphere():
    rng = np.random.default_rng(11)
    cfg = random_sphere_config(rng, 4, 2)
    est = convergence_order(cfg, Scheme.DOPRI5, t_final=1.0, dt=0.05)
    assert not est.exact
    assert 4.6 <= est.order <= 5.4


def test_polar_factor_restores_unitarity():
    rng = np.random.default_rng(12)
    u = random_unitary_config(rng, 1, 3).u[0]
    perturbed = u + 1e-3 * (rng.standard_normal((3, 3))
                            + 1j * rng.standard_normal((3, 3)))
    pf = polar_factor(perturbed)
    np.testing.assert_allclose(pf @ pf.conj().T, np.eye(3), atol=1e-13)
    # the polar factor is the nearest unitary, so it stays near u
    assert np.linalg.norm(pf - u) < 1e-2
