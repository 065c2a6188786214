import importlib
import tracemalloc

import numpy as np
import pytest

import synclab
from synclab import reduce_kuramoto as rk
from synclab import reduce_sphere as rs

from synclab.dynamics import make_rhs, state_of
from synclab.errors import IntegrationError
from synclab.integrate import (
    _DP_A,
    _DP_B4,
    IntegratorSettings,
    Projection,
    Scheme,
    _dopri5_step,
    _integrate_array,
    convergence_order,
    default_settings,
    integrate,
    natural_projection,
    polar_factor,
)
from synclab.state import (
    make_phase_config,
    make_sphere_config,
    random_phase_config,
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
    with pytest.raises(ValueError):
        IntegratorSettings(scheme="rk4")
    with pytest.raises(ValueError):
        IntegratorSettings(projection="none")


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


@pytest.mark.parametrize("make, projection", [
    (lambda rng: random_phase_config(rng, 5), Projection.NONE),
    (lambda rng: random_sphere_config(rng, 5, 2), Projection.NORMALIZE),
    (lambda rng: random_unitary_config(rng, 3, 2), Projection.POLAR),
], ids=["kuramoto", "sphere", "matrix"])
def test_natural_projection_per_model(make, projection):
    cfg = make(np.random.default_rng(0))
    assert natural_projection(cfg) is projection
    assert default_settings(cfg).projection is projection


def test_nonfinite_state_detected():
    # kappa scaled to overflow quickly through the exponential-free flow is
    # hard to trigger; inject through an absurd dt on a stiff sphere flow
    cfg = make_sphere_config(np.eye(3), kappa=1e8)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(IntegrationError):
            integrate(cfg, IntegratorSettings(dt=1e3, record_every=1), 2e3)


@pytest.mark.parametrize("loop", ["single", "ragged"])
@pytest.mark.parametrize("dt", [1e-15, 1e-300])
def test_a_record_grid_too_large_to_allocate_is_an_integration_error(dt, loop):
    # 2e16 records of times alone take 142 PiB and 2e301 exceed numpy's
    # largest dimension: numpy refuses either grid before the first step
    cfg = make_sphere_config(np.eye(3))
    y0, settings = state_of(cfg), IntegratorSettings(dt=dt)

    def rhs(y):
        pytest.fail("stepped")

    args = (rhs, y0, settings, 20.0)
    if loop == "ragged":
        args = (rhs, [y0, y0], [settings] * 2, [20.0] * 2, None, [None] * 2)
    with pytest.raises(IntegrationError, match=r"^cannot allocate 2e\+(16|301) "
                                               r"records of shape \(3, 3\): "):
        _integrate_array(*args)


@pytest.mark.parametrize("dt", [1e-320, 5e-324])
def test_a_step_count_past_the_float_range_is_an_integration_error(dt):
    cfg = random_phase_config(np.random.default_rng(3), 4)
    with pytest.raises(IntegrationError, match=rf"t_final = 20\.0 at dt = {dt!r} overflows"):
        integrate(cfg, IntegratorSettings(dt=dt), 20.0)


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


_ORDER_MODELS = {
    "sphere": lambda: random_sphere_config(np.random.default_rng(11), 5, 2),
    "phase": lambda: random_phase_config(np.random.default_rng(10), 5, kappa=1.0,
                                         alpha=0.2),
    "matrix": lambda: random_unitary_config(np.random.default_rng(12), 4, 2),
}


@pytest.mark.parametrize("dt", [0.03, 0.045, 0.07])
@pytest.mark.parametrize("model", sorted(_ORDER_MODELS))
def test_convergence_order_where_dt_does_not_divide_t_final(model, dt):
    # the three runs must end at the same time for their differences to
    # measure the error at t_final
    cfg = _ORDER_MODELS[model]()
    est = convergence_order(cfg, Scheme.RK4, t_final=1.0, dt=dt)
    assert not est.exact and 3.7 <= est.order <= 4.3
    if model != "phase":
        est = convergence_order(cfg, Scheme.DOPRI5, t_final=1.0, dt=dt)
        assert not est.exact and 4.6 <= est.order <= 5.6


@pytest.mark.parametrize("scheme", list(Scheme))
def test_convergence_order_raises_on_a_run_that_blows_up(scheme):
    # phases driven at 1e308 overflow by t = 2
    cfg = make_phase_config([0.0, 1.0], nu=[1e308, -1e308], kappa=0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(IntegrationError, match="non-finite"):
            convergence_order(cfg, scheme, t_final=2.0)


def test_polar_factor_restores_unitarity():
    rng = np.random.default_rng(12)
    u = random_unitary_config(rng, 1, 3).u[0]
    perturbed = u + 1e-3 * (rng.standard_normal((3, 3))
                            + 1j * rng.standard_normal((3, 3)))
    pf = polar_factor(perturbed)
    np.testing.assert_allclose(pf @ pf.conj().T, np.eye(3), atol=1e-13)
    # the polar factor is the nearest unitary, so it stays near u
    assert np.linalg.norm(pf - u) < 1e-2


@pytest.mark.parametrize("m", [
    np.array([[1.0, np.nan], [0.0, 1.0]], dtype=complex),
    np.stack([np.eye(3), np.full((3, 3), np.nan)]),
], ids=["complex", "real-stack"])
def test_polar_factor_of_a_nan_matrix_raises_the_non_finite_error(m):
    # its first update is NaN; the Newton loop used to run all 50
    # iterations on it and report that it did not converge
    with pytest.raises(IntegrationError,
                       match="^non-finite state detected during integration$"):
        polar_factor(m)


def test_package_attribute_is_the_integrate_module():
    assert importlib.import_module("synclab.integrate") is synclab.integrate


# ---------------------------------------------------------------------------
# in-place recording


def _rk4_step(f, y, h):
    k1 = f(y)
    k2 = f(y + 0.5 * h * k1)
    k3 = f(y + 0.5 * h * k2)
    k4 = f(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _integrate_lists(rhs, y0, settings, t_final, project=None):
    """Oracle for ``_integrate_array``: the list-append recording loop it
    replaced, which appends a copy of every record and stacks both lists at
    the end."""
    integ = synclab.integrate
    y = np.array(y0, copy=True)
    times = [0.0]
    states = [y.copy()]
    if t_final == 0.0:
        return np.array(times), np.array(states)
    if settings.scheme is Scheme.RK4:
        n_steps = max(1, int(np.ceil(t_final / settings.dt - 1e-9)))
        h = t_final / n_steps
        for i in range(1, n_steps + 1):
            y = _rk4_step(rhs, y, h)
            if project is not None:
                y = project(y)
            if i % settings.record_every == 0 or i == n_steps:
                integ._check_finite(y)
                times.append(i * h)
                states.append(y.copy())
        return np.array(times), np.array(states)
    t = 0.0
    h = min(settings.dt, t_final)
    accepted = 0
    while t < t_final:
        h = min(h, t_final - t)
        if h < 16 * np.finfo(float).eps * max(1.0, abs(t)):
            raise integ.StepSizeUnderflow(f"step size underflow at t = {t:.6g}")
        y_new, err, _ = integ._dopri5_step(rhs, y, h)
        sc = settings.atol + settings.rtol * np.maximum(np.abs(y), np.abs(y_new))
        err_norm = np.sqrt(np.mean(np.abs(err / sc) ** 2))
        if err_norm <= 1.0:
            t += h
            y = y_new
            if project is not None:
                y = project(y)
            accepted += 1
            if accepted % settings.record_every == 0 or t >= t_final:
                integ._check_finite(y)
                if t > times[-1]:
                    times.append(t)
                    states.append(y.copy())
        if err_norm == 0.0:
            factor = 5.0
        elif np.isfinite(err_norm):
            factor = 0.9 * err_norm ** -0.2
        else:
            factor = 0.2
        h *= min(5.0, max(0.2, factor))
    return np.array(times), np.array(states)


def _phase(rng):
    return random_phase_config(rng, 5, alpha=0.3)


def _sphere(rng):
    return random_sphere_config(rng, 5, 2, omega_scale=0.5)


def _unitary(rng):
    return random_unitary_config(rng, 3, 2, h_scale=0.5)


def _integrate_case(make, t_final, **overrides):
    def run(rng):
        cfg = make(rng)
        integrate(cfg, default_settings(cfg, **overrides), t_final)
    return run


_REDUCED = IntegratorSettings(dt=1e-2, record_every=3)

RECORD_CASES = {
    # 100 RK4 steps
    "rk4-stride-divides": _integrate_case(_phase, 1.0, dt=1e-2, record_every=10),
    "rk4-stride-remainder": _integrate_case(_phase, 1.0, dt=1e-2, record_every=7),
    "rk4-stride-past-end": _integrate_case(_phase, 1.0, dt=1e-2, record_every=1000),
    "zero-horizon": _integrate_case(_phase, 0.0),
    "sphere-normalize": _integrate_case(_sphere, 0.5, dt=1e-2, record_every=3),
    "unitary-polar": _integrate_case(_unitary, 0.5, dt=1e-2, record_every=3),
    "dopri5": _integrate_case(_sphere, 1.0, scheme=Scheme.DOPRI5, dt=1e-2,
                              record_every=2),
    "fg": lambda rng: rk.integrate_fg(
        rk.project_phase_config(_phase(rng)), _REDUCED, 0.5),
    "stereographic": lambda rng: rs.integrate_stereo_full(
        rs.project_sphere_config(random_sphere_config(rng, 5, 2)), _REDUCED, 0.5),
    "abM": lambda rng: rs.integrate_abM(
        rs.project_sphere_config(random_sphere_config(rng, 5, 2)), _REDUCED, 0.5),
    # an integer state: the records take the float dtype of every later step
    "integer-state": lambda rng: synclab.integrate._integrate_array(
        lambda y: -y, np.array([1, 2]), IntegratorSettings(dt=0.1), 1.0),
}


@pytest.mark.parametrize("case", sorted(RECORD_CASES))
def test_records_match_the_list_append_oracle(case, monkeypatch):
    # every _integrate_array call the case makes, through integrate() or a
    # reduction's own integrator, is checked against the oracle on the same
    # arguments
    real = _integrate_array
    calls = []

    def checked(rhs, y0, settings, t_final, project=None):
        times, states, final = real(rhs, y0, settings, t_final, project)
        t_ref, s_ref = _integrate_lists(rhs, y0, settings, t_final, project)
        assert times.dtype == t_ref.dtype and states.dtype == s_ref.dtype
        assert np.array_equal(times, t_ref) and np.array_equal(states, s_ref)
        calls.append(len(times))
        return times, states, final

    for mod in (synclab.integrate, rk, rs):
        monkeypatch.setattr(mod, "_integrate_array", checked)
    RECORD_CASES[case](np.random.default_rng(4))
    assert calls


def test_recording_holds_the_trajectory_once():
    # a list of per-record copies restacked at the end peaks near 3x the
    # records; written in place they are held once
    cfg = random_sphere_config(np.random.default_rng(0), 8, 2)
    settings = default_settings(cfg, record_every=1)
    tracemalloc.start()
    try:
        traj = integrate(cfg, settings, 5.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * traj.states.nbytes + 64 * 1024


# ---------------------------------------------------------------------------
# the Dormand-Prince step

# the fifth-order weights, the last one belonging to the seventh stage
_DP_B5 = [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0]


def _dopri5_two_sums(f, y, h):
    """Oracle for ``_dopri5_step``: the step that sums its fifth-order
    solution apart from the stages, skipping the zero weights."""
    ks = [f(y)]
    for i in range(1, 7):
        yi = y
        for a, k in zip(_DP_A[i], ks):
            yi = yi + (h * a) * k
        ks.append(f(yi))
    y5 = y
    y4 = y
    for b5, b4, k in zip(np.array(_DP_B5), _DP_B4, ks):
        if b5:
            y5 = y5 + (h * b5) * k
        if b4:
            y4 = y4 + (h * b4) * k
    return y5, y5 - y4


def test_dopri5_last_stage_row_is_the_fifth_order_weights():
    assert list(_DP_A[-1]) + [0.0] == _DP_B5


@pytest.mark.parametrize("make", [
    lambda rng: random_phase_config(rng, int(rng.integers(2, 9)), kappa=rng.normal(),
                                    alpha=rng.uniform(-1.5, 1.5), nu_scale=0.5),
    lambda rng: random_sphere_config(rng, int(rng.integers(2, 9)), int(rng.integers(1, 4)),
                                     kappa=rng.normal(), a=rng.normal(), w_scale=0.5,
                                     omega_scale=0.5, shared_omega=bool(rng.integers(2))),
    lambda rng: random_unitary_config(rng, int(rng.integers(2, 7)), int(rng.integers(1, 4)),
                                      kappa=rng.normal(), h_scale=0.5),
], ids=["kuramoto", "sphere", "matrix"])
def test_dopri5_step_equals_the_two_sum_oracle(make):
    rng = np.random.default_rng(11)
    for _ in range(100):
        cfg = make(rng)
        f, y, h = make_rhs(cfg), state_of(cfg), 10.0 ** rng.uniform(-4, -1)
        got, want = _dopri5_step(f, y, h), _dopri5_two_sums(f, y, h)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
