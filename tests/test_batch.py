"""Batched integration: every member of a batch equals its single run.

``integrate_batch`` advances RK4 runs of one model shape in one ragged
lockstep loop on the batch kernels of ``dynamics.make_batch_rhs``.  Each
comparison here is of bit patterns against the member's own
``integrate_functional`` run, with the one exception ``dynamics`` names: a
term one member drops and the batch keeps may flip the sign of an exact zero.
"""

import math

import numpy as np
import pytest

import synclab.integrate
from synclab import dynamics
from synclab.errors import IntegrationError
from synclab.integrate import (
    IntegratorSettings,
    Projection,
    Scheme,
    integrate_batch,
    integrate_functional,
)
from synclab.invariants import aggregation_diameter
from synclab.state import (
    Flavor,
    make_phase_config,
    make_sphere_config,
    random_unitary_config,
)


def _same_bits(ours, single):
    """Equal dtype, shape and bits once each zero's sign is dropped."""
    ours, single = np.asarray(ours), np.asarray(single)
    return (ours.dtype == single.dtype and ours.shape == single.shape
            and (ours + 0.0).tobytes() == (single + 0.0).tobytes())


def _spy_on_the_loop(monkeypatch):
    real = synclab.integrate._integrate_array
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(synclab.integrate, "_integrate_array", spy)
    return calls


def _assert_members_match(runs, monkeypatch, loops):
    """Each run's result equals its single run's; the batch made ``loops``
    loop calls, one per group, so no group fell back to single runs."""
    calls = _spy_on_the_loop(monkeypatch)
    results = integrate_batch(runs)
    assert len(calls) == loops
    for run, got in zip(runs, results):
        want = integrate_functional(*run)
        assert all(_same_bits(a, b) for a, b in zip(got, want))


def _phase_run(rng, flavor, n=6, **settings):
    nu = rng.standard_normal(n) if rng.integers(2) else 0.0
    cfg = make_phase_config(rng.uniform(0.0, 2 * np.pi, n), nu, rng.uniform(-2.0, 2.0),
                            rng.uniform(-1.5, 1.5), flavor)
    return cfg, IntegratorSettings(**settings)


def _sphere_cfg(rng, n=6, omega="shared", kappa=1.0, identity=True):
    m = 3
    omega = {"none": None, "shared": rng.standard_normal((m, m)),
             "stacked": rng.standard_normal((n, m, m))}[omega]
    a, w = (1.0, None) if identity else (rng.uniform(0.5, 1.5), rng.standard_normal((m, m)))
    return make_sphere_config(rng.standard_normal((n, m)), omega, kappa, a, w)


# ---------------------------------------------------------------------------
# whole runs


@pytest.mark.parametrize("flavor", list(Flavor))
def test_ragged_phase_members_equal_their_single_runs(flavor, monkeypatch):
    # per-member kappa, alpha and nu (zero for some), different step counts,
    # step sizes, strides and record functionals, a stride past the end and
    # a zero horizon, which integrates singly
    rng = np.random.default_rng(10)
    shapes = [(1e-2, 1, 1.0, None), (3e-3, 7, 0.3, np.sum), (7e-3, 3, 2.0, None),
              (1e-2, 1000, 0.5, np.sum), (2e-2, 5, 1.7, None), (1e-2, 1, 0.0, None)]
    runs = []
    for dt, every, t_final, record in shapes:
        cfg, settings = _phase_run(rng, flavor, dt=dt, record_every=every)
        runs.append((cfg, settings, t_final, record))
    _assert_members_match(runs, monkeypatch, loops=2)


@pytest.mark.parametrize("projection", [Projection.NONE, Projection.NORMALIZE])
def test_ragged_sphere_members_equal_their_single_runs(projection, monkeypatch):
    # with and without a shared Omega, V = I and V != I, kappa 1, -1 and 1.3
    rng = np.random.default_rng(11)
    cfgs = [_sphere_cfg(rng, omega="shared"),
            _sphere_cfg(rng, omega="none", kappa=-1.0),
            _sphere_cfg(rng, omega="shared", kappa=1.3, identity=False),
            _sphere_cfg(rng, omega="none", identity=False)]
    shapes = [(1e-2, 1, 0.5, None), (1e-2, 2, 1.5, aggregation_diameter),
              (4e-3, 3, 1.0, None), (1e-2, 9, 0.25, np.sum)]
    runs = [(cfg, IntegratorSettings(dt=dt, record_every=every, projection=projection),
             t_final, record)
            for cfg, (dt, every, t_final, record) in zip(cfgs, shapes)]
    _assert_members_match(runs, monkeypatch, loops=1)


def test_per_particle_omega_members_equal_their_single_runs(monkeypatch):
    rng = np.random.default_rng(12)
    settings = IntegratorSettings(dt=1e-2, record_every=4, projection=Projection.NORMALIZE)
    runs = [(_sphere_cfg(rng, n=5, omega="stacked", kappa=k, identity=k > 0), settings, t, None)
            for k, t in [(1.0, 0.4), (-0.7, 0.9), (2.0, 0.9)]]
    _assert_members_match(runs, monkeypatch, loops=1)


def test_mixed_runs_keep_their_order_and_their_own_path(monkeypatch):
    # two phase flavors, two sphere sizes, a matrix run, DOPRI5 and POLAR:
    # every run's result sits at its own index; the two sine RK4 runs are the
    # one group of two
    rng = np.random.default_rng(13)
    runs = [(*_phase_run(rng, Flavor.SINE, dt=1e-2), 0.3, None),
            (_sphere_cfg(rng, n=4), IntegratorSettings(dt=1e-2), 0.2, None),
            (*_phase_run(rng, Flavor.COSINE, dt=1e-2, scheme=Scheme.DOPRI5), 0.3, np.sum),
            (*_phase_run(rng, Flavor.SINE, dt=2e-2, record_every=2), 0.5, np.sum),
            (random_unitary_config(rng, 3, 2, h_scale=0.5),
             IntegratorSettings(dt=1e-2, projection=Projection.POLAR), 0.2, None),
            (_sphere_cfg(rng, n=5), IntegratorSettings(dt=1e-2), 0.2, None),
            (*_phase_run(rng, Flavor.COSINE, dt=1e-2), 0.2, None)]
    _assert_members_match(runs, monkeypatch, loops=6)


def test_criterion_14_members_equal_their_single_runs(monkeypatch):
    # the acceptance criterion's 20 members, at a shorter horizon
    settings = IntegratorSettings(dt=1e-3, record_every=10 ** 9,
                                  projection=Projection.NORMALIZE)
    runs = []
    for run in range(20):
        rng = np.random.default_rng(1000 + run)
        x0 = rng.standard_normal((8, 3))
        omega = rng.standard_normal((3, 3)) if run % 2 == 0 else None
        runs.append((make_sphere_config(x0, omega, kappa=1.0), settings, 0.2, None))
    _assert_members_match(runs, monkeypatch, loops=1)


@pytest.mark.parametrize("projection", [Projection.NONE, Projection.NORMALIZE])
def test_retiring_members_keep_their_final_states(projection, monkeypatch):
    # members of 50, 35, 20, 5 and 5 steps whose records are functionals, so
    # only the final state holds each member's state: each is copied out of
    # the loop's workspace as its member retires, while the others step on
    rng = np.random.default_rng(19)
    runs = [(_sphere_cfg(rng, omega="none"), IntegratorSettings(dt=1e-2, projection=projection),
             t_final, aggregation_diameter) for t_final in (0.5, 0.35, 0.2, 0.05, 0.05)]
    _assert_members_match(runs, monkeypatch, loops=1)
    assert all(final.flags.owndata for _, _, final in integrate_batch(runs))


# ---------------------------------------------------------------------------
# one loop per group


@pytest.mark.parametrize("k", [2, 5])
def test_a_group_makes_one_loop_call(k, monkeypatch):
    rng = np.random.default_rng(14)
    runs = [(*_phase_run(rng, Flavor.COSINE, dt=1e-2, record_every=1 + j), 0.1 * (j + 1), None)
            for j in range(k)]
    calls = _spy_on_the_loop(monkeypatch)
    integrate_batch(runs)
    assert len(calls) == 1
    rhs, y0s, settings = calls[0][:3]
    assert callable(rhs) and len(y0s) == len(settings) == k


def _counted_functional():
    calls = []

    def functional(y):
        calls.append(None)
        return float(y[0])
    return functional, calls


def test_a_record_functional_is_called_once_per_record(monkeypatch):
    # the loop evaluates the first record; its entry must not evaluate it too
    loop = _spy_on_the_loop(monkeypatch)
    f, calls = _counted_functional()
    times, _, _ = integrate_functional(make_phase_config([0.1, 0.5, 1.0]),
                                       IntegratorSettings(dt=0.1, record_every=3), 1.0, f)
    assert len(times) == len(calls) == 5
    assert len(loop) == 1
    rng = np.random.default_rng(16)
    counted = [_counted_functional() for _ in range(3)]
    runs = [(*_phase_run(rng, Flavor.SINE, dt=1e-2, record_every=every), t_final, f)
            for (f, _), every, t_final in zip(counted, (1, 3, 7), (0.3, 0.2, 0.1))]
    results = integrate_batch(runs)
    assert len(loop) == 2
    assert [len(times) for times, _, _ in results] == [len(c) for _, c in counted] == [31, 8, 3]


def test_dopri5_and_polar_runs_integrate_singly(monkeypatch):
    rng = np.random.default_rng(15)
    runs = [(*_phase_run(rng, Flavor.SINE, dt=1e-2, scheme=Scheme.DOPRI5), 0.2, None)
            for _ in range(2)]
    runs += [(random_unitary_config(rng, 3, 2), IntegratorSettings(
        dt=1e-2, projection=Projection.POLAR), 0.1, None) for _ in range(2)]
    calls = _spy_on_the_loop(monkeypatch)
    integrate_batch(runs)
    assert len(calls) == 4
    assert all(isinstance(args[2], IntegratorSettings) for args in calls)


# ---------------------------------------------------------------------------
# failures stay with their member


def test_a_failing_member_fails_alone():
    rng = np.random.default_rng(16)

    def refuse(state):
        raise ValueError("refused")

    runs = [(*_phase_run(rng, Flavor.COSINE, dt=1e-2), t, record)
            for t, record in [(0.3, None), (0.2, refuse), (0.1, np.sum)]]
    out = integrate_batch(runs)
    assert isinstance(out[1], ValueError) and str(out[1]) == "refused"
    for k in (0, 2):
        assert all(_same_bits(a, b) for a, b in zip(out[k], integrate_functional(*runs[k])))


def test_a_non_finite_member_fails_alone():
    # an infinite initial phase: the single run refuses it at its first
    # record point after t = 0, and so does the batch member
    rng = np.random.default_rng(17)
    bad = make_phase_config(np.full(6, np.inf), 0.0, 1.0, 0.0, Flavor.COSINE)
    settings = IntegratorSettings(dt=1e-2)
    runs = [(*_phase_run(rng, Flavor.COSINE, dt=1e-2), 0.2, None), (bad, settings, 0.2, None)]
    with np.errstate(invalid="ignore"):
        out = integrate_batch(runs)
        with pytest.raises(IntegrationError):
            integrate_functional(*runs[1])
    assert isinstance(out[1], IntegrationError)
    assert all(_same_bits(a, b) for a, b in zip(out[0], integrate_functional(*runs[0])))


def test_a_member_whose_step_count_overflows_fails_alone():
    # t_final / dt overflows the float range: the members that cannot count
    # their steps integrate singly and return the error their single run
    # raises, and the others still run as one batch
    rng = np.random.default_rng(21)
    runs = [(*_phase_run(rng, Flavor.SINE, dt=dt), 20.0, np.sum)
            for dt in (1e-320, 5e-324, 0.5, 0.25)]
    out = integrate_batch(runs)
    for k in (0, 1):
        assert isinstance(out[k], IntegrationError)
        assert "t_final = 20.0" in str(out[k]) and f"dt = {runs[k][1].dt!r}" in str(out[k])
    for k in (2, 3):
        assert all(_same_bits(a, b) for a, b in zip(out[k], integrate_functional(*runs[k])))


def test_a_refused_projection_fails_each_member():
    rng = np.random.default_rng(18)
    runs = [(*_phase_run(rng, Flavor.SINE, projection=Projection.NORMALIZE), 0.1, None)
            for _ in range(2)]
    out = integrate_batch(runs)
    assert all(isinstance(r, ValueError) and "sphere" in str(r) for r in out)


# ---------------------------------------------------------------------------
# kernels


def _assert_batch_kernel_matches(cfgs, noise, rng):
    rhs = dynamics.make_batch_rhs(cfgs)
    states = np.stack([dynamics.state_of(c) for c in cfgs])
    for y in (states, states + noise * rng.standard_normal(states.shape)):
        for b in range(2, len(cfgs) + 1):
            got = rhs(y[:b])
            for m in range(b):
                assert _same_bits(got[m], dynamics.make_rhs(cfgs[m])(y[m]))
        assert _same_bits(rhs(y[0]), dynamics.make_rhs(cfgs[0])(y[0]))


@pytest.mark.parametrize("flavor", list(Flavor))
@pytest.mark.parametrize("n", [1, 8, 200])
def test_phase_batch_kernel_is_bitwise_identical(flavor, n):
    rng = np.random.default_rng(20 + n)
    for _ in range(6):
        cfgs = [make_phase_config(rng.uniform(-4.0, 10.0, n),
                                  rng.standard_normal(n) if rng.integers(2) else 0.0,
                                  rng.choice([1.0, -1.0, rng.uniform(0.1, 3.0)]),
                                  rng.uniform(-1.5, 1.5), flavor)
                for _ in range(int(rng.integers(2, 6)))]
        _assert_batch_kernel_matches(cfgs, 1.0, rng)


@pytest.mark.parametrize("omega", ["none", "shared", "stacked"])
@pytest.mark.parametrize("n", [1, 8, 200])
def test_sphere_batch_kernel_is_bitwise_identical(omega, n):
    rng = np.random.default_rng(30 + n)
    for _ in range(6):
        forms = [omega if omega == "stacked" else rng.choice(["none", omega])
                 for _ in range(int(rng.integers(2, 6)))]
        cfgs = [_sphere_cfg(rng, n, form, rng.choice([1.0, -1.0, 1.7]), bool(rng.integers(2)))
                for form in forms]
        _assert_batch_kernel_matches(cfgs, 0.1, rng)


@pytest.mark.parametrize("n", [1, 8, 200])
@pytest.mark.parametrize("m", [2, 3, 5])
def test_stacked_matmul_rounds_like_dot(n, m):
    # the sphere batch kernel rests on this: numpy routes np.dot and a
    # stacked np.matmul to BLAS differently, so their equality is a fact
    # about this numpy, not a law
    rng = np.random.default_rng(40 + n + m)
    v, x = rng.standard_normal((4, m, m)), rng.standard_normal((4, n, m))
    c = rng.standard_normal((4, m))
    by_matmul = (np.matmul(v, c[..., None]), np.matmul(x, c[..., None]), np.matmul(x, v))
    for b in range(4):
        assert by_matmul[0][b, :, 0].tobytes() == np.dot(v[b], c[b]).tobytes()
        assert by_matmul[1][b, :, 0].tobytes() == np.dot(x[b], c[b]).tobytes()
        assert by_matmul[2][b].tobytes() == np.dot(x[b], v[b]).tobytes()


# ---------------------------------------------------------------------------
# horizons and strides refused


@pytest.mark.parametrize("scheme", list(Scheme))
@pytest.mark.parametrize("t_final", [math.nan, math.inf])
def test_integration_refuses_a_non_finite_horizon(scheme, t_final):
    cfg = make_sphere_config(np.eye(3))
    settings = IntegratorSettings(scheme=scheme, projection=Projection.NORMALIZE)
    with pytest.raises(ValueError, match="t_final must be finite and non-negative"):
        synclab.integrate.integrate(cfg, settings, t_final)


@pytest.mark.parametrize("scheme", list(Scheme))
@pytest.mark.parametrize("t_final", [0.0, -1.0, math.nan, math.inf])
def test_convergence_order_refuses_a_horizon_that_is_not_positive(scheme, t_final):
    cfg = make_phase_config([0.1, 0.5, 1.0])
    with pytest.raises(ValueError, match="t_final must be finite and positive"):
        synclab.integrate.convergence_order(cfg, scheme, t_final=t_final)


@pytest.mark.parametrize("scheme", list(Scheme))
@pytest.mark.parametrize("dt", [0.0, -0.02, math.nan, math.inf])
def test_convergence_order_refuses_a_step_that_is_not_positive(scheme, dt):
    cfg = make_phase_config([0.1, 0.5, 1.0])
    with pytest.raises(ValueError, match="dt must be finite and positive"):
        synclab.integrate.convergence_order(cfg, scheme, dt=dt)


@pytest.mark.parametrize("dt", [0.0, -1.0, math.nan, math.inf])
def test_settings_refuse_a_step_that_is_not_finite_and_positive(dt):
    with pytest.raises(ValueError, match="dt must be finite and positive"):
        IntegratorSettings(dt=dt)


@pytest.mark.parametrize("every", [2.5, 1.0, "2"])
def test_settings_refuse_a_record_stride_that_is_not_an_integer(every):
    with pytest.raises(ValueError, match="record_every must be a positive integer"):
        IntegratorSettings(record_every=every)


def test_settings_take_numpy_integer_strides():
    assert IntegratorSettings(record_every=np.int64(3)).record_every == 3
