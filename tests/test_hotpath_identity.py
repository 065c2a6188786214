"""Bitwise identity of the per-step hot path against its reference formulas.

The rhs kernels bound by ``dynamics.make_rhs``, the RK4 and Dormand-Prince
steps, the sphere normalization and the polar factor promise the same
floating-point operations in the same order as the plain formulas below,
which are kept here verbatim as the oracle.  Every comparison is of bit
patterns, never a tolerance.  The one exception is the one ``dynamics``
names: where the oracle's result holds an exact zero (a real number, or a
real or imaginary part), the kernel that skips a zero drive, a zero nu or a
product by the identity may return the zero of the other sign.

The kernels and the RK4 stepper write into buffers bound once; a later
section checks that what they return is never one of those buffers.  The
last sections hold the inverse that the polar factor calls, the matrix
diameter the matrix certificate records, and the reduced systems of the two
stereographic reductions, each against its plain formula.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synclab import dynamics
from synclab import reduce_kuramoto as rk
from synclab import reduce_sphere as rs
from synclab.errors import PassedThroughProjectionPoint
from synclab.integrate import (
    IntegratorSettings,
    Projection,
    Scheme,
    _dopri5_step,
    _integrate_array,
    _inverse,
    _normalize_rows,
    _RK4Stepper,
    _rk4_coefficients,
    integrate,
    polar_factor,
)
from synclab.invariants import _bind_matrix_diameter, matrix_diameter
from synclab.state import (
    Flavor,
    PhaseConfig,
    SphereConfig,
    make_phase_config,
    make_sphere_config,
    make_unitary_config,
    random_phase_config,
    random_sphere_config,
    random_unitary,
)

SIZES = (1, 8, 200)
DRAWS = 12


# ---------------------------------------------------------------------------
# oracle: the reference formulas


def _phase_rhs(theta, nu, kappa, alpha, flavor):
    s = np.exp(1j * theta).sum()
    if flavor is Flavor.SINE:
        coupling = np.imag(np.exp(1j * (alpha - theta)) * s)
    else:
        coupling = np.real(np.exp(-1j * (alpha + theta)) * s)
    return nu + (kappa / theta.size) * coupling


def _sphere_rhs(x, omega, kappa, v):
    # sum_k V x_k = N * V x_c, so the coupling costs one small matvec
    vxc = v @ x.mean(axis=0)
    coupling = vxc[None, :] - (x @ vxc)[:, None] * x
    if omega.ndim == 2:
        drive = x @ omega.T
    else:
        drive = np.einsum("nij,nj->ni", omega, x)
    return drive + kappa * coupling


def _unitary_rhs(u, h, kappa, v):
    # dU_j = -i H_j U_j + (kappa/2N) sum_k (V U_k - U_j (V U_k)^* U_j)
    # with sum_k V U_k = N * V U_c.
    vuc = v @ u.mean(axis=0)
    coupling = vuc[None, :, :] - u @ vuc.conj().T @ u
    if h.ndim == 2:
        drive = -1j * np.einsum("ab,jbc->jac", h, u)
    else:
        drive = -1j * (h @ u)
    return drive + (kappa / 2.0) * coupling


def _oracle_rk4_step(f, y, h):
    k1 = f(y)
    k2 = f(y + 0.5 * h * k1)
    k3 = f(y + 0.5 * h * k2)
    k4 = f(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


# the Dormand-Prince 5(4) tableau: the stage rows, then the 4th-order weights
_ORACLE_DP_A = [
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
_ORACLE_DP_B4 = [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
                 187 / 2100, 1 / 40]


def _oracle_dopri5_step(f, y, h):
    ks = [f(y)]
    for row in _ORACLE_DP_A:
        yi = y
        for a, k in zip(row, ks):
            yi = yi + (h * a) * k
        ks.append(f(yi))
    y4 = y
    for b4, k in zip(_ORACLE_DP_B4, ks):
        if b4:
            y4 = y4 + (h * b4) * k
    return yi, yi - y4


def _oracle_normalize_rows(x):
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


def _oracle_polar_factor(m, tol=1e-14, max_iter=50):
    u = np.array(m, dtype=m.dtype if np.iscomplexobj(m) else float, copy=True)
    for _ in range(max_iter):
        inv_star = np.linalg.inv(np.conj(np.swapaxes(u, -1, -2)))
        nxt = 0.5 * (u + inv_star)
        delta = np.max(np.abs(nxt - u))
        u = nxt
        if delta < tol:
            break
    return u


def _oracle_rhs(cfg):
    if isinstance(cfg, PhaseConfig):
        return lambda y: _phase_rhs(y, cfg.nu, cfg.kappa, cfg.alpha, cfg.flavor)
    if isinstance(cfg, SphereConfig):
        v = cfg.v
        return lambda y: _sphere_rhs(y, cfg.omega, cfg.kappa, v)
    return lambda y: _unitary_rhs(y, cfg.h, cfg.kappa, cfg.v)


# ---------------------------------------------------------------------------
# seeded configurations


def _phase_cfg(rng, n, flavor):
    return make_phase_config(rng.uniform(-4.0, 10.0, n), rng.standard_normal(n),
                             rng.uniform(0.1, 3.0), rng.uniform(-1.5, 1.5), flavor)


def _sphere_cfg(rng, n, d, shared, a):
    m = d + 1
    omega = rng.standard_normal((m, m) if shared else (n, m, m))
    return make_sphere_config(rng.standard_normal((n, m)), omega,
                              rng.uniform(0.1, 3.0), a, rng.standard_normal((m, m)))


def _unitary_cfg(rng, n, d, shared):
    u = np.array([random_unitary(rng, d) for _ in range(n)])
    shape = (d, d) if shared else (n, d, d)
    h = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return make_unitary_config(u, h, rng.uniform(0.1, 3.0), random_unitary(rng, d))


def _default_cfgs(rng, n):
    # the factories' defaults: nu = 0, Omega = 0, V = I, H = 0 and kappa = 1
    return (make_phase_config(rng.uniform(-4.0, 10.0, n)),
            make_sphere_config(rng.standard_normal((n, 3))),
            make_unitary_config(np.array([random_unitary(rng, 2) for _ in range(n)])))


def _assert_same_bits(ours, oracle):
    """Equal bit patterns; where the oracle holds an exact zero, equal bit
    patterns once each zero's sign is dropped (x + 0.0 turns -0.0 into +0.0
    and leaves every other x alone)."""
    assert ours.dtype == oracle.dtype and ours.shape == oracle.shape
    parts = np.stack([oracle.real, oracle.imag]) if np.iscomplexobj(oracle) else oracle
    if parts.all():
        assert ours.tobytes() == oracle.tobytes()
    else:
        assert (ours + 0.0).tobytes() == (oracle + 0.0).tobytes()


def _assert_rhs_identity(cfg, *states):
    ours, oracle = dynamics.make_rhs(cfg), _oracle_rhs(cfg)
    for y in states:
        _assert_same_bits(ours(y), oracle(y))


# ---------------------------------------------------------------------------
# rhs kernels


@pytest.mark.parametrize("flavor", list(Flavor))
@pytest.mark.parametrize("n", SIZES)
def test_phase_rhs_is_bitwise_identical(flavor, n):
    rng = np.random.default_rng(100 + n)
    for _ in range(DRAWS):
        cfg = _phase_cfg(rng, n, flavor)
        _assert_rhs_identity(cfg, cfg.theta, cfg.theta + rng.standard_normal(n))


@pytest.mark.parametrize("shared", [True, False], ids=["shared-omega", "stacked-omega"])
@pytest.mark.parametrize("a", [1.3, 0.0], ids=["a-nonzero", "a-zero"])
@pytest.mark.parametrize("n", SIZES)
def test_sphere_rhs_is_bitwise_identical(shared, a, n):
    rng = np.random.default_rng(200 + n)
    for draw in range(DRAWS):
        cfg = _sphere_cfg(rng, n, 1 + draw % 3, shared, a)
        _assert_rhs_identity(cfg, cfg.x, cfg.x + 0.1 * rng.standard_normal(cfg.x.shape))


@pytest.mark.parametrize("shared", [True, False], ids=["shared-h", "stacked-h"])
@pytest.mark.parametrize("n", SIZES)
def test_unitary_rhs_is_bitwise_identical(shared, n):
    rng = np.random.default_rng(300 + n)
    for draw in range(DRAWS):
        cfg = _unitary_cfg(rng, n, 2 + draw % 3, shared)
        noise = rng.standard_normal(cfg.u.shape) + 1j * rng.standard_normal(cfg.u.shape)
        _assert_rhs_identity(cfg, cfg.u, cfg.u + 0.1 * noise)


# U(1): each unitary is one complex number, and a 1-element complex product
# written into one of its own inputs rounds differently at this numpy
U1_SIZES = (1, 8)


@pytest.mark.parametrize("shared", [True, False], ids=["shared-h", "stacked-h"])
@pytest.mark.parametrize("n", U1_SIZES)
def test_u1_rhs_is_bitwise_identical(shared, n):
    rng = np.random.default_rng(350 + n)
    for _ in range(DRAWS):
        cfg = _unitary_cfg(rng, n, 1, shared)
        noise = rng.standard_normal(cfg.u.shape) + 1j * rng.standard_normal(cfg.u.shape)
        _assert_rhs_identity(cfg, cfg.u, cfg.u + 0.1 * noise)


# each skip make_rhs binds (a zero nu, a zero shared Omega or H, V = I and
# kappa = 1) on its own and with the others, with kappa = -1 beside them; the
# exact equilibria among the states (N = 1 on the sphere, a stack of equal
# unitaries) are where a skipped zero add shows in the sign of a zero
KAPPAS = (1.0, -1.0, 1.7)


@pytest.mark.parametrize("flavor", list(Flavor))
@pytest.mark.parametrize("n", SIZES)
def test_phase_rhs_skips_are_bitwise_identical(flavor, n):
    rng = np.random.default_rng(700 + n)
    for zero_nu, kappa in itertools.product((True, False), KAPPAS):
        nu = 0.0 if zero_nu else rng.standard_normal(n)
        cfg = make_phase_config(rng.uniform(-4.0, 10.0, n), nu, kappa,
                                rng.uniform(-1.5, 1.5), flavor)
        _assert_rhs_identity(cfg, cfg.theta, cfg.theta + rng.standard_normal(n))


@pytest.mark.parametrize("n", SIZES)
def test_sphere_rhs_skips_are_bitwise_identical(n):
    rng = np.random.default_rng(800 + n)
    for drive, identity, kappa in itertools.product(("zero", "shared", "stacked"),
                                                    (True, False), KAPPAS):
        m = 2 + n % 3
        omega = {"zero": None, "shared": rng.standard_normal((m, m)),
                 "stacked": rng.standard_normal((n, m, m))}[drive]
        a, w = (1.0, None) if identity else (rng.uniform(-2.0, 2.0), rng.standard_normal((m, m)))
        cfg = make_sphere_config(rng.standard_normal((n, m)), omega, kappa, a, w)
        _assert_rhs_identity(cfg, cfg.x, cfg.x + 0.1 * rng.standard_normal(cfg.x.shape))


@pytest.mark.parametrize("n", SIZES)
def test_unitary_rhs_skips_are_bitwise_identical(n):
    rng = np.random.default_rng(900 + n)
    for drive, identity, kappa in itertools.product(("zero", "shared", "stacked"),
                                                    (True, False), KAPPAS):
        d = 2 + n % 3
        u = np.array([random_unitary(rng, d) for _ in range(n)])
        shape = {"zero": None, "shared": (d, d), "stacked": (n, d, d)}[drive]
        h = None if shape is None else rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        cfg = make_unitary_config(u, h, kappa, None if identity else random_unitary(rng, d))
        noise = rng.standard_normal(u.shape) + 1j * rng.standard_normal(u.shape)
        equal = np.broadcast_to(random_unitary(rng, d), u.shape).copy()
        _assert_rhs_identity(cfg, cfg.u, cfg.u + 0.1 * noise, equal)


# ---------------------------------------------------------------------------
# stepping and projection


@pytest.mark.parametrize("n", SIZES)
def test_rk4_step_is_bitwise_identical(n):
    rng = np.random.default_rng(400 + n)
    for draw in range(DRAWS):
        h = rng.uniform(1e-4, 0.1)
        for cfg in (_phase_cfg(rng, n, Flavor.SINE),
                    _sphere_cfg(rng, n, 2, draw % 2 == 0, 1.0),
                    _unitary_cfg(rng, n, 2, draw % 2 == 0)) + _default_cfgs(rng, n):
            y = dynamics.state_of(cfg)
            ours = _RK4Stepper(dynamics.make_rhs(cfg), y, _rk4_coefficients(h, y)).advance(y, 1)
            _assert_same_bits(ours, _oracle_rk4_step(_oracle_rhs(cfg), y, h))


@pytest.mark.parametrize("n", U1_SIZES)
def test_u1_rk4_step_is_bitwise_identical(n):
    rng = np.random.default_rng(420 + n)
    for draw in range(DRAWS):
        h = rng.uniform(1e-4, 0.1)
        cfg = _unitary_cfg(rng, n, 1, draw % 2 == 0)
        y = dynamics.state_of(cfg)
        ours = _RK4Stepper(dynamics.make_rhs(cfg), y, _rk4_coefficients(h, y)).advance(y, 1)
        _assert_same_bits(ours, _oracle_rk4_step(_oracle_rhs(cfg), y, h))


@pytest.mark.parametrize("n", SIZES)
def test_dopri5_step_is_bitwise_identical(n):
    rng = np.random.default_rng(450 + n)
    for draw in range(DRAWS):
        h = 10.0 ** rng.uniform(-4.0, -1.0)
        for cfg in (_phase_cfg(rng, n, Flavor.COSINE),
                    _sphere_cfg(rng, n, 1 + draw % 3, draw % 2 == 0, 0.7),
                    _unitary_cfg(rng, n, 2 + draw % 2, draw % 2 == 0)) + _default_cfgs(rng, n):
            y = dynamics.state_of(cfg)
            ours = _dopri5_step(dynamics.make_rhs(cfg), y, h)
            for got, want in zip(ours, _oracle_dopri5_step(_oracle_rhs(cfg), y, h)):
                _assert_same_bits(got, want)


@pytest.mark.parametrize("n", SIZES)
def test_normalize_rows_is_bitwise_identical(n):
    rng = np.random.default_rng(500 + n)
    for draw in range(DRAWS):
        x = rng.standard_normal((n, 2 + draw % 3)) * rng.uniform(0.5, 2.0)
        _assert_same_bits(_normalize_rows(x), _oracle_normalize_rows(x))


@pytest.mark.parametrize("n", (1, 5, 100))
def test_polar_factor_is_bitwise_identical(n):
    rng = np.random.default_rng(600 + n)
    for draw in range(DRAWS):
        d = 2 + draw % 3
        u = np.array([random_unitary(rng, d) for _ in range(n)])
        m = u + 1e-3 * (rng.standard_normal(u.shape) + 1j * rng.standard_normal(u.shape))
        _assert_same_bits(polar_factor(m), _oracle_polar_factor(m))
        _assert_same_bits(polar_factor(m.real), _oracle_polar_factor(m.real))


# ---------------------------------------------------------------------------
# whole integrations


def _oracle_integrate(cfg, dt, t_final, project):
    rhs = _oracle_rhs(cfg)
    n_steps = max(1, int(np.ceil(t_final / dt - 1e-9)))
    h = t_final / n_steps
    y = np.array(dynamics.state_of(cfg), copy=True)
    for _ in range(n_steps):
        y = project(_oracle_rk4_step(rhs, y, h))
    return y


def _oracle_records(cfg, dt, t_final, every, project):
    """The times and states a fixed-step run records every ``every`` steps
    and at the last, each step the oracle's step and then ``project``."""
    rhs = _oracle_rhs(cfg)
    n_steps = max(1, int(np.ceil(t_final / dt - 1e-9)))
    h = t_final / n_steps
    y = np.array(dynamics.state_of(cfg), copy=True)
    times, states = [0.0], [y]
    for i in range(1, n_steps + 1):
        y = project(_oracle_rk4_step(rhs, y, h))
        if i % every == 0 or i == n_steps:
            times.append(i * h)
            states.append(y)
    return np.array(times), np.array(states)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 300), d=st.integers(1, 8),
       steps=st.lists(st.integers(1, 8), min_size=1, max_size=4),
       every=st.integers(1, 3), shared=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_a_ragged_normalized_batch_is_bitwise_identical(n, d, steps, every, shared, seed):
    # members that retire at different steps narrow the stepper's stack and
    # its NORMALIZE buffers, down to one member; rows of 2 to 7 entries take
    # NORMALIZE's column adds, rows of 8 or more its reduction
    rng = np.random.default_rng(seed)
    steps = sorted(steps, reverse=True)
    cfgs = [_sphere_cfg(rng, n, d, shared, rng.uniform(-1.0, 2.0)) for _ in steps]
    dt = 0.05
    t_finals = [k * dt for k in steps]
    run = IntegratorSettings(dt=dt, record_every=every, projection=Projection.NORMALIZE)
    results = _integrate_array(dynamics.make_batch_rhs(cfgs), [c.x for c in cfgs],
                               [run] * len(cfgs), t_finals, _normalize_rows,
                               [None] * len(cfgs))
    for cfg, t_final, (times, states, final) in zip(cfgs, t_finals, results):
        want_times, want_states = _oracle_records(cfg, dt, t_final, every,
                                                  _oracle_normalize_rows)
        assert times.tobytes() == want_times.tobytes()
        _assert_same_bits(states, want_states)
        _assert_same_bits(final, want_states[-1])


@pytest.mark.parametrize("seed", [1000, 1001])
def test_ensemble_member_is_bitwise_identical(seed):
    # one member of the ensemble benchmark: N=8 on S^2, T=5, dt=1e-3
    rng = np.random.default_rng(seed)
    x0 = rng.standard_normal((8, 3))
    omega = rng.standard_normal((3, 3)) if seed % 2 == 0 else None
    cfg = make_sphere_config(x0, omega, kappa=1.0)
    settings = IntegratorSettings(dt=1e-3, record_every=10 ** 9,
                                  projection=Projection.NORMALIZE)
    final = integrate(cfg, settings, 5.0).final_state
    _assert_same_bits(final, _oracle_integrate(cfg, 1e-3, 5.0, _oracle_normalize_rows))


def test_polar_projected_run_is_bitwise_identical():
    rng = np.random.default_rng(7)
    cfg = _unitary_cfg(rng, 5, 2, True)
    settings = IntegratorSettings(dt=1e-2, record_every=10 ** 9,
                                  projection=Projection.POLAR)
    final = integrate(cfg, settings, 1.0).final_state
    _assert_same_bits(final, _oracle_integrate(cfg, 1e-2, 1.0, _oracle_polar_factor))


@pytest.mark.parametrize("shared", [True, False], ids=["shared-h", "stacked-h"])
@pytest.mark.parametrize("n", U1_SIZES)
def test_u1_polar_projected_run_is_bitwise_identical(shared, n):
    rng = np.random.default_rng(70 + n)
    cfg = _unitary_cfg(rng, n, 1, shared)
    settings = IntegratorSettings(dt=1e-2, record_every=10 ** 9,
                                  projection=Projection.POLAR)
    final = integrate(cfg, settings, 1.0).final_state
    _assert_same_bits(final, _oracle_integrate(cfg, 1e-2, 1.0, _oracle_polar_factor))


@pytest.mark.parametrize("flavor", list(Flavor))
def test_single_oscillator_run_is_bitwise_identical(flavor):
    # N = 1: the phase kernel's complex rows hold one element each
    rng = np.random.default_rng(71)
    for _ in range(4):
        cfg = _phase_cfg(rng, 1, flavor)
        settings = IntegratorSettings(dt=1e-2, record_every=10 ** 9)
        final = integrate(cfg, settings, 1.0).final_state
        _assert_same_bits(final, _oracle_integrate(cfg, 1e-2, 1.0, lambda y: y))


def _oracle_dopri5_run(f, y, settings, t_final):
    """The adaptive DOPRI5 loop on the plain step, which evaluates all seven
    stages of every attempt: (times, records, attempts, rejections)."""
    times, states = [0.0], [y]
    t, h, accepted, attempts, rejected = 0.0, min(settings.dt, t_final), 0, 0, 0
    while t < t_final:
        h = min(h, t_final - t)
        y_new, err = _oracle_dopri5_step(f, y, h)
        attempts += 1
        sc = settings.atol + settings.rtol * np.maximum(np.abs(y), np.abs(y_new))
        err_norm = np.sqrt(np.mean(np.abs(err / sc) ** 2))
        if err_norm <= 1.0:
            t, y, accepted = t + h, y_new, accepted + 1
            if accepted % settings.record_every == 0 or t >= t_final:
                times.append(t)
                states.append(y)
        else:
            rejected += 1
        h *= min(5.0, max(0.2, 5.0 if err_norm == 0.0 else 0.9 * err_norm ** -0.2))
    return np.array(times), np.array(states), attempts, rejected


@pytest.mark.parametrize("flavor", list(Flavor))
def test_unprojected_dopri5_run_is_bitwise_identical(flavor):
    # no projection moves a phase state, so each accepted step hands its
    # last stage on as the next first stage and a rejected step's retry
    # reuses its first: 6 rhs calls per attempted step, plus the first f(y0)
    rng = np.random.default_rng(700)
    cfg = _phase_cfg(rng, 8, flavor)
    settings = IntegratorSettings(scheme=Scheme.DOPRI5, dt=0.5, rtol=1e-9, atol=1e-12,
                                  record_every=3)
    rhs, calls = dynamics.make_rhs(cfg), []

    def counted(y):
        calls.append(1)
        return rhs(y)

    times, states, final = _integrate_array(counted, cfg.theta, settings, 5.0)
    want_times, want_states, attempts, rejected = _oracle_dopri5_run(
        _oracle_rhs(cfg), cfg.theta, settings, 5.0)
    assert rejected > 0
    assert times.tobytes() == want_times.tobytes()
    _assert_same_bits(states, want_states)
    _assert_same_bits(final, want_states[-1])
    assert len(calls) == 6 * attempts + 1


# ---------------------------------------------------------------------------
# workspaces: a bound kernel and the stepper write into buffers of their own,
# and what they return must not be one of them


def _kernel_cases(rng, n):
    """Configurations that take each branch of the three kernels: every skip
    on and off, the drive absent, shared and per particle."""
    for flavor, nu in itertools.product(Flavor, (0.0, 1.0)):
        yield make_phase_config(rng.uniform(-4.0, 10.0, n), nu * rng.standard_normal(n),
                                rng.choice(KAPPAS), rng.uniform(-1.5, 1.5), flavor)
    for drive, identity, kappa in itertools.product(("zero", "shared", "stacked"),
                                                    (True, False), (1.0, 1.7)):
        omega = {"zero": None, "shared": rng.standard_normal((3, 3)),
                 "stacked": rng.standard_normal((n, 3, 3))}[drive]
        a, w = (1.0, None) if identity else (1.3, rng.standard_normal((3, 3)))
        yield make_sphere_config(rng.standard_normal((n, 3)), omega, kappa, a, w)
        shape = {"zero": None, "shared": (2, 2), "stacked": (n, 2, 2)}[drive]
        h = None if shape is None else rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        u = np.array([random_unitary(rng, 2) for _ in range(n)])
        yield make_unitary_config(u, h, kappa, None if identity else random_unitary(rng, 2))


def _assert_tangent_kept(rhs, y, other):
    k = rhs(y)
    kept = k.copy()
    k_other = rhs(other)
    assert not np.shares_memory(k, k_other)
    assert k.tobytes() == kept.tobytes()


@pytest.mark.parametrize("n", (1, 8))
def test_a_tangent_outlives_the_kernels_next_call(n):
    rng = np.random.default_rng(1100 + n)
    for cfg in _kernel_cases(rng, n):
        y = dynamics.state_of(cfg)
        _assert_tangent_kept(dynamics.make_rhs(cfg), y, y + 0.1 * rng.standard_normal(y.shape))


@pytest.mark.parametrize("n", (1, 8))
def test_a_batch_tangent_outlives_the_kernels_next_call(n):
    rng = np.random.default_rng(1200 + n)
    cfgs = [cfg for cfg in _kernel_cases(rng, n) if dynamics.batch_key(cfg) is not None]
    for key in {dynamics.batch_key(cfg) for cfg in cfgs}:
        group = [cfg for cfg in cfgs if dynamics.batch_key(cfg) == key]
        group = (group * 3)[:3]
        rhs = dynamics.make_batch_rhs(group)
        y = np.stack([dynamics.state_of(cfg) for cfg in group])
        for b in (3, 2):
            _assert_tangent_kept(rhs, y[:b], y[:b] + 0.1 * rng.standard_normal(y[:b].shape))
        _assert_tangent_kept(rhs, y[0], y[1])


@pytest.mark.parametrize("scheme, t_final", [(Scheme.RK4, 0.5), (Scheme.DOPRI5, 0.5),
                                             (Scheme.RK4, 0.0)], ids=["rk4", "dopri5", "t0"])
@pytest.mark.parametrize("projection", [Projection.NONE, Projection.NORMALIZE])
def test_the_final_state_shares_no_memory_with_the_records(scheme, t_final, projection):
    cfg = make_sphere_config(np.random.default_rng(13).standard_normal((5, 3)))
    settings = IntegratorSettings(scheme=scheme, dt=1e-2, record_every=7,
                                  projection=projection)
    project = {Projection.NONE: None, Projection.NORMALIZE: _normalize_rows}[projection]
    times, states, final = _integrate_array(dynamics.make_rhs(cfg), cfg.x, settings,
                                            t_final, project)
    assert not np.shares_memory(final, states)
    assert not np.shares_memory(final, cfg.x)
    _assert_same_bits(final, states[-1])


# ---------------------------------------------------------------------------
# the circle kernel on any N, with the phases where exp(i theta) is exact or
# far from the origin

_SPECIAL_PHASES = np.array([0.0, -0.0, np.pi, -np.pi, 2 * np.pi, -2 * np.pi,
                            1e6, -1e6, 318309 * np.pi, -318309 * np.pi])


def _phases(rng, n, scale, special):
    """n phases uniform in [-scale, scale], each replaced with probability
    ``special`` by +-0.0, a multiple k pi (|k| up to 318 309, so |k pi| up to
    1e6) or one of ``_SPECIAL_PHASES``."""
    theta = rng.uniform(-scale, scale, n)
    hit = rng.random(n) < special
    picks = np.where(rng.random(n) < 0.5, rng.choice(_SPECIAL_PHASES, n),
                     rng.integers(-318309, 318310, n) * np.pi)
    return np.where(hit, picks, theta)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 300), flavor=st.sampled_from(list(Flavor)),
       members=st.integers(1, 4), nus=st.lists(st.booleans(), min_size=4, max_size=4),
       scale=st.sampled_from([10.0, 1e3, 1e6]), special=st.sampled_from([0.0, 0.2, 1.0]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_the_circle_kernel_equals_the_oracle_at_any_n(n, flavor, members, nus, scale,
                                                       special, seed):
    # single kernels and stacks of 2 to 4 members of one flavor, each
    # member's nu zero or not; every tangent equals the oracle's up to the
    # sign of a zero
    rng = np.random.default_rng(seed)
    cfgs = [make_phase_config(_phases(rng, n, scale, special),
                              rng.standard_normal(n) if nus[k] else 0.0,
                              rng.uniform(-3.0, 3.0), rng.uniform(-1.5, 1.5), flavor)
            for k in range(members)]
    if members == 1:
        got = dynamics.make_rhs(cfgs[0])(cfgs[0].theta)[None]
    else:
        got = dynamics.make_batch_rhs(cfgs)(np.stack([c.theta for c in cfgs]))
    for cfg, row in zip(cfgs, got):
        _assert_same_bits(row, _oracle_rhs(cfg)(cfg.theta))


# ---------------------------------------------------------------------------
# the inverse the polar factor calls: np.linalg.inv's gufunc, under its
# error state.  A numpy release that changes what np.linalg.inv computes
# around it fails here rather than changing a bit silently


@pytest.mark.parametrize("dtype", [float, complex])
def test_the_inverse_gufunc_is_np_linalg_inv(dtype):
    rng = np.random.default_rng(1300)
    signature = "D->D" if dtype is complex else "d->d"
    for d in range(1, 17):
        for stack in ((), (1,), (5,)):
            a = rng.standard_normal(stack + (d, d))
            if dtype is complex:
                a = a + 1j * rng.standard_normal(a.shape)
            # the polar factor inverts the contiguous conjugate transpose,
            # the plain formula the strided view np.linalg.inv was given
            star = np.conjugate(a.swapaxes(-1, -2), np.empty_like(a))
            want = np.linalg.inv(np.conj(np.swapaxes(a, -1, -2)))
            got = np.empty_like(a)
            _inverse(star, got, signature=signature)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# the matrix certificate's record and its POLAR steps


def _oracle_matrix_diameter(u):
    u = np.asarray(u, dtype=complex)
    diff = u[:, None] - u[None, :]
    squares = np.add.reduce((diff.conj() * diff).real, axis=(2, 3))  # as np.linalg.norm
    return float(np.sqrt(np.maximum.reduce(squares, None)))  # the root is monotone


@pytest.mark.parametrize("n", (1, 2, 5, 20))
def test_matrix_diameter_is_bitwise_identical(n):
    rng = np.random.default_rng(1400 + n)
    for d in (1, 2, 3, 4):
        u = np.array([random_unitary(rng, d) for _ in range(n)])
        bound = _bind_matrix_diameter(u.shape)
        for state in (u, u + 1e-3 * rng.standard_normal(u.shape),
                      np.broadcast_to(u[0], u.shape).copy()):
            want = _oracle_matrix_diameter(state)
            assert np.float64(matrix_diameter(state)).tobytes() == np.float64(want).tobytes()
            assert np.float64(bound(state)).tobytes() == np.float64(want).tobytes()


@pytest.mark.parametrize("d", (1, 2, 3))
@pytest.mark.parametrize("shared", [True, False], ids=["shared-h", "stacked-h"])
def test_polar_projected_records_are_bitwise_identical(d, shared):
    # the bound POLAR leaves its result in either accumulator, after an odd
    # or an even number of Newton iterations; every record must hold it
    rng = np.random.default_rng(1500 + d)
    cfg = _unitary_cfg(rng, 4, d, shared)
    run = IntegratorSettings(dt=0.05, record_every=1, projection=Projection.POLAR)
    times, states, final = _integrate_array(dynamics.make_rhs(cfg), cfg.u, run, 1.0,
                                            polar_factor)
    want_times, want_states = _oracle_records(cfg, 0.05, 1.0, 1, _oracle_polar_factor)
    assert times.tobytes() == want_times.tobytes()
    _assert_same_bits(states, want_states)
    _assert_same_bits(final, want_states[-1])


# ---------------------------------------------------------------------------
# oracle: the reduced systems of the stereographic reductions, as plain
# formulas


def _oracle_chart_centroid(ys):
    norm2 = np.add.reduce(ys * ys, 1)
    w = 1.0 / (1.0 + norm2)
    return 2.0 * np.add.reduce(w[:, None] * ys, 0), 1.0 + np.add.reduce((norm2 - 1.0) * w), w


def _oracle_reduced_stereo_rhs(state, kappa, n):
    ys, x_n = state[:-1], state[-1]
    drift, radial, _ = _oracle_chart_centroid(ys)
    inner = ys @ drift / 2.0                          # sum_j <y_i,y_j>/(1+|y_j|^2)
    k_n = kappa / n
    out = np.empty_like(state)
    out[:-1] = k_n * (drift[None, :] + radial * ys - 2.0 * inner[:, None] * x_n[None, :])
    out[-1] = k_n * drift
    return out


def _oracle_reduced_stereo_project(state):
    out = np.empty_like(state)
    x_n = out[-1] = state[-1] / np.sqrt(np.dot(state[-1], state[-1]))
    ys = out[:-1] = state[:-1] - (state[:-1] @ x_n)[:, None] * x_n
    if np.maximum.reduce(abs(ys), None) > rs.BLOWUP_LIMIT:
        raise PassedThroughProjectionPoint(
            "a projected point exceeded 1e12; the chart broke down")
    return out


def _oracle_reduced_abm_rhs(state, data):
    """(a', b', M') at state (a, b, M); (a', b') do not involve M."""
    dim = data.dim
    a, b = state[0], state[1:1 + dim]
    tangential, radial, w = _oracle_chart_centroid(a * data.y0 + b[None, :])
    kappa, k_n, x_n0 = data.kappa, data.kappa / data.n, data.x_n0
    out = np.empty_like(state)
    out[0] = k_n * radial * a
    out[1:1 + dim] = kappa * b + k_n * 2.0 * a * np.add.reduce(w[:, None] * data.y0, 0)
    m = state[1 + dim:].reshape(dim, dim)
    z = k_n * tangential
    ell = z[:, None] * x_n0 - x_n0[:, None] * z
    out[1 + dim:] = (m @ ell).ravel()
    return out


def _oracle_reduced_abm_project(state, data):
    """b onto the hyperplane orthogonal to x_N(0), M onto its polar factor."""
    dim = data.dim
    out = state.copy()
    b = out[1:1 + dim]
    out[1:1 + dim] = b - (b @ data.x_n0) * data.x_n0
    out[1 + dim:] = _oracle_polar_factor(out[1 + dim:].reshape(dim, dim)).ravel()
    return out


def _oracle_ab(n, m, kappa, alpha):
    c, s, k_n, add_reduce = np.cos(alpha), np.sin(alpha), kappa / n, np.add.reduce

    def ab(x):
        x2 = x * x
        t1, t2 = 2.0 * x / (x2 + 1.0), (x2 - 1.0) / (x2 + 1.0)
        return (k_n * (m * s + add_reduce(t1 * c + t2 * s)),
                k_n * (m * c + add_reduce(-t1 * s + t2 * c)))
    return ab


def _oracle_fg_rhs(data):
    x0 = data.x0
    ab = _oracle_ab(data.n, data.m, data.kappa, data.alpha)

    def rhs(fg):
        a, b = ab(fg[0] * x0 + fg[1])
        return np.array([b * fg[0], a + b * fg[1]])
    return rhs


def _oracle_run(rhs, y0, dt, t_final, every, project):
    """The times and states of a fixed-step run of the oracle's RK4 step and
    then ``project``, recorded every ``every`` steps and at the last."""
    n_steps = max(1, int(np.ceil(t_final / dt - 1e-9)))
    h = t_final / n_steps
    y = np.array(y0, copy=True)
    times, states = [0.0], [y]
    for i in range(1, n_steps + 1):
        y = project(_oracle_rk4_step(rhs, y, h))
        if i % every == 0 or i == n_steps:
            times.append(i * h)
            states.append(y)
    return np.array(times), np.array(states)


def _sphere_data(seed, n, dim, kappa):
    rng = np.random.default_rng(seed)
    cfg = random_sphere_config(rng, n, dim - 1, kappa=kappa)
    return rng, rs.project_sphere_config(cfg)


def _phase_data(seed, n, kappa, coincident):
    """Projected data of n phases, ``coincident`` of them (besides the
    reference) on the reference."""
    rng = np.random.default_rng(seed)
    cfg = random_phase_config(rng, n, kappa=kappa, alpha=rng.uniform(-1.5, 1.5))
    theta = cfg.theta.copy()
    theta[:coincident] = theta[-1]
    return rng, rk.project_phase_config(make_phase_config(theta, 0.0, kappa, cfg.alpha))


KAPPA = st.floats(0.1, 3.0).flatmap(lambda k: st.sampled_from([k, -k]))
REDUCED = dict(n=st.integers(2, 40), dim=st.integers(2, 5), kappa=KAPPA,
               seed=st.integers(0, 2 ** 32 - 1))


@settings(max_examples=40, deadline=None)
@given(**REDUCED)
def test_the_stereo_kernels_are_bitwise_identical(n, dim, kappa, seed):
    rng, data = _sphere_data(seed, n, dim, kappa)
    state = np.vstack([data.y0, data.x_n0[None, :]])
    rhs = rs._bind_stereo_rhs(state.shape, kappa, n)
    project = rs._bind_stereo_project(state.shape)
    for y in (state, state + 0.1 * rng.standard_normal(state.shape)):
        _assert_same_bits(rhs(y), _oracle_reduced_stereo_rhs(y, kappa, n))
        _assert_same_bits(project(y), _oracle_reduced_stereo_project(y))


@settings(max_examples=40, deadline=None)
@given(**REDUCED)
def test_the_abm_kernels_are_bitwise_identical(n, dim, kappa, seed):
    rng, data = _sphere_data(seed, n, dim, kappa)
    rhs, project = rs._bind_abm_rhs(data), rs._bind_abm_project(data)
    for _ in range(2):
        m = rng.standard_normal((dim, dim))
        state = np.concatenate([[rng.uniform(0.1, 3.0)], rng.standard_normal(dim), m.ravel()])
        near = state.copy()
        near[1 + dim:] = (polar_factor(m) + 1e-4 * rng.standard_normal((dim, dim))).ravel()
        for y in (state, near):
            _assert_same_bits(rhs(y), _oracle_reduced_abm_rhs(y, data))
            _assert_same_bits(project(y), _oracle_reduced_abm_project(y, data))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 40), kappa=KAPPA, coincident=st.integers(0, 3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_the_fg_kernel_is_bitwise_identical(n, kappa, coincident, seed):
    rng, data = _phase_data(seed, n, kappa, min(coincident, n - 1))
    rhs, oracle = rk._bind_fg_rhs(data), _oracle_fg_rhs(data)
    for fg in (np.array([1.0, 0.0]), np.array([rng.uniform(0.1, 3.0), rng.standard_normal()])):
        _assert_same_bits(rhs(fg), oracle(fg))


@settings(max_examples=10, deadline=None)
@given(n=st.integers(2, 12), dim=st.integers(2, 5), kappa=KAPPA, every=st.integers(1, 4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_the_reduced_sphere_runs_are_bitwise_identical(n, dim, kappa, every, seed):
    _, data = _sphere_data(seed, n, dim, kappa)
    run = IntegratorSettings(dt=0.02, record_every=every)
    stereo = rs.integrate_stereo_full(data, run, 0.4)
    state0 = np.vstack([data.y0, data.x_n0[None, :]])
    times, states = _oracle_run(lambda y: _oracle_reduced_stereo_rhs(y, kappa, n), state0,
                                0.02, 0.4, every, _oracle_reduced_stereo_project)
    assert stereo.times.tobytes() == times.tobytes()
    _assert_same_bits(stereo.y, states[:, :-1])
    _assert_same_bits(stereo.x_n, states[:, -1])

    reduced = rs.integrate_abM(data, run, 0.4)
    state0 = np.concatenate([[1.0], np.zeros(dim), np.eye(dim).ravel()])
    times, states = _oracle_run(lambda y: _oracle_reduced_abm_rhs(y, data), state0, 0.02, 0.4,
                                every, lambda y: _oracle_reduced_abm_project(y, data))
    assert reduced.times.tobytes() == times.tobytes()
    _assert_same_bits(reduced.a, states[:, 0])
    _assert_same_bits(reduced.b, states[:, 1:1 + dim])
    _assert_same_bits(reduced.m, states[:, 1 + dim:].reshape(-1, dim, dim))


@settings(max_examples=10, deadline=None)
@given(n=st.integers(2, 40), kappa=KAPPA, coincident=st.integers(0, 3),
       every=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
def test_the_fg_run_is_bitwise_identical(n, kappa, coincident, every, seed):
    _, data = _phase_data(seed, n, kappa, min(coincident, n - 1))
    reduced = rk.integrate_fg(data, IntegratorSettings(dt=0.02, record_every=every), 0.4)
    times, states = _oracle_run(_oracle_fg_rhs(data), np.array([1.0, 0.0]), 0.02, 0.4,
                                every, lambda y: y)
    assert reduced.times.tobytes() == times.tobytes()
    _assert_same_bits(reduced.f, states[:, 0])
    _assert_same_bits(reduced.g, states[:, 1])
