"""Bitwise identity of the per-step hot path against its reference formulas.

The rhs kernels bound by ``dynamics.make_rhs``, the RK4 step, the sphere
normalization and the polar factor promise the same floating-point operations
in the same order as the plain formulas below, which are kept here verbatim
as the oracle.  Every comparison is ``np.array_equal``, never a tolerance.
"""

import numpy as np
import pytest

from synclab import dynamics
from synclab.integrate import (
    IntegratorSettings,
    Projection,
    _normalize_rows,
    _rk4_coefficients,
    _rk4_step,
    integrate,
    polar_factor,
)
from synclab.state import (
    Flavor,
    PhaseConfig,
    SphereConfig,
    make_phase_config,
    make_sphere_config,
    make_unitary_config,
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


def _assert_rhs_identity(cfg, state, perturbed):
    ours, oracle = dynamics.make_rhs(cfg), _oracle_rhs(cfg)
    for y in (state, perturbed):
        assert np.array_equal(ours(y), oracle(y))


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


# ---------------------------------------------------------------------------
# stepping and projection


@pytest.mark.parametrize("n", SIZES)
def test_rk4_step_is_bitwise_identical(n):
    rng = np.random.default_rng(400 + n)
    for draw in range(DRAWS):
        h = rng.uniform(1e-4, 0.1)
        for cfg in (_phase_cfg(rng, n, Flavor.SINE),
                    _sphere_cfg(rng, n, 2, draw % 2 == 0, 1.0),
                    _unitary_cfg(rng, n, 2, draw % 2 == 0)):
            y = dynamics.state_of(cfg)
            ours = _rk4_step(dynamics.make_rhs(cfg), y, _rk4_coefficients(h, y))
            assert np.array_equal(ours, _oracle_rk4_step(_oracle_rhs(cfg), y, h))


@pytest.mark.parametrize("n", SIZES)
def test_normalize_rows_is_bitwise_identical(n):
    rng = np.random.default_rng(500 + n)
    for draw in range(DRAWS):
        x = rng.standard_normal((n, 2 + draw % 3)) * rng.uniform(0.5, 2.0)
        assert np.array_equal(_normalize_rows(x), _oracle_normalize_rows(x))


@pytest.mark.parametrize("n", (1, 5, 100))
def test_polar_factor_is_bitwise_identical(n):
    rng = np.random.default_rng(600 + n)
    for draw in range(DRAWS):
        d = 2 + draw % 3
        u = np.array([random_unitary(rng, d) for _ in range(n)])
        m = u + 1e-3 * (rng.standard_normal(u.shape) + 1j * rng.standard_normal(u.shape))
        assert np.array_equal(polar_factor(m), _oracle_polar_factor(m))
        assert np.array_equal(polar_factor(m.real), _oracle_polar_factor(m.real))


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
    assert np.array_equal(final, _oracle_integrate(cfg, 1e-3, 5.0, _oracle_normalize_rows))


def test_polar_projected_run_is_bitwise_identical():
    rng = np.random.default_rng(7)
    cfg = _unitary_cfg(rng, 5, 2, True)
    settings = IntegratorSettings(dt=1e-2, record_every=10 ** 9,
                                  projection=Projection.POLAR)
    final = integrate(cfg, settings, 1.0).final_state
    assert np.array_equal(final, _oracle_integrate(cfg, 1e-2, 1.0, _oracle_polar_factor))
