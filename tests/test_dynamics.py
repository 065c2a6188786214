import numpy as np
import pytest

from synclab import dynamics
from synclab.state import (
    Flavor,
    make_phase_config,
    make_sphere_config,
    make_unitary_config,
    random_sphere_config,
    random_unitary,
    random_unitary_config,
)


def test_sine_antipodal_pair_is_stationary():
    cfg = make_phase_config([0.0, np.pi], kappa=1.0)
    np.testing.assert_allclose(dynamics.make_rhs(cfg)(cfg.theta), [0.0, 0.0], atol=1e-15)


def test_sine_two_oscillator_direct_sum():
    cfg = make_phase_config([0.0, np.pi / 2], kappa=2.0)
    np.testing.assert_allclose(dynamics.make_rhs(cfg)(cfg.theta), [1.0, -1.0], atol=1e-14)


def test_cosine_single_oscillator_reduces_to_cos_alpha():
    cfg = make_phase_config([0.7], kappa=1.0, alpha=np.pi / 3, flavor=Flavor.COSINE)
    np.testing.assert_allclose(dynamics.make_rhs(cfg)(cfg.theta), [0.5], atol=1e-15)


def test_natural_frequencies_add():
    cfg = make_phase_config([0.0, np.pi], nu=[0.3, -0.2], kappa=1.0)
    np.testing.assert_allclose(dynamics.make_rhs(cfg)(cfg.theta), [0.3, -0.2], atol=1e-14)


def test_sphere_single_particle_is_stationary():
    cfg = make_sphere_config(np.array([[1.0, 0.0]]), kappa=1.0)
    np.testing.assert_allclose(dynamics.make_rhs(cfg)(cfg.x), 0.0, atol=1e-15)


def test_sphere_orthonormal_pair():
    cfg = make_sphere_config(np.eye(2), kappa=1.0)
    dx = dynamics.make_rhs(cfg)(cfg.x)
    np.testing.assert_allclose(dx[0], [0.0, 0.5], atol=1e-15)
    np.testing.assert_allclose(dx[1], [0.5, 0.0], atol=1e-15)


def test_skew_pair_inner_product_is_conserved_instantaneously():
    # d/dt <x1, x2> = <dx1, x2> + <x1, dx2> must vanish for a = 0
    w = np.array([[0.0, -1.0], [1.0, 0.0]])
    cfg = make_sphere_config(np.eye(2), kappa=1.0, a=0.0, w=w)
    dx = dynamics.make_rhs(cfg)(cfg.x)
    ddt = dx[0] @ cfg.x[1] + cfg.x[0] @ dx[1]
    assert abs(ddt) < 1e-15


def test_sphere_tangency_100_random_configs():
    rng = np.random.default_rng(11)
    for _ in range(100):
        cfg = random_sphere_config(rng, rng.integers(2, 7), rng.integers(1, 4),
                                   a=rng.uniform(0, 2), w_scale=0.7,
                                   omega_scale=0.5, shared_omega=False)
        assert dynamics.sphere_tangency_residual(cfg) < 1e-12


def test_aggregated_matrix_state_is_stationary():
    u0 = random_unitary(np.random.default_rng(3), 2)
    cfg = make_unitary_config(np.array([u0, u0, u0]), kappa=1.0)
    np.testing.assert_allclose(dynamics.make_rhs(cfg)(cfg.u), 0.0, atol=1e-15)


def test_unitarity_tangency_100_random_configs():
    rng = np.random.default_rng(12)
    for _ in range(100):
        cfg = random_unitary_config(rng, rng.integers(2, 6), rng.integers(1, 4),
                                    h_scale=0.8)
        assert dynamics.unitary_tangency_residual(cfg) < 1e-10


def test_d1_matrix_model_reproduces_sine_kuramoto():
    rng = np.random.default_rng(13)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        theta = rng.uniform(0, 2 * np.pi, n)
        nu = rng.standard_normal()
        alpha = rng.uniform(-1.5, 1.5)
        kappa = rng.uniform(0.2, 3.0)
        ucfg = make_unitary_config(
            np.exp(-1j * theta).reshape(n, 1, 1),
            h=np.array([[nu]]), kappa=kappa,
            v=np.array([[np.exp(-1j * alpha)]]))
        du = dynamics.make_rhs(ucfg)(ucfg.u)
        # i dU U* is real and equals the phase velocity of theta
        dtheta = np.real((1j * du[:, 0, 0]) * np.conj(ucfg.u[:, 0, 0]))
        pcfg = make_phase_config(theta, nu, kappa, alpha, Flavor.SINE)
        np.testing.assert_allclose(dtheta, dynamics.make_rhs(pcfg)(pcfg.theta),
                                   atol=1e-12)


def test_right_translate_identity_is_noop():
    rng = np.random.default_rng(14)
    cfg = random_unitary_config(rng, 3, 2)
    out = dynamics.right_translate(cfg, np.eye(2))
    np.testing.assert_array_equal(out.u, cfg.u)


def test_right_translate_u1_shifts_phase():
    rng = np.random.default_rng(15)
    theta = rng.uniform(0, 2 * np.pi, 4)
    cfg = make_unitary_config(np.exp(-1j * theta).reshape(4, 1, 1))
    out = dynamics.right_translate(cfg, np.array([[np.exp(1j * 0.4)]]))
    np.testing.assert_allclose(out.u[:, 0, 0], np.exp(-1j * (theta - 0.4)),
                               atol=1e-14)
    np.testing.assert_allclose(dynamics.make_rhs(out)(out.u) * np.exp(-1j * 0.4),
                               dynamics.make_rhs(cfg)(cfg.u), atol=1e-14)


def test_right_translate_commutes_with_flow():
    rng = np.random.default_rng(16)
    cfg = random_unitary_config(rng, 3, 2, h_scale=0.5)
    ell = random_unitary(rng, 2)
    moved = dynamics.right_translate(cfg, ell)
    lhs = dynamics.make_rhs(moved)(moved.u)
    rhs = dynamics.make_rhs(cfg)(cfg.u) @ ell
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_right_translate_rejects_non_unitary():
    cfg = random_unitary_config(np.random.default_rng(17), 2, 2)
    with pytest.raises(ValueError):
        dynamics.right_translate(cfg, np.diag([2.0, 1.0]).astype(complex))


# --- d=2 pushforward consistency ----------------------------------------------


def test_matrix_to_sphere_check_single_oscillator():
    rng = np.random.default_rng(18)
    cfg = make_unitary_config(np.array([random_unitary(rng, 2)]),
                              h=np.array([[0.3, 0], [0, 0.3]]), kappa=1.0)
    assert dynamics.reduce_matrix_to_sphere_check(cfg) < 1e-12


def test_matrix_to_sphere_check_scalar_hamiltonian():
    rng = np.random.default_rng(19)
    cfg = random_unitary_config(rng, 4, 2)
    cfg = make_unitary_config(cfg.u, h=0.7 * np.eye(2), kappa=1.3)
    assert dynamics.reduce_matrix_to_sphere_check(cfg) < 1e-9


def test_matrix_to_sphere_check_random_frustrated():
    rng = np.random.default_rng(20)
    v4 = rng.standard_normal(4)
    v4 /= np.linalg.norm(v4)
    from synclab.state import quat_to_matrix
    h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    cfg = random_unitary_config(rng, 4, 2)
    cfg = make_unitary_config(cfg.u, h=(h + h.conj().T) / 2, kappa=0.9,
                              v=quat_to_matrix(v4))
    assert dynamics.reduce_matrix_to_sphere_check(cfg) < 1e-9


def test_matrix_to_sphere_check_per_oscillator_hamiltonians():
    rng = np.random.default_rng(22)
    v4 = rng.standard_normal(4)
    v4 /= np.linalg.norm(v4)
    from synclab.state import quat_to_matrix
    h = rng.standard_normal((6, 2, 2)) + 1j * rng.standard_normal((6, 2, 2))
    cfg = random_unitary_config(rng, 6, 2)
    cfg = make_unitary_config(cfg.u, h=(h + h.conj().swapaxes(1, 2)) / 2, kappa=1.1,
                              v=quat_to_matrix(v4))
    assert not cfg.shared_h
    assert dynamics.reduce_matrix_to_sphere_check(cfg) < 1e-9


def test_matrix_to_sphere_check_rejects_wrong_dimension():
    cfg = random_unitary_config(np.random.default_rng(21), 3, 3)
    with pytest.raises(ValueError):
        dynamics.reduce_matrix_to_sphere_check(cfg)
