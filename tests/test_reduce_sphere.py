import numpy as np
import pytest

from synclab import reduce_sphere as rs
from synclab.errors import CoincidentPoint
from synclab.integrate import IntegratorSettings
from synclab.state import make_sphere_config, random_sphere_config


def test_project_antipodal_maps_to_origin():
    x_n = np.array([0.0, 0.0, 1.0])
    y = rs.sphere_stereo_project(-x_n, x_n)
    np.testing.assert_allclose(y, 0.0, atol=1e-15)


def test_project_equator_is_fixed():
    x_n = np.array([0.0, 0.0, 1.0])
    x = np.array([1.0, 0.0, 0.0])
    np.testing.assert_allclose(rs.sphere_stereo_project(x, x_n), x, atol=1e-15)


def test_project_invert_roundtrip_random_points():
    rng = np.random.default_rng(0)
    x_n = rng.standard_normal(4)
    x_n /= np.linalg.norm(x_n)
    for _ in range(50):
        x = rng.standard_normal(4)
        x /= np.linalg.norm(x)
        if np.linalg.norm(x - x_n) < 1e-3:
            continue
        y = rs.sphere_stereo_project(x, x_n)
        assert abs(y @ x_n) < 1e-12
        np.testing.assert_allclose(rs.sphere_stereo_invert(y, x_n), x, atol=1e-12)


def test_invert_origin_gives_antipode():
    x_n = np.array([0.0, 1.0, 0.0])
    np.testing.assert_allclose(rs.sphere_stereo_invert(np.zeros(3), x_n), -x_n)


def test_invert_large_norm_approaches_reference():
    x_n = np.array([0.0, 0.0, 1.0])
    y = np.array([1e8, 0.0, 0.0])
    x = rs.sphere_stereo_invert(y, x_n)
    assert np.linalg.norm(x - x_n) < 1e-7


def test_invert_unit_orthogonal_is_fixed():
    x_n = np.array([0.0, 0.0, 1.0])
    y = np.array([0.0, 1.0, 0.0])
    np.testing.assert_allclose(rs.sphere_stereo_invert(y, x_n), y, atol=1e-15)


def test_project_rejects_reference_point():
    x_n = np.array([0.0, 0.0, 1.0])
    with pytest.raises(CoincidentPoint):
        rs.sphere_stereo_project(x_n, x_n)


def test_project_config_requires_distinct_points():
    x = np.array([[1.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0]])
    with pytest.raises(CoincidentPoint):
        rs.project_sphere_config(make_sphere_config(x))
    frustrated = make_sphere_config(np.eye(3), a=0.5)
    with pytest.raises(ValueError):
        rs.project_sphere_config(frustrated)


def test_zero_coupling_trajectories_are_constant():
    rng = np.random.default_rng(1)
    cfg = make_sphere_config(rng.standard_normal((4, 3)), kappa=0.0)
    data = rs.project_sphere_config(cfg)
    st = rs.integrate_stereo_full(data, IntegratorSettings(dt=1e-2), 1.0)
    np.testing.assert_allclose(st.y, np.broadcast_to(st.y[0], st.y.shape), atol=1e-14)
    red = rs.integrate_abM(data, IntegratorSettings(dt=1e-2), 1.0)
    np.testing.assert_allclose(red.a, 1.0, atol=1e-14)
    np.testing.assert_allclose(red.b, 0.0, atol=1e-14)
    np.testing.assert_allclose(red.m, np.broadcast_to(np.eye(3), red.m.shape), atol=1e-14)


def test_two_particle_antipodal_equilibrium():
    # y(0) = 0 forces b = 0 and a' = 0: the antipodal pair never moves
    x = np.array([[0.0, 0.0, -1.0], [0.0, 0.0, 1.0]])
    data = rs.project_sphere_config(make_sphere_config(x, kappa=1.0))
    np.testing.assert_allclose(data.y0, 0.0, atol=1e-15)
    red = rs.integrate_abM(data, IntegratorSettings(dt=1e-3), 2.0)
    np.testing.assert_allclose(red.a, 1.0, atol=1e-12)
    np.testing.assert_allclose(red.b, 0.0, atol=1e-12)


def test_two_particle_pendulum_oracle():
    # orthogonal pair: the angle obeys gamma' = -kappa sin(gamma), hence
    # ||y(t)|| = cot(gamma/2) = e^{kappa t} exactly
    kappa = 1.0
    x = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    data = rs.project_sphere_config(make_sphere_config(x, kappa=kappa))
    red = rs.integrate_abM(data, IntegratorSettings(dt=1e-3, record_every=100), 1.0)
    y, _ = rs.reconstruct_abM(red)
    norms = np.linalg.norm(y[:, 0, :], axis=1)
    np.testing.assert_allclose(norms, np.exp(kappa * red.times), rtol=1e-9)


def test_hierarchy_ab_does_not_depend_on_m():
    rng = np.random.default_rng(2)
    cfg = make_sphere_config(rng.standard_normal((5, 3)), kappa=1.0)
    data = rs.project_sphere_config(cfg)
    with_m = rs.integrate_abM(data, IntegratorSettings(dt=1e-2), 1.0)
    without_m = rs.integrate_abM(data, IntegratorSettings(dt=1e-2), 1.0,
                                 update_m=False)
    assert np.array_equal(with_m.a, without_m.a)
    assert np.array_equal(with_m.b, without_m.b)
    np.testing.assert_allclose(without_m.m, np.broadcast_to(np.eye(3), without_m.m.shape), atol=1e-15)


def test_reduction_chain_consistency():
    rng = np.random.default_rng(3)
    cfg = make_sphere_config(rng.standard_normal((5, 3)), kappa=1.0)
    rep = rs.reduction_chain_report(cfg, IntegratorSettings(dt=1e-3,
                                                            record_every=50), 2.0)
    assert rep.three_way_max < 1e-4
    assert rep.m_orthogonality < 1e-8
    assert rep.a_min > 0.0
    assert rep.b_orthogonality < 1e-10
    assert rep.inner_product_law_residual < 1e-5
    assert rep.rho_consistency < 1e-8


def test_eight_index_ratio_identity():
    # <y_a-y_b, y_c-y_d>(t) <y_e-y_f, y_g-y_h>(0) is symmetric in time
    rng = np.random.default_rng(4)
    cfg = make_sphere_config(rng.standard_normal((6, 3)), kappa=1.0)
    data = rs.project_sphere_config(cfg)
    st = rs.integrate_stereo_full(data, IntegratorSettings(dt=1e-3,
                                                           record_every=100), 2.0)
    y0, yt = st.y[0], st.y[-1]
    rng2 = np.random.default_rng(5)
    for _ in range(30):
        a, b, c, d, e, f, g, h = rng2.integers(0, 5, 8)
        lhs = ((yt[a] - yt[b]) @ (yt[c] - yt[d])) * ((y0[e] - y0[f]) @ (y0[g] - y0[h]))
        rhs = ((y0[a] - y0[b]) @ (y0[c] - y0[d])) * ((yt[e] - yt[f]) @ (yt[g] - yt[h]))
        assert abs(lhs - rhs) <= 1e-5 * max(1.0, abs(lhs), abs(rhs))


def test_affine_subspaces_are_invariant():
    # points on a circle (a 2-plane section) stay in a 2-plane (Prop-style)
    from synclab.invariants import affine_fit_residual
    from synclab.integrate import integrate, Projection
    angles = np.linspace(0.3, 5.2, 5)
    r, h = 0.8, 0.6
    pts = np.stack([r * np.cos(angles), r * np.sin(angles),
                    np.full(5, h), np.zeros(5)], axis=1)
    cfg = make_sphere_config(pts, kappa=1.0)
    traj = integrate(cfg, IntegratorSettings(dt=1e-3, record_every=100,
                                             projection=Projection.NORMALIZE), 5.0)
    for s in traj.states:
        assert affine_fit_residual(s, 2) < 1e-7


def test_aggregation_certified_regime():
    psi = np.pi / 6
    pts = np.array([
        [np.sin(psi), 0.0, np.cos(psi)],
        [-np.sin(psi), 0.0, np.cos(psi)],
        [0.0, np.sin(psi) / 2, np.cos(psi / 2)],
        [0.1, -0.1, 1.0],
        [0.05, 0.12, 1.0],
        [-0.08, 0.03, 1.0],
    ])
    rng = np.random.default_rng(6)
    w = rng.standard_normal((3, 3))
    w = (w - w.T) / 2
    w *= 0.1 / np.linalg.norm(w, 2)
    cfg = make_sphere_config(pts, None, kappa=1.0, a=1.0, w=w)
    res = rs.sphere_aggregation_check(
        cfg, 30.0, IntegratorSettings(dt=2e-3, record_every=25))
    assert res.hypothesis_ok
    assert res.verdict == "Aggregated"
    assert res.rate_consistent
    assert res.fitted_rate >= 0.5 * res.predicted_rate


def test_aggregation_pure_skew_is_unconditioned_and_fails():
    rng = np.random.default_rng(7)
    w = rng.standard_normal((3, 3))
    cfg = make_sphere_config(rng.standard_normal((4, 3)), None, kappa=1.0,
                             a=0.0, w=w)
    res = rs.sphere_aggregation_check(
        cfg, 10.0, IntegratorSettings(dt=2e-3, record_every=25))
    assert not res.hypothesis_ok
    assert res.verdict == "Unconditioned"
    assert not res.aggregated


def _gram_stereo_rhs(state, kappa, n):
    # the (N-1)^2 Gram-matrix formulation of inner, kept as the oracle
    ys = state[:-1]
    x_n = state[-1]
    norm2 = np.sum(ys * ys, axis=1)
    w = 1.0 / (1.0 + norm2)
    drift = 2.0 * (w[:, None] * ys).sum(axis=0)
    radial = 1.0 + np.sum((norm2 - 1.0) * w)
    inner = (ys @ ys.T * w[None, :]).sum(axis=1)
    dys = (kappa / n) * (drift[None, :] + radial * ys - 2.0 * inner[:, None] * x_n[None, :])
    return np.vstack([dys, (kappa / n) * drift[None, :]])


@pytest.mark.parametrize("n", [5, 24, 100])
@pytest.mark.parametrize("d", [1, 2, 4])
def test_stereo_rhs_matches_gram_formula(n, d):
    for seed in range(5):
        cfg = random_sphere_config(np.random.default_rng(seed), n, d, kappa=1.3)
        data = rs.project_sphere_config(cfg)
        state = np.vstack([data.y0, data.x_n0[None, :]])
        got = rs._stereo_rhs(state, cfg.kappa, n)
        want = _gram_stereo_rhs(state, cfg.kappa, n)
        # relative to the largest entry: single entries cancel to near zero
        np.testing.assert_allclose(got, want, rtol=0,
                                   atol=1e-13 * np.max(np.abs(want)))
