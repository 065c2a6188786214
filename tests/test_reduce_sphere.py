import dataclasses
import tracemalloc

import numpy as np
import pytest

from synclab import reduce_sphere as rs
from synclab.errors import CoincidentPoint, IntegrationError, PassedThroughProjectionPoint
from synclab.integrate import IntegratorSettings, Projection, integrate, polar_factor
from synclab.invariants import aggregation_diameter
from synclab.state import make_sphere_config, random_sphere_config


def test_project_antipodal_maps_to_origin():
    x_n = np.array([0.0, 0.0, 1.0])
    y = rs.project_all(np.stack([-x_n, x_n]))[0]
    np.testing.assert_allclose(y, 0.0, atol=1e-15)


def test_project_equator_is_fixed():
    x_n = np.array([0.0, 0.0, 1.0])
    x = np.array([1.0, 0.0, 0.0])
    np.testing.assert_allclose(rs.project_all(np.stack([x, x_n]))[0], x, atol=1e-15)


def test_project_invert_roundtrip_random_points():
    rng = np.random.default_rng(0)
    x_n = rng.standard_normal(4)
    x_n /= np.linalg.norm(x_n)
    for _ in range(50):
        x = rng.standard_normal(4)
        x /= np.linalg.norm(x)
        if np.linalg.norm(x - x_n) < 1e-3:
            continue
        y = rs.project_all(np.stack([x, x_n]))[0]
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
        rs.project_all(np.stack([x_n, x_n]))


def test_project_config_requires_distinct_points():
    x = np.array([[1.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0]])
    with pytest.raises(CoincidentPoint):
        rs.project_sphere_config(make_sphere_config(x))
    frustrated = make_sphere_config(np.eye(3), a=0.5)
    with pytest.raises(ValueError):
        rs.project_sphere_config(frustrated)


def test_project_config_needs_two_points():
    with pytest.raises(ValueError, match="at least two points"):
        rs.project_sphere_config(make_sphere_config(np.array([[0.0, 0.0, 1.0]])))


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


def test_stereo_run_past_the_blowup_limit_aborts(monkeypatch):
    # with no coupling the projected points stay at y(0), so a limit below
    # max |y(0)| is exceeded after the first step
    rng = np.random.default_rng(1)
    data = rs.project_sphere_config(make_sphere_config(rng.standard_normal((4, 3)),
                                                       kappa=0.0))
    monkeypatch.setattr(rs, "BLOWUP_LIMIT", 0.99 * float(np.max(np.abs(data.y0))))
    with pytest.raises(PassedThroughProjectionPoint):
        rs.integrate_stereo_full(data, IntegratorSettings(dt=1e-2, record_every=50), 0.1)


def test_abm_run_with_nonpositive_scale_aborts(monkeypatch):
    # a rhs that drives a(t) = 1 - 10 t through zero at t = 0.1
    def falling(state, data):
        out = np.zeros_like(state)
        out[0] = -10.0
        return out

    rng = np.random.default_rng(1)
    data = rs.project_sphere_config(make_sphere_config(rng.standard_normal((4, 3)),
                                                       kappa=1.0))
    monkeypatch.setattr(rs, "_bind_abm_rhs", lambda data: lambda state: falling(state, data))
    with pytest.raises(IntegrationError, match="scaling factor a lost positivity"):
        rs.integrate_abM(data, IntegratorSettings(dt=3e-2, record_every=50), 0.3)


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


def test_hierarchy_ab_entries_do_not_depend_on_m():
    # the rhs and the projection give the same (a, b) entries for any
    # orthogonal M, so the (a, b) equations decouple from M
    rng = np.random.default_rng(2)
    for dim in (2, 3, 4):
        cfg = make_sphere_config(rng.standard_normal((5, dim)), kappa=1.3)
        data = rs.project_sphere_config(cfg)
        ab = np.concatenate([[rng.uniform(0.5, 2.0)], rng.standard_normal(dim)])
        at_identity = np.concatenate([ab, np.eye(dim).ravel()])
        for _ in range(5):
            m = polar_factor(rng.standard_normal((dim, dim)))
            state = np.concatenate([ab, m.ravel()])
            for fn in (rs._bind_abm_rhs(data), rs._bind_abm_project(data)):
                assert np.array_equal(fn(state)[:1 + dim], fn(at_identity)[:1 + dim])


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
        got = rs._bind_stereo_rhs(state.shape, cfg.kappa, n)(state)
        want = _gram_stereo_rhs(state, cfg.kappa, n)
        # relative to the largest entry: single entries cancel to near zero
        np.testing.assert_allclose(got, want, rtol=0,
                                   atol=1e-13 * np.max(np.abs(want)))


def _oracle_stereo_project(x_j, x_n):
    # the per-point chart reduction_chain_report used before the array form
    diff = x_j - x_n
    d2 = float(diff @ diff)
    return x_n + (2.0 / d2) * diff


def _oracle_chain_report(cfg, settings, t_final):
    # the per-record and per-quadruple loops of the earlier
    # reduction_chain_report, kept as the oracle
    data = rs.project_sphere_config(cfg)
    full = integrate(cfg, dataclasses.replace(settings, projection=Projection.NORMALIZE),
                     t_final)
    stereo = rs.integrate_stereo_full(data, settings, t_final)
    reduced = rs.integrate_abM(data, settings, t_final)
    y_abm, xn_abm = rs.reconstruct_abM(reduced)
    err_fs = err_sa = err_fa = 0.0
    for idx in range(len(full.times)):
        xs = full.states[idx]
        y_full = np.array([_oracle_stereo_project(xi, xs[-1]) for xi in xs[:-1]])
        err_fs = max(err_fs, float(np.max(np.abs(y_full - stereo.y[idx]))),
                     float(np.max(np.abs(xs[-1] - stereo.x_n[idx]))))
        err_sa = max(err_sa, float(np.max(np.abs(stereo.y[idx] - y_abm[idx]))),
                     float(np.max(np.abs(stereo.x_n[idx] - xn_abm[idx]))))
        err_fa = max(err_fa, float(np.max(np.abs(y_full - y_abm[idx]))),
                     float(np.max(np.abs(xs[-1] - xn_abm[idx]))))
    eye = np.eye(data.dim)
    m_orth = float(np.max(np.linalg.norm(
        np.swapaxes(reduced.m, 1, 2) @ reduced.m - eye, axis=(1, 2))))
    b_orth = float(np.max(np.abs(reduced.b @ data.x_n0)))
    law = 0.0
    nm1 = data.n - 1
    if nm1 >= 2:
        quads = [(i, j, k, l) for i in range(nm1) for j in range(nm1)
                 for k in range(nm1) for l in range(nm1) if i != j and k != l]
        d0 = {(i, j): data.y0[i] - data.y0[j] for i in range(nm1) for j in range(nm1)}
        base = {q: float(d0[(q[0], q[1])] @ d0[(q[2], q[3])]) for q in quads}
        for idx in (len(full.times) - 1, len(full.times) // 2):
            yt = stereo.y[idx]
            a2 = reduced.a[idx] ** 2
            for q in quads:
                lhs = float((yt[q[0]] - yt[q[1]]) @ (yt[q[2]] - yt[q[3]]))
                law = max(law, abs(lhs - a2 * base[q]) / max(1.0, abs(lhs)))
    rho_dev = 0.0
    for idx in range(len(full.times)):
        from_points = float(np.linalg.norm(full.states[idx].mean(axis=0))) ** 2
        from_reduced = rs.rho_squared_reduced(reduced.a[idx], reduced.b[idx], data)
        rho_dev = max(rho_dev, abs(from_points - from_reduced))
    return rs.SphereReductionReport(
        full_vs_stereo=err_fs, stereo_vs_abm=err_sa, full_vs_abm=err_fa,
        m_orthogonality=m_orth, a_min=float(reduced.a.min()),
        b_orthogonality=b_orth, inner_product_law_residual=law,
        rho_consistency=rho_dev)


@pytest.mark.parametrize("n", [2, 3, 5, 12])
def test_reduction_chain_report_matches_loop_oracle(n):
    for seed, d, kappa in ((0, 2, 1.0), (1, 3, -0.7)):
        cfg = random_sphere_config(np.random.default_rng(100 * n + seed), n, d,
                                   kappa=kappa)
        settings = IntegratorSettings(dt=1e-2, record_every=7)
        got = rs.reduction_chain_report(cfg, settings, 1.0)
        want = _oracle_chain_report(cfg, settings, 1.0)
        for field in dataclasses.fields(want):
            assert getattr(got, field.name) == getattr(want, field.name), field.name


def test_project_all_matches_per_point_chart():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((6, 7, 4))
    x /= np.linalg.norm(x, axis=-1, keepdims=True)
    got = rs.project_all(x)
    assert got.shape == (6, 6, 4)
    for t in range(6):
        want = np.array([_oracle_stereo_project(xi, x[t, -1]) for xi in x[t, :-1]])
        assert np.array_equal(got[t], want)
        assert np.array_equal(rs.project_all(x[t]), want)
        assert np.array_equal(rs.project_all(x[t, [0, -1]])[0], want[0])


def test_reduction_chain_report_memory_at_n60():
    # the per-quadruple list of the loop formulation needed gigabytes at N=100
    cfg = random_sphere_config(np.random.default_rng(0), 60, 2)
    tracemalloc.start()
    try:
        rep = rs.reduction_chain_report(cfg, IntegratorSettings(dt=1e-3, record_every=30),
                                        0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50e6, peak
    assert rep.three_way_max < 1e-10 and rep.inner_product_law_residual < 1e-10


def _oracle_stereo_rhs(state, kappa, n):
    # the stereo rhs with the chart centroid written out in place
    ys = state[:-1]
    x_n = state[-1]
    norm2 = np.sum(ys * ys, axis=1)
    w = 1.0 / (1.0 + norm2)
    drift = 2.0 * (w[:, None] * ys).sum(axis=0)
    radial = 1.0 + np.sum((norm2 - 1.0) * w)
    inner = ys @ drift / 2.0
    dys = (kappa / n) * (drift[None, :] + radial * ys - 2.0 * inner[:, None] * x_n[None, :])
    dx_n = (kappa / n) * drift
    return np.vstack([dys, dx_n[None, :]])


def _oracle_abm_rhs(state, data):
    # the (a, b, M) rhs with the chart centroid written out in place
    dim = data.dim
    a = state[0]
    b = state[1:1 + dim]
    yk = a * data.y0 + b[None, :]
    norm2 = np.sum(yk * yk, axis=1)
    w = 1.0 / (1.0 + norm2)
    kappa, n = data.kappa, data.n
    da = (kappa / n) * (1.0 + np.sum((norm2 - 1.0) * w)) * a
    db = kappa * b + (kappa / n) * 2.0 * a * (w[:, None] * data.y0).sum(axis=0)
    out = np.empty_like(state)
    out[0] = da
    out[1:1 + dim] = db
    m = state[1 + dim:].reshape(dim, dim)
    z = (kappa / n) * 2.0 * (w[:, None] * yk).sum(axis=0)
    ell = np.outer(z, data.x_n0) - np.outer(data.x_n0, z)
    out[1 + dim:] = (m @ ell).ravel()
    return out


def _oracle_rho_squared_reduced(a, b, data):
    yk = a * data.y0 + b[None, :]
    norm2 = np.sum(yk * yk, axis=1)
    w = 1.0 / (1.0 + norm2)
    tangential = 2.0 * (w[:, None] * yk).sum(axis=0)
    radial = 1.0 + np.sum((norm2 - 1.0) * w)
    return float((tangential @ tangential + radial ** 2) / data.n ** 2)


@pytest.mark.parametrize("n, d", [(3, 1), (5, 2), (8, 3), (24, 2)])
def test_chart_centroid_callers_equal_the_inline_oracles(n, d):
    # one helper now sums the chart centroid; each caller must return the
    # same floats as its body with the sums written out
    for seed in range(5):
        rng = np.random.default_rng(1000 * n + 10 * d + seed)
        cfg = random_sphere_config(rng, n, d, kappa=rng.uniform(-2.0, 2.0))
        data = rs.project_sphere_config(cfg)
        stereo = np.vstack([data.y0 + 0.3 * rng.standard_normal(data.y0.shape),
                            data.x_n0[None, :]])
        assert np.array_equal(rs._bind_stereo_rhs(stereo.shape, cfg.kappa, n)(stereo),
                              _oracle_stereo_rhs(stereo, cfg.kappa, n))
        a = rng.uniform(0.1, 3.0)
        b = rng.standard_normal(data.dim)
        m = rng.standard_normal((data.dim, data.dim))
        abm = np.concatenate([[a], b, m.ravel()])
        assert np.array_equal(rs._bind_abm_rhs(data)(abm), _oracle_abm_rhs(abm, data))
        assert rs.rho_squared_reduced(a, b, data) == _oracle_rho_squared_reduced(a, b, data)


def test_aggregation_initial_gap_is_the_first_record():
    cfg = random_sphere_config(np.random.default_rng(5), 5, 2, a=1.0, w_scale=0.1)
    res = rs.sphere_aggregation_check(cfg, 0.5, IntegratorSettings(dt=1e-2))
    assert res.initial_gap == aggregation_diameter(cfg.x)


@pytest.mark.parametrize("t_final", [0.0, -1.0, np.nan])
def test_aggregation_refuses_a_run_of_no_step(t_final):
    # three points 1.6e-6 apart would read Aggregated at t_final 0
    x = np.array([[0.0, 0.0, 1.0], [1.6e-6, 0.0, 1.0], [0.0, 1.6e-6, 1.0]])
    cfg = make_sphere_config(x)
    with pytest.raises(ValueError, match="needs t_final > 0"):
        rs.sphere_aggregation_check(cfg, t_final)
