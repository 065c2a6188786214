"""The aggregation and dichotomy certificates record one functional per
record point instead of the trajectory.

Each certificate is checked field by field against the code it replaced,
which integrated the whole trajectory and evaluated the functional on the
recorded states afterwards; that code is kept here as the oracle.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from synclab import equilibria as eq
from synclab import reduce_kuramoto as rk
from synclab import reduce_sphere as rs
from synclab.dynamics import make_rhs, state_of
from synclab.integrate import (
    IntegratorSettings,
    Projection,
    Scheme,
    _integrate_array,
    _projector,
    default_settings,
    integrate,
    integrate_functional,
)
from synclab.invariants import (
    aggregation_diameter,
    matrix_diameter,
    max_pairwise_distance,
    order_parameter_R,
)
from synclab.state import (
    Flavor,
    make_phase_config,
    make_sphere_config,
    make_unitary_config,
    random_phase_config,
    random_sphere_config,
    random_unitary_config,
)

# ---------------------------------------------------------------------------
# the record-then-evaluate certificates, as they were before


def _matrix_oracle(cfg, t_final, settings=None, slack=1e-3, diameter_threshold=1e-4):
    if settings is None:
        settings = IntegratorSettings(dt=1e-3, record_every=1)
    settings = dataclasses.replace(settings, projection=Projection.POLAR)
    v_dist = float(np.linalg.norm(cfg.v - np.eye(cfg.d)))
    d0 = matrix_diameter(cfg.u)
    hypothesis = v_dist < 2.0 / 3.0 and d0 < np.sqrt(2.0 - 3.0 * v_dist)
    traj = integrate(cfg, settings, t_final)
    diam = np.array([matrix_diameter(s) for s in traj.states])
    dts = np.diff(traj.times)
    fwd = np.diff(diam) / dts
    bound = (-(cfg.kappa / 2.0) * (2.0 - 3.0 * v_dist) * diam[:-1]
             + (cfg.kappa / 2.0) * diam[:-1] ** 3)
    excess = float(np.max(fwd - bound))
    return eq.MatrixAggregationResult(
        hypothesis_ok=bool(hypothesis), v_distance=v_dist,
        initial_diameter=float(d0),
        aggregated=bool(diam[-1] < diameter_threshold),
        final_diameter=float(diam[-1]),
        riccati_ok=bool(excess <= slack), max_riccati_excess=excess)


def _sphere_oracle(cfg, t_final, settings=None, distance_threshold=1e-4):
    if settings is None:
        settings = IntegratorSettings(dt=1e-3, record_every=25)
    settings = dataclasses.replace(settings, projection=Projection.NORMALIZE)
    w_op = float(np.linalg.norm(cfg.w, 2))
    w_fro = float(np.linalg.norm(cfg.w))
    gap0 = aggregation_diameter(cfg.x)
    hypothesis = (cfg.a > 0 and w_op < cfg.a and cfg.shared_omega is True
                  and gap0 < 1.0 - w_op / cfg.a)
    traj = integrate(cfg, settings, t_final)
    diam = np.array([aggregation_diameter(s) for s in traj.states])
    final_dist = max_pairwise_distance(traj.final_state)
    predicted = 2.0 * cfg.kappa * (cfg.a - w_op)
    fit_mask = (diam > 1e-24) & (diam < gap0 / 4.0) if gap0 > 0 else np.zeros_like(diam, bool)
    if np.count_nonzero(fit_mask) >= 2:
        fitted = -float(np.polyfit(traj.times[fit_mask], np.log(diam[fit_mask]), 1)[0])
    else:
        fitted = float("nan")
    return rs.SphereAggregationResult(
        hypothesis_ok=bool(hypothesis), w_norm_op=w_op, w_norm_fro=w_fro,
        initial_gap=float(gap0), aggregated=bool(final_dist < distance_threshold),
        final_max_distance=float(final_dist), fitted_rate=fitted,
        predicted_rate=predicted,
        rate_consistent=bool(np.isfinite(fitted) and fitted >= 0.5 * predicted))


def _dichotomy_oracle(theta0, alpha, kappa, t_final, eps=1e-3, settings=None):
    theta0 = np.asarray(theta0, dtype=float)
    if settings is None:
        settings = IntegratorSettings(dt=1e-2, record_every=10)
    precondition_ok = True
    if alpha > 0:
        spread = float(theta0.max() - theta0.min()) if theta0.size else 0.0
        precondition_ok = 0 < alpha < np.pi / 2 and spread < 2 * alpha
    elif alpha < 0:
        # the circle chart's coincidence rule on every pair
        i, j = np.triu_indices(theta0.size, 1)
        distinct = not np.any(rk._coincident(theta0[i] - theta0[j]))
        precondition_ok = -np.pi / 2 < alpha < 0 and distinct
    cfg = make_phase_config(theta0, 0.0, kappa, alpha, Flavor.COSINE)
    traj = integrate(cfg, settings, t_final)
    sums = traj.states.sum(axis=1)
    monotone = bool(np.all(np.diff(sums) >= -1e-9))
    r_final, _ = order_parameter_R(traj.final_state)
    verdict = ("SyncR1" if r_final > 1.0 - eps
               else "IncoherenceR0" if r_final < eps else "Inconclusive")
    return rk.DichotomyResult(verdict=verdict, r_final=r_final,
                              precondition_ok=precondition_ok,
                              total_phase_monotone=monotone)


def _assert_same_result(new, old):
    assert type(new) is type(old)
    for f in dataclasses.fields(old):
        a, b = getattr(new, f.name), getattr(old, f.name)
        assert type(a) is type(b), f.name
        assert a == b or (a != a and b != b), (f.name, a, b)


# ---------------------------------------------------------------------------
# the certificates' configurations: the suite's first, then two more each


def _suite_matrix():
    u0 = eq.spread_unitary_family(np.random.default_rng(8), 5, 2, 1.2)
    return (make_unitary_config(u0, None, 1.0, None), 40.0,
            IntegratorSettings(dt=2e-3, record_every=1))


def _frustrated_matrix():
    phi = 2.0 * np.arcsin(np.sqrt(0.09 / 8.0))   # ||V - I||_F = 0.3
    v = np.diag([np.exp(1j * phi), np.exp(-1j * phi)])
    u0 = eq.spread_unitary_family(np.random.default_rng(9), 5, 2, 1.0)
    return (make_unitary_config(u0, kappa=1.0, v=v), 6.0,
            IntegratorSettings(dt=1e-3, record_every=3))


def _group_matrix_dopri5():
    cfg = make_unitary_config(eq.symmetric_standard_rep(3).matrices, kappa=1.0)
    return cfg, 2.0, IntegratorSettings(scheme=Scheme.DOPRI5, dt=1e-2, record_every=2)


MATRIX_CASES = {"suite": _suite_matrix, "frustrated": _frustrated_matrix,
                "group-dopri5": _group_matrix_dopri5}


@pytest.mark.parametrize("case", sorted(MATRIX_CASES))
def test_matrix_aggregation_matches_record_then_evaluate(case):
    cfg, t_final, settings = MATRIX_CASES[case]()
    _assert_same_result(eq.matrix_aggregation_check(cfg, t_final, settings),
                        _matrix_oracle(cfg, t_final, settings))


def _suite_sphere():
    rng = np.random.default_rng(7)
    skew = rng.standard_normal((3, 3))
    rng.standard_normal((3, 3))
    x = 2.0 * np.array([0.0, 0.0, 1.0]) + 0.5 * rng.standard_normal((6, 3))
    return make_sphere_config(x, None, 1.0, 1.0, 0.08 * (skew - skew.T)), 30.0, None


def _pure_skew_sphere():
    rng = np.random.default_rng(7)
    w = rng.standard_normal((3, 3))
    cfg = make_sphere_config(rng.standard_normal((4, 3)), None, kappa=1.0, a=0.0, w=w)
    return cfg, 10.0, IntegratorSettings(dt=2e-3, record_every=7)


def _random_sphere_dopri5():
    cfg = random_sphere_config(np.random.default_rng(3), 7, 3)
    return cfg, 8.0, IntegratorSettings(scheme=Scheme.DOPRI5, dt=1e-2, record_every=1)


SPHERE_CASES = {"suite": _suite_sphere, "pure-skew": _pure_skew_sphere,
                "random-dopri5": _random_sphere_dopri5}


@pytest.mark.parametrize("case", sorted(SPHERE_CASES))
def test_sphere_aggregation_matches_record_then_evaluate(case):
    cfg, t_final, settings = SPHERE_CASES[case]()
    _assert_same_result(rs.sphere_aggregation_check(cfg, t_final, settings),
                        _sphere_oracle(cfg, t_final, settings))


DICHOTOMY_CASES = {
    "suite-sync": lambda: ((np.linspace(0.0, 0.9, 6), 0.5, 1.0, 60.0), {}),
    "suite-incoherence": lambda: (
        (np.sort(np.random.default_rng(2024).uniform(0, 2 * np.pi, 6)), -0.5, 1.0,
         200.0), {}),
    # N = 40 sums the phases in numpy's pairwise blocks
    "n40-stride-remainder": lambda: (
        (np.random.default_rng(11).uniform(0, 2 * np.pi, 40), -0.3, 2.0, 5.0),
        dict(settings=IntegratorSettings(dt=1e-2, record_every=7))),
    # coincident across 0 = 2 pi by the circle chart's 1e-12 rule
    "coincident-across-zero": lambda: (
        (np.array([0.0, 1.0, 2 * np.pi - 1e-13, 4.0]), -0.5, 1.0, 2.0), {}),
    "dopri5-precondition-violated": lambda: (
        (np.array([0.0, 3.0, 1.0]), 0.5, 1.0, 4.0),
        dict(settings=IntegratorSettings(scheme=Scheme.DOPRI5, dt=1e-2))),
}


@pytest.mark.parametrize("case", sorted(DICHOTOMY_CASES))
def test_dichotomy_matches_record_then_evaluate(case):
    args, kwargs = DICHOTOMY_CASES[case]()
    _assert_same_result(rk.dichotomy_check(*args, **kwargs),
                        _dichotomy_oracle(*args, **kwargs))


# ---------------------------------------------------------------------------
# functional records


def _normalized_sphere():
    cfg = random_sphere_config(np.random.default_rng(5), 6, 2, omega_scale=0.5)
    return cfg, aggregation_diameter


def _polar_unitary():
    cfg = random_unitary_config(np.random.default_rng(5), 4, 2, h_scale=0.5)
    # a vector-valued functional: each oscillator's trace
    return cfg, lambda u: np.trace(u, axis1=1, axis2=2)


def _unitary_diameter():
    # a real functional of a complex state
    return random_unitary_config(np.random.default_rng(6), 4, 2, h_scale=0.5), matrix_diameter


def _phase():
    return random_phase_config(np.random.default_rng(5), 7, alpha=0.3), np.sum


FUNCTIONAL_CASES = {
    # 100 RK4 steps
    "rk4-stride-divides": (_normalized_sphere, 1.0, dict(dt=1e-2, record_every=10)),
    "rk4-stride-remainder": (_polar_unitary, 1.0, dict(dt=1e-2, record_every=7)),
    "rk4-stride-past-end": (_phase, 1.0, dict(dt=1e-2, record_every=1000)),
    "rk4-real-of-complex": (_unitary_diameter, 0.5, dict(dt=1e-2, record_every=3)),
    "zero-horizon": (_normalized_sphere, 0.0, {}),
    "zero-horizon-real-of-complex": (_unitary_diameter, 0.0, {}),
    "dopri5": (_normalized_sphere, 1.0, dict(scheme=Scheme.DOPRI5, dt=1e-2,
                                             record_every=2)),
    "dopri5-unitary": (_polar_unitary, 0.5, dict(scheme=Scheme.DOPRI5, dt=1e-2)),
}


@pytest.mark.parametrize("case", sorted(FUNCTIONAL_CASES))
def test_functional_records_equal_the_functional_of_state_records(case):
    make, t_final, overrides = FUNCTIONAL_CASES[case]
    cfg, functional = make()
    settings = default_settings(cfg, **overrides)
    args = (make_rhs(cfg), state_of(cfg), settings, t_final)
    project = _projector(cfg, settings.projection)
    times, states, _ = _integrate_array(*args, project=project)
    expected = np.array([functional(s) for s in states])

    r_times, values, _ = _integrate_array(*args, project=project, record=functional)
    assert np.array_equal(r_times, times)
    assert values.dtype == expected.dtype and np.array_equal(values, expected)

    f_times, f_values, final = integrate_functional(cfg, settings, t_final, functional)
    assert np.array_equal(f_times, times) and np.array_equal(f_values, expected)
    assert np.array_equal(final, states[-1])


def test_matrix_aggregation_memory_does_not_hold_the_trajectory():
    # 2000 steps of N=20 unitaries of size 4 recorded at every step would
    # hold 2001 x 20 x 4 x 4 complex entries, 10.2 MB; the diameters are
    # 16 kB
    u0 = eq.spread_unitary_family(np.random.default_rng(1), 20, 4, 1.0)
    cfg = make_unitary_config(u0, None, 1.0, None)
    settings = IntegratorSettings(dt=1e-3, record_every=1)
    states_nbytes = 2001 * u0.nbytes
    tracemalloc.start()
    try:
        res = eq.matrix_aggregation_check(cfg, 2.0, settings)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.hypothesis_ok
    assert peak < 0.05 * states_nbytes
