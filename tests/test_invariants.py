import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synclab import invariants as inv
from synclab.dynamics import make_rhs
from synclab.errors import DegenerateDenominator, SingularDifference, ZeroFactor
from synclab.integrate import IntegratorSettings, default_settings, integrate
from synclab.state import (
    Flavor,
    make_phase_config,
    random_phase_config,
    random_sphere_config,
    random_unitary,
    random_unitary_config,
)


# --- circle functionals -------------------------------------------------------


def test_functional_I_antipodal_pair():
    assert inv.functional_I(np.array([0.0, np.pi])) == pytest.approx(-1.0)


def test_functional_I_vanishes_on_repeated_phase():
    assert inv.functional_I(np.array([0.3, 0.3, 1.0])) == 0.0


def test_functional_I_equally_spaced():
    # three gaps of pi/2 plus the cyclic closing gap of -3pi/2:
    # sin(pi/4)^3 * sin(-3pi/4) = -1/4 on unwrapped angles
    val = inv.functional_I(np.array([0.0, np.pi / 2, np.pi, 3 * np.pi / 2]))
    assert val == pytest.approx(-0.25, abs=1e-15)


def test_functional_J_alpha_zero_is_I():
    rng = np.random.default_rng(0)
    theta = rng.uniform(0, 2 * np.pi, 5)
    sign, log = inv.functional_J_alpha_log(theta, 0.0)
    assert sign * np.exp(log) == pytest.approx(inv.functional_I(theta))


def test_functional_J_closed_form():
    # I = sin(pi/2) sin(-pi/2) = -1 and tan(pi/4) * sum theta = pi
    sign, log = inv.functional_J_alpha_log(np.array([0.0, np.pi]), np.pi / 4)
    assert sign == -1.0
    assert log == pytest.approx(np.pi)


def test_functional_J_rejects_singular_alpha():
    with pytest.raises(ValueError):
        inv.functional_J_alpha_log(np.array([0.0, 1.0]), np.pi / 2)


def test_cross_ratio_equally_spaced():
    theta = np.array([0.0, np.pi / 2, np.pi, 3 * np.pi / 2])
    assert inv.cross_ratio_K(theta, 0, 1, 2, 3) == pytest.approx(0.5)


def test_cross_ratio_vanishing_numerator():
    theta = np.array([0.3, 0.3, 1.0, 2.0])
    assert inv.cross_ratio_K(theta, 0, 1, 2, 3) == 0.0


def test_cross_ratio_degenerate_denominator():
    theta = np.array([0.0, 1.0, 0.0, 2.0])
    with pytest.raises(DegenerateDenominator):
        inv.cross_ratio_K(theta, 0, 1, 2, 3)


def test_order_parameter_examples():
    assert inv.order_parameter_R(np.array([0.7, 0.7, 0.7]))[0] == pytest.approx(1.0)
    assert inv.order_parameter_R(np.array([0.0, np.pi]))[0] == pytest.approx(0.0, abs=1e-15)
    r, phi = inv.order_parameter_R(np.array([0.0, np.pi / 2]))
    assert r == pytest.approx(np.sqrt(2) / 2)
    assert phi == pytest.approx(np.pi / 4)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=1, max_size=9))
def test_order_parameter_in_unit_interval(thetas):
    r, _ = inv.order_parameter_R(np.array(thetas))
    assert -1e-12 <= r <= 1.0 + 1e-12


# --- sphere functionals ---------------------------------------------------------


def _square_on_great_circle():
    angles = np.array([0.0, np.pi / 2, np.pi, 3 * np.pi / 2])
    return np.stack([np.cos(angles), np.sin(angles), np.zeros(4)], axis=1)


def test_sphere_cross_ratio_square():
    assert inv.sphere_cross_ratio_H(_square_on_great_circle(), 0, 1, 2, 3) \
        == pytest.approx(0.5)


def test_sphere_cross_ratio_zero_numerator():
    x = np.array([[1.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]])
    assert inv.sphere_cross_ratio_H(x, 0, 1, 2, 3) == 0.0


def test_ptolemy_square_is_concyclic():
    assert inv.ptolemy_residual(_square_on_great_circle(), 0, 1, 2, 3) \
        == pytest.approx(0.0, abs=1e-14)


def test_ptolemy_tetrahedron_not_concyclic():
    x = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / np.sqrt(3)
    side = np.linalg.norm(x[0] - x[1])
    res = inv.ptolemy_residual(x, 0, 1, 2, 3)
    assert res == pytest.approx(side ** 2)
    assert res > 1.0


def test_sphere_order_parameter_examples():
    x = np.array([[0.0, 1.0], [0.0, 1.0]])
    assert inv.sphere_order_parameter(x) == pytest.approx(1.0)
    x = np.array([[0.0, 1.0], [0.0, -1.0]])
    assert inv.sphere_order_parameter(x) == pytest.approx(0.0)
    assert inv.sphere_order_parameter(np.eye(2)) == pytest.approx(np.sqrt(2) / 2)


def test_sphere_squared_diameter_antipodal():
    x = np.array([[0.0, 1.0], [0.0, -1.0]])
    assert inv.sphere_squared_diameter(x) == pytest.approx(8.0)


def test_diameters_vanish_on_coincident_states():
    assert inv.phase_diameter(np.array([1.0, 1.0])) == 0.0
    assert inv.sphere_squared_diameter(np.array([[1.0, 0], [1.0, 0]])) == 0.0
    u = random_unitary(np.random.default_rng(1), 2)
    assert inv.matrix_diameter(np.array([u, u])) == 0.0


def test_skew_product_orthonormal_pair():
    assert inv.skew_frustration_product(np.eye(2)) == pytest.approx(np.sqrt(2))


def test_skew_product_square():
    assert inv.skew_frustration_product(_square_on_great_circle()) \
        == pytest.approx(16.0)


def test_skew_product_zero_factor():
    x = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ZeroFactor):
        inv.skew_frustration_product(x)


def test_skew_log_product_is_log_of_product():
    x = random_sphere_config(np.random.default_rng(3), 7, 2).x
    assert inv.skew_frustration_log_product(x) \
        == pytest.approx(np.log(inv.skew_frustration_product(x)), rel=1e-14)
    with pytest.raises(ZeroFactor):
        inv.skew_frustration_log_product(np.array([[1.0, 0.0], [1.0, 0.0]]))


@pytest.mark.parametrize("n", [1, 2, 5, 8, 200])
def test_chords_match_full_distance_matrix(n):
    rng = np.random.default_rng(n)
    for dim in range(1, 8):  # numpy's norm sums fewer than 8 terms in order
        x = rng.standard_normal((n, dim))
        full = inv._pairwise_distances(x)[np.triu_indices(n, 1)]
        assert np.array_equal(inv._chords(x), full)
    x = rng.standard_normal((n, 10))
    full = inv._pairwise_distances(x)[np.triu_indices(n, 1)]
    np.testing.assert_allclose(inv._chords(x), full, rtol=4e-16, atol=0.0)


@pytest.mark.parametrize("n", [1, 2, 5, 8, 200])
def test_pairwise_extremes_match_full_distance_matrix(n):
    # the full-matrix formulas the chord kernel replaced, kept as the oracle
    for seed in range(5):
        rng = np.random.default_rng(seed)
        for dim in (2, 3, 5):
            x = random_sphere_config(rng, n, dim - 1).x
            dist = inv._pairwise_distances(x)
            assert np.array_equal(inv.max_pairwise_distance(x), np.max(dist))
            assert np.array_equal(inv.aggregation_diameter(x),
                                  np.max(dist ** 2) / 2.0)
            if n > 1:
                assert np.array_equal(inv.min_pairwise_distance(x),
                                      np.min(dist[np.triu_indices(n, 1)]))


@pytest.mark.parametrize("n", [50, 200])
@pytest.mark.parametrize("dt, passes", [(1e-3, True), (0.25, False)])
def test_pair_distance_product_verdict_at_large_n(n, dt, passes):
    # pure skew frustration conserves the chord product; at these N the
    # product itself overflows, its log-space form does not
    rng = np.random.default_rng(11)
    cfg = random_sphere_config(rng, n, 2, a=0.0, w_scale=1.0)
    traj = integrate(cfg, default_settings(cfg, dt=dt, record_every=10), 2.0)
    ob = inv.make_observable("pair_distance_product", cfg)
    assert ob.kind is inv.Kind.CONSERVED_LOG
    report = inv.drift(ob, ob.series(traj), 1e-6)
    assert np.isfinite(report.v0) and np.isfinite(report.max_rel_dev)
    assert report.verdict is passes, report


def _config_of_model(name, n=4):
    # a configuration of the model the observable is registered on
    rng = np.random.default_rng(0)
    return {"kuramoto": make_phase_config(np.linspace(0.1, 3.5, n), kappa=1.0),
            "sphere": random_sphere_config(rng, n, 2, a=0.0),
            "matrix": random_unitary_config(rng, n, 2)}[inv.OBSERVABLES[name][3]]


@pytest.mark.parametrize("name", ["kuramoto_J", "pair_distance_product"])
def test_conserved_check_on_log_functional_is_rejected(name):
    cfg = _config_of_model(name)
    with pytest.raises(ValueError, match="conserved-log"):
        inv.make_observable(name, cfg, kind=inv.Kind.CONSERVED)
    ob = inv.make_observable(name, cfg, kind=inv.Kind.CONSERVED_LOG)
    assert ob.kind is inv.Kind.CONSERVED_LOG


@pytest.mark.parametrize("name", ["kuramoto_I", "total_phase", "order_R", "sphere_DM"])
def test_conserved_log_check_on_linear_functional_is_rejected(name):
    # a log-space check on a linear functional would read value differences
    # as log differences and pass a drift its own 'conserved' check fails
    cfg = make_phase_config([0.1, 0.9, 2.0, 3.5])
    with pytest.raises(ValueError, match="not a logarithm"):
        inv.make_observable(name, cfg, kind=inv.Kind.CONSERVED_LOG)


@pytest.mark.parametrize("name, kind, n_idx", [
    ("kuramoto_I", "conserved", 0), ("kuramoto_J", "conserved-log", 0),
    ("kuramoto_K", "conserved", 4), ("order_R", "record", 0),
    ("total_phase", "non-decreasing", 0), ("phase_diameter", "record", 0),
    ("sphere_H", "conserved", 4), ("ptolemy", "bounded", 4),
    ("sphere_rho", "record", 0), ("sphere_rho_sq", "non-decreasing", 0),
    ("sphere_DM", "non-increasing", 0), ("pair_inner", "conserved", 2),
    ("pair_distance_product", "conserved-log", 0), ("matrix_D", "record", 0),
    ("matrix_cross_ratio", "conserved", 4),
])
def test_registered_kinds_labels_and_index_counts(name, kind, n_idx):
    cfg = _config_of_model(name)
    idx = list(range(n_idx)) or None
    ob = inv.make_observable(name, cfg, idx)
    assert ob.kind is inv.Kind(kind)
    assert ob.label == (name if idx is None else name + "_" + "_".join(map(str, idx)))
    if n_idx:
        for bad in (None, list(range(n_idx - 1))):
            with pytest.raises(ValueError, match=f"needs {n_idx} indices"):
                inv.make_observable(name, cfg, bad)


@pytest.mark.parametrize("name", list(inv.OBSERVABLES))
def test_observable_of_another_model_is_rejected(name):
    _, _, n_idx, model = inv.OBSERVABLES[name]
    idx = list(range(n_idx)) or None
    for other in ("kuramoto_I", "sphere_rho", "matrix_D"):
        cfg = _config_of_model(other)
        if inv.OBSERVABLES[other][3] == model:
            inv.make_observable(name, cfg, idx)
        else:
            with pytest.raises(ValueError, match=f"a functional of the {model} model"):
                inv.make_observable(name, cfg, idx)


@pytest.mark.parametrize("name, indices, message", [
    ("kuramoto_I", [0, 1], "takes no indices"),
    ("sphere_rho", [0, 1], "takes no indices"),
    ("kuramoto_K", [0, 1, 2, 10], r"must lie in \[0, 6\)"),
    ("kuramoto_K", [0, 1, 2, -1], r"must lie in \[0, 6\)"),
    ("kuramoto_K", [0, 1, 2, 2], "distinct indices"),
    ("ptolemy", [0, 0, 1, 2], "distinct indices"),
    ("pair_inner", [1, 1], "distinct indices"),
    ("matrix_cross_ratio", [0, 0, 1, 2], "distinct indices"),
])
def test_index_rules(name, indices, message):
    cfg = _config_of_model(name, n=6)
    with pytest.raises(ValueError, match=message):
        inv.make_observable(name, cfg, indices)


def test_affine_fit_residual_planar_points():
    rng = np.random.default_rng(2)
    pts = np.c_[rng.standard_normal((6, 2)), np.ones(6)]
    assert inv.affine_fit_residual(pts, 2) < 1e-14
    assert inv.affine_fit_residual(rng.standard_normal((6, 3)), 2) > 0.1


# --- matrix functionals ---------------------------------------------------------


def test_matrix_cross_ratio_scalar_case():
    u = np.array([1.0, 1j, -1.0, -1j]).reshape(4, 1, 1)
    spec = inv.matrix_cross_ratio_spectrum(u, 0, 1, 2, 3)
    np.testing.assert_allclose(spec, [2.0 + 0j], atol=1e-14)


def test_matrix_cross_ratio_zero_when_ui_equals_uk():
    rng = np.random.default_rng(3)
    a, b = random_unitary(rng, 2), random_unitary(rng, 2)
    u = np.array([a, b, a, -a])
    spec = inv.matrix_cross_ratio_spectrum(u, 0, 1, 2, 3)
    np.testing.assert_allclose(spec, 0.0, atol=1e-12)


def test_matrix_cross_ratio_singular_difference():
    rng = np.random.default_rng(4)
    a, b = random_unitary(rng, 2), random_unitary(rng, 2)
    with pytest.raises(SingularDifference):
        inv.matrix_cross_ratio_spectrum(np.array([a, b, b, a]), 0, 1, 2, 3)
    with pytest.raises(ValueError):
        inv.matrix_cross_ratio_spectrum(np.array([a, b, b, a]), 0, 1, 2, 0)


def test_spectrum_matching_handles_conjugate_pairs():
    a = np.array([0.5 - 0.3j, 0.5 + 0.3j])
    b = np.array([0.5 + 0.3j, 0.5 - 0.3j])  # same multiset, swapped order
    assert inv.spectrum_matching_distance(a, b) < 1e-15


def _matching_by_permutations(a, b):
    # the min-max over all n! pairings, kept as the oracle
    best = np.inf
    for perm in itertools.permutations(range(a.size)):
        best = min(best, max(abs(a[i] - b[p]) for i, p in enumerate(perm)))
    return float(best)


def test_spectrum_matching_equals_the_permutation_search_up_to_six():
    rng = np.random.default_rng(12)
    for trial in range(600):
        n = 1 + trial % 6
        a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        if trial % 3 == 0:      # a perturbed reordering, as along a run
            b = a[rng.permutation(n)] + 1e-3 * rng.standard_normal(n)
        elif trial % 3 == 1:    # coarse values: many tied distances
            a = np.round(a, 1)
            b = np.round(rng.standard_normal(n) + 1j * rng.standard_normal(n), 1)
        else:
            b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        # the same float, so the cross-ratio drift artifacts keep their bytes
        assert inv.spectrum_matching_distance(a, b) == _matching_by_permutations(a, b)


def test_spectrum_matching_is_exact_beyond_six():
    # a greedy match pairs 0 with 0.2 and leaves 0.3 to -0.5: 0.8
    a = np.array([0.0, 0.3, 10, 20, 30, 40, 50])
    b = np.array([0.2, -0.5, 10, 20, 30, 40, 50])
    assert inv.spectrum_matching_distance(a, b) == 0.5
    rng = np.random.default_rng(13)
    for n in (7, 10, 16):
        a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        perm = rng.permutation(n)
        b = a[perm] + 1e-6 * rng.standard_normal(n)
        # pairing each a_i with its own shifted copy is optimal here
        own = max(abs(a[p] - b[k]) for k, p in enumerate(perm))
        assert inv.spectrum_matching_distance(a, b) == own
    # a NaN eigenvalue gives a NaN distance, which fails any tolerance
    assert np.isnan(inv.spectrum_matching_distance(np.array([1.0, np.nan]),
                                                   np.array([1.0, 2.0])))


# --- drift reports ---------------------------------------------------------------


def test_drift_report_constant_trajectory():
    cfg = make_phase_config([0.1, 0.9, 2.0], kappa=0.0)
    traj = integrate(cfg, IntegratorSettings(dt=0.1, record_every=1), 1.0)
    obs = [inv.make_observable("kuramoto_I", cfg),
           inv.make_observable("order_R", cfg)]
    reports = [inv.drift(ob, ob.series(traj), 1e-12) for ob in obs]
    assert all(r.verdict for r in reports)
    assert all(r.max_abs_dev == 0.0 for r in reports)


def test_conserved_check_fails_on_an_underflowed_functional():
    # at N=200, I is a product of 200 sines far below the 1e-8 floor: its
    # relative drift is noise against the floor, while J (equal to I at
    # alpha=0, in log space) shows the coarse step's real drift
    cfg = random_phase_config(np.random.default_rng(3), 200, flavor=Flavor.COSINE)
    traj = integrate(cfg, IntegratorSettings(dt=0.5, record_every=1), 5.0)
    obs = [inv.make_observable(name, cfg) for name in ("kuramoto_I", "kuramoto_J")]
    report_i, report_j = (inv.drift(ob, ob.series(traj), 1e-6) for ob in obs)
    assert abs(report_i.v0) < inv.REL_FLOOR
    assert report_i.max_rel_dev < 1e-6
    assert not report_i.verdict
    assert not report_j.verdict


@pytest.mark.parametrize("values", [
    np.full(3, 5e-9),
    np.full((3, 2), 5e-9 + 1e-9j),
], ids=["scalar", "spectrum"])
def test_conserved_check_below_the_floor_fails_even_when_constant(values):
    ob = inv.Observable("v", inv.Kind.CONSERVED, lambda c, s: None)
    report = inv.drift(ob, values, 1e-6)
    assert report.max_abs_dev == 0.0
    assert not report.verdict
    assert inv.drift(ob, values * 1e3, 1e-6).verdict


def test_drift_report_unknown_name():
    cfg = make_phase_config([0.1, 0.9])
    with pytest.raises(ValueError):
        inv.make_observable("nope", cfg)


def test_drift_report_dm_monotone_both_signs():
    rng = np.random.default_rng(5)
    for kappa, kind in ((1.0, inv.Kind.NON_INCREASING),
                        (-1.0, inv.Kind.NON_DECREASING)):
        cfg = random_sphere_config(rng, 5, 2, kappa=kappa)
        traj = integrate(cfg, default_settings(cfg, dt=2e-3, record_every=20), 4.0)
        ob = inv.make_observable("sphere_DM", cfg)
        assert ob.kind is kind
        report = inv.drift(ob, ob.series(traj), 1e-9)
        assert report.verdict, report


def test_strict_decrease_away_from_equilibrium():
    # no-periodicity proxy: D_M strictly decreases unless at an equilibrium
    rng = np.random.default_rng(6)
    cfg = random_sphere_config(rng, 5, 2, kappa=1.0)
    traj = integrate(cfg, default_settings(cfg, dt=1e-3, record_every=100), 20.0)
    dm = np.array([inv.sphere_squared_diameter(s) for s in traj.states])
    rhs = make_rhs(traj.config)
    for i in range(len(dm) - 1):
        if np.max(np.abs(rhs(traj.states[i]))) >= 1e-10:
            assert dm[i + 1] < dm[i]


@pytest.mark.parametrize("records", [0, 1])
def test_drift_refuses_a_series_without_two_records(records):
    # one record has no deviation to measure, so no verdict may pass on it
    ob = inv.Observable("v", inv.Kind.CONSERVED, lambda c, s: None)
    with pytest.raises(ValueError, match="at least two records"):
        inv.drift(ob, np.ones(records), 1e-6)


def test_drift_json_roundtrip():
    import json
    cfg = make_phase_config([0.1, 0.9, 2.0], kappa=1.0, flavor=Flavor.COSINE)
    traj = integrate(cfg, IntegratorSettings(dt=1e-3, record_every=100), 2.0)
    ob = inv.make_observable("kuramoto_I", cfg)
    reports = [inv.drift(ob, ob.series(traj), 1e-6)]
    parsed = json.loads(inv.drift_reports_to_json(reports))
    assert parsed[0]["verdict"] == "pass"
