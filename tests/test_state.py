import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synclab.state import (
    Flavor,
    SphereConfig,
    UnitaryConfig,
    assemble_unitary2,
    embed_unitary2_to_sphere,
    make_phase_config,
    make_sphere_config,
    make_unitary_config,
    random_phase_config,
    random_sphere_config,
    random_unitary,
    random_unitary_config,
    split_quaternion,
    validate,
)


def test_validate_exact_unit_vector_passes():
    cfg = SphereConfig(x=np.eye(3)[:2], omega=np.zeros((3, 3)), kappa=1.0)
    assert validate(cfg) == []


def test_validate_flags_nonunitary_matrix():
    u = np.array([np.diag([2.0, 1.0]), np.eye(2)], dtype=complex)
    cfg = UnitaryConfig(u=u, h=np.zeros((2, 2)), kappa=1.0, v=np.eye(2))
    messages = validate(cfg)
    assert any("non-unitary at index 0" in m for m in messages)


def test_validate_flags_symmetric_w():
    w = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    cfg = SphereConfig(x=np.eye(3), omega=np.zeros((3, 3)), kappa=1.0, w=w)
    messages = validate(cfg)
    assert any("skew-symmetry violation" in m for m in messages)


def test_factories_produce_valid_configs():
    rng = np.random.default_rng(0)
    for _ in range(20):
        assert validate(random_phase_config(rng, 5, nu_scale=1.0)) == []
        assert validate(random_sphere_config(rng, 4, 2, w_scale=0.5,
                                             omega_scale=0.5)) == []
        assert validate(random_unitary_config(rng, 3, 2, h_scale=0.5)) == []


def test_factory_symmetrizes_noise():
    rng = np.random.default_rng(1)
    noisy = rng.standard_normal((4, 4))
    cfg = make_sphere_config(rng.standard_normal((3, 4)), omega=noisy, w=noisy)
    assert validate(cfg) == []
    assert np.all(cfg.omega == -cfg.omega.T)


def test_configs_are_immutable():
    cfg = make_phase_config([0.0, 1.0])
    with pytest.raises(ValueError):
        cfg.theta[0] = 2.0
    with pytest.raises(Exception):
        cfg.kappa = 3.0


def test_with_state_keeps_parameters():
    cfg = make_phase_config([0.0, 1.0], kappa=2.5, alpha=0.3, flavor=Flavor.COSINE)
    moved = cfg.with_state(np.array([1.0, 2.0]))
    assert moved.kappa == 2.5 and moved.alpha == 0.3
    assert moved.flavor is Flavor.COSINE
    np.testing.assert_array_equal(moved.theta, [1.0, 2.0])


# --- the U(2) parametrization ------------------------------------------------


def test_embed_identity():
    theta, x = embed_unitary2_to_sphere(np.eye(2))
    assert theta == 0.0
    np.testing.assert_allclose(x, [0, 0, 0, 1], atol=1e-15)


def test_embed_pure_phase():
    theta, x = embed_unitary2_to_sphere(np.exp(-1j * np.pi / 3) * np.eye(2))
    assert abs(theta - np.pi / 3) < 1e-14
    np.testing.assert_allclose(x, [0, 0, 0, 1], atol=1e-14)


def test_embed_i_sigma1_roundtrip():
    u = np.array([[1j, 0], [0, -1j]])
    theta, x = embed_unitary2_to_sphere(u)
    assert abs(theta) < 1e-14
    np.testing.assert_allclose(x, [1, 0, 0, 0], atol=1e-14)
    np.testing.assert_allclose(assemble_unitary2(theta, x), u, atol=1e-12)


def test_embed_roundtrip_100_random_unitaries():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        u = random_unitary(rng, 2)
        theta, x = embed_unitary2_to_sphere(u)
        assert abs(np.linalg.norm(x) - 1.0) < 1e-12
        np.testing.assert_allclose(assemble_unitary2(theta, x), u, atol=1e-10)


def test_embed_rejects_non_unitary():
    with pytest.raises(ValueError):
        embed_unitary2_to_sphere(np.diag([2.0, 1.0]).astype(complex))


@settings(max_examples=50, deadline=None)
@given(st.floats(-1.5, 1.5), st.lists(st.floats(-1, 1), min_size=4, max_size=4))
def test_assemble_then_embed_is_identity(theta, xs):
    x = np.asarray(xs)
    nrm = np.linalg.norm(x)
    if nrm < 1e-3:
        return
    x = x / nrm
    u = assemble_unitary2(theta, x)
    t2, x2 = embed_unitary2_to_sphere(u)
    np.testing.assert_allclose(assemble_unitary2(t2, x2), u, atol=1e-12)


def _oracle_split(b):
    # the one-matrix split the stacked form replaced, kept as the oracle
    p = np.array([(b[0, 0].imag - b[1, 1].imag) / 2,
                  (b[0, 1].real - b[1, 0].real) / 2,
                  (b[0, 1].imag + b[1, 0].imag) / 2,
                  (b[0, 0].real + b[1, 1].real) / 2])
    q = np.array([(b[1, 1].real - b[0, 0].real) / 2,
                  (b[0, 1].imag - b[1, 0].imag) / 2,
                  -(b[0, 1].real + b[1, 0].real) / 2,
                  (b[0, 0].imag + b[1, 1].imag) / 2])
    return p, q


def test_stacked_split_quaternion_equals_per_matrix_calls():
    rng = np.random.default_rng(23)
    b = rng.standard_normal((3, 5, 2, 2)) + 1j * rng.standard_normal((3, 5, 2, 2))
    p, q = split_quaternion(b)
    assert p.shape == q.shape == (3, 5, 4)
    for idx in np.ndindex(3, 5):
        want_p, want_q = _oracle_split(b[idx])
        one_p, one_q = split_quaternion(b[idx])
        assert np.array_equal(one_p, want_p) and np.array_equal(one_q, want_q)
        assert np.array_equal(p[idx], want_p) and np.array_equal(q[idx], want_q)


# --- finiteness ---------------------------------------------------------------


_NAN_SKEW = np.array([[0.0, np.nan, 0.0], [np.nan, 0.0, 0.0], [0.0, 0.0, 0.0]])
# skew-symmetric, so A + A^T adds inf to -inf: the structural checks skip a
# field already reported non-finite instead of warning
_INF_SKEW = np.array([[0.0, np.inf, 0.0], [-np.inf, 0.0, 0.0], [0.0, 0.0, 0.0]])
_INF_DIAG = np.array([[np.inf, 0.0], [0.0, 1.0]])


@pytest.mark.parametrize("cfg, names", [
    (make_phase_config([0.0, 1.0], kappa=np.nan), ["kappa"]),
    (make_phase_config([0.0, 1.0], alpha=np.inf), ["alpha"]),
    (make_phase_config([0.0, np.nan], nu=[np.inf, 0.0]), ["theta", "nu"]),
    (make_sphere_config(np.eye(3), kappa=np.nan, a=np.inf), ["kappa", "a"]),
    (make_sphere_config(np.eye(3), a=-np.inf), ["a"]),
    (make_sphere_config(np.eye(3), w=_NAN_SKEW), ["w"]),
    (make_unitary_config([np.eye(2)], kappa=np.nan), ["kappa"]),
    (make_unitary_config([np.eye(2)], h=np.full((2, 2), np.nan)), ["h"]),
    (make_sphere_config(np.eye(3), w=_INF_SKEW), ["w"]),
    (make_sphere_config(np.eye(3), omega=_INF_SKEW), ["omega"]),
    (make_unitary_config([_INF_DIAG]), ["u"]),
    (make_unitary_config([np.eye(2)], v=_INF_DIAG), ["v"]),
    # Hermitizing an infinite h would divide inf * 0 by 2: it is stored as given
    (make_unitary_config([np.eye(2)], h=[[np.inf, 0], [0, 0]]), ["h"]),
], ids=["phase-kappa", "phase-alpha", "phase-theta-nu", "sphere-kappa-a", "sphere-a",
        "sphere-w", "unitary-kappa", "unitary-h", "sphere-w-inf", "sphere-omega-inf",
        "unitary-u-inf", "unitary-v-inf", "unitary-h-inf"])
def test_validate_names_each_non_finite_field(cfg, names):
    # parameters too: kappa on every model and a on the sphere used to pass
    assert validate(cfg) == [f"{name}: non-finite entries present" for name in names]


def test_validate_refuses_what_is_not_a_configuration():
    with pytest.raises(TypeError, match="not a model configuration"):
        validate(np.zeros(3))
