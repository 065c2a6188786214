import numpy as np
import pytest

from synclab import equilibria as eq
from synclab.integrate import IntegratorSettings
from synclab.invariants import matrix_diameter
from synclab.state import make_unitary_config, random_unitary, random_unitary_config


def test_cyclic_rep_trivial_group():
    rep = eq.cyclic_rep(1)
    assert rep.order == 1
    np.testing.assert_allclose(rep.matrices[0], [[1.0]])


def test_cyclic_rep_roots_of_unity_sum_to_zero():
    rep = eq.cyclic_rep(3)
    assert abs(rep.matrices.sum()) < 1e-14
    hom, unit = eq.rep_residuals(rep)
    assert hom < 1e-12 and unit < 1e-12


def test_cyclic_rep_z4_homomorphism_table():
    rep = eq.cyclic_rep(4)
    np.testing.assert_allclose(rep.matrices[:, 0, 0], [1, 1j, -1, -1j], atol=1e-15)
    hom, _ = eq.rep_residuals(rep)
    assert hom < 1e-12


def test_symmetric_rep_s2_is_sign_representation():
    rep = eq.symmetric_standard_rep(2)
    np.testing.assert_allclose(sorted(rep.matrices[:, 0, 0].real), [-1.0, 1.0])


@pytest.mark.parametrize("n", [3, 4, 5])
def test_symmetric_rep_structure(n):
    rep = eq.symmetric_standard_rep(n)
    assert rep.order == int(np.prod(range(1, n + 1)))
    assert rep.dimension == n - 1
    hom, unit = eq.rep_residuals(rep)
    assert hom < 1e-12
    assert unit < 1e-12
    # nontrivial irreducible: the matrices sum to zero
    assert np.max(np.abs(rep.matrices.sum(axis=0))) < 1e-12


@pytest.mark.parametrize("n", [3, 4, 5])
def test_symmetric_rep_diameter_formula(n):
    rep = eq.symmetric_standard_rep(n)
    assert abs(matrix_diameter(rep.matrices) - np.sqrt(2 * n)) < 1e-10


def test_symmetric_rep_rejects_out_of_range():
    with pytest.raises(ValueError):
        eq.symmetric_standard_rep(7)
    with pytest.raises(ValueError):
        eq.symmetric_standard_rep(1)


def test_rep_matrices_are_reproducible():
    a = eq.symmetric_standard_rep(4).matrices
    b = eq.symmetric_standard_rep(4).matrices
    assert np.array_equal(a, b)


def test_cyclic_equilibrium_with_identity_frustration():
    cfg = eq.config_from_rep(eq.cyclic_rep(4))
    ok, res = eq.is_equilibrium(cfg)
    assert ok and res < 1e-12


def test_symmetric_equilibrium_with_random_frustration():
    rng = np.random.default_rng(0)
    rep = eq.symmetric_standard_rep(3)
    cfg = eq.config_from_rep(rep, v=random_unitary(rng, 2))
    ok, res = eq.is_equilibrium(cfg)
    assert ok and res < 1e-10


def test_aggregated_state_is_equilibrium_for_identity_v():
    u = random_unitary(np.random.default_rng(1), 2)
    cfg = make_unitary_config(np.array([u, u, u, u]))
    ok, res = eq.is_equilibrium(cfg)
    assert ok and res < 1e-14


def test_is_equilibrium_requires_zero_hamiltonian():
    cfg = make_unitary_config(np.array([np.eye(2)]), h=np.eye(2))
    with pytest.raises(ValueError):
        eq.is_equilibrium(cfg)


def test_lij_norm_trace_identity():
    # ||L_ij||_F^2 = tr(L_ij + L_ji) for L_ij = I - U_i U_j^*
    rng = np.random.default_rng(2)
    for _ in range(50):
        cfg = random_unitary_config(rng, 4, rng.integers(1, 4))
        u = cfg.u
        for i in range(4):
            for j in range(4):
                l_ij = np.eye(cfg.d) - u[i] @ u[j].conj().T
                l_ji = np.eye(cfg.d) - u[j] @ u[i].conj().T
                lhs = np.linalg.norm(l_ij) ** 2
                rhs = np.trace(l_ij + l_ji).real
                assert abs(lhs - rhs) < 1e-10


def test_spread_family_hits_target_diameter():
    rng = np.random.default_rng(3)
    u = eq.spread_unitary_family(rng, 5, 2, 1.2)
    assert abs(matrix_diameter(u) - 1.2) < 1e-9
    gram = u @ np.conj(np.swapaxes(u, 1, 2))
    np.testing.assert_allclose(gram, np.broadcast_to(np.eye(2), gram.shape),
                               atol=1e-12)


def _spread_200_rounds(rng, n, d, target_diameter):
    """Oracle for ``spread_unitary_family``: all 200 bisection rounds, run
    on after the bracket has stopped moving."""
    a = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
    a = (a + np.conj(np.swapaxes(a, 1, 2))) / 2.0

    def family(c):
        evals, evecs = np.linalg.eigh(c * a)
        return np.einsum("jab,jb,jcb->jac", evecs, np.exp(1j * evals),
                         np.conj(evecs))

    lo, hi = 0.0, 1.0
    while matrix_diameter(family(hi)) < target_diameter:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if matrix_diameter(family(mid)) < target_diameter:
            lo = mid
        else:
            hi = mid
    return family(0.5 * (lo + hi))


@pytest.mark.parametrize("seed, n, d, target", [
    (3, 5, 2, 1.2), (4, 4, 2, 1.0), (8, 5, 2, 1.2), (0, 6, 3, 0.7), (21, 3, 1, 1.5),
])
def test_spread_family_equals_the_full_bisection(seed, n, d, target):
    got = eq.spread_unitary_family(np.random.default_rng(seed), n, d, target)
    want = _spread_200_rounds(np.random.default_rng(seed), n, d, target)
    assert got.tobytes() == want.tobytes()


def test_matrix_aggregation_inside_certified_region():
    rng = np.random.default_rng(4)
    u0 = eq.spread_unitary_family(rng, 4, 2, 1.0)
    cfg = make_unitary_config(u0, kappa=1.0)
    res = eq.matrix_aggregation_check(cfg, 25.0,
                                      IntegratorSettings(dt=2e-3, record_every=2))
    assert res.hypothesis_ok
    assert res.verdict == "Aggregated"
    assert res.riccati_ok


def test_group_equilibrium_neither_moves_nor_aggregates():
    rep = eq.symmetric_standard_rep(3)        # diameter sqrt(6) > sqrt(2)
    cfg = eq.config_from_rep(rep, kappa=1.0)
    res = eq.matrix_aggregation_check(cfg, 5.0,
                                      IntegratorSettings(dt=2e-3, record_every=10))
    assert not res.hypothesis_ok
    assert res.verdict == "Unconditioned"
    assert not res.aggregated
    assert abs(res.final_diameter - np.sqrt(6)) < 1e-8


def test_matrix_aggregation_refuses_a_zero_horizon():
    cfg = make_unitary_config(eq.spread_unitary_family(np.random.default_rng(4), 4, 2, 1.0))
    for t_final in (0.0, -1.0):
        with pytest.raises(ValueError, match="matrix_aggregation_check needs t_final > 0"):
            eq.matrix_aggregation_check(cfg, t_final)


def test_matrix_aggregation_initial_diameter_is_the_first_record():
    cfg = make_unitary_config(eq.spread_unitary_family(np.random.default_rng(4), 4, 2, 1.0))
    res = eq.matrix_aggregation_check(cfg, 0.1, IntegratorSettings(dt=1e-2))
    assert res.initial_diameter == matrix_diameter(cfg.u)
