"""Equilibria of the matrix flow from finite-group representations, and
matrix-model aggregation certification.

Images of unitary representations of finite groups are stationary for the
zero-Hamiltonian matrix flow: any homomorphism works without frustration,
and any nontrivial irrep works for arbitrary unitary frustration because
its matrices sum to zero.  Only the cyclic and symmetric families are
constructed here; no completeness claim is made.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from . import dynamics
from .integrate import IntegratorSettings, integrate_functional, natural_projection
from .invariants import _bind_matrix_diameter, matrix_diameter
from .state import UnitaryConfig, hermitian_part

EQUILIBRIUM_TOL = 1e-10
RICCATI_SLACK = 1e-3
AGGREGATED_DIAMETER = 1e-4


@dataclass(frozen=True)
class FiniteGroupRep:
    """A finite group given by its Cayley table on the element indices,
    together with a unitary matrix for each element."""

    table: np.ndarray          # table[i, j] = index of element i * element j
    matrices: np.ndarray       # (N, d, d) complex

    @property
    def order(self) -> int:
        return self.table.shape[0]

    @property
    def dimension(self) -> int:
        return self.matrices.shape[1]


def rep_residuals(rep: FiniteGroupRep) -> tuple[float, float]:
    """(homomorphism residual, unitarity residual), both sup-Frobenius."""
    n = rep.order
    hom = 0.0
    for i in range(n):
        for j in range(n):
            prod = rep.matrices[i] @ rep.matrices[j]
            hom = max(hom, float(np.linalg.norm(prod - rep.matrices[rep.table[i, j]])))
    eye = np.eye(rep.dimension)
    gram = rep.matrices @ np.conj(np.swapaxes(rep.matrices, 1, 2))
    unit = float(np.max(np.linalg.norm(gram - eye, axis=(1, 2))))
    return hom, unit


def cyclic_rep(n: int) -> FiniteGroupRep:
    """The faithful character of Z_n: rho(k) = e^{2 pi i k / n} in U(1)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    ks = np.arange(n)
    matrices = np.exp(2j * np.pi * ks / n).reshape(n, 1, 1)
    table = (ks[:, None] + ks[None, :]) % n
    return FiniteGroupRep(table=table, matrices=matrices)


def _helmert_basis(n: int) -> np.ndarray:
    """Fixed orthonormal basis of the sum-zero hyperplane of R^n.

    Column k is (1, ..., 1, -k, 0, ..., 0)/sqrt(k(k+1)) with k ones, so the
    representation matrices are reproducible bit for bit across runs.
    """
    b = np.zeros((n, n - 1))
    for k in range(1, n):
        b[:k, k - 1] = 1.0
        b[k, k - 1] = -float(k)
        b[:, k - 1] /= np.sqrt(k * (k + 1))
    return b


def symmetric_standard_rep(n: int) -> FiniteGroupRep:
    """The (n-1)-dimensional standard representation of S_n as real
    orthogonal matrices: permutation action restricted to the sum-zero
    hyperplane in the Helmert basis.

    Elements are enumerated in lexicographic one-line order.  Desk scale
    limits n to [2, 6] (|S_6| = 720).
    """
    if not 2 <= n <= 6:
        raise ValueError("n must be between 2 and 6")
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    basis = _helmert_basis(n)
    mats = np.empty((len(perms), n - 1, n - 1))
    for i, p in enumerate(perms):
        pm = np.zeros((n, n))
        for j, pj in enumerate(p):
            pm[pj, j] = 1.0      # P e_j = e_{p(j)}
        mats[i] = basis.T @ pm @ basis
    table = np.empty((len(perms), len(perms)), dtype=int)
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            table[i, j] = index[tuple(p[qk] for qk in q)]
    return FiniteGroupRep(table=table, matrices=mats.astype(complex))


def is_equilibrium(cfg: UnitaryConfig) -> tuple[bool, float]:
    """Residual max_j ||dU_j||_F of the zero-Hamiltonian flow.

    The residual is compared with ``EQUILIBRIUM_TOL`` (1e-10) scaled by
    sqrt(d N), so larger ensembles are not penalized for accumulating
    roundoff.  Requires H = 0.
    """
    if np.any(cfg.h != 0):
        raise ValueError("equilibrium certification applies to H = 0")
    tol = EQUILIBRIUM_TOL * max(1.0, np.sqrt(cfg.d * cfg.n))
    du = dynamics.make_rhs(cfg)(cfg.u)
    residual = float(np.max(np.linalg.norm(du, axis=(1, 2))))
    return residual < tol, residual


# ---------------------------------------------------------------------------
# aggregation certification (identical Hamiltonians)


@dataclass
class MatrixAggregationResult:
    hypothesis_ok: bool
    v_distance: float            # ||V - I||_F
    initial_diameter: float
    aggregated: bool
    final_diameter: float
    riccati_ok: bool
    max_riccati_excess: float

    @property
    def verdict(self) -> str:
        if not self.hypothesis_ok:
            return "Unconditioned"
        return "Aggregated" if self.aggregated else "NotAggregated"


def matrix_aggregation_check(cfg: UnitaryConfig, t_final: float,
                             settings: IntegratorSettings | None = None
                             ) -> MatrixAggregationResult:
    """Run the identical-Hamiltonian matrix flow and certify aggregation.

    Hypothesis: ||V - I||_F < 2/3 and D(U(0)) < sqrt(2 - 3 ||V - I||_F).
    Along the run the discrete form of the certified Riccati inequality

        dD/dt <= -(kappa/2)(2 - 3||V - I||_F) D + (kappa/2) D^3

    is checked on consecutive recorded diameters with slack
    ``RICCATI_SLACK`` (1e-3), and the ensemble counts as aggregated when its
    final diameter is below ``AGGREGATED_DIAMETER`` (1e-4).  The run keeps
    the diameter at each record point and the current state, never the
    trajectory: its memory grows with the record count alone.
    """
    if not cfg.shared_h:
        raise ValueError("aggregation certification needs identical Hamiltonians")
    if t_final <= 0:
        raise ValueError("matrix_aggregation_check needs t_final > 0")
    if settings is None:
        settings = IntegratorSettings(dt=1e-3, record_every=1)
    settings = replace(settings, projection=natural_projection(cfg))

    v_dist = float(np.linalg.norm(cfg.v - np.eye(cfg.d)))
    times, diam, _ = integrate_functional(cfg, settings, t_final,
                                          _bind_matrix_diameter(cfg.u.shape))
    d0 = diam[0]
    hypothesis = v_dist < 2.0 / 3.0 and d0 < np.sqrt(2.0 - 3.0 * v_dist)
    dts = np.diff(times)
    fwd = np.diff(diam) / dts
    bound = (-(cfg.kappa / 2.0) * (2.0 - 3.0 * v_dist) * diam[:-1]
             + (cfg.kappa / 2.0) * diam[:-1] ** 3)
    excess = float(np.max(fwd - bound))
    return MatrixAggregationResult(
        hypothesis_ok=bool(hypothesis), v_distance=v_dist,
        initial_diameter=float(d0),
        aggregated=bool(diam[-1] < AGGREGATED_DIAMETER),
        final_diameter=float(diam[-1]),
        riccati_ok=bool(excess <= RICCATI_SLACK), max_riccati_excess=excess)


def spread_unitary_family(rng: np.random.Generator, n: int, d: int,
                          target_diameter: float) -> np.ndarray:
    """N unitaries near the identity with max pairwise Frobenius distance
    equal to ``target_diameter``, found by bisecting the common scale of
    random Hermitian logarithms."""
    a = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
    a = hermitian_part(a)

    def family(c):
        evals, evecs = np.linalg.eigh(c * a)
        return np.einsum("jab,jb,jcb->jac", evecs, np.exp(1j * evals),
                         np.conj(evecs))

    lo, hi = 0.0, 1.0
    while matrix_diameter(family(hi)) < target_diameter:
        hi *= 2.0
        if hi > 64:
            raise ValueError("target diameter unreachable")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break  # adjacent floats: every further round returns family(mid)
        if matrix_diameter(family(mid)) < target_diameter:
            lo = mid
        else:
            hi = mid
    return family(0.5 * (lo + hi))
