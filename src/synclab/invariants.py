"""Conserved and monotone functionals of the three flows, with drift reports.

The table :data:`OBSERVABLES` names every functional the toolkit certifies,
with its default check kind, its index count and the model it is defined
on; scenario checks refer to functionals by those names, and the scenario
schema's name enum lists them.
Drift is measured relative to max(|value at t=0|, 1e-8) so functionals
legitimately near zero do not blow up the relative measure, and a conserved
check whose value at t=0 lies below 1e-8 fails, so an underflowed functional
cannot pass vacuously; the frustrated circle functional is evaluated in log
space to avoid overflow of its exponential factor on long runs, and the
skew-frustration chord product as a sum of log-chords, since the product of
N(N-1)/2 chords overflows at N in the hundreds.
"""

from __future__ import annotations

import enum
import functools
import json
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDenominator, SingularDifference, ZeroFactor
from .integrate import Trajectory
from .state import Config, Flavor, PhaseConfig, SphereConfig, UnitaryConfig, alpha_in

REL_FLOOR = 1e-8
DEGENERACY_EPS = 1e-14


# ---------------------------------------------------------------------------
# circle functionals


def functional_I(theta: np.ndarray) -> float:
    """Cyclic product of half-angle sines, prod_i sin((theta_{i+1}-theta_i)/2),
    with theta_{N+1} = theta_1.  Conserved by the unfrustrated cosine flow."""
    theta = np.asarray(theta, dtype=float)
    return float(np.prod(np.sin((np.roll(theta, -1) - theta) / 2.0)))


def _check_j_alpha(alpha: float) -> None:
    """ValueError where |cos alpha| < 1e-9 (near pi/2 + k pi): tan blows up."""
    if abs(np.cos(alpha)) < 1e-9:
        raise ValueError("J_alpha is singular at |alpha| = pi/2 (tan blows up)")


def functional_J_alpha_log(theta: np.ndarray, alpha: float) -> tuple[float, float]:
    """(sign, log magnitude) of the frustrated invariant.

    sign(I) together with log|I| + tan(alpha) * sum(theta) at the cosine
    flavor's alpha; sign is 0 when some adjacent pair coincides exactly.
    """
    _check_j_alpha(alpha)
    theta = np.asarray(theta, dtype=float)
    sines = np.sin((np.roll(theta, -1) - theta) / 2.0)
    sign = float(np.prod(np.sign(sines)))
    with np.errstate(divide="ignore"):
        logmag = float(np.sum(np.log(np.abs(sines))) + np.tan(alpha) * theta.sum())
    return sign, logmag


def cross_ratio_K(theta: np.ndarray, a: int, b: int, c: int, d: int) -> float:
    """Half-angle-sine cross-ratio of four phases; conserved for all
    |alpha| <= pi/2 including the endpoints."""
    theta = np.asarray(theta, dtype=float)
    if theta.size < 4:
        raise ValueError("cross ratio needs at least four oscillators")
    if len({a, b, c, d}) != 4:
        raise ValueError("cross-ratio indices must be distinct")
    s = lambda p, q: np.sin((theta[p] - theta[q]) / 2.0)
    denom = s(a, c) * s(b, d)
    if abs(denom) < DEGENERACY_EPS:
        raise DegenerateDenominator(
            f"cross-ratio denominator {denom:.3e} below {DEGENERACY_EPS:g}")
    return float(s(a, b) * s(c, d) / denom)


def order_parameter_R(theta: np.ndarray) -> tuple[float, float]:
    """Kuramoto order parameter: R e^{i phi} = mean of e^{i theta_j}.

    phi is reported as 0 when R < 1e-14 (the phase is undefined there).
    """
    z = np.mean(np.exp(1j * np.asarray(theta, dtype=float)))
    r = float(np.abs(z))
    phi = float(np.angle(z)) if r >= 1e-14 else 0.0
    return r, phi


def phase_diameter(theta: np.ndarray) -> float:
    theta = np.asarray(theta, dtype=float)
    return float(theta.max() - theta.min())


# ---------------------------------------------------------------------------
# sphere functionals


def _pairwise_distances(x: np.ndarray) -> np.ndarray:
    diff = x[:, None, :] - x[None, :, :]
    return np.linalg.norm(diff, axis=-1)


@functools.lru_cache(maxsize=8)
def _triu_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    i, j = np.triu_indices(n, 1)
    i.flags.writeable = j.flags.writeable = False  # shared by every caller
    return i, j


def _chords(x: np.ndarray) -> np.ndarray:
    """Chord lengths ||x_i - x_j|| for i < j, in row-major upper-triangle
    order, without the (N, N, d) difference temporary.

    The squared coordinate differences are added in coordinate order, which
    is the order numpy's norm sums fewer than 8 coordinates in, so the result
    equals ``_pairwise_distances(x)[np.triu_indices(n, 1)]`` bit for bit
    there; from 8 coordinates on numpy sums in pairwise blocks and the last
    bit may differ.  Each coordinate's first gather holds its differences
    and their squares, and the first of those holds the sum and the
    lengths, so a call holds about four arrays of N(N-1)/2 at once.
    """
    i, j = _triu_indices(x.shape[0])
    subtract, multiply, add = np.subtract, np.multiply, np.add
    total = None
    for col in x.T:
        diff = col.take(i)
        multiply(subtract(diff, col.take(j), diff), diff, diff)
        total = diff if total is None else add(total, diff, total)
    return np.sqrt(total, total)


def sphere_cross_ratio_H(x: np.ndarray, a: int, b: int, c: int, d: int) -> float:
    """Chord-length cross-ratio of four sphere points.

    Conserved by the sphere flow for any frustration V = aI + W (W skew)
    when all particles share one rotation generator Omega: with a = 0.6 and
    W != 0, H_0123 drifts 2.0e-9 at dt 1e-2 and 1.3e-10 at dt 5e-3, RK4's
    order.  Not conserved with per-particle Omega, where it drifts 2.08."""
    x = np.asarray(x, dtype=float)
    if len({a, b, c, d}) != 4:
        raise ValueError("cross-ratio indices must be distinct")
    l = lambda p, q: np.linalg.norm(x[p] - x[q])
    denom = l(a, c) * l(b, d)
    if denom < DEGENERACY_EPS:
        raise DegenerateDenominator(
            f"cross-ratio denominator {denom:.3e} below {DEGENERACY_EPS:g}")
    return float(l(a, b) * l(c, d) / denom)


def ptolemy_residual(x: np.ndarray, a: int, b: int, c: int, d: int) -> float:
    """l_ab l_cd + l_bc l_ad - l_ac l_bd; zero iff the four points are
    concyclic with that vertex order (Ptolemy equality and its converse)."""
    x = np.asarray(x, dtype=float)
    l = lambda p, q: np.linalg.norm(x[p] - x[q])
    return float(l(a, b) * l(c, d) + l(b, c) * l(a, d) - l(a, c) * l(b, d))


def sphere_order_parameter(x: np.ndarray) -> float:
    """rho = norm of the centroid, in [0, 1]."""
    return float(np.linalg.norm(np.mean(np.asarray(x, dtype=float), axis=0)))


def sphere_squared_diameter(x: np.ndarray) -> float:
    """D_M = sum over ordered pairs of squared chord distances."""
    return float(np.sum(_pairwise_distances(np.asarray(x, dtype=float)) ** 2))


def _nonzero_chords(x: np.ndarray) -> np.ndarray:
    factors = _chords(x)
    if np.any(factors < DEGENERACY_EPS):
        k = int(np.argmin(factors))
        i, j = _triu_indices(x.shape[0])
        raise ZeroFactor(
            f"pair {i[k]},{j[k]} coincides within {DEGENERACY_EPS:g}")
    return factors


def skew_frustration_product(x: np.ndarray) -> float:
    """prod_{i<j} ||x_i - x_j||; conserved by pure skew frustration (a = 0).

    Overflows to inf once N is in the hundreds; drift measurement goes
    through :func:`skew_frustration_log_product` instead.
    """
    return float(np.prod(_nonzero_chords(np.asarray(x, dtype=float))))


def skew_frustration_log_product(x: np.ndarray) -> float:
    """sum_{i<j} log ||x_i - x_j||, the logarithm of
    :func:`skew_frustration_product`, finite at any N."""
    factors = _nonzero_chords(np.asarray(x, dtype=float))
    return float(np.sum(np.log(factors, factors)))


def max_pairwise_distance(x: np.ndarray) -> float:
    return float(np.max(_chords(np.asarray(x, dtype=float)), initial=0.0))


def min_pairwise_distance(x: np.ndarray) -> float:
    return float(np.min(_chords(np.asarray(x, dtype=float))))


def aggregation_diameter(x: np.ndarray) -> float:
    """max_{i,j} (1 - <x_i, x_j>), computed as squared chordal distance / 2
    to avoid cancellation once the ensemble is nearly aggregated."""
    return float(np.max(_chords(np.asarray(x, dtype=float)) ** 2, initial=0.0) / 2.0)


def affine_fit_residual(x: np.ndarray, m: int) -> float:
    """Largest singular value of the centered point matrix beyond the first m;
    zero iff the points lie in an m-dimensional affine subspace."""
    x = np.asarray(x, dtype=float)
    s = np.linalg.svd(x - x.mean(axis=0), compute_uv=False)
    return float(s[m:].max()) if s.size > m else 0.0


# ---------------------------------------------------------------------------
# matrix functionals


def matrix_diameter(u: np.ndarray) -> float:
    """D(U) = max Frobenius distance over pairs."""
    u = np.asarray(u, dtype=complex)
    diff = u[:, None] - u[None, :]
    squares = np.add.reduce((diff.conj() * diff).real, axis=(2, 3))  # as np.linalg.norm
    return float(np.sqrt(np.maximum.reduce(squares, None)))  # the root is monotone


def matrix_cross_ratio_spectrum(u: np.ndarray, i: int, j: int, k: int,
                                l: int) -> np.ndarray:
    """Eigenvalues of (U_i-U_k)(U_i-U_l)^{-1}(U_j-U_l)(U_j-U_k)^{-1},
    sorted lexicographically by (re, im).

    Requires i != l and j != k with both inverted differences
    well-conditioned (condition number below 1e12).
    """
    u = np.asarray(u, dtype=complex)
    if i == l or j == k:
        raise ValueError("need i != l and j != k")
    d_il = u[i] - u[l]
    d_jk = u[j] - u[k]
    for name, m in (("U_i - U_l", d_il), ("U_j - U_k", d_jk)):
        if np.linalg.cond(m) > 1e12:
            raise SingularDifference(f"{name} is numerically singular")
    c = (u[i] - u[k]) @ np.linalg.inv(d_il) @ (u[j] - u[l]) @ np.linalg.inv(d_jk)
    ev = np.linalg.eigvals(c)
    return np.array(sorted(ev, key=lambda z: (z.real, z.imag)))


def _has_perfect_matching(allowed: np.ndarray) -> bool:
    """Whether the square boolean matrix ``allowed`` pairs every row with its
    own column: Kuhn's augmenting paths, at most n^3 steps."""
    n = allowed.shape[0]
    adjacent = [np.flatnonzero(row).tolist() for row in allowed]
    owner = [-1] * n                     # column -> the row it is paired with

    def augment(i, seen):
        for j in adjacent[i]:
            if not seen[j]:
                seen[j] = True
                if owner[j] < 0 or augment(owner[j], seen):
                    owner[j] = i
                    return True
        return False

    return all(augment(i, [False] * n) for i in range(n))


def spectrum_matching_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Distance between two eigenvalue multisets: the bottleneck matching,
    min over one-to-one pairings of the largest |a_i - b_p(i)|, exact at
    every size.

    The value is one of the n^2 distances |a_i - b_j|, the same float a
    search over all n! pairings returns; a bisection over their sorted
    values finds the smallest that still admits a perfect pairing.  A plain
    lexicographic sort is unstable when two eigenvalues share a real part
    (complex-conjugate pairs), so multiset comparison is used whenever a
    spectrum is compared across time.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError("spectra have different sizes")
    if a.size == 0:
        return 0.0
    # scalar abs, not the array ufunc: the vectorized complex abs may round
    # the last bit differently, and the matching must not move the value
    dist = np.array([[abs(x - y) for y in b.ravel()] for x in a.ravel()])
    levels = np.unique(dist)
    # each row and each column needs a pair, so no level below the largest
    # row or column minimum admits a pairing; the largest level always does
    floor = max(dist.min(axis=0).max(), dist.min(axis=1).max())
    lo, hi = int(np.searchsorted(levels, floor)), levels.size - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if _has_perfect_matching(dist <= levels[mid]):
            hi = mid
        else:
            lo = mid + 1
    return float(levels[lo])


# ---------------------------------------------------------------------------
# observables and drift reports


class Kind(enum.Enum):
    CONSERVED = "conserved"
    CONSERVED_LOG = "conserved-log"
    NON_INCREASING = "non-increasing"
    NON_DECREASING = "non-decreasing"
    BOUNDED = "bounded"
    RECORD = "record"


@dataclass(frozen=True)
class Observable:
    """A named functional evaluated on (config, state)."""

    label: str
    kind: Kind
    fn: object  # callable(config, state) -> float | complex ndarray

    def series(self, traj: Trajectory) -> np.ndarray:
        return np.array([self.fn(traj.config, s) for s in traj.states])


def _dm_kind(cfg: Config) -> Kind:
    return Kind.NON_INCREASING if cfg.kappa > 0 else Kind.NON_DECREASING


# the scenario schema's model.kind of each configuration class
_MODEL_KIND = {PhaseConfig: "kuramoto", SphereConfig: "sphere", UnitaryConfig: "matrix"}

# name -> (value on (config, state, indices), default kind or a function of the
# config giving it, number of indices, model kind).  The functionals are
# looked up when called, not captured, so rebinding a module-level name
# reaches every observable built on it.
OBSERVABLES = {
    "kuramoto_I": (lambda c, s, idx: functional_I(s), Kind.CONSERVED, 0, "kuramoto"),
    "kuramoto_J": (lambda c, s, idx:
                   functional_J_alpha_log(s, alpha_in(c, Flavor.COSINE))[1],
                   Kind.CONSERVED_LOG, 0, "kuramoto"),
    "kuramoto_K": (lambda c, s, idx: cross_ratio_K(s, *idx), Kind.CONSERVED, 4,
                   "kuramoto"),
    "order_R": (lambda c, s, idx: order_parameter_R(s)[0], Kind.RECORD, 0, "kuramoto"),
    "total_phase": (lambda c, s, idx: float(np.sum(s)), Kind.NON_DECREASING, 0,
                    "kuramoto"),
    "phase_diameter": (lambda c, s, idx: phase_diameter(s), Kind.RECORD, 0, "kuramoto"),
    "sphere_H": (lambda c, s, idx: sphere_cross_ratio_H(s, *idx), Kind.CONSERVED, 4,
                 "sphere"),
    "ptolemy": (lambda c, s, idx: ptolemy_residual(s, *idx), Kind.BOUNDED, 4, "sphere"),
    "sphere_rho": (lambda c, s, idx: sphere_order_parameter(s), Kind.RECORD, 0, "sphere"),
    "sphere_rho_sq": (lambda c, s, idx: sphere_order_parameter(s) ** 2,
                      Kind.NON_DECREASING, 0, "sphere"),
    "sphere_DM": (lambda c, s, idx: sphere_squared_diameter(s), _dm_kind, 0, "sphere"),
    "pair_inner": (lambda c, s, idx: float(s[idx[0]] @ s[idx[1]]), Kind.CONSERVED, 2,
                   "sphere"),
    "pair_distance_product": (lambda c, s, idx: skew_frustration_log_product(s),
                              Kind.CONSERVED_LOG, 0, "sphere"),
    "matrix_D": (lambda c, s, idx: matrix_diameter(s), Kind.RECORD, 0, "matrix"),
    "matrix_cross_ratio": (lambda c, s, idx: matrix_cross_ratio_spectrum(s, *idx),
                           Kind.CONSERVED, 4, "matrix"),
}


def make_observable(name: str, config: Config, indices=None,
                    kind: Kind | None = None) -> Observable:
    """Build the observable registered under ``name`` in :data:`OBSERVABLES`.

    ``indices`` selects the oscillators for cross-ratio-type functionals:
    exactly the registered number of distinct indices in [0, N), and none
    for the other functionals.  ``kind`` overrides the registered kind,
    except that the two conserved checks are not interchangeable: a
    log-valued functional takes 'conserved-log' and never 'conserved', a
    linear one never 'conserved-log'.  ``config`` must belong to the
    functional's model.  An unknown name, a bad index list, a refused
    override, a foreign model or ``kuramoto_J`` where the cosine flavor's
    alpha lies within about 1e-9 of pi/2 + k pi (the sine flavor's within
    it of k pi) raises ValueError.
    """
    if name not in OBSERVABLES:
        raise ValueError(f"unknown functional name {name!r}")
    value, default, n_idx, model = OBSERVABLES[name]
    if not isinstance(default, Kind):
        default = default(config)
    idx = tuple(indices) if indices is not None else None
    if not n_idx and idx is not None:
        raise ValueError(f"observable {name!r} takes no indices")
    if n_idx and (idx is None or len(idx) != n_idx):
        raise ValueError(f"observable {name!r} needs {n_idx} indices")
    if idx is not None and not all(0 <= i < config.n for i in idx):
        raise ValueError(f"observable {name!r}: indices {list(idx)} must lie in "
                         f"[0, {config.n})")
    if idx is not None and len(set(idx)) != len(idx):
        raise ValueError(f"observable {name!r} needs distinct indices, got {list(idx)}")
    log_valued = default is Kind.CONSERVED_LOG
    if kind is Kind.CONSERVED and log_valued:
        raise ValueError(f"observable {name!r} is a logarithm: a relative "
                         "'conserved' check on it carries no information; "
                         "use 'conserved-log'")
    if kind is Kind.CONSERVED_LOG and not log_valued:
        raise ValueError(f"observable {name!r} is not a logarithm: a "
                         "'conserved-log' check would read its differences "
                         "as log differences")
    if _MODEL_KIND[type(config)] != model:
        raise ValueError(f"observable {name!r} is a functional of the {model} "
                         f"model, not of the {_MODEL_KIND[type(config)]} model")
    if name == "kuramoto_J":
        _check_j_alpha(alpha_in(config, Flavor.COSINE))
    label = name if idx is None else name + "_" + "_".join(str(i) for i in idx)
    return Observable(label, default if kind is None else kind,
                      lambda c, s: value(c, s, idx))


@dataclass
class DriftReport:
    """Deviation summary of one functional along one trajectory.

    For conserved functionals the deviations are against the t=0 value (the
    relative one normalized by max(|v0|, 1e-8)), and the verdict is False
    whenever |v0| (the largest |eigenvalue| for a spectrum) is below 1e-8,
    since a relative drift of a vanishing value certifies nothing; for
    log-space functionals max_abs_dev is the max |delta log| and
    max_rel_dev = |expm1(delta log)|; for monotone functionals the
    deviations quantify the largest wrong-direction step; for bounded
    functionals they are the largest absolute value attained.  verdict is
    True iff the deviation relevant to the kind stays within ``tolerance``.
    """

    name: str
    kind: Kind
    v0: object
    max_abs_dev: float
    max_rel_dev: float
    tolerance: float
    verdict: bool

    def to_dict(self) -> dict:
        v0 = self.v0
        if isinstance(v0, np.ndarray):
            v0 = [[z.real, z.imag] for z in v0]
        elif isinstance(v0, complex):
            v0 = [v0.real, v0.imag]
        return {
            "name": self.name,
            "kind": self.kind.value,
            "v0": v0,
            "max_abs_dev": self.max_abs_dev,
            "max_rel_dev": self.max_rel_dev,
            "tolerance": self.tolerance,
            "verdict": "pass" if self.verdict else "fail",
        }


def drift(ob: Observable, values: np.ndarray, tolerance: float) -> DriftReport:
    """The drift report of ``ob`` on its series ``values``, one row per
    record; the per-kind semantics are documented on :class:`DriftReport`.
    A series of fewer than two records has no drift and raises ValueError."""
    if len(values) < 2:
        raise ValueError("drift needs a series of at least two records")
    v0 = values[0]
    if ob.kind is Kind.CONSERVED:
        if values.ndim > 1:  # eigenvalue multisets: match, do not track branches
            devs = np.array([spectrum_matching_distance(values[0], v)
                             for v in values])
            size = float(np.max(np.abs(v0)))
        else:
            devs = np.abs(values - v0)
            size = abs(float(np.real_if_close(v0)))
        max_abs = float(devs.max())
        max_rel = max_abs / max(size, REL_FLOOR)
        # below the floor deviations are measured against 1e-8, not against
        # the value, so a functional that underflowed would pass at any step
        ok = size >= REL_FLOOR and max_rel < tolerance
    elif ob.kind is Kind.CONSERVED_LOG:
        dlog = np.abs(values - v0)
        max_abs = float(dlog.max())
        max_rel = float(np.max(np.abs(np.expm1(np.minimum(dlog, 700.0)))))
        ok = max_rel < tolerance
    elif ob.kind in (Kind.NON_INCREASING, Kind.NON_DECREASING):
        diffs = np.diff(values)
        wrong = np.maximum(diffs, 0.0) if ob.kind is Kind.NON_INCREASING \
            else np.maximum(-diffs, 0.0)
        max_abs = float(wrong.max()) if wrong.size else 0.0
        max_rel = max_abs / max(abs(float(v0)), REL_FLOOR)
        ok = max_abs <= tolerance
    elif ob.kind is Kind.BOUNDED:
        max_abs = float(np.max(np.abs(values)))
        max_rel = max_abs
        ok = max_abs < tolerance
    else:  # RECORD: nothing to verify
        max_abs = max_rel = 0.0
        ok = True
    return DriftReport(name=ob.label, kind=ob.kind, v0=v0, max_abs_dev=max_abs,
                       max_rel_dev=max_rel, tolerance=tolerance, verdict=ok)


def drift_reports_to_json(reports: list[DriftReport]) -> str:
    return json.dumps([r.to_dict() for r in reports], indent=2)
