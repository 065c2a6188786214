"""Stereographic reduction of the unfrustrated sphere flow.

Projecting the ensemble from the reference particle x_N onto the hyperplane
orthogonal to it, y_j = x_N + 2 (x_j - x_N)/||x_j - x_N||^2, turns the flow
dx_j = (kappa/N) sum_k (x_k - <x_j, x_k> x_j) into a coupled system for
(y_1..y_{N-1}, x_N), which in turn collapses onto three low-dimensional
quantities: a scaling a(t) > 0, a translation b(t) in the hyperplane, and an
orthogonal matrix M(t), with

    y_i(t) = M(t) (a(t) y_i(0) + b(t)),      x_N(t) = M(t) x_N(0).

The reduction is implemented for V = I only (the stated reduced systems
carry no frustration) and for pairwise-distinct initial data (multiplicity
m = 1 at the reference).
"""

from __future__ import annotations

from dataclasses import dataclass
from dataclasses import replace as _replace

import numpy as np

from .errors import CoincidentPoint, IntegrationError, PassedThroughProjectionPoint
from .integrate import (
    IntegratorSettings,
    _integrate_array,
    integrate,
    integrate_functional,
    natural_projection,
    polar_factor,
)
from .invariants import (aggregation_diameter, max_pairwise_distance,
                         min_pairwise_distance, sphere_order_parameter)
from .state import SphereConfig

COINCIDENCE_TOL = 1e-12
BLOWUP_LIMIT = 1e12
AGGREGATED_DISTANCE = 1e-4


def project_all(x: np.ndarray) -> np.ndarray:
    """The chart: y_j = x_N + 2 (x_j - x_N)/||x_j - x_N||^2 for the rows
    x[..., :-1, :], relative to the reference x[..., -1, :], with an optional
    leading record axis.  Each y_j lies in the hyperplane orthogonal to x_N.
    Raises CoincidentPoint at the projection pole.

    The squared norms are stacked 1 x 1 products, which round like the dot
    product of one row with itself.
    """
    x = np.asarray(x, dtype=float)
    x_n = x[..., -1:, :]
    diff = x[..., :-1, :] - x_n
    d2 = (diff[..., None, :] @ diff[..., :, None])[..., 0]
    if np.any(d2 < COINCIDENCE_TOL ** 2):
        raise CoincidentPoint("cannot project the reference point itself")
    return x_n + (2.0 / d2) * diff


def sphere_stereo_invert(y_j: np.ndarray, x_n: np.ndarray) -> np.ndarray:
    """Inverse map back to the sphere:
    x = 2y/(1+||y||^2) + (||y||^2 - 1)/(1+||y||^2) x_N.  Requires y _|_ x_N."""
    y_j = np.asarray(y_j, dtype=float)
    x_n = np.asarray(x_n, dtype=float)
    if abs(float(y_j @ x_n)) > 1e-8 * max(1.0, float(np.linalg.norm(y_j))):
        raise ValueError("y must be orthogonal to the reference point")
    n2 = float(y_j @ y_j)
    return (2.0 * y_j + (n2 - 1.0) * x_n) / (1.0 + n2)


@dataclass(frozen=True)
class ProjectedSphereData:
    """Frozen projected initial data: N-1 points of the hyperplane
    orthogonal to the initial reference x_N(0)."""

    y0: np.ndarray
    x_n0: np.ndarray
    kappa: float

    @property
    def n(self) -> int:
        return self.y0.shape[0] + 1

    @property
    def dim(self) -> int:
        return self.x_n0.size


def project_sphere_config(cfg: SphereConfig) -> ProjectedSphereData:
    """Requires at least two pairwise-distinct points (the reduction is
    restricted to multiplicity one at the reference) and V = I, Omega = 0."""
    x = cfg.x
    if x.shape[0] < 2:
        raise ValueError("the sphere reduction needs at least two points")
    if min_pairwise_distance(x) < COINCIDENCE_TOL:
        raise CoincidentPoint("initial sphere points must be pairwise distinct")
    if cfg.a != 1.0 or np.any(cfg.w != 0.0) or np.any(cfg.omega != 0.0):
        raise ValueError("the sphere reduction is certified for V = I, Omega = 0 only")
    return ProjectedSphereData(y0=project_all(x), x_n0=x[-1].copy(),
                               kappa=cfg.kappa)


# ---------------------------------------------------------------------------
# the projected N-1 body system


@dataclass
class StereoTrajectory:
    times: np.ndarray
    y: np.ndarray      # (T, N-1, d+1)
    x_n: np.ndarray    # (T, d+1)


def _chart_centroid(ys: np.ndarray) -> tuple[np.ndarray, float, np.ndarray]:
    """N times the centroid of the points behind ``ys`` and the reference x_N,
    as (sum_j 2 y_j/(1+|y_j|^2), 1 + sum_j (|y_j|^2-1)/(1+|y_j|^2)), its
    components in the hyperplane and along x_N, then the weights 1/(1+|y_j|^2)."""
    norm2 = np.add.reduce(ys * ys, 1)
    w = 1.0 / (1.0 + norm2)
    return 2.0 * np.add.reduce(w[:, None] * ys, 0), 1.0 + np.add.reduce((norm2 - 1.0) * w), w


def _stereo_rhs(state: np.ndarray, kappa: float, n: int) -> np.ndarray:
    ys, x_n = state[:-1], state[-1]
    drift, radial, _ = _chart_centroid(ys)
    inner = ys @ drift / 2.0                          # sum_j <y_i,y_j>/(1+|y_j|^2)
    k_n = kappa / n
    out = np.empty_like(state)
    out[:-1] = k_n * (drift[None, :] + radial * ys - 2.0 * inner[:, None] * x_n[None, :])
    out[-1] = k_n * drift
    return out


def integrate_stereo_full(data: ProjectedSphereData, settings: IntegratorSettings,
                          t_final: float) -> StereoTrajectory:
    """Integrate the coupled (y, x_N) system.

    ||x_N|| = 1 and <y_i, x_N> = 0 are re-imposed after every step; a
    projected point running past 1e12 in norm aborts the run (the particle
    passed through the projection point of the chart).
    """
    kappa, n = data.kappa, data.n
    state0 = np.vstack([data.y0, data.x_n0[None, :]])

    def project(state):
        out = np.empty_like(state)
        x_n = out[-1] = state[-1] / np.sqrt(np.dot(state[-1], state[-1]))
        ys = out[:-1] = state[:-1] - (state[:-1] @ x_n)[:, None] * x_n
        if np.maximum.reduce(abs(ys), None) > BLOWUP_LIMIT:
            raise PassedThroughProjectionPoint(
                "a projected point exceeded 1e12; the chart broke down")
        return out

    times, states, _ = _integrate_array(
        lambda s: _stereo_rhs(s, kappa, n), state0, settings, t_final, project=project)
    return StereoTrajectory(times=times, y=states[:, :-1], x_n=states[:, -1])


# ---------------------------------------------------------------------------
# the (a, b, M) system


@dataclass
class ReducedSphereTrajectory:
    times: np.ndarray
    a: np.ndarray      # (T,)
    b: np.ndarray      # (T, d+1)
    m: np.ndarray      # (T, d+1, d+1)
    data: ProjectedSphereData


def _abm_rhs(state: np.ndarray, data: ProjectedSphereData) -> np.ndarray:
    """(a', b', M') at state (a, b, M); (a', b') do not involve M."""
    dim = data.dim
    a, b = state[0], state[1:1 + dim]
    tangential, radial, w = _chart_centroid(a * data.y0 + b[None, :])
    kappa, k_n, x_n0 = data.kappa, data.kappa / data.n, data.x_n0
    out = np.empty_like(state)
    out[0] = k_n * radial * a
    out[1:1 + dim] = kappa * b + k_n * 2.0 * a * np.add.reduce(w[:, None] * data.y0, 0)
    m = state[1 + dim:].reshape(dim, dim)
    z = k_n * tangential
    ell = z[:, None] * x_n0 - x_n0[:, None] * z
    out[1 + dim:] = (m @ ell).ravel()
    return out


def _abm_project(state: np.ndarray, data: ProjectedSphereData) -> np.ndarray:
    """b onto the hyperplane orthogonal to x_N(0), M onto its polar factor."""
    dim = data.dim
    out = state.copy()
    b = out[1:1 + dim]
    out[1:1 + dim] = b - (b @ data.x_n0) * data.x_n0
    out[1 + dim:] = polar_factor(out[1 + dim:].reshape(dim, dim)).ravel()
    return out


def integrate_abM(data: ProjectedSphereData, settings: IntegratorSettings,
                  t_final: float) -> ReducedSphereTrajectory:
    """Integrate the (a, b, M) system from (1, 0, I).

    M is re-orthogonalized through its polar factor after every step (drift
    in M would contaminate reconstruction comparisons) and b is re-projected
    onto the hyperplane orthogonal to x_N(0).  A nonpositive a signals
    integrator failure: the exact flow keeps a > 0.
    """
    dim = data.dim
    state0 = np.concatenate([[1.0], np.zeros(dim), np.eye(dim).ravel()])

    def project(state):
        state = _abm_project(state, data)
        if state[0] <= 0.0:
            raise IntegrationError("scaling factor a lost positivity")
        return state

    times, states, _ = _integrate_array(
        lambda s: _abm_rhs(s, data), state0, settings, t_final, project=project)
    return ReducedSphereTrajectory(
        times=times, a=states[:, 0], b=states[:, 1:1 + dim],
        m=states[:, 1 + dim:].reshape(-1, dim, dim), data=data)


def reconstruct_abM(reduced: ReducedSphereTrajectory) -> tuple[np.ndarray, np.ndarray]:
    """y_i(t) = M(t)(a(t) y_i(0) + b(t)) and x_N(t) = M(t) x_N(0)."""
    data = reduced.data
    y = np.einsum("tab,tkb->tka",
                  reduced.m,
                  reduced.a[:, None, None] * data.y0[None, :, :]
                  + reduced.b[:, None, :])
    x_n = np.einsum("tab,b->ta", reduced.m, data.x_n0)
    return y, x_n


def rho_squared_reduced(a: float, b: np.ndarray, data: ProjectedSphereData) -> float:
    """Squared order parameter from the reduced variables alone: M drops out
    of every Euclidean quantity."""
    tangential, radial, _ = _chart_centroid(a * data.y0 + b[None, :])
    return float((tangential @ tangential + radial ** 2) / data.n ** 2)


# ---------------------------------------------------------------------------
# whole-chain comparison


@dataclass
class SphereReductionReport:
    full_vs_stereo: float
    stereo_vs_abm: float
    full_vs_abm: float
    m_orthogonality: float
    a_min: float
    b_orthogonality: float
    inner_product_law_residual: float
    rho_consistency: float

    @property
    def three_way_max(self) -> float:
        return max(self.full_vs_stereo, self.stereo_vs_abm, self.full_vs_abm)


def reduction_chain_report(cfg: SphereConfig, settings: IntegratorSettings,
                           t_final: float) -> SphereReductionReport:
    """Co-integrate the full flow, the projected system, and the (a, b, M)
    system on one grid; report every pairwise discrepancy plus the
    structural invariants of the reduced representation."""
    data = project_sphere_config(cfg)
    full = integrate(cfg, _replace(settings, projection=natural_projection(cfg)),
                     t_final)
    stereo = integrate_stereo_full(data, settings, t_final)
    reduced = integrate_abM(data, settings, t_final)

    # (y, x_N) of each system on the whole record grid
    by_full = (project_all(full.states), full.states[:, -1])
    by_stereo = (stereo.y, stereo.x_n)
    by_abm = reconstruct_abM(reduced)
    err_fs, err_sa, err_fa = (
        max(0.0, *(float(np.max(np.abs(u - v))) for u, v in zip(p, q)))
        for p, q in ((by_full, by_stereo), (by_stereo, by_abm), (by_full, by_abm)))

    m_orth = float(np.max(np.linalg.norm(
        np.swapaxes(reduced.m, 1, 2) @ reduced.m - np.eye(data.dim), axis=(1, 2))))
    b_orth = float(np.max(np.abs(reduced.b @ data.x_n0)))

    # difference inner products scale by a(t)^2: <y_i-y_j, y_k-y_l>(t) against
    # a^2 <y_i-y_j, y_k-y_l>(0), each quadruple normalised by max(1, |lhs|),
    # in one (N-1)^3 block of stacked dots per i; the rows with i = j or
    # k = l are exact zeros on both sides
    diffs = lambda y: y[:, None, :] - y[None, :, :]
    law = 0.0
    checked = [(reduced.a[idx] ** 2, diffs(stereo.y[idx]))
               for idx in (len(full.times) - 1, len(full.times) // 2)]
    d0 = diffs(data.y0)
    for i in range(data.n - 1):
        base = d0[i][:, None, None, None, :] @ d0[..., None]
        for a2, dt in checked:
            lhs = dt[i][:, None, None, None, :] @ dt[..., None]
            law = max(law, float(np.max(np.abs(lhs - a2 * base)
                                        / np.maximum(1.0, np.abs(lhs)))))

    rho_dev = 0.0
    for idx in range(len(full.times)):
        from_points = sphere_order_parameter(full.states[idx]) ** 2
        from_reduced = rho_squared_reduced(reduced.a[idx], reduced.b[idx], data)
        rho_dev = max(rho_dev, abs(from_points - from_reduced))

    return SphereReductionReport(
        full_vs_stereo=err_fs, stereo_vs_abm=err_sa, full_vs_abm=err_fa,
        m_orthogonality=m_orth, a_min=float(reduced.a.min()),
        b_orthogonality=b_orth, inner_product_law_residual=law,
        rho_consistency=rho_dev)


# ---------------------------------------------------------------------------
# aggregation certification


@dataclass
class SphereAggregationResult:
    hypothesis_ok: bool
    w_norm_op: float
    w_norm_fro: float
    initial_gap: float
    aggregated: bool
    final_max_distance: float
    fitted_rate: float
    predicted_rate: float
    rate_consistent: bool

    @property
    def verdict(self) -> str:
        if not self.hypothesis_ok:
            return "Unconditioned"
        return "Aggregated" if self.aggregated else "NotAggregated"


@dataclass(frozen=True)
class SphereAggregationPlan:
    """What :func:`sphere_aggregation_check` integrates, and its verdict on
    the run."""

    cfg: SphereConfig
    settings: IntegratorSettings
    t_final: float

    @property
    def run(self):
        """The run, as ``integrate_functional`` and ``integrate_batch`` take
        it: the aggregation diameter is kept at each record point."""
        return self.cfg, self.settings, self.t_final, aggregation_diameter

    def judge(self, integrated) -> SphereAggregationResult:
        """The verdict on ``(times, diameters, final state)`` of the run."""
        cfg = self.cfg
        times, diam, final = integrated
        w_op = float(np.linalg.norm(cfg.w, 2))
        w_fro = float(np.linalg.norm(cfg.w))
        gap0 = diam[0]
        hypothesis = (cfg.a > 0 and w_op < cfg.a and cfg.shared_omega is True
                      and gap0 < 1.0 - w_op / cfg.a)
        final_dist = max_pairwise_distance(final)

        predicted = 2.0 * cfg.kappa * (cfg.a - w_op)
        fit_mask = (diam > 1e-24) & (diam < gap0 / 4.0) if gap0 > 0 else np.zeros_like(diam, bool)
        if np.count_nonzero(fit_mask) >= 2:
            slope = np.polyfit(times[fit_mask], np.log(diam[fit_mask]), 1)[0]
            fitted = -float(slope)
        else:
            fitted = float("nan")
        consistent = bool(np.isfinite(fitted) and fitted >= 0.5 * predicted)

        return SphereAggregationResult(
            hypothesis_ok=bool(hypothesis), w_norm_op=w_op, w_norm_fro=w_fro,
            initial_gap=float(gap0), aggregated=bool(final_dist < AGGREGATED_DISTANCE),
            final_max_distance=float(final_dist), fitted_rate=fitted,
            predicted_rate=predicted, rate_consistent=consistent)


def plan_sphere_aggregation(cfg: SphereConfig, t_final: float,
                            settings: IntegratorSettings | None = None
                            ) -> SphereAggregationPlan:
    """The run of :func:`sphere_aggregation_check`; a t_final that is not
    positive raises ValueError, since a run of no step certifies nothing."""
    if not t_final > 0:
        raise ValueError("sphere_aggregation_check needs t_final > 0")
    if settings is None:
        settings = IntegratorSettings(dt=1e-3, record_every=25)
    return SphereAggregationPlan(
        cfg, _replace(settings, projection=natural_projection(cfg)), t_final)


def sphere_aggregation_check(cfg: SphereConfig, t_final: float,
                             settings: IntegratorSettings | None = None
                             ) -> SphereAggregationResult:
    """Run the frustrated sphere flow and certify complete aggregation.

    The hypothesis is ||W||_op < a together with
    max_{i,j}(1 - <x_i(0), x_j(0)>) < 1 - ||W||_op/a; the Frobenius norm is
    reported alongside since the certified inequality does not pin the norm
    down.  A log-linear fit of the aggregation diameter is compared with the
    Gronwall envelope rate 2 kappa (a - ||W||_op): the measured decay must
    reach at least half of it.  The ensemble counts as aggregated when its
    final largest chord is below ``AGGREGATED_DISTANCE`` (1e-4).  The run
    keeps the aggregation diameter at each record point and the final
    state, not the trajectory; t_final must be positive.
    """
    plan = plan_sphere_aggregation(cfg, t_final, settings)
    return plan.judge(integrate_functional(*plan.run))
