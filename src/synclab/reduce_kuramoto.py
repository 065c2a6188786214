"""Stereographic reduction of the identical-oscillator circle flow.

The sine-flavor flow dtheta_j = (kappa/N) sum_k sin(theta_k - theta_j + alpha)
projects, relative to the reference oscillator theta_N, onto points of the
real line x_j = (1 + cos b_j)/sin b_j with b_j = theta_j - theta_N.  The
projected points move by a common affine transformation, so the whole flow
collapses to two scalar functions (f, g) with x_j(t) = g(t) + f(t) x_j(0).

Oscillators coincident with theta_N at t = 0 stay coincident and are moved to
the trailing positions; the permutation is recorded so reconstruction reports
errors in the caller's original indexing.

:func:`integrate_fg` steps the (f, g) system through the fixed-step loop of
``integrate`` with its rhs bound once per run (:func:`_bind_fg_rhs`): the
constants of the coefficients A and B and the buffers of the transported
points and of every intermediate are bound, so a call allocates only the
(f', g') it returns.  It makes the operations of the plain formulas, kept as
the oracle in ``tests/test_hotpath_identity.py``, in their order, so every
record equals theirs bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import _scalars
from .errors import CoincidentPhase, IntegrationError
from .integrate import (
    IntegratorSettings,
    Trajectory,
    _integrate_array,
    integrate,
    integrate_functional,
)
from .invariants import drift, make_observable, order_parameter_R, phase_diameter
from .state import Flavor, PhaseConfig, alpha_in, make_phase_config

COINCIDENCE_TOL = 1e-12
DICHOTOMY_EPS = 1e-3


def _coincident(beta: np.ndarray) -> np.ndarray:
    """Whether beta = 0 mod 2pi within 1e-12, elementwise."""
    return np.abs(np.mod(beta + np.pi, 2.0 * np.pi) - np.pi) < COINCIDENCE_TOL


def project_phases(theta: np.ndarray, theta_n: np.ndarray) -> np.ndarray:
    """The chart x = (1+cos b)/sin b = sin b/(1-cos b), b = theta - theta_n,
    elementwise under broadcasting.

    The two closed forms are selected by comparing |1 - cos b| with |sin b|:
    the first is stable near b = +-pi/2, the second near b = pi.  Raises
    CoincidentPhase when some b = 0 mod 2pi within 1e-12 (the map has a pole
    there).
    """
    beta = np.asarray(theta, dtype=float) - theta_n
    pole = _coincident(beta)
    if np.any(pole):
        raise CoincidentPhase(f"phase difference {np.extract(pole, beta)[0]!r} "
                              "is a projection pole")
    c, s = np.cos(beta), np.sin(beta)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(np.abs(1.0 - c) > np.abs(s), s / (1.0 - c), (1.0 + c) / s)


@dataclass(frozen=True)
class ProjectedPhaseData:
    """Frozen projected initial data of the reduction.

    x0 holds the N - m projected points in rearranged order, m counts the
    oscillators coincident with the reference (including the reference
    itself), and perm maps rearranged positions to original indices with the
    reference last.
    """

    x0: np.ndarray
    m: int
    kappa: float
    alpha: float
    perm: np.ndarray

    @property
    def n(self) -> int:
        return self.x0.size + self.m


def project_phase_config(cfg: PhaseConfig) -> ProjectedPhaseData:
    """Build the projected initial data, rearranging coincident oscillators
    to the trailing positions (they stay coincident by autonomy).

    The reduction is derived for identical oscillators; heterogeneous
    natural frequencies are rejected.
    """
    if np.ptp(cfg.nu) != 0.0:
        raise ValueError("the stereographic reduction requires identical frequencies")
    theta, ref = cfg.theta, cfg.theta[-1]
    coincident = _coincident(theta[:-1] - ref)
    leading = np.flatnonzero(~coincident)
    perm = np.concatenate([leading, np.flatnonzero(coincident), [theta.size - 1]])
    return ProjectedPhaseData(x0=project_phases(theta[leading], ref),
                              m=int(coincident.sum()) + 1, kappa=cfg.kappa,
                              alpha=alpha_in(cfg, Flavor.SINE), perm=perm)


def ab_coefficients(x: np.ndarray, m: int, kappa: float,
                    alpha: float) -> tuple[float, float]:
    """The two coefficient functions driving dx_j = A + B x_j, for an
    ensemble of len(x) projected oscillators plus m coincident ones.

    Both satisfy |A| <= kappa and |B| <= kappa (Cauchy-Schwarz on the
    rational pair 2x/(x^2+1), (x^2-1)/(x^2+1)), which excludes finite-time
    blow-up of the reduced flow.
    """
    x = np.asarray(x, dtype=float)
    a, b = _bind_ab(x.size + m, m, kappa, alpha, x.shape)(x)
    return float(a), float(b)


def _bind_ab(n: int, m: int, kappa: float, alpha: float, shape):
    """x -> (A, B) of :func:`ab_coefficients` for x of ``shape``, with
    cos alpha, sin alpha, their multiples by m, kappa/n and the scratch of
    the intermediates bound once."""
    c, s, one, two = _scalars(float, np.cos(alpha), np.sin(alpha), 1.0, 2.0)
    m_s, m_c, k_n = float(m * s), float(m * c), kappa / n
    x2, den, t1, t2, p, q = (np.empty(shape) for _ in range(6))
    multiply, add, subtract, divide, negative = (
        np.multiply, np.add, np.subtract, np.divide, np.negative)
    add_reduce = np.add.reduce

    def ab(x):
        multiply(x, x, x2)
        add(x2, one, den)
        divide(multiply(two, x, t1), den, t1)
        divide(subtract(x2, one, t2), den, t2)
        a_sum = add_reduce(add(multiply(t1, c, p), multiply(t2, s, q), p))
        b_sum = add_reduce(add(multiply(negative(t1, p), s, p), multiply(t2, c, q), p))
        return k_n * (m_s + a_sum), k_n * (m_c + b_sum)
    return ab


def _bind_fg_rhs(data: ProjectedPhaseData):
    """(f, g) -> (f', g') = (B f, A + B g), the coefficients taken at the
    transported points f x0 + g, with :func:`_bind_ab` and the points'
    buffer bound once; each call returns a new array."""
    x0 = data.x0
    ab = _bind_ab(data.n, data.m, data.kappa, data.alpha, x0.shape)
    x = np.empty(x0.shape)
    multiply, add = np.multiply, np.add

    def rhs(fg):
        f, g = fg[0], fg[1]
        a, b = ab(add(multiply(f, x0, x), g, x))
        return np.array([b * f, a + b * g])
    return rhs


@dataclass
class ReducedPhaseTrajectory:
    times: np.ndarray
    f: np.ndarray
    g: np.ndarray
    data: ProjectedPhaseData


def integrate_fg(data: ProjectedPhaseData, settings: IntegratorSettings,
                 t_final: float) -> ReducedPhaseTrajectory:
    """Integrate f' = B f, g' = A + B g from (f, g)(0) = (1, 0), evaluating
    the coefficients at the transported points f x0 + g.

    The a-priori bounds |f| <= e^{kappa t} and |g| <= e^{kappa t} - 1 are
    verified at record points; violation beyond 10% signals integrator
    failure.
    """
    kappa = data.kappa
    times, states, _ = _integrate_array(_bind_fg_rhs(data), np.array([1.0, 0.0]),
                                        settings, t_final)
    f, g = states[:, 0], states[:, 1]
    envelope = np.exp(abs(kappa) * times)
    if np.any(np.abs(f) > envelope * 1.1) or np.any(np.abs(g) > (envelope - 1.0) * 1.1 + 1e-9):
        raise IntegrationError("reduced flow violated its a-priori bound by more than 10%")
    if np.any(f <= 0.0):
        raise IntegrationError("orientation factor f lost positivity")
    return ReducedPhaseTrajectory(times=times, f=f, g=g, data=data)


@dataclass
class PhaseReductionReport:
    max_error: float
    affine_identity_residual: float


def reconstruct_and_compare(full: Trajectory,
                            reduced: ReducedPhaseTrajectory) -> PhaseReductionReport:
    """Max over recorded times and oscillators of
    |g + f x_j(0) - project(theta_j(t), theta_N(t))|, in original indexing.

    Also verifies the affine cross-ratio identity
    (x_i - x_j)(t) (x_k(0) - x_l(0)) = (x_i(0) - x_j(0)) (x_k - x_l)(t)
    over all index pairs, normalized by the largest term.
    """
    data = reduced.data
    if len(full.times) != len(reduced.times) or \
            float(np.max(np.abs(np.array(full.times) - reduced.times))) > 1e-12:
        raise ValueError("full and reduced trajectories use different time grids")
    x0 = data.x0
    x = project_phases(full.states[:, data.perm[: x0.size]], full.states[:, -1:])
    recon = reduced.g[:, None] + reduced.f[:, None] * x0
    max_err = float(np.max(np.abs(recon - x), initial=0.0))
    max_identity = 0.0
    diffs0 = x0[:, None] - x0[None, :]
    for xt in x if x0.size >= 2 else ():
        # lhs - rhs at (i, j, k, l) is v_ijk - v_ijl, so its largest
        # magnitude over (k, l) is the range of v_ijk over k, and the
        # largest |lhs| is ptp(xt) ptp(x0): N^3 work, not N^4
        v = (xt[:, None] - xt[None, :])[:, :, None] * x0 - diffs0[:, :, None] * xt
        scale = max(1.0, float(np.ptp(xt) * np.ptp(x0)))
        max_identity = max(max_identity, float(np.max(np.ptp(v, axis=2))) / scale)
    return PhaseReductionReport(max_error=max_err,
                                affine_identity_residual=max_identity)


def co_integrate(cfg: PhaseConfig, settings: IntegratorSettings,
                 t_final: float) -> PhaseReductionReport:
    """Integrate the full flow, as the equivalent sine flow in the caller's
    ordering, and the reduced flow on the same grid and compare."""
    data = project_phase_config(cfg)
    full = integrate(make_phase_config(cfg.theta, cfg.nu, cfg.kappa, data.alpha,
                                       Flavor.SINE), settings, t_final)
    reduced = integrate_fg(data, settings, t_final)
    return reconstruct_and_compare(full, reduced)


# ---------------------------------------------------------------------------
# asymptotic dichotomy


@dataclass(frozen=True)
class DichotomyResult:
    verdict: str                 # "SyncR1" | "IncoherenceR0" | "Inconclusive"
    r_final: float
    precondition_ok: bool
    total_phase_monotone: bool


@dataclass(frozen=True)
class DichotomyPlan:
    """What :func:`dichotomy_check` integrates, and its verdict on the run."""

    cfg: PhaseConfig
    settings: IntegratorSettings
    t_final: float
    precondition_ok: bool

    @property
    def run(self):
        """The run, as ``integrate_functional`` and ``integrate_batch`` take
        it: the total phase is kept at each record point."""
        return self.cfg, self.settings, self.t_final, np.sum

    def judge(self, integrated) -> DichotomyResult:
        """The verdict on ``(times, total phases, final state)`` of the run."""
        _, sums, final = integrated
        monotone = drift(make_observable("total_phase", self.cfg), sums, 1e-9).verdict
        r_final, _ = order_parameter_R(final)
        if r_final > 1.0 - DICHOTOMY_EPS:
            verdict = "SyncR1"
        elif r_final < DICHOTOMY_EPS:
            verdict = "IncoherenceR0"
        else:
            verdict = "Inconclusive"
        return DichotomyResult(verdict=verdict, r_final=r_final,
                               precondition_ok=self.precondition_ok,
                               total_phase_monotone=monotone)


def plan_dichotomy(theta0: np.ndarray, alpha: float, kappa: float, t_final: float,
                   settings: IntegratorSettings | None = None) -> DichotomyPlan:
    """The run of :func:`dichotomy_check` and its precondition."""
    theta0 = np.asarray(theta0, dtype=float)
    if settings is None:
        settings = IntegratorSettings(dt=1e-2, record_every=10)
    precondition_ok = True
    if alpha > 0:
        spread = phase_diameter(theta0) if theta0.size else 0.0
        precondition_ok = 0 < alpha < np.pi / 2 and spread < 2 * alpha
    elif alpha < 0:
        # the closest pair on the circle is a neighbour pair in sorted order
        wrapped = np.sort(np.mod(theta0, 2.0 * np.pi))
        distinct = wrapped.size < 2 or not np.any(
            _coincident(np.diff(wrapped, append=wrapped[0])))
        precondition_ok = -np.pi / 2 < alpha < 0 and distinct
    cfg = make_phase_config(theta0, 0.0, kappa, alpha, Flavor.COSINE)
    return DichotomyPlan(cfg, settings, t_final, precondition_ok)


def dichotomy_check(theta0: np.ndarray, alpha: float, kappa: float, t_final: float,
                    settings: IntegratorSettings | None = None) -> DichotomyResult:
    """Classify the long-run order parameter of the frustrated cosine flow:
    SyncR1 when the final R exceeds 1 - ``DICHOTOMY_EPS`` (1e-3),
    IncoherenceR0 when it is below ``DICHOTOMY_EPS``, Inconclusive otherwise.

    Branch SyncR1 requires alpha in (0, pi/2) with initial diameter below
    2 alpha; branch IncoherenceR0 requires alpha in (-pi/2, 0) with pairwise
    distinct phases: no two agree mod 2pi within 1e-12, the circle chart's
    pole rule.  A violated precondition is reported but the run still
    proceeds (Inconclusive is then an admissible outcome).  The run keeps the
    total phase at each record point and the final state, not the trajectory;
    ``drift`` judges it, so a run of one record (t_final 0) raises ValueError.
    """
    plan = plan_dichotomy(theta0, alpha, kappa, t_final, settings)
    return plan.judge(integrate_functional(*plan.run))
