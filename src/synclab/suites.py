"""Built-in verification packs for the command line front end.

Each pack is a list of named checks.  Scenario-shaped checks run through the
ordinary scenario machinery (and leave their artifacts in the output
directory); reduction and equilibrium checks call the library directly since
they compare co-integrated systems rather than a single trajectory.

Four packs split their runs into two independent jobs, the longer one first,
so that the one long run that certifies an asymptotic result has a CPU of its
own:

- ``kuramoto-invariants``: the incoherence branch of the dichotomy (T = 200),
  then the I, J and K scenarios with the synchronizing branch (T = 60);
- ``sphere-invariants``: the aggregation certificate (T = 30), then the H,
  D_M / rho^2 and kappa = -1 scenarios and the N = 5 skew scenario;
- ``matrix``: the aggregation certificate, then the cross-ratio scenario;
- ``reductions``: the projected system of the sphere reduction chain and
  the kuramoto (f, g) co-integration, then the chain's full flow and its
  (a, b, M) system, which come back to the calling process for the chain's
  comparisons.

The two certificates stay out of the batches their shapes fit: a ragged
batch's longest member runs alone for most of its steps, so batching it saves
little and holds back every check judged after the batch.  The runs that do
share a shape integrate with one ``integrate_batch`` call, as one batch; each
check is planned before it and judged after it, in the pack's order.

When the process may run on at least two CPUs, a pack's second job runs in a
forked child while the first runs in the calling process (see
:func:`synclab.scenario._run_jobs`, the job runner the scenarios use as
well); otherwise the jobs run one after the other.  While a pack's jobs
are forked, either job runs its own jobs inline, so a scenario run in one
never streams (see :mod:`synclab.scenario`); every suite scenario's
trajectory table is in any case smaller than a scenario streams for, the
largest, the matrix cross-ratio scenario's, being 40 x 301 = 12 040
numbers.  Every random input is drawn before the jobs
start, in one order, so the checks, their details and every artifact are
byte for byte the same either way, and a scenario's ``duration_seconds`` is
still the time of its own integration (or of its batch's), then of its
trajectory table, series and drift reports.  ``equilibria`` takes
milliseconds and is one job.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

import numpy as np

from . import equilibria, reduce_kuramoto, reduce_sphere
from .integrate import IntegratorSettings, integrate_batch
from .invariants import matrix_diameter
from .scenario import RUN_ERRORS, RunResult, _run_jobs, plan_scenario, run_scenario
from .state import (
    Flavor,
    make_phase_config,
    make_sphere_config,
    make_unitary_config,
    random_unitary,
)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check_result(name: str, res: RunResult) -> CheckResult:
    if res.error is not None:
        return CheckResult(name, False, f"error: {res.error}")
    if res.failed_checks:
        return CheckResult(name, False, f"failed: {', '.join(res.failed_checks)}")
    return CheckResult(name, True, "all drift verdicts pass")


def _batched(checks, out_dir, plans):
    """The results of the scenario checks ``checks``, (name, document) pairs,
    and the verdicts of the certificate ``plans``, every run integrated by
    one ``integrate_batch`` call; each scenario's manifest counts that call's
    time as its integration time.  A certificate whose run failed raises."""
    scenarios = []
    for _, doc in checks:
        try:
            scenarios.append(plan_scenario(doc))
        except RUN_ERRORS as exc:
            scenarios.append(exc)
    planned = [p for p in scenarios if not isinstance(p, Exception)]
    start = time.perf_counter()
    runs = iter(integrate_batch([p.run for p in planned + plans]))
    seconds = time.perf_counter() - start
    results = []
    for (name, _), plan in zip(checks, scenarios):
        try:
            if isinstance(plan, Exception):
                raise plan
            times, states, _ = _outcome(next(runs))
            res = plan.judge(times, states, seconds, out_dir, quiet=True)
        except RUN_ERRORS as exc:
            res = RunResult(exit_code=1, failed_checks=[], error=str(exc))
        results.append(_check_result(name, res))
    return results, [plan.judge(_outcome(run)) for plan, run in zip(plans, runs)]


def _outcome(run):
    """An ``integrate_batch`` result; raises the exception its run raised."""
    if isinstance(run, Exception):
        raise run
    return run


def _conservation_scenario(sid, model, t_final, observables, seed=12345):
    return {
        "id": sid,
        "seed": seed,
        "t_final": t_final,
        "model": model,
        "integrator": {"dt": 1e-3, "record_every": 10},
        "observables": observables,
    }


def _kuramoto_pack(out_dir):
    checks = []
    base = {"kind": "kuramoto", "kappa": 2.0, "flavor": "cosine",
            "initial": {"random": {"n": 6}}}
    doc = _conservation_scenario(
        "suite-kuramoto-I", {**base, "alpha": 0.0}, 5.0,
        [{"name": "kuramoto_I", "tolerance": 1e-6}])
    checks.append(("kuramoto I conserved (alpha=0)", doc))
    doc = _conservation_scenario(
        "suite-kuramoto-J", {**base, "kappa": 1.0, "alpha": 0.3}, 5.0,
        [{"name": "kuramoto_J", "tolerance": 1e-6},
         {"name": "total_phase", "tolerance": 1e-9}])
    checks.append(("kuramoto J_alpha conserved (alpha=0.3)", doc))
    quads = [{"name": "kuramoto_K", "indices": list(q), "tolerance": 1e-6}
             for q in combinations(range(6), 4)]
    doc = _conservation_scenario(
        "suite-kuramoto-K", {**base, "kappa": 1.0, "alpha": np.pi / 2}, 5.0, quads)
    checks.append(("kuramoto K conserved at alpha=pi/2 (15 quadruples)", doc))
    rng = np.random.default_rng(2024)
    sync_plan = reduce_kuramoto.plan_dichotomy(np.linspace(0.0, 0.9, 6), 0.5, 1.0, 60.0)
    theta2 = np.sort(rng.uniform(0, 2 * np.pi, 6))
    incoherence, (results, (sync,)) = _run_jobs([
        lambda: reduce_kuramoto.dichotomy_check(theta2, -0.5, 1.0, 200.0),
        lambda: _batched(checks, out_dir, [sync_plan])])

    results.append(CheckResult("dichotomy branch 1 -> sync",
                               sync.verdict == "SyncR1" and sync.precondition_ok,
                               f"R(60) = {sync.r_final:.6f}"))
    results.append(CheckResult(
        "dichotomy branch 2 -> incoherence",
        incoherence.verdict == "IncoherenceR0" and incoherence.total_phase_monotone,
        f"R(200) = {incoherence.r_final:.3e}, "
        f"total phase monotone: {incoherence.total_phase_monotone}"))
    return results


def _sphere_pack(out_dir):
    rng = np.random.default_rng(7)
    skew = rng.standard_normal((3, 3))
    checks = []
    quads = [{"name": "sphere_H", "indices": list(q), "tolerance": 1e-6}
             for q in combinations(range(6), 4)]
    doc = _conservation_scenario(
        "suite-sphere-H",
        {"kind": "sphere", "kappa": 1.0, "omega": skew.tolist(),
         "initial": {"random": {"n": 6, "d": 2}}},
        5.0, quads)
    checks.append(("sphere H conserved (shared Omega)", doc))
    doc = _conservation_scenario(
        "suite-sphere-mono",
        {"kind": "sphere", "kappa": 1.0, "initial": {"random": {"n": 6, "d": 2}}},
        5.0,
        [{"name": "sphere_DM", "tolerance": 1e-9},
         {"name": "sphere_rho_sq", "tolerance": 1e-9}])
    checks.append(("sphere D_M / rho^2 monotone (kappa=+1)", doc))
    doc = _conservation_scenario(
        "suite-sphere-mono-neg",
        {"kind": "sphere", "kappa": -1.0, "initial": {"random": {"n": 6, "d": 2}}},
        5.0,
        [{"name": "sphere_DM", "check": "non-decreasing", "tolerance": 1e-9}])
    checks.append(("sphere D_M monotone (kappa=-1)", doc))
    w = rng.standard_normal((3, 3))
    skew_doc = _conservation_scenario(
        "suite-sphere-skew",
        {"kind": "sphere", "kappa": 1.0, "a": 0.0, "w": w.tolist(),
         "initial": {"random": {"n": 5, "d": 2}}},
        5.0,
        [{"name": "pair_distance_product", "tolerance": 1e-6}])
    x = rng.standard_normal((6, 3))
    x = 2.0 * np.array([0.0, 0.0, 1.0]) + 0.5 * x
    cfg = make_sphere_config(x, None, 1.0, 1.0, 0.08 * (skew - skew.T))

    def scenarios():
        results, _ = _batched(checks, out_dir, [])
        return [*results, _check_result("skew-frustration distance product conserved",
                                        run_scenario(skew_doc, out_dir, quiet=True))]

    r, results = _run_jobs([lambda: reduce_sphere.sphere_aggregation_check(cfg, 30.0),
                            scenarios])
    return [*results, CheckResult(
        "sphere aggregation (Gronwall-consistent rate)",
        r.verdict == "Aggregated" and r.rate_consistent,
        f"max dist = {r.final_max_distance:.2e}, rate {r.fitted_rate:.2f} "
        f"vs predicted {r.predicted_rate:.2f}")]


def _matrix_pack(out_dir):
    rng = np.random.default_rng(8)
    u0 = equilibria.spread_unitary_family(rng, 5, 2, 1.2)
    cfg = make_unitary_config(u0, None, 1.0, None)

    def aggregation():
        r = equilibria.matrix_aggregation_check(
            cfg, 40.0, IntegratorSettings(dt=2e-3, record_every=1))
        return CheckResult(
            "matrix aggregation V=I (D0 = 1.2)",
            r.verdict == "Aggregated" and r.riccati_ok,
            f"D(T) = {r.final_diameter:.2e}, riccati excess {r.max_riccati_excess:.2e}")

    quads = [{"name": "matrix_cross_ratio", "indices": list(q), "tolerance": 1e-5}
             for q in [(0, 1, 2, 3), (0, 2, 1, 4), (1, 3, 0, 4)]]
    doc = _conservation_scenario(
        "suite-matrix-crossratio",
        {"kind": "matrix", "kappa": 1.0, "initial": {"random": {"n": 5, "d": 2}}},
        3.0, quads, seed=8)
    return _run_jobs([aggregation, lambda: _check_result(
        "matrix cross-ratio spectra conserved", run_scenario(doc, out_dir, quiet=True))])


def _reductions_pack(out_dir):
    rng = np.random.default_rng(42)
    theta0 = np.sort(rng.uniform(0.3, 5.9, 6))
    cfg = make_phase_config(theta0, 0.0, 1.0, 0.4, Flavor.SINE)
    x0 = rng.standard_normal((5, 3))
    chain = reduce_sphere.plan_reduction_chain(
        make_sphere_config(x0, None, 1.0), IntegratorSettings(dt=1e-3, record_every=30),
        3.0)

    def stereo_then_kuramoto():
        stereo = chain.stereo()
        rep = reduce_kuramoto.co_integrate(cfg, IntegratorSettings(dt=1e-3,
                                                                   record_every=10), 3.0)
        return stereo, CheckResult(
            "kuramoto (f,g) reconstruction (N=6, alpha=0.4)",
            rep.max_error < 1e-5 and rep.affine_identity_residual < 1e-6,
            f"recon err = {rep.max_error:.2e}, affine identity "
            f"{rep.affine_identity_residual:.2e}")

    (stereo, reconstruction), (full, reduced) = _run_jobs([
        stereo_then_kuramoto, lambda: (chain.full(), chain.reduced())])
    srep = chain.judge(full, stereo, reduced)
    return [reconstruction, CheckResult(
        "sphere reduction chain (N=5, d=2)",
        srep.three_way_max < 1e-4 and srep.m_orthogonality < 1e-8 and srep.a_min > 0,
        f"three-way = {srep.three_way_max:.2e}, M orth = {srep.m_orthogonality:.2e}")]


def _equilibria_pack(out_dir):
    results = []
    for n in (3, 4, 5):
        rep = equilibria.cyclic_rep(n)
        cfg = make_unitary_config(rep.matrices)
        ok, res = equilibria.is_equilibrium(cfg)
        results.append(CheckResult(f"cyclic rep Z_{n} equilibrium (V=I)",
                                   ok and res < 1e-12, f"residual = {res:.2e}"))
    rng = np.random.default_rng(5)
    for n in (3, 4):
        rep = equilibria.symmetric_standard_rep(n)
        v = random_unitary(rng, n - 1)
        cfg = make_unitary_config(rep.matrices, v=v)
        ok, res = equilibria.is_equilibrium(cfg)
        diam_ok = abs(matrix_diameter(rep.matrices) - np.sqrt(2 * n)) < 1e-10
        results.append(CheckResult(
            f"S_{n} standard rep equilibrium (random V), D = sqrt(2n)",
            ok and res < 1e-10 and diam_ok, f"residual = {res:.2e}"))
    return results


_PACKS = {
    "kuramoto-invariants": _kuramoto_pack,
    "sphere-invariants": _sphere_pack,
    "matrix": _matrix_pack,
    "reductions": _reductions_pack,
    "equilibria": _equilibria_pack,
}

SUITE_NAMES = tuple(_PACKS) + ("all",)


def run_suite(name: str, out_dir, quiet: bool = False) -> list[CheckResult]:
    """Run the pack ``name``, or every pack for "all", leaving scenario
    artifacts in ``out_dir``.  Nothing is printed whatever ``quiet`` says:
    printing the results belongs to the command line front end.  An unknown
    name raises ValueError; ``out_dir`` is made before any pack runs, so an
    output path that cannot be a directory raises its OSError at once."""
    if name != "all" and name not in _PACKS:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    results = []
    for pack in _PACKS.values() if name == "all" else [_PACKS[name]]:
        results.extend(pack(out_dir))
    return results
