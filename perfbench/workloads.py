"""The four benchmark workloads.

Each workload builds its inputs from the seed once (that is set-up), then runs
closed-loop passes: one call into synclab after another, each awaited.
``calls`` lists the timed calls of one pass; ``check`` then records their
outputs as ``(name, passed)`` pairs.  A check never aborts a pass; a call
that raises counts as an error and as a failed check.

synclab is reached through ``importlib.import_module`` at call time, so the
tracer's wrappers are seen, and because ``synclab.integrate`` as an attribute
is the re-exported function, not the module.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


def _mod(name: str):
    return importlib.import_module(f"synclab.{name}")


@dataclass
class PassResult:
    checks: list = field(default_factory=list)   # (name, passed)
    calls: int = 0
    errors: int = 0

    def call(self, fn, *args, **kwargs):
        """Run one synclab call; an exception counts as an error and a
        failed check named after the call."""
        self.calls += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - every error is counted
            self.errors += 1
            self.checks.append((f"error in {fn.__name__}: {type(exc).__name__}: {exc}",
                                False))
            return None


class Workload:
    name = ""
    seeded = True
    # checks expected to fail until a known defect is fixed; they still count
    # in checks_failed_ratio but do not make the run incorrect
    known_defects: frozenset = frozenset()

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def calls(self, res: PassResult) -> list:
        """The calls of one pass, in order, as ``(label, thunk)`` pairs.  Each
        thunk makes one synclab call through ``res`` and is timed on its own;
        the label names the call across passes."""
        raise NotImplementedError

    def check(self, outputs, res: PassResult):
        raise NotImplementedError

    def out_dir(self) -> str:
        return tempfile.mkdtemp(dir=self.workdir)


class SuiteAll(Workload):
    """``synclab --suite all``: 19 checks at N <= 8; seeds fixed in suites.py.

    ``run_suite("all")`` runs the packs one after another into one directory;
    a pass does the same with one ``run_suite(pack)`` call per pack, so that
    each pack is timed on its own."""

    name = "suite-all"
    seeded = False

    def calls(self, res):
        suites, out = _mod("suites"), self.out_dir()
        return [(pack, functools.partial(res.call, suites.run_suite, pack, out, quiet=True))
                for pack in suites.SUITE_NAMES if pack != "all"]

    def check(self, outputs, res):
        for results in outputs:
            for r in results or []:
                res.checks.append((r.name, bool(r.passed)))


class Ensemble(Workload):
    """20 independent N=8 sphere members (acceptance criterion 14's set-up),
    final state only, no observables and no I/O."""

    name = "ensemble"
    members, n, d, t_final, dt = 20, 8, 2, 5.0, 1e-3

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        state, integrate = _mod("state"), _mod("integrate")
        self.settings = integrate.IntegratorSettings(
            dt=self.dt, record_every=10 ** 9, projection=integrate.Projection.NORMALIZE)
        self.configs = []
        for k in range(self.members):
            rng = np.random.default_rng(seed + k)
            x0 = rng.standard_normal((self.n, self.d + 1))
            omega = rng.standard_normal((self.d + 1, self.d + 1)) if k % 2 == 0 else None
            self.configs.append(state.make_sphere_config(x0, omega, kappa=1.0))

    @property
    def member_steps(self) -> int:
        """RK4 steps per pass over all members."""
        return self.members * math.ceil(self.t_final / self.dt - 1e-9)

    def calls(self, res):
        integrate = _mod("integrate").integrate
        return [(f"member {k}", functools.partial(res.call, integrate, cfg, self.settings,
                                                  self.t_final))
                for k, cfg in enumerate(self.configs)]

    def check(self, trajs, res):
        for k, traj in enumerate(trajs):
            if traj is None:
                continue
            xf = traj.final_state
            finite = bool(np.all(np.isfinite(xf)))
            res.checks.append((f"member {k}: final state finite", finite))
            unit = finite and float(np.max(np.abs(np.linalg.norm(xf, axis=1) - 1.0))) < 1e-12
            res.checks.append((f"member {k}: final state unit-norm", unit))
            pole = xf.mean(axis=0)
            pole = pole / np.linalg.norm(pole)
            north = int(np.sum(xf @ pole > 0.0))
            res.checks.append((f"member {k}: minority pole count <= 1",
                               min(north, self.n - north) <= 1))


class LargeN(Workload):
    """One sphere scenario at N=200 with pure skew frustration (a = 0), all
    artifacts written; they must repeat byte for byte from the first pass on."""

    name = "large-n"
    known_defects = frozenset({"drift pair_distance_product"})
    n, t_final, dt = 200, 2.0, 1e-3
    compared = ("trajectory.csv", "observables.csv", "observables.dat", "drift.json")

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = np.random.default_rng(seed)
        w = rng.standard_normal((3, 3))
        quads = [sorted(rng.choice(self.n, 4, replace=False).tolist()) for _ in range(4)]
        self.doc = {
            "id": "large-n",
            "seed": seed,
            "t_final": self.t_final,
            "model": {"kind": "sphere", "kappa": 1.0, "a": 0.0, "w": (w - w.T).tolist(),
                      "initial": {"random": {"n": self.n, "d": 2}}},
            "integrator": {"dt": self.dt, "record_every": 10},
            "observables": [{"name": "pair_distance_product", "tolerance": 1e-6}]
            + [{"name": "sphere_H", "indices": q, "tolerance": 1e-6} for q in quads]
            + [{"name": "sphere_rho"}],
            "output": {"dat_mirror": True},
        }
        self.out = None
        self.reference = None   # the artifacts of the first pass that wrote them

    def calls(self, res):
        self.out = self.out_dir()
        return [("run_scenario", functools.partial(
            res.call, _mod("scenario").run_scenario, self.doc, self.out, quiet=True))]

    def check(self, outputs, res):
        (run,) = outputs
        if run is None or run.error is not None:
            if run is not None:
                res.errors += 1
                res.checks.append((f"scenario error: {run.error}", False))
            return
        files = {}
        for suffix in self.compared:
            path = Path(self.out) / f"large-n_{suffix}"
            files[suffix] = path.read_bytes() if path.is_file() else None
            if files[suffix] is None:
                res.checks.append((f"{suffix} written", False))
        reports = json.loads(files["drift.json"]) if files["drift.json"] else []
        for r in reports:
            res.checks.append((f"drift {r['name']}", r["verdict"] == "pass"))
        for _ in range(len(self.doc["observables"]) - len(reports)):
            res.checks.append(("drift report missing", False))
        if self.reference is None:
            self.reference = files
            return
        for suffix in self.compared:
            if files[suffix] is not None:
                res.checks.append((f"{suffix} byte-identical across passes",
                                   files[suffix] == self.reference[suffix]))


class Reductions(Workload):
    """The circle (f, g) reduction at N=30 and the sphere (a, b, M) chain at
    N=24, judged by the thresholds suites.py uses."""

    name = "reductions"
    t_final = 3.0

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        state, integrate = _mod("state"), _mod("integrate")
        rng = np.random.default_rng(seed)
        # a jittered grid on [0.3, 5.9]: adjacent phases stay at least half a
        # grid step apart, so no point sits near the pole of the projection
        # from the reference phase, where coordinates and their errors grow
        # without bound
        grid = np.linspace(0.3, 5.9, 30)
        theta0 = grid + rng.uniform(-0.25, 0.25, 30) * (grid[1] - grid[0])
        self.phase = state.make_phase_config(theta0, 0.0, 1.0, 0.4, state.Flavor.SINE)
        self.phase_settings = integrate.IntegratorSettings(dt=1e-3, record_every=10)
        self.sphere = state.make_sphere_config(rng.standard_normal((24, 3)), None, 1.0)
        self.sphere_settings = integrate.IntegratorSettings(dt=1e-3, record_every=30)

    def calls(self, res):
        return [("co_integrate", functools.partial(
                    res.call, _mod("reduce_kuramoto").co_integrate, self.phase,
                    self.phase_settings, self.t_final)),
                ("reduction_chain_report", functools.partial(
                    res.call, _mod("reduce_sphere").reduction_chain_report, self.sphere,
                    self.sphere_settings, self.t_final))]

    def check(self, outputs, res):
        rep, srep = outputs
        if rep is not None:
            res.checks.append(("kuramoto (f,g) reconstruction error < 1e-5",
                               rep.max_error < 1e-5))
            res.checks.append(("kuramoto affine identity residual < 1e-6",
                               rep.affine_identity_residual < 1e-6))
        if srep is not None:
            res.checks.append(("sphere chain three-way discrepancy < 1e-4",
                               srep.three_way_max < 1e-4))
            res.checks.append(("sphere chain M orthogonality < 1e-8",
                               srep.m_orthogonality < 1e-8))
            res.checks.append(("sphere chain a_min > 0", srep.a_min > 0))


WORKLOADS = {w.name: w for w in (SuiteAll, Ensemble, LargeN, Reductions)}
