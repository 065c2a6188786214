"""Timing wrappers around the entry points of synclab's layers.

The tracer replaces every public module-level function of each layer module
by a wrapper that records a span: its count, its inclusive time and its self
time (the span minus the spans it encloses).  It also wraps the callables the
layers hand out -- the rhs closure from ``dynamics.make_rhs``, the projector
that ``integrate`` picks, ``Observable.series`` and the packs of ``suites`` --
and undoes everything on ``uninstall``.  No library file is changed.

Names bound by ``from .x import f`` are replaced in every synclab module, so
calls between layers are seen.  Modules are reached through
``importlib.import_module``: the package re-exports the function
``integrate``, which hides the ``synclab.integrate`` submodule as an attribute
of ``synclab``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("dynamics", "integrate", "invariants", "scenario", "reduce_kuramoto",
          "reduce_sphere", "equilibria", "suites")

# Named time totals.  A group sums the outermost spans of its members, so a
# member called inside another member is not counted twice; ``within`` limits
# the group to spans opened while that span is open.
GROUPS = {
    "scenario.write": ({"scenario.trajectory_csv", "scenario.observables_csv",
                        "scenario.dat_mirror"}, None),
    "equilibria.rep": ({"equilibria.cyclic_rep", "equilibria.symmetric_standard_rep",
                        "equilibria.config_from_rep", "equilibria.is_equilibrium",
                        "equilibria.rep_residuals"}, None),
    "reduce_sphere.chain_integrations": (
        {"integrate.integrate", "reduce_sphere.integrate_stereo_full",
         "reduce_sphere.integrate_abM"}, "reduce_sphere.reduction_chain_report"),
}

_STAGES = {"rk4": 4, "dopri5": 7}


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)      # span name -> calls
        self.incl = defaultdict(float)     # span name -> inclusive seconds
        self.own = defaultdict(float)      # span name -> self seconds
        self.layer_self = defaultdict(float)
        self.group_s = defaultdict(float)
        self.counts = defaultdict(float)
        self._children = []                # enclosed time of each open span
        self._open = defaultdict(int)      # span name -> open depth
        self._group_depth = defaultdict(int)
        self._undo = []

    # ------------------------------------------------------------------
    # wrapping

    def wrap(self, layer: str, name: str, fn, after=None, before=None):
        """A timing wrapper around ``fn``; ``before(args, kwargs)`` returns a
        token and ``after(out, args, kwargs, token)`` may replace the result."""
        key = f"{layer}.{name}"
        groups = [g for g, (members, _) in GROUPS.items() if key in members]
        children, opened, depth = self._children, self._open, self._group_depth
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = before(args, kwargs) if before is not None else None
            for g in groups:
                depth[g] += 1
            opened[key] += 1
            children.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                inner = children.pop()
                opened[key] -= 1
                self.calls[key] += 1
                self.incl[key] += dur
                self.own[key] += dur - inner
                self.layer_self[layer] += dur - inner
                if children:
                    children[-1] += dur
                for g in groups:
                    self._group_end(g, dur)
            if after is not None:
                out = after(out, args, kwargs, token)
            return out

        return wrapper

    def _group_end(self, group: str, dur: float):
        self._group_depth[group] -= 1
        within = GROUPS[group][1]
        if self._group_depth[group] == 0 and (within is None or self._open[within]):
            self.group_s[group] += dur

    def _set(self, owner, attr, value):
        if isinstance(owner, dict):
            self._undo.append((owner.__setitem__, attr, owner[attr]))
            owner[attr] = value
        else:
            self._undo.append((functools.partial(setattr, owner), attr,
                               getattr(owner, attr)))
            setattr(owner, attr, value)

    # ------------------------------------------------------------------
    # hooks for the callables the layers hand out and for counters

    def _after_make_rhs(self, rhs, args, kwargs, token):
        return self.wrap("dynamics", "rhs", rhs)

    def _after_projector(self, project, args, kwargs, token):
        return None if project is None else self.wrap("integrate", "projection", project)

    def _before_integrate(self, args, kwargs):
        return self.calls["dynamics.rhs"]

    def _after_integrate(self, traj, args, kwargs, token):
        settings = args[1] if len(args) > 1 else kwargs["settings"]
        stages = _STAGES.get(settings.scheme.value, 1)
        self.counts["integrate.steps"] += (self.calls["dynamics.rhs"] - token) / stages
        return traj

    def _after_series(self, values, args, kwargs, token):
        self.counts["invariants.functional_evals"] += len(values)
        return values

    def _after_run_scenario(self, res, args, kwargs, token):
        doc = args[0] if args else kwargs["doc"]
        self.counts["scenario.observables"] += len(doc.get("observables", []))
        return res

    def _after_csv(self, text, args, kwargs, token):
        self.counts["scenario.csv_bytes"] += len(text.encode())
        return text

    # ------------------------------------------------------------------

    def install(self):
        hooks = {
            "dynamics.make_rhs": dict(after=self._after_make_rhs),
            "integrate.integrate": dict(before=self._before_integrate,
                                        after=self._after_integrate),
            "scenario.run_scenario": dict(after=self._after_run_scenario),
            "scenario.trajectory_csv": dict(after=self._after_csv),
            "scenario.observables_csv": dict(after=self._after_csv),
        }
        replaced = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"synclab.{layer}")
            for name, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    replaced[id(obj)] = (obj, self.wrap(
                        layer, name, obj, **hooks.get(f"{layer}.{name}", {})))
        # rebind every synclab name that refers to a wrapped function
        for modname, mod in list(sys.modules.items()):
            if modname == "synclab" or modname.startswith("synclab."):
                for attr, val in list(vars(mod).items()):
                    hit = replaced.get(id(val))
                    if hit is not None and hit[0] is val:
                        self._set(mod, attr, hit[1])

        integrate_mod = importlib.import_module("synclab.integrate")
        if hasattr(integrate_mod, "_projector"):
            self._set(integrate_mod, "_projector", self.wrap(
                "integrate", "_projector", integrate_mod._projector,
                after=self._after_projector))
        observable = importlib.import_module("synclab.invariants").Observable
        self._set(observable, "series", self.wrap(
            "invariants", "Observable.series", observable.series,
            after=self._after_series))
        packs = getattr(importlib.import_module("synclab.suites"), "_PACKS", {})
        for pack, fn in list(packs.items()):
            self._set(packs, pack, self.wrap("suites", f"pack_s.{pack}", fn))

    def uninstall(self):
        while self._undo:
            setter, attr, original = self._undo.pop()
            setter(attr, original)

    # ------------------------------------------------------------------

    def metrics(self, traced_wall: float, untraced_wall: float) -> dict:
        """The per-layer metrics of one traced pass, by name."""
        c, s, own, cnt, grp = self.calls, self.incl, self.own, self.counts, self.group_s
        ratio = lambda num, den: num / den if den else 0.0
        m = {
            "dynamics.rhs_calls": c["dynamics.rhs"],
            "dynamics.rhs_s": s["dynamics.rhs"],
            "dynamics.rhs_us_per_call": 1e6 * ratio(s["dynamics.rhs"], c["dynamics.rhs"]),
            "integrate.calls": c["integrate.integrate"],
            "integrate.steps": cnt["integrate.steps"],
            "integrate.self_s": own["integrate.integrate"],
            "integrate.projection_calls": c["integrate.projection"],
            "integrate.projection_s": s["integrate.projection"],
            "invariants.series_calls": c["invariants.Observable.series"],
            "invariants.functional_evals": cnt["invariants.functional_evals"],
            "invariants.series_s": s["invariants.Observable.series"],
            "invariants.drift_s": own["invariants.drift_report"],
            "invariants.series_per_check": ratio(c["invariants.Observable.series"],
                                                 cnt["scenario.observables"]),
            "scenario.runs": c["scenario.run_scenario"],
            "scenario.validate_s": s["scenario.validate_scenario"],
            "scenario.write_s": grp["scenario.write"],
            "scenario.csv_bytes": cnt["scenario.csv_bytes"],
            "scenario.csv_mb_per_s": ratio(cnt["scenario.csv_bytes"] / 1e6,
                                           grp["scenario.write"]),
            "reduce_kuramoto.fg_integrate_s": s["reduce_kuramoto.integrate_fg"],
            "reduce_kuramoto.compare_s": s["reduce_kuramoto.reconstruct_and_compare"],
            "reduce_kuramoto.dichotomy_s": s["reduce_kuramoto.dichotomy_check"],
            "reduce_sphere.stereo_integrate_s": s["reduce_sphere.integrate_stereo_full"],
            "reduce_sphere.abm_integrate_s": s["reduce_sphere.integrate_abM"],
            "reduce_sphere.compare_s": (s["reduce_sphere.reduction_chain_report"]
                                        - grp["reduce_sphere.chain_integrations"]),
            "reduce_sphere.aggregation_s": s["reduce_sphere.sphere_aggregation_check"],
            "equilibria.aggregation_s": s["equilibria.matrix_aggregation_check"],
            "equilibria.rep_s": grp["equilibria.rep"],
            "trace.overhead_s": traced_wall - untraced_wall,
            "trace.coverage": ratio(sum(self.layer_self.values()), traced_wall),
        }
        for key in self.calls:
            if key.startswith("suites.pack_s."):
                m[key] = s[key]
        return m
