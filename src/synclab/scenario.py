"""Scenario documents: parsing, execution, and artifact emission.

A scenario is a JSON object validated against ``scenario.schema.json``
(shipped with the package).  Running one produces four artifacts in the
output directory: a trajectory CSV (t plus flattened state columns), an
observables CSV, a drift-report JSON, and a run manifest JSON.  The CSVs (and
the optional ``.dat`` mirror of the observables) are written one row at a
time, straight to their files.  All numbers are printed with 17 significant
digits, so two runs of the same scenario produce byte-identical files; the
only exception is the manifest's ``duration_seconds``: the integration time
(of the whole batch, for a scenario integrated in one) plus the time of the
observable series and drift reports.

Random initial data comes from numpy's seeded PCG64 generator; the schema
requires a seed wherever the initial data is random, and the seed and
generator name are recorded in the manifest.  There is no unseeded
randomness anywhere.
"""

from __future__ import annotations

import hashlib
import io
import json
import time
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

import jsonschema

from .errors import ScenarioError, SynclabError
from .integrate import (
    IntegratorSettings,
    Projection,
    Scheme,
    Trajectory,
    default_settings,
    integrate,
)
from .invariants import (
    Kind,
    Observable,
    drift,
    drift_reports_to_json,
    make_observable,
)
from .state import (
    Config,
    Flavor,
    PhaseConfig,
    SphereConfig,
    make_phase_config,
    make_sphere_config,
    make_unitary_config,
    random_unitary,
    validate,
)

PRNG_NAME = "numpy-pcg64"


def _load_schema() -> dict:
    with resources.files("synclab").joinpath("scenario.schema.json").open() as fh:
        return json.load(fh)


_SCHEMA = _load_schema()
_VALIDATOR = jsonschema.Draft202012Validator(_SCHEMA)


def encode_complex(m: np.ndarray) -> list:
    """Nested row-major lists with complex entries as [re, im] pairs."""
    m = np.asarray(m, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def decode_complex(data) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    if arr.ndim < 1 or arr.shape[-1] != 2:
        raise ScenarioError("complex matrices must use [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


_SHOWN = 40  # characters of an offending value that an error message shows


def validate_scenario(doc: dict) -> None:
    """Schema validation; the raised message carries a JSON pointer and
    what the schema expects there, with the offending value cut to
    ``_SHOWN`` characters, so that a huge value cannot flood the line."""
    errors = sorted(_VALIDATOR.iter_errors(doc), key=lambda e: e.json_path)
    if errors:
        e = errors[0]
        message, shown = e.message, repr(e.instance)  # as e.message renders it
        if len(shown) > _SHOWN:
            message = message.replace(shown, f"{shown[:_SHOWN]}...")
        raise ScenarioError(f"{e.json_path}: {message}")


def load_scenario(path):
    """The JSON document in ``path``, read as UTF-8 and parsed but not
    validated: :func:`run_scenario` validates the document it runs.  Bytes
    that are not UTF-8, text that is not JSON and nesting too deep to parse
    are each a ScenarioError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as exc:
        raise ScenarioError(f"{path}: not valid JSON ({exc})") from exc


# ---------------------------------------------------------------------------
# resolution: scenario document -> config + settings


def _build_config(model: dict, rng: np.random.Generator) -> Config:
    """The configuration of a validated model: the schema fixes which keys
    and which initial form each kind takes, and every other key is a keyword
    of the kind's factory, whose defaults fill the keys the model omits."""
    kind, initial = model["kind"], model["initial"]
    decode = {"flavor": Flavor, "h": decode_complex, "v": decode_complex}
    params = {k: decode[k](v) if k in decode else v
              for k, v in model.items() if k not in ("kind", "initial")}
    r = initial.get("random")
    if kind == "kuramoto":
        theta = (np.asarray(initial["theta"], dtype=float) if r is None
                 else rng.uniform(r.get("low", 0.0), r.get("high", 2 * np.pi), r["n"]))
        return make_phase_config(theta, **params)
    if kind == "sphere":
        x = (np.asarray(initial["x"], dtype=float) if r is None
             else rng.standard_normal((r["n"], r["d"] + 1)))
        return make_sphere_config(x, **params)
    u = (decode_complex(initial["u"]) if r is None
         else np.array([random_unitary(rng, r["d"]) for _ in range(r["n"])]))
    return make_unitary_config(u, **params)


def _build_settings(doc: dict, cfg: Config) -> IntegratorSettings:
    integ = dict(doc.get("integrator", {}))
    proj = integ.pop("projection", "auto")
    if proj != "auto":
        integ["projection"] = Projection(proj)
    if "scheme" in integ:
        integ["scheme"] = Scheme(integ["scheme"])
    try:
        return default_settings(cfg, **integ)
    except ValueError as exc:
        raise ScenarioError(f"$.integrator: {exc}") from exc


def _build_observables(doc: dict, cfg: Config) -> list[tuple[Observable, float]]:
    out = []
    for i, spec in enumerate(doc.get("observables", [])):
        kind = Kind(spec["check"]) if "check" in spec else None
        try:
            ob = make_observable(spec["name"], cfg, spec.get("indices"), kind)
        except ValueError as exc:
            raise ScenarioError(f"$.observables[{i}]: {exc}") from exc
        out.append((ob, spec.get("tolerance", 1e-6)))
    return out


def content_hash(resolved: dict) -> str:
    """Deterministic sha256 over the canonical JSON form."""
    blob = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# artifact writers


def _state_columns(cfg: Config) -> list[str]:
    if isinstance(cfg, PhaseConfig):
        return [f"theta_{j}" for j in range(cfg.n)]
    if isinstance(cfg, SphereConfig):
        return [f"x{j}_{k}" for j in range(cfg.n) for k in range(cfg.ambient_dim)]
    return [f"u{j}_{r}{c}_{p}" for j in range(cfg.n)
            for r in range(cfg.d) for c in range(cfg.d) for p in ("re", "im")]


# (header prefix, field separator, line end) of each table format: the CSVs
# end lines in "\r\n" as the csv module writes them; the gnuplot mirror has
# its header as a comment and whitespace-separated fields
_CSV = ("", ",", "\r\n")
_DAT = ("# ", " ", "\n")


def _write_table(fh, fmt, times: np.ndarray, labels: list[str],
                 table: np.ndarray) -> None:
    """Write a header of labels, then one line per record: t and that row of
    the table, every number as "%.17g".  Each line is formatted and written
    before the next, so Python floats exist for one row at a time."""
    prefix, sep, end = fmt
    fh.write(prefix + sep.join(labels) + end)
    tmpl = sep.join(["%.17g"] * len(labels)) + end
    for t, row in zip(times.tolist(), table):
        fh.write(tmpl % (t, *row.tolist()))


def _trajectory_table(traj: Trajectory) -> tuple[list[str], np.ndarray]:
    """Column labels and the flattened states, complex entries as (re, im);
    a view of ``traj.states``, not a copy."""
    flat = np.ascontiguousarray(traj.states).reshape(len(traj), -1)
    if np.iscomplexobj(flat):
        flat = flat.view(flat.real.dtype)
    return ["t"] + _state_columns(traj.config), flat


def _observables_table(traj: Trajectory,
                       series: dict[str, np.ndarray]) -> tuple[list[str], np.ndarray]:
    """Column labels and values of the observable series; an eigenvalue
    multiset expands to ``_evK_re``/``_evK_im`` column pairs."""
    labels, cols = ["t"], []
    for label, values in series.items():
        if values.ndim == 1 and not np.iscomplexobj(values):
            labels.append(label)
            cols.append(values)
        else:
            vals = np.atleast_2d(values.T).T
            for k in range(vals.shape[1]):
                labels += [f"{label}_ev{k}_re", f"{label}_ev{k}_im"]
                cols += [vals[:, k].real, vals[:, k].imag]
    return labels, np.column_stack(cols) if cols else np.empty((len(traj), 0))


def trajectory_csv(traj: Trajectory) -> str:
    """t plus the flattened state per row, complex entries as (re, im), as
    ``run_scenario`` writes it to ``<id>_trajectory.csv``."""
    buf = io.StringIO()
    _write_table(buf, _CSV, traj.times, *_trajectory_table(traj))
    return buf.getvalue()


# ---------------------------------------------------------------------------
# execution


@dataclass
class RunResult:
    exit_code: int
    failed_checks: list[str]
    error: str | None = None


# the failures a scenario run reports as exit code 1 instead of raising
RUN_ERRORS = (ScenarioError, SynclabError, OSError)


@dataclass(frozen=True)
class ScenarioPlan:
    """A validated scenario document, resolved into what it integrates and
    what it checks; :meth:`judge` turns the integrated run into artifacts."""

    resolved: dict
    cfg: Config
    settings: IntegratorSettings
    checks: list
    t_final: float

    @property
    def run(self):
        """The run, as ``integrate_batch`` takes it: the states are kept."""
        return self.cfg, self.settings, self.t_final, None

    def judge(self, traj: Trajectory, integration_s: float, out_dir,
              quiet: bool = False) -> RunResult:
        """Evaluate the observables on ``traj``, judge their drift and write
        the artifacts.  The manifest's ``duration_seconds`` is
        ``integration_s`` plus the time taken here by the series and drift.
        Raises what ``run_scenario`` reports as an error."""
        out_dir = Path(out_dir)
        resolved, checks = self.resolved, self.checks
        sid, seed = resolved["id"], resolved.get("seed")
        start = time.perf_counter()
        series = {ob.label: ob.series(traj) for ob, _ in checks}
        reports = []
        if len(traj) > 1:  # else every observable is a record: no verdicts
            reports = [drift(ob, series[ob.label], tol) for ob, tol in checks]
        duration = integration_s + (time.perf_counter() - start)

        out_dir.mkdir(parents=True, exist_ok=True)
        obs_table = _observables_table(traj, series)
        tables = {f"{sid}_trajectory.csv": (_CSV, _trajectory_table(traj)),
                  f"{sid}_observables.csv": (_CSV, obs_table)}
        if resolved.get("output", {}).get("dat_mirror"):
            tables[f"{sid}_observables.dat"] = (_DAT, obs_table)
        for name, (fmt, table) in tables.items():
            with (out_dir / name).open("w") as fh:
                _write_table(fh, fmt, traj.times, *table)
        texts = {f"{sid}_drift.json": drift_reports_to_json(reports) + "\n"}

        manifest = {
            "scenario_id": sid,
            "content_hash": content_hash(resolved),
            "prng": {"name": PRNG_NAME, "seed": seed},
            "resolved": resolved,
            "outputs": sorted([*tables, *texts]) + [f"{sid}_manifest.json"],
            "duration_seconds": duration,
        }
        texts[f"{sid}_manifest.json"] = json.dumps(manifest, indent=2) + "\n"
        for name, text in texts.items():
            (out_dir / name).write_text(text)

        failed = [r.name for r in reports if not r.verdict]
        if not quiet:
            for r in reports:
                print(f"  [{'PASS' if r.verdict else 'FAIL'}] {sid}:{r.name} "
                      f"(max_rel_dev = {r.max_rel_dev:.3e})")
        return RunResult(exit_code=2 if failed else 0, failed_checks=failed)


def plan_scenario(doc: dict, seed_override: int | None = None,
                  dt_override: float | None = None) -> ScenarioPlan:
    """Validate ``doc`` with its overrides applied and resolve it; raises
    ScenarioError on a document that cannot run."""
    # an override goes into objects only; any other shape fails validation
    resolved = doc
    if isinstance(doc, dict):
        resolved = dict(doc)
        if seed_override is not None:
            resolved["seed"] = seed_override
        integ = resolved.get("integrator", {})
        if dt_override is not None and isinstance(integ, dict):
            resolved["integrator"] = {**integ, "dt": dt_override}
    try:  # deep copy, JSON-canonical types, finite numbers
        resolved = json.loads(json.dumps(resolved, allow_nan=False))
    except (TypeError, ValueError, RecursionError) as exc:
        raise ScenarioError(f"$: not a JSON document ({exc})") from exc
    # the document that runs, overrides included, is the one validated
    validate_scenario(resolved)
    rng = np.random.default_rng(resolved.get("seed"))
    try:
        cfg = _build_config(resolved["model"], rng)
    except ValueError as exc:  # shapes the schema cannot see
        raise ScenarioError(f"$.model: {exc}") from exc
    bad = validate(cfg)
    if bad:
        raise ScenarioError(f"$.model: configuration invalid: {'; '.join(bad)}")
    settings = _build_settings(resolved, cfg)
    checks = _build_observables(resolved, cfg)
    t_final = float(resolved["t_final"])
    judged = [ob.label for ob, _ in checks if ob.kind is not Kind.RECORD]
    if judged and t_final == 0.0:
        raise ScenarioError(f"$.t_final: the {judged[0]} check needs t_final > 0; "
                            "a run of one record has no drift to judge")
    return ScenarioPlan(resolved, cfg, settings, checks, t_final)


def run_scenario(doc: dict, out_dir, seed_override: int | None = None,
                 dt_override: float | None = None, quiet: bool = False) -> RunResult:
    """Execute one scenario document and write its artifacts.

    Exit code contract: 0 on success, 2 if any invariant verdict failed,
    1 on scenario, I/O, or integration errors.  An error is returned in
    ``RunResult.error``, not printed; ``quiet`` drops the per-check lines.
    A NaN or an infinity in the document or an override is a scenario error.
    """
    try:
        plan = plan_scenario(doc, seed_override, dt_override)
        start = time.perf_counter()
        traj = integrate(plan.cfg, plan.settings, plan.t_final)
        return plan.judge(traj, time.perf_counter() - start, out_dir, quiet)
    except RUN_ERRORS as exc:
        return RunResult(exit_code=1, failed_checks=[], error=str(exc))
