"""Scenario documents: parsing, execution, and artifact emission.

A scenario is a JSON object validated against ``scenario.schema.json``
(shipped with the package).  Running one produces four artifacts in the
output directory: a trajectory CSV (t plus flattened state columns), an
observables CSV, a drift-report JSON, and a run manifest JSON.  All numbers
are printed with 17 significant digits, so two runs of the same scenario
produce byte-identical files.

Random initial data comes from numpy's seeded PCG64 generator; the seed and
generator name are recorded in the manifest.  There is no unseeded
randomness anywhere.
"""

from __future__ import annotations

import csv
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
from .invariants import Kind, Observable, drift_report, make_observable
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


def validate_scenario(doc: dict) -> None:
    """Schema validation; the raised message carries a JSON pointer."""
    errors = sorted(_VALIDATOR.iter_errors(doc), key=lambda e: e.json_path)
    if errors:
        e = errors[0]
        raise ScenarioError(f"{e.json_path}: {e.message}")


def load_scenario(path) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: not valid JSON ({exc})") from exc
    validate_scenario(doc)
    return doc


# ---------------------------------------------------------------------------
# resolution: scenario document -> config + settings


def _build_config(model: dict, rng: np.random.Generator) -> Config:
    kind = model["kind"]
    kappa = model.get("kappa", 1.0)
    initial = model["initial"]
    if kind == "kuramoto":
        if "theta" in initial:
            theta = np.asarray(initial["theta"], dtype=float)
        elif "random" in initial:
            r = initial["random"]
            theta = rng.uniform(r.get("low", 0.0), r.get("high", 2 * np.pi), r["n"])
        else:
            raise ScenarioError("$.model.initial: kuramoto needs 'theta' or 'random'")
        return make_phase_config(theta, model.get("nu", 0.0), kappa,
                                 model.get("alpha", 0.0),
                                 Flavor(model.get("flavor", "sine")))
    if kind == "sphere":
        if "x" in initial:
            x = np.asarray(initial["x"], dtype=float)
        elif "random" in initial:
            r = initial["random"]
            if "d" not in r:
                raise ScenarioError("$.model.initial.random: sphere needs 'd'")
            x = rng.standard_normal((r["n"], r["d"] + 1))
        else:
            raise ScenarioError("$.model.initial: sphere needs 'x' or 'random'")
        return make_sphere_config(x, model.get("omega"), kappa,
                                  model.get("a", 1.0), model.get("w"))
    if kind == "matrix":
        if "u" in initial:
            u = decode_complex(initial["u"])
        elif "random" in initial:
            r = initial["random"]
            if "d" not in r:
                raise ScenarioError("$.model.initial.random: matrix needs 'd'")
            u = np.array([random_unitary(rng, r["d"]) for _ in range(r["n"])])
        else:
            raise ScenarioError("$.model.initial: matrix needs 'u' or 'random'")
        h = decode_complex(model["h"]) if "h" in model else None
        v = decode_complex(model["v"]) if "v" in model else None
        return make_unitary_config(u, h, kappa, v)
    raise ScenarioError(f"$.model.kind: unknown model {kind!r}")


def _build_settings(doc: dict, cfg: Config) -> IntegratorSettings:
    integ = dict(doc.get("integrator", {}))
    proj = integ.pop("projection", "auto")
    if proj != "auto":
        integ["projection"] = Projection(proj)
    integ["scheme"] = Scheme(integ.get("scheme", "rk4"))
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


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _state_columns(cfg: Config) -> list[str]:
    if isinstance(cfg, PhaseConfig):
        return [f"theta_{j}" for j in range(cfg.n)]
    if isinstance(cfg, SphereConfig):
        return [f"x{j}_{k}" for j in range(cfg.n) for k in range(cfg.ambient_dim)]
    return [f"u{j}_{r}{c}_{p}" for j in range(cfg.n)
            for r in range(cfg.d) for c in range(cfg.d) for p in ("re", "im")]


def _flatten_state(state: np.ndarray) -> list[float]:
    if np.iscomplexobj(state):
        flat = state.ravel()
        out = []
        for z in flat:
            out.extend((z.real, z.imag))
        return out
    return list(np.asarray(state, dtype=float).ravel())


def trajectory_csv(traj: Trajectory) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["t"] + _state_columns(traj.config))
    for t, s in zip(traj.times, traj.states):
        w.writerow([_fmt(t)] + [_fmt(v) for v in _flatten_state(s)])
    return buf.getvalue()


def observables_csv(traj: Trajectory, series: dict[str, np.ndarray]) -> str:
    cols = []
    for label, values in series.items():
        if values.ndim == 1 and not np.iscomplexobj(values):
            cols.append((label, values))
        else:
            vals = np.atleast_2d(values.T).T
            for k in range(vals.shape[1]):
                cols.append((f"{label}_ev{k}_re", vals[:, k].real))
                cols.append((f"{label}_ev{k}_im", vals[:, k].imag))
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["t"] + [c[0] for c in cols])
    for i, t in enumerate(traj.times):
        w.writerow([_fmt(t)] + [_fmt(c[1][i]) for c in cols])
    return buf.getvalue()


def dat_mirror(csv_text: str) -> str:
    """Gnuplot-friendly mirror: header as comment, whitespace-separated."""
    lines = csv_text.splitlines()
    out = ["# " + " ".join(lines[0].split(","))]
    for line in lines[1:]:
        out.append(" ".join(line.split(",")))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# execution


@dataclass
class RunResult:
    exit_code: int
    scenario_id: str
    outputs: list[str]
    failed_checks: list[str]
    error: str | None = None


def run_scenario(doc: dict, out_dir, seed_override: int | None = None,
                 dt_override: float | None = None, quiet: bool = False) -> RunResult:
    """Execute one scenario document and write its artifacts.

    Exit code contract: 0 on success, 2 if any invariant verdict failed,
    1 on scenario, I/O, or integration errors.
    """
    out_dir = Path(out_dir)
    sid = doc.get("id", "scenario")
    try:
        validate_scenario(doc)
        resolved = json.loads(json.dumps(doc))  # deep copy, JSON-canonical types
        if seed_override is not None:
            resolved["seed"] = seed_override
        if dt_override is not None:
            resolved.setdefault("integrator", {})["dt"] = dt_override
        seed = resolved.get("seed")
        rng = np.random.default_rng(seed)
        cfg = _build_config(resolved["model"], rng)
        bad = validate(cfg)
        if bad:
            raise ScenarioError(f"$.model: configuration invalid: {'; '.join(bad)}")
        settings = _build_settings(resolved, cfg)
        checks = _build_observables(resolved, cfg)

        start = time.perf_counter()
        traj = integrate(cfg, settings, float(resolved["t_final"]))
        series = {ob.label: ob.series(traj) for ob, _ in checks}
        traj.observables = series
        reports = []
        for ob, tol in checks:
            reports.extend(drift_report(traj, [ob], tol) if len(traj) > 1 else [])
        duration = time.perf_counter() - start

        out_dir.mkdir(parents=True, exist_ok=True)
        files = {}
        files[f"{sid}_trajectory.csv"] = trajectory_csv(traj)
        obs_csv = observables_csv(traj, series)
        files[f"{sid}_observables.csv"] = obs_csv
        files[f"{sid}_drift.json"] = json.dumps(
            [r.to_dict() for r in reports], indent=2) + "\n"
        if resolved.get("output", {}).get("dat_mirror"):
            files[f"{sid}_observables.dat"] = dat_mirror(obs_csv)

        manifest = {
            "scenario_id": sid,
            "content_hash": content_hash(resolved),
            "prng": {"name": PRNG_NAME, "seed": seed},
            "resolved": resolved,
            "outputs": sorted(files) + [f"{sid}_manifest.json"],
            "duration_seconds": duration,
        }
        files[f"{sid}_manifest.json"] = json.dumps(manifest, indent=2) + "\n"
        for name, text in files.items():
            (out_dir / name).write_text(text)

        failed = [r.name for r in reports if not r.verdict]
        if not quiet:
            for r in reports:
                print(f"  [{'PASS' if r.verdict else 'FAIL'}] {sid}:{r.name} "
                      f"(max_rel_dev = {r.max_rel_dev:.3e})")
        code = 2 if failed else 0
        return RunResult(exit_code=code, scenario_id=sid,
                         outputs=manifest["outputs"], failed_checks=failed)
    except (ScenarioError, SynclabError, OSError) as exc:
        if not quiet:
            print(f"  [ERROR] {sid}: {exc}")
        return RunResult(exit_code=1, scenario_id=sid, outputs=[],
                         failed_checks=[], error=str(exc))
