"""Scenario documents: parsing, execution, and artifact emission.

A scenario is a JSON object validated against ``scenario.schema.json``
(shipped with the package).  Running one produces four artifacts in the
output directory: a trajectory CSV (t plus flattened state columns), an
observables CSV, a drift-report JSON, and a run manifest JSON.  The CSVs (and
the optional ``.dat`` mirror of the observables) are written one row at a
time, straight to their files.  All numbers are printed with 17 significant
digits, so two runs of the same scenario produce byte-identical files; the
only exception is the manifest's ``duration_seconds``: for a run of its own
the wall time from the start of its integration until its drift reports are
done, its trajectory table included, and for a scenario integrated in a
batch the batch's integration time plus the time of its own table, series
and drift reports.

A fixed-step (RK4) run whose trajectory table will hold at least
``_FORK_MIN`` numbers, such as the 120 600 of an N = 200 sphere run of 201
records, streams where :func:`_run_jobs`, which this module also keeps for
the suites, would fork two jobs: the calling process integrates, writing
each record to a pipe and keeping no trajectory, while a forked consumer
takes the records (:meth:`ScenarioPlan.stream`).  Every other run
integrates and then is judged in the calling process
(:meth:`ScenarioPlan.judge`): a smaller table, a DOPRI5 run, whose record
count is not known in advance, a run in a process limited to one CPU, and a
scenario judged in a suite job or after a batch.  Either way one loop
writes each record's row of the trajectory table and evaluates the
observables on it, and then come the drift, the observables tables, the
drift report and the manifest, in that order.  So the bytes are the same,
and so is a failure: one error, and no file left at an artifact's name nor
an output directory that the run made and left empty.

Random initial data comes from numpy's seeded PCG64 generator; the schema
requires a seed wherever the initial data is random, and the seed and
generator name are recorded in the manifest.  There is no unseeded
randomness anywhere.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import pickle
import sys
import time
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

import jsonschema

from .errors import ScenarioError, SynclabError
from .dynamics import state_of
from .integrate import (
    IntegratorSettings,
    Projection,
    Scheme,
    Trajectory,
    default_settings,
    integrate,
    integrate_functional,
    record_times,
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


def _table_header(fh, fmt, labels: list[str]) -> str:
    """Write the header line of ``labels`` in format ``fmt``; returns the
    template of a line of numbers, every number as "%.17g"."""
    prefix, sep, end = fmt
    fh.write(prefix + sep.join(labels) + end)
    return sep.join(["%.17g"] * len(labels)) + end


def _write_table(fh, fmt, times: np.ndarray, labels: list[str],
                 table: np.ndarray) -> None:
    """Write a header of labels, then one line per record: t and that row of
    the table.  Each line is formatted and written before the next, so
    Python floats exist for one row at a time."""
    tmpl = _table_header(fh, fmt, labels)
    for t, row in zip(times.tolist(), table):
        fh.write(tmpl % (t, *row.tolist()))


def _real(a: np.ndarray) -> np.ndarray:
    """``a`` with complex entries as (re, im) pairs along its last axis; a
    view, not a copy."""
    return a.view(a.real.dtype) if np.iscomplexobj(a) else a


def _observables_table(n_records: int,
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
    return labels, np.column_stack(cols) if cols else np.empty((n_records, 0))


def trajectory_csv(traj: Trajectory) -> str:
    """t plus the flattened state per row, complex entries as (re, im), as
    ``run_scenario`` writes it to ``<id>_trajectory.csv``."""
    buf = io.StringIO()
    flat = np.ascontiguousarray(traj.states).reshape(len(traj), -1)
    _write_table(buf, _CSV, traj.times, ["t"] + _state_columns(traj.config), _real(flat))
    return buf.getvalue()


# ---------------------------------------------------------------------------
# independent jobs, forked onto the CPUs the process may use

# true while jobs are forked: in the calling process until its children are
# reaped, and in each child, which inherits it at the fork
_forking = False


def _run_jobs(jobs) -> list:
    """The results of ``jobs``, zero-argument callables, in order.

    The first job runs in the calling process and each other job in a child
    made by ``os.fork()``, which sends back its pickled result, or the
    exception it raised, through a pipe; so results and exceptions must
    pickle.  The jobs fork only where ``os.fork`` exists and the process may
    run on at least as many CPUs as there are jobs; otherwise they run one
    after the other in the calling process, which then does exactly the work
    the forked jobs do.  Jobs do not nest forks: while jobs are forked, a
    ``_run_jobs`` call from any of them, the first in the calling process or
    another in its child, runs its jobs inline.  So no more processes run
    jobs than the CPUs the outermost call saw, and a large scenario run in
    either job of a split suite pack never streams, so never puts a third
    process on two CPUs.  Jobs that wait on each other, as the two halves
    of a scenario's stream do, must fork, or the first would wait forever:
    their caller checks :func:`_forks` first.

    A failure is raised after every child has been reaped, the first in job
    order winning: a child's exception with its type and message, one that
    will not pickle as ``SynclabError("<type>: <message>")``, and a child
    that ends without a result (killed by a signal, or ``os._exit`` in the
    job) as a ``SynclabError`` naming the job and its wait status.  When
    the first job raises, or the caller is interrupted, the children are
    killed and reaped before the exception propagates: no process outlives
    the call.

    Forking is safe here because synclab starts no thread, and OpenBLAS,
    numpy's BLAS, handles a fork: it stops its thread pool before one.  In
    a process that runs other threads, a child could deadlock on a lock one
    of them held at the fork; Python 3.12 and later warn
    (``DeprecationWarning``) when ``os.fork`` is called in a process they
    see as multi-threaded, which a BLAS thread pool can make it.
    """
    global _forking
    if not _forks(len(jobs)):
        return [job() for job in jobs]
    # buffered output would otherwise be written by the parent and every child
    sys.stdout.flush()
    sys.stderr.flush()
    pending = []  # (job index, pid, read end of its pipe) of unreaped children
    _forking = True
    try:
        for index, job in enumerate(jobs[1:], 1):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                _child(job, read_fd, write_fd)
            os.close(write_fd)
            pending.append((index, pid, read_fd))
        results = [jobs[0]()]
        outcomes = []
        while pending:
            index, pid, fd = pending[0]
            # to EOF before waiting, so a result larger than the pipe's
            # buffer cannot block the child and, through it, the wait
            chunks = []
            while chunk := os.read(fd, 1 << 16):
                chunks.append(chunk)
            _, status = os.waitpid(pid, 0)
            pending.pop(0)
            os.close(fd)
            try:
                outcomes.append(pickle.loads(b"".join(chunks)))
            except Exception:  # noqa: BLE001 - no result, whatever the bytes
                outcomes.append((False, SynclabError(
                    f"job {index} ended without a result "
                    f"(wait status {status})")))
    except BaseException:
        _kill(pending)
        raise
    finally:
        _forking = False
    for ok, value in outcomes:
        if not ok:
            raise value
        results.append(value)
    return results


def _forks(n_jobs: int) -> bool:
    """Whether a :func:`_run_jobs` call made now forks ``n_jobs`` jobs: only
    where there are two or more, ``os.fork`` exists, no jobs are forked
    already and the process may run on at least ``n_jobs`` CPUs."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return 2 <= n_jobs <= cpus and not _forking and hasattr(os, "fork")


def _child(job, read_fd, fd) -> None:
    """In a forked child: close the pipe's ``read_fd``, run ``job``, write
    the pickled ``(ok, value)`` to ``fd`` and end the process.  Never
    returns into the caller's frames."""
    try:
        # the parent alone reads: if it is gone, a write fails, not blocks
        os.close(read_fd)
        try:
            payload = pickle.dumps((True, job()))
        except BaseException as exc:  # noqa: BLE001 - sent to the parent
            try:
                payload = pickle.dumps((False, exc))
                pickle.loads(payload)  # an exception may pickle and not load
            except Exception:  # noqa: BLE001 - named instead
                payload = pickle.dumps(
                    (False, SynclabError(f"{type(exc).__name__}: {exc}")))
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        sys.stdout.flush()
        sys.stderr.flush()
    finally:
        os._exit(0)


def _kill(pending) -> None:
    """Kill and reap the children in ``pending``, closing their pipes."""
    from signal import SIGKILL  # only on this path: no import-time cost

    for _, pid, fd in pending:
        # each may find its pipe closed or its child reaped already
        with suppress(OSError):
            os.close(fd)
        with suppress(OSError):
            os.kill(pid, SIGKILL)
        with suppress(OSError):
            os.waitpid(pid, 0)


# ---------------------------------------------------------------------------
# execution


@dataclass
class RunResult:
    exit_code: int
    failed_checks: list[str]
    error: str | None = None


# the failures a scenario run reports as exit code 1 instead of raising
RUN_ERRORS = (ScenarioError, SynclabError, OSError)

# the fewest numbers in a trajectory table that a fixed-step run streams to a
# forked consumer: at about 0.5 us a number, 2**16 take 30 ms or more to
# format, against some 2 ms for ``_run_jobs`` to fork a child and reap it
_FORK_MIN = 1 << 16


@dataclass(frozen=True)
class ScenarioPlan:
    """A validated scenario document, resolved into what it integrates and
    what it checks; :meth:`judge` turns the integrated run into artifacts,
    and :meth:`stream` integrates and judges at once, both through
    :meth:`_consume` and :meth:`_finish`."""

    resolved: dict
    cfg: Config
    settings: IntegratorSettings
    checks: list
    t_final: float

    @property
    def run(self):
        """The run, as ``integrate_batch`` takes it: the states are kept."""
        return self.cfg, self.settings, self.t_final, None

    def _name(self, suffix: str) -> str:
        """The file name of the artifact ``suffix``, after the scenario id."""
        return f"{self.resolved['id']}_{suffix}"

    @property
    def _observables_formats(self) -> dict:
        """The file name and the format of each observables table."""
        formats = {self._name("observables.csv"): _CSV}
        if self.resolved.get("output", {}).get("dat_mirror"):
            formats[self._name("observables.dat")] = _DAT
        return formats

    @property
    def _outputs(self) -> list[str]:
        """The file names of the run's artifacts, the manifest last."""
        return sorted([self._name("trajectory.csv"), *self._observables_formats,
                       self._name("drift.json")]) + [self._name("manifest.json")]

    @contextmanager
    def _clean_failure(self, out_dir: Path):
        """When the body fails, remove each file at an artifact's name, and
        each directory it made that is left empty: a failed run leaves no
        artifact, whole or in part.  A directory in an artifact's place stays."""
        made = [d for d in (out_dir, *out_dir.parents) if not d.exists()]
        try:
            yield
        except BaseException:
            for name in self._outputs:
                with suppress(OSError):  # none written, or a directory in its place
                    (out_dir / name).unlink()
            for d in made:
                with suppress(OSError):  # not empty
                    d.rmdir()
            raise

    def stream_times(self) -> np.ndarray | None:
        """The record times of the run if :meth:`stream` takes it, else None.

        A fixed-step (RK4) run knows its records before it starts, and
        streams when its trajectory table will hold at least ``_FORK_MIN``
        numbers and :func:`_run_jobs` would fork two jobs.  A DOPRI5 run,
        whose record count is not known in advance, never streams."""
        if not (self.settings.scheme is Scheme.RK4 and self.t_final > 0.0 and _forks(2)):
            return None
        state = state_of(self.cfg)
        times = record_times(self.settings, self.t_final, state.shape)
        return times if times.size * _real(state).size >= _FORK_MIN else None

    def judge(self, times: np.ndarray, states, integration_s: float, out_dir,
              quiet: bool = False) -> RunResult:
        """Write the artifacts of the integrated run, its records ``states``
        at ``times``, in this process: :meth:`_consume`, then :meth:`_finish`.
        The manifest's ``duration_seconds`` is ``integration_s`` plus the time
        taken here until the drift reports are done, the trajectory table
        included.  Raises what ``run_scenario`` reports as an error, once
        :meth:`_clean_failure` has cleaned up."""
        out_dir = Path(out_dir)
        start = time.perf_counter() - integration_s
        with self._clean_failure(out_dir):
            series = self._consume(zip(times.tolist(), states), out_dir)
            return self._finish(out_dir, times, series, start, quiet)

    def stream(self, times: np.ndarray, out_dir, quiet: bool = False) -> RunResult:
        """Integrate the run and judge it as :meth:`judge` would, the table
        and the series done during the integration; ``times`` are the run's
        record times from :meth:`stream_times`.

        Two jobs go through :func:`_run_jobs`, which must fork them, as
        :meth:`stream_times` checks: the calling process integrates, writing
        each record's bytes to a pipe as it is checked finite and keeping no
        trajectory, while the forked consumer reads the records one at a
        time into :meth:`_consume` and sends the series back; then
        :meth:`_finish` runs in this process.  The manifest's
        ``duration_seconds`` runs from the start of the integration until
        the drift reports are done.

        An integration that fails is reported as in one process, even where
        the consumer failed first: after a failure of its own, the consumer
        reads the stream to its end, so that the integration never blocks
        on a full pipe.  A consumer that ends without a result, killed by a
        signal, stops the integration at its next record, and the run
        reports it as :func:`_run_jobs` does.  Once the consumer is reaped, a
        run that fails is cleaned up as :meth:`judge`'s is."""
        out_dir = Path(out_dir)
        state = state_of(self.cfg)
        reader, writer = (open(fd, mode) for fd, mode in zip(os.pipe(), ("rb", "wb")))

        def produce():
            # the consumer's end: closed here, so that a write to a consumer
            # that is gone fails instead of blocking
            reader.close()
            with suppress(BrokenPipeError), writer:
                # the records kept are the numbers of bytes written
                integrate_functional(self.cfg, self.settings, self.t_final, writer.write)

        def records():
            for t in times.tolist():
                y = np.empty(state.shape, state.dtype)
                if reader.readinto(y) != y.nbytes:
                    raise SynclabError("the stream of records ended early")
                yield t, y

        def consume():
            # this process's copy: the stream ends when the producer's closes
            writer.close()
            with reader:
                try:
                    return self._consume(records(), out_dir)
                finally:  # to the end, whatever failed
                    while reader.read(1 << 16):
                        pass

        start = time.perf_counter()
        with self._clean_failure(out_dir):
            try:
                _, series = _run_jobs([produce, consume])
            finally:
                reader.close()
                writer.close()
            return self._finish(out_dir, times, series, start, quiet)

    def _consume(self, records, out_dir: Path) -> dict[str, np.ndarray]:
        """The series of the observables on ``records``, (t, state) pairs.
        The trajectory table is begun in ``out_dir``, its header flushed,
        before the first record is taken; each record's row is written,
        after its observables are evaluated through the ``fn`` that
        ``Observable.series`` calls, before the next record is taken."""
        cfg = self.cfg
        columns = [(ob.label, ob.fn, []) for ob, _ in self.checks]
        out_dir.mkdir(parents=True, exist_ok=True)
        with (out_dir / self._name("trajectory.csv")).open("w") as fh:
            tmpl = _table_header(fh, _CSV, ["t"] + _state_columns(cfg))
            fh.flush()
            for t, y in records:
                for _, fn, column in columns:
                    column.append(fn(cfg, y))
                fh.write(tmpl % (t, *_real(y.reshape(-1)).tolist()))
        return {label: np.array(column) for label, _, column in columns}

    def _finish(self, out_dir: Path, times: np.ndarray, series: dict,
                start: float, quiet: bool) -> RunResult:
        """Judge the drift of ``series``, the observables at ``times``, and
        write the observables tables, the drift report and the manifest, in
        that order; print the verdicts unless ``quiet`` and return the run's
        result.  ``duration_seconds`` runs from ``start`` to the drift reports."""
        resolved = self.resolved
        sid = resolved["id"]
        reports = []
        if len(times) > 1:  # else every observable is a record: no verdicts
            reports = [drift(ob, series[ob.label], tol) for ob, tol in self.checks]
        duration = time.perf_counter() - start
        table = _observables_table(len(times), series)
        for name, fmt in self._observables_formats.items():
            with (out_dir / name).open("w") as fh:
                _write_table(fh, fmt, times, *table)
        (out_dir / self._name("drift.json")).write_text(
            drift_reports_to_json(reports) + "\n")
        manifest = {
            "scenario_id": sid,
            "content_hash": content_hash(resolved),
            "prng": {"name": PRNG_NAME, "seed": resolved.get("seed")},
            "resolved": resolved,
            "outputs": self._outputs,
            "duration_seconds": duration,
        }
        (out_dir / self._name("manifest.json")).write_text(
            json.dumps(manifest, indent=2) + "\n")

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
    Once the document is valid, a run that fails leaves no file at any of
    its artifacts' names.
    A NaN or an infinity in the document or an override is a scenario error.
    """
    try:
        plan = plan_scenario(doc, seed_override, dt_override)
        times = plan.stream_times()
        if times is not None:
            return plan.stream(times, out_dir, quiet)
        start = time.perf_counter()
        with plan._clean_failure(Path(out_dir)):  # as in a streamed run
            traj = integrate(plan.cfg, plan.settings, plan.t_final)
        return plan.judge(traj.times, traj.states, time.perf_counter() - start,
                          out_dir, quiet)
    except RUN_ERRORS as exc:
        return RunResult(exit_code=1, failed_checks=[], error=str(exc))
