"""The job runner, the suite packs it splits and the scenarios it forks."""

import dataclasses
import json
import os
import signal
import time

import numpy as np
import pytest

from synclab import dynamics, invariants, reduce_sphere, scenario, suites
from synclab.cli import main
from synclab.errors import SynclabError
from synclab.integrate import IntegratorSettings
from synclab.scenario import _run_jobs
from synclab.state import make_sphere_config

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")


def _set_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: n)


def _count_forks(monkeypatch):
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return forks


@pytest.fixture
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def no_hang():
    """A run that blocks for 30 s raises TimeoutError in the calling
    process, so a stream that deadlocks fails its test instead of hanging."""
    def expire(signum, frame):
        raise TimeoutError("blocked for 30 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(30)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


class TakesTwo(Exception):
    """Pickles, but does not unpickle: its constructor needs two arguments."""

    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


def _raise(exc):
    raise exc


@needs_fork
def test_results_come_back_in_job_order(monkeypatch, no_child_left):
    _set_cpus(monkeypatch, 4)
    forks = _count_forks(monkeypatch)
    big = bytes(range(256)) * 4096  # 1 MiB, far past a pipe's buffer
    pids = _run_jobs([os.getpid, os.getpid, lambda: (os.getpid(), big)])
    assert len(forks) == 2
    assert pids[0] == os.getpid()
    assert len({pids[0], pids[1], pids[2][0]}) == 3
    assert pids[2][1] == big


@needs_fork
def test_a_child_exception_is_raised_with_its_message(monkeypatch, no_child_left):
    _set_cpus(monkeypatch, 2)
    with pytest.raises(ValueError, match="^boom$"):
        _run_jobs([lambda: 1, lambda: _raise(ValueError("boom"))])


@needs_fork
def test_the_first_failure_in_job_order_wins(monkeypatch, no_child_left):
    _set_cpus(monkeypatch, 3)

    def late():
        time.sleep(0.2)
        raise ValueError("first")

    with pytest.raises(ValueError, match="^first$"):
        _run_jobs([lambda: 1, late, lambda: _raise(KeyError("second"))])


@needs_fork
@pytest.mark.parametrize("make, name", [
    (lambda: type("Local", (Exception,), {})("not by reference"), "Local"),
    (lambda: TakesTwo(1, 2), "TakesTwo"),
], ids=["does-not-dump", "does-not-load"])
def test_an_exception_that_does_not_pickle_is_named(monkeypatch, no_child_left,
                                                     make, name):
    _set_cpus(monkeypatch, 2)
    with pytest.raises(SynclabError) as exc:
        _run_jobs([lambda: 1, lambda: _raise(make())])
    assert type(exc.value) is SynclabError
    assert str(exc.value) == f"{name}: {make()}"


@needs_fork
@pytest.mark.parametrize("end", [
    lambda: os._exit(3),
    lambda: os.kill(os.getpid(), signal.SIGKILL),
], ids=["exit-3", "sigkill"])
def test_a_child_without_a_result_raises(monkeypatch, no_child_left, end):
    _set_cpus(monkeypatch, 3)
    start = time.perf_counter()
    with pytest.raises(SynclabError, match=r"^job 2 ended without a result "
                                           r"\(wait status \d+\)$"):
        _run_jobs([lambda: 1, lambda: 2, end])
    assert time.perf_counter() - start < 30


@needs_fork
@pytest.mark.parametrize("exc", [ValueError("parent"), KeyboardInterrupt()])
def test_a_failing_first_job_kills_its_children(monkeypatch, no_child_left, exc):
    _set_cpus(monkeypatch, 2)
    start = time.perf_counter()
    with pytest.raises(type(exc)):
        _run_jobs([lambda: _raise(exc), lambda: time.sleep(60)])
    assert time.perf_counter() - start < 30


@needs_fork
def test_jobs_of_a_forked_job_run_inline(monkeypatch, no_child_left):
    # the first job, in this process, and the second, in its child, each
    # run their own jobs in their own process; the next call forks again
    _set_cpus(monkeypatch, 4)
    forks = _count_forks(monkeypatch)

    def nested():
        return _run_jobs([os.getpid, os.getpid])

    first, second = _run_jobs([nested, nested])
    assert len(forks) == 1
    assert first == [os.getpid()] * 2
    assert second[0] == second[1] != os.getpid()
    assert _run_jobs([os.getpid, os.getpid])[1] != os.getpid()
    assert len(forks) == 2


@pytest.mark.parametrize("cpus, jobs", [(8, [os.getpid]), (1, [os.getpid] * 2)])
def test_one_job_or_one_cpu_runs_inline(monkeypatch, no_child_left, cpus, jobs):
    _set_cpus(monkeypatch, cpus)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"), raising=False)
    assert _run_jobs(jobs) == [os.getpid()] * len(jobs)


@needs_fork
@pytest.mark.parametrize("pack, forks", [("kuramoto-invariants", 1),
                                         ("sphere-invariants", 1),
                                         ("matrix", 1),
                                         ("reductions", 1)])
def test_a_pack_keeps_its_bytes_with_or_without_forks(tmp_path, monkeypatch,
                                                      no_child_left, pack, forks):
    _set_cpus(monkeypatch, 2)
    counted = _count_forks(monkeypatch)
    forked = suites._PACKS[pack](tmp_path / "forked")
    assert len(counted) == forks
    _set_cpus(monkeypatch, 1)
    inline = suites._PACKS[pack](tmp_path / "inline")
    assert len(counted) == forks
    assert forked == inline
    assert all(r.passed for r in forked)
    assert _artifacts(tmp_path / "forked") == _artifacts(tmp_path / "inline")


def _artifacts(out_dir):
    """The bytes of each artifact in ``out_dir`` but the manifests, which
    hold a wall time."""
    return {p.name: p.read_bytes() for p in out_dir.glob("*")
            if not p.name.endswith("_manifest.json")}


@needs_fork
@pytest.mark.parametrize("cpus, forks", [(2, 1), (1, 0)])
def test_the_chain_runs_in_two_jobs_give_the_chain_report(monkeypatch, no_child_left,
                                                          cpus, forks):
    rng = np.random.default_rng(42)
    cfg = make_sphere_config(rng.standard_normal((5, 3)), None, 1.0)
    settings = IntegratorSettings(dt=1e-3, record_every=30)
    want = reduce_sphere.reduction_chain_report(cfg, settings, 1.5)
    plan = reduce_sphere.plan_reduction_chain(cfg, settings, 1.5)
    _set_cpus(monkeypatch, cpus)
    counted = _count_forks(monkeypatch)
    stereo, (full, reduced) = _run_jobs([plan.stereo, lambda: (plan.full(), plan.reduced())])
    assert len(counted) == forks
    got = plan.judge(full, stereo, reduced)
    assert ([float(v).hex() for v in dataclasses.astuple(got)]
            == [float(v).hex() for v in dataclasses.astuple(want)])


def _phase_scenario(t_final):
    """A 256-oscillator scenario recording every step of 1e-3: t_final 0.255
    gives 256 records, a trajectory table of 2**16 numbers."""
    return {"id": "wide", "seed": 11, "t_final": t_final,
            "model": {"kind": "kuramoto", "kappa": 2.0, "alpha": 0.0,
                      "initial": {"random": {"n": 256}}},
            "integrator": {"dt": 1e-3, "record_every": 1},
            "observables": [{"name": "total_phase", "tolerance": 1e-9},
                            {"name": "order_R"}],
            "output": {"dat_mirror": True}}


@needs_fork
@pytest.mark.parametrize("t_final, records, forks", [(0.255, 256, 1), (0.254, 255, 0)],
                         ids=["2**16-numbers", "fewer"])
def test_a_large_trajectory_table_keeps_its_bytes_with_or_without_a_fork(
        tmp_path, monkeypatch, no_child_left, t_final, records, forks):
    doc = _phase_scenario(t_final)
    _set_cpus(monkeypatch, 2)
    counted = _count_forks(monkeypatch)
    forked = scenario.run_scenario(doc, tmp_path / "forked", quiet=True)
    assert len(counted) == forks
    _set_cpus(monkeypatch, 1)
    inline = scenario.run_scenario(doc, tmp_path / "inline", quiet=True)
    assert len(counted) == forks
    assert forked == inline
    assert forked.exit_code == 0
    artifacts = _artifacts(tmp_path / "forked")
    assert artifacts == _artifacts(tmp_path / "inline")
    manifest = json.loads((tmp_path / "forked" / "wide_manifest.json").read_text())
    assert manifest["outputs"] == sorted(artifacts) + ["wide_manifest.json"]
    assert len(artifacts["wide_trajectory.csv"].splitlines()) == 1 + records


@needs_fork
@pytest.mark.parametrize("cpus, forks", [(2, 1), (1, 0)])
@pytest.mark.parametrize("failing", ["table", "series"])
def test_a_failing_trajectory_job_is_an_error(tmp_path, monkeypatch, capsys, no_child_left,
                                              failing, cpus, forks):
    # the table's path is a directory, or the series fail: either way the
    # table is begun before the first record's series, and a failed run
    # removes it; forked, the series fail only once the child has begun it
    path, out = tmp_path / "wide.json", tmp_path / "out"
    path.write_text(json.dumps(_phase_scenario(0.255)))
    table = out / "wide_trajectory.csv"
    if failing == "table":
        table.mkdir(parents=True)

    def order_R(s):
        deadline = time.perf_counter() + 30
        while forks and not (table.exists() and table.stat().st_size):
            assert time.perf_counter() < deadline
            time.sleep(1e-3)
        raise SynclabError("the series failed")

    if failing == "series":
        monkeypatch.setattr(invariants, "order_parameter_R", order_R)
    _set_cpus(monkeypatch, cpus)
    counted = _count_forks(monkeypatch)
    assert main(["--scenario", str(path), "--out", str(out), "--quiet"]) == 1
    assert len(counted) == forks
    err = capsys.readouterr().err
    if failing == "table":
        assert err.startswith("error: [Errno 21] Is a directory: ")
        assert str(table) in err
    else:
        assert err == "error: the series failed\n"
        assert not table.exists()
    assert not (out / "wide_manifest.json").exists()
    assert not (out / "wide_drift.json").exists()


def _large_n(seed):
    """The benchmark's large-n document: an N = 200 skew-frustrated sphere
    run of 201 records, a trajectory table of 120 600 numbers."""
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((3, 3))
    quads = [sorted(rng.choice(200, 4, replace=False).tolist()) for _ in range(4)]
    return {"id": "large-n", "seed": seed, "t_final": 2.0,
            "model": {"kind": "sphere", "kappa": 1.0, "a": 0.0, "w": (w - w.T).tolist(),
                      "initial": {"random": {"n": 200, "d": 2}}},
            "integrator": {"dt": 1e-3, "record_every": 10},
            "observables": [{"name": "pair_distance_product", "tolerance": 1e-6}]
            + [{"name": "sphere_H", "indices": q, "tolerance": 1e-6} for q in quads]
            + [{"name": "sphere_rho"}],
            "output": {"dat_mirror": True}}


def _streamed_and_inline(tmp_path, monkeypatch, doc):
    """``doc`` run on two CPUs, then on one: the two results, the forks of
    each run and the directories they wrote to."""
    dirs = tmp_path / "streamed", tmp_path / "inline"
    results, forks = [], []
    for cpus, out in zip((2, 1), dirs):
        _set_cpus(monkeypatch, cpus)
        counted = _count_forks(monkeypatch)
        results.append(scenario.run_scenario(doc, out, quiet=True))
        forks.append(len(counted))
    return results, forks, dirs


@needs_fork
@pytest.mark.parametrize("seed", [1000, 7])
def test_a_streamed_run_writes_the_bytes_of_an_inline_run(tmp_path, monkeypatch,
                                                          no_child_left, no_hang, seed):
    (streamed, inline), forks, dirs = _streamed_and_inline(tmp_path, monkeypatch,
                                                           _large_n(seed))
    assert forks == [1, 0]
    assert streamed == inline
    assert streamed.error is None
    artifacts = _artifacts(dirs[0])
    assert sorted(artifacts) == [f"large-n_{s}" for s in (
        "drift.json", "observables.csv", "observables.dat", "trajectory.csv")]
    assert artifacts == _artifacts(dirs[1])
    assert len(artifacts["large-n_trajectory.csv"].splitlines()) == 1 + 201


@needs_fork
def test_a_streamed_matrix_run_writes_the_bytes_of_an_inline_run(tmp_path, monkeypatch,
                                                                 no_child_left, no_hang):
    # complex records, (re, im) pairs in the table: 201 records of 64 2x2
    # unitaries, 102 912 numbers
    doc = {"id": "unitary", "seed": 3, "t_final": 0.2,
           "model": {"kind": "matrix", "kappa": 1.0,
                     "initial": {"random": {"n": 64, "d": 2}}},
           "integrator": {"dt": 1e-3, "record_every": 1},
           "observables": [{"name": "matrix_cross_ratio", "indices": [0, 1, 2, 3],
                            "tolerance": 1e-6}, {"name": "matrix_D"}]}
    (streamed, inline), forks, dirs = _streamed_and_inline(tmp_path, monkeypatch, doc)
    assert forks == [1, 0]
    assert streamed == inline
    assert streamed.exit_code == 0
    artifacts = _artifacts(dirs[0])
    assert artifacts == _artifacts(dirs[1])
    assert len(artifacts["unitary_trajectory.csv"].splitlines()) == 1 + 201


def _nan_after(monkeypatch, calls):
    """Make each rhs that ``integrate`` builds return NaN after ``calls``
    calls."""
    make_rhs = dynamics.make_rhs

    def make(cfg):
        rhs, count = make_rhs(cfg), [0]

        def turning(y):
            count[0] += 1
            return rhs(y) if count[0] <= calls else np.full(np.shape(y), np.nan)

        return turning

    monkeypatch.setattr(dynamics, "make_rhs", make)


def _nothing_judged(out_dir):
    return not any((out_dir / f"large-n_{s}").exists()
                   for s in ("manifest.json", "drift.json", "trajectory.csv"))


@needs_fork
@pytest.mark.parametrize("series_fail", [False, True], ids=["series-pass", "series-fail"])
def test_a_streamed_integration_failure_is_reported_as_inline(
        tmp_path, monkeypatch, no_child_left, no_hang, series_fail):
    # the state turns NaN halfway, at step 1 000 of 2 000; with series_fail
    # the consumer fails at the first record, long before, and must read
    # the stream to its end, or the integration would fail to write to it
    _nan_after(monkeypatch, 4000)
    if series_fail:
        monkeypatch.setattr(invariants, "sphere_order_parameter",
                            lambda s: _raise(SynclabError("the series failed")))
    (streamed, inline), forks, dirs = _streamed_and_inline(tmp_path, monkeypatch,
                                                           _large_n(1000))
    assert forks == [1, 0]
    assert streamed == inline
    assert streamed.exit_code == 1
    assert streamed.error == "non-finite state detected during integration"
    assert all(_nothing_judged(out) for out in dirs)


def _listing(out_dir):
    """Every path under ``out_dir``, relative to it, or None if it is gone."""
    if not out_dir.exists():
        return None
    return sorted(str(p.relative_to(out_dir)) for p in out_dir.rglob("*"))


_IS_DIR = "[Errno 21] Is a directory: '<out>/large-n_{}'"


@needs_fork
@pytest.mark.parametrize("blocked, series_fail, nan_after, error", [
    ("trajectory.csv", False, None, _IS_DIR),
    (None, True, None, "the series failed"),
    ("trajectory.csv", True, None, _IS_DIR),
    (None, True, 4000, "non-finite state detected during integration"),
    ("observables.dat", False, None, _IS_DIR),
    ("drift.json", False, None, _IS_DIR),
    ("manifest.json", False, None, _IS_DIR),
], ids=["table", "series", "table-and-series", "nan-and-series", "dat", "drift",
        "manifest"])
def test_a_failed_run_leaves_the_same_files_streamed_or_inline(
        tmp_path, monkeypatch, no_child_left, no_hang, blocked, series_fail, nan_after,
        error):
    # a directory in an artifact's place, a series that fails at the first
    # record and a state that turns NaN at step 1 000 of 2 000: on two CPUs
    # and on one the run reports one error and leaves only the directories
    # that were there before it
    for out in (tmp_path / "streamed", tmp_path / "inline"):
        if blocked:
            (out / f"large-n_{blocked}").mkdir(parents=True)
    if series_fail:
        monkeypatch.setattr(invariants, "sphere_order_parameter",
                            lambda s: _raise(SynclabError("the series failed")))
    if nan_after:
        _nan_after(monkeypatch, nan_after)
    results, forks, dirs = _streamed_and_inline(tmp_path, monkeypatch, _large_n(1000))
    assert forks == [1, 0]
    assert [dataclasses.replace(res, error=res.error.replace(str(out), "<out>"))
            for res, out in zip(results, dirs)] == [
        scenario.RunResult(1, [], error.format(blocked))] * 2
    assert [_listing(out) for out in dirs] == [
        [f"large-n_{blocked}"] if blocked else None] * 2


@needs_fork
@pytest.mark.parametrize("failing", ["integration", "series"])
def test_a_failed_run_removes_an_earlier_runs_artifacts(
        tmp_path, monkeypatch, no_child_left, no_hang, failing):
    # each directory holds the five artifacts of a run that passed: a run
    # that fails there, on two CPUs or on one, leaves none and keeps the
    # directory
    doc = _large_n(1000)
    _set_cpus(monkeypatch, 1)
    for out in (tmp_path / "streamed", tmp_path / "inline"):
        assert scenario.run_scenario(doc, out, quiet=True).exit_code == 0
        assert len(_listing(out)) == 5
    if failing == "integration":
        _nan_after(monkeypatch, 4000)
    else:
        monkeypatch.setattr(invariants, "sphere_order_parameter",
                            lambda s: _raise(SynclabError("the series failed")))
    (streamed, inline), forks, dirs = _streamed_and_inline(tmp_path, monkeypatch, doc)
    assert forks == [1, 0]
    assert streamed == inline
    assert streamed.exit_code == 1
    assert [_listing(out) for out in dirs] == [[], []]


@needs_fork
def test_a_dopri5_run_with_a_large_table_forks_nothing(tmp_path, monkeypatch,
                                                       no_child_left):
    # 168 records of 600 numbers: a table the size of an RK4 run that
    # streams, but DOPRI5 does not know its record count in advance
    doc = _large_n(1000)
    doc["integrator"] = {"scheme": "dopri5", "record_every": 1,
                         "rtol": 1e-11, "atol": 1e-13}
    (on_two, on_one), forks, dirs = _streamed_and_inline(tmp_path, monkeypatch, doc)
    assert forks == [0, 0]
    assert on_two == on_one
    assert on_two.error is None
    artifacts = _artifacts(dirs[0])
    assert artifacts == _artifacts(dirs[1])
    assert (len(artifacts["large-n_trajectory.csv"].splitlines()) - 1) * 600 >= 1 << 16


@needs_fork
def test_a_consumer_that_dies_ends_a_streamed_run(tmp_path, monkeypatch, no_child_left,
                                                  no_hang):
    # the consumer is killed at its first record: the integration stops at
    # its next write instead of blocking, and the run reports the consumer
    parent = os.getpid()

    def rho(s):
        assert os.getpid() != parent, "evaluated in the calling process"
        os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(invariants, "sphere_order_parameter", rho)
    _set_cpus(monkeypatch, 2)
    counted = _count_forks(monkeypatch)
    res = scenario.run_scenario(_large_n(1000), tmp_path, quiet=True)
    assert len(counted) == 1
    assert res.exit_code == 1
    assert res.error.startswith("job 1 ended without a result")
    assert _nothing_judged(tmp_path)
