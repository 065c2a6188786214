"""The job runner, the suite packs it splits and the scenarios it forks."""

import dataclasses
import json
import os
import signal
import time

import numpy as np
import pytest

from synclab import invariants, reduce_sphere, scenario, suites
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
    # the table's path is a directory, or the series fail: forked, once the
    # child has begun the table, which must then be removed; inline, the
    # series come first and no table is begun
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
