"""The suites' job runner and the packs it splits."""

import dataclasses
import os
import signal
import time

import numpy as np
import pytest

from synclab import reduce_sphere, suites
from synclab.errors import SynclabError
from synclab.integrate import IntegratorSettings
from synclab.state import make_sphere_config
from synclab.suites import _run_jobs

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
    with pytest.raises(SynclabError, match=r"^suite job 2 ended without a result "
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

    def artifacts(name):
        return {p.name: p.read_bytes() for p in (tmp_path / name).glob("*")
                if not p.name.endswith("_manifest.json")}

    assert artifacts("forked") == artifacts("inline")


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
