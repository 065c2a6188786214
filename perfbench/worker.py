"""One workload in one fresh process; started by run.py.

Prints one JSON object as its last line.  With ``--setup-only`` it times the
set-up (importing synclab and building the workload's inputs) and stops.
Otherwise it makes one untimed warm-up pass, then times closed-loop passes for
about ``--seconds`` seconds, or, with ``--trace 1``, one untraced and one
traced pass followed by the layer micro-cases.  Every pass is checked.

With ``--trace 0`` every call of a pass is timed through
``segments.SegmentClock``, whose estimate of one pass is ``wall_s``.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from segments import SegmentClock  # noqa: E402
from workloads import WORKLOADS, PassResult  # noqa: E402

MIN_PASSES = 2


def _setup(args):
    import synclab.cli  # noqa: F401  (imports every layer; scenario compiles the schema)

    return WORKLOADS[args.workload](args.seed, Path(args.workdir))


def _versions() -> dict:
    import platform

    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy < 1.26 has no mode="dicts"
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas}


def _clean(workdir: Path):
    for p in workdir.iterdir():
        shutil.rmtree(p)


def _pass(wl, tally, clock=None, record=False):
    """Run and check one pass; returns its wall time.  With a ``clock``, each
    call is timed through it, and with ``record`` its segments are kept."""
    res = PassResult()
    outputs, wall = [], 0.0
    for label, thunk in wl.calls(res):
        t0 = time.perf_counter()
        outputs.append(thunk() if clock is None else clock.time_call(label, thunk, record))
        wall += time.perf_counter() - t0
    wl.check(outputs, res)
    _clean(wl.workdir)
    tally["calls"] += res.calls
    tally["errors"] += res.errors
    for name, ok in res.checks:
        tally["checks"] += 1
        if not ok:
            tally["failed_checks"] += 1
            if name not in wl.known_defects:
                tally["unexpected"].add(name)
            else:
                tally["known"].add(name)
    return wall


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    wl = _setup(args)
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tally = {"calls": 0, "errors": 0, "checks": 0, "failed_checks": 0,
             "unexpected": set(), "known": set()}
    out = {"setup_s": setup_s, "seeded": wl.seeded,
           "member_steps": getattr(wl, "member_steps", None)}
    if args.trace:
        import micro
        from tracer import Tracer

        _pass(wl, tally)  # warm-up: untimed, but checked
        untraced = _pass(wl, tally)
        tracer = Tracer()
        tracer.install()
        try:
            traced = _pass(wl, tally)
        finally:
            tracer.uninstall()
        layers = tracer.metrics(traced, untraced)
        layers.update(micro.run(args.seed))
        out["layers"] = layers
        out["walls"] = [untraced]
        out["wall_s"] = untraced
    else:
        clock = SegmentClock()
        out["stamped"] = clock.install()
        try:
            _pass(wl, tally, clock)  # warm-up: untimed, but checked
            walls = []
            start = time.perf_counter()
            while True:
                walls.append(_pass(wl, tally, clock, record=True))
                elapsed = time.perf_counter() - start
                if (len(walls) >= MIN_PASSES
                        and elapsed + statistics.median(walls) > args.seconds):
                    break
        finally:
            clock.uninstall()
        out["walls"] = walls
        out["wall_s"] = clock.estimate()
        out["calls_per_pass"] = len(clock.best)
    out.update(
        calls=tally["calls"], errors=tally["errors"], checks=tally["checks"],
        failed_checks=tally["failed_checks"],
        unexpected_failures=sorted(tally["unexpected"]),
        known_failures=sorted(tally["known"]),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        versions=_versions(),
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
