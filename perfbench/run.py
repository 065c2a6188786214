"""synclab benchmark: one workload per invocation, run from the repo root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: suite-all, ensemble, large-n, reductions (see perfbench/README.md).
The workload runs in a fresh single-threaded process (BLAS and OpenMP pinned
to one thread) with synclab imported from ./src; set-up is timed in further
fresh processes.  Artifacts go to a temporary directory inside the checkout,
removed on exit.  Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer metrics
of a traced pass with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("suite-all", "ensemble", "large-n", "reductions")
SETUP_PROBES = 9
RUN_LIMIT_S = 170.0


def _env(root: Path, tmp: Path) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env["TMPDIR"] = str(tmp)
    return env


def _worker(args, extra, env, deadline):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + extra
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {"cpu_count": os.cpu_count(), "cpu_model": model or "unknown"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1000,
                    help="workload seed (default 1000; suite-all ignores it)")
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="measuring time of the untraced passes")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "synclab" / "__init__.py").is_file():
        print(f"error: no synclab sources under {root / 'src'}; run from the repo root",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())

    deadline = time.monotonic() + RUN_LIMIT_S
    scratch = root / ".perfbench-tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=scratch))
    try:
        env = _env(root, tmp)
        setups = []
        for _ in range(SETUP_PROBES):
            probe_dir = Path(tempfile.mkdtemp(dir=tmp))
            setups.append(_worker(args, ["--setup-only", "--workdir", str(probe_dir)],
                                  env, deadline)["setup_s"])
        run_dir = Path(tempfile.mkdtemp(dir=tmp))
        res = _worker(args, ["--workdir", str(run_dir)], env, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    walls, wall = res["walls"], res["wall_s"]
    checks, failed_checks = res["checks"], res["failed_checks"]
    failed_ratio = failed_checks / max(checks, 1)
    correct = res["errors"] == 0 and not res["unexpected_failures"] and checks > 0
    print(f"# workload {args.workload}, seed {args.seed} "
          f"({'reaches' if res['seeded'] else 'does not reach'} the workload), "
          f"trace {args.trace}")
    print(f"# machine: {json.dumps({**_machine(), **res['versions']})}")
    print(f"# pass wall samples ({len(walls)}, after one warm-up pass): "
          f"{' '.join(f'{w:.4g}' for w in walls)}; median {statistics.median(walls):.4g} s")
    print(f"# setup_s samples ({len(setups)}): {' '.join(f'{s:.4g}' for s in setups)}")
    print(f"# checks: {failed_checks} of {checks} failed "
          f"(checks_failed_ratio {failed_ratio:.6g})")
    for name in res["known_failures"]:
        print(f"#   known defect, counted as failed: {name}")
    for name in res["unexpected_failures"]:
        print(f"#   FAILED: {name}")
    # ensemble only: members x RK4 steps per member over the pass time
    steps_per_s = res["member_steps"] / wall if res["member_steps"] else None
    if args.trace:
        values = dict(res["layers"])
        if steps_per_s is not None:
            values["member_steps_per_s"] = steps_per_s
    else:
        print(f"# wall_s: the segment estimate (perfbench/segments.py) over the "
              f"{len(walls)} passes, summed over the {res['calls_per_pass']} call(s) "
              f"of a pass")
        if not res["stamped"]:
            print("# no integration loop to stamp: wall_s is each call's fastest time")
        if steps_per_s is not None:
            print(f"# member_steps_per_s = {steps_per_s:.6g} 1/s")
        values = {
            "wall_s": wall,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_mb"],
            "checks_passed_ratio": 1.0 - failed_ratio,
        }
    # names and units come from BENCHMARK.json; a layer the workload never
    # reaches reads 0
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}
    for name, value in values.items():
        if name not in metrics:
            print(f"# not in BENCHMARK.json: {name} = {value:.6g}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": res["calls"],
                      "failed": res["errors"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
