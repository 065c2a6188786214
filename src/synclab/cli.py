"""Scenario-driven command line front end.

    synclab --scenario PATH [--seed N] [--dt DT] [--out DIR] [--quiet]
    synclab --suite NAME [--out DIR] [--quiet]

The output directory defaults to the SYNCLAB_OUT environment variable, then
to ./synclab-out.  Exit codes: 0 success, 2 at least one invariant verdict
failed, 1 I/O, schema, or integration error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .errors import ScenarioError, SynclabError
from .scenario import load_scenario, run_scenario
from .suites import SUITE_NAMES, run_suite


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="synclab", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--scenario", metavar="PATH", help="JSON scenario file to run")
    p.add_argument("--suite", metavar="NAME",
                   help=f"built-in pack: {', '.join(SUITE_NAMES)}")
    p.add_argument("--seed", type=int, metavar="U64",
                   help="override the scenario seed")
    p.add_argument("--dt", type=float, metavar="DT",
                   help="override the integrator step")
    p.add_argument("--out", metavar="DIR",
                   default=os.environ.get("SYNCLAB_OUT", "synclab-out"),
                   help="output directory (default: $SYNCLAB_OUT or ./synclab-out)")
    p.add_argument("--quiet", action="store_true", help="suppress per-check lines")
    return p


def _print_table(results) -> None:
    width = max((len(r.name) for r in results), default=20) + 2
    print("-" * (width + 30))
    for r in results:
        print(f"{r.name:<{width}} {'PASS' if r.passed else 'FAIL':<6} {r.detail}")
    print("-" * (width + 30))
    n_pass = sum(r.passed for r in results)
    print(f"{n_pass}/{len(results)} checks passed")


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    out_dir = Path(args.out)
    if bool(args.scenario) == bool(args.suite):
        print("exactly one of --scenario or --suite is required", file=sys.stderr)
        return 1
    if args.suite and (args.seed is not None or args.dt is not None):
        print("error: --seed and --dt apply to --scenario only", file=sys.stderr)
        return 1

    if args.scenario:
        try:
            doc = load_scenario(args.scenario)
        except (ScenarioError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        res = run_scenario(doc, out_dir, seed_override=args.seed,
                           dt_override=args.dt, quiet=args.quiet)
        if res.error is not None:
            print(f"error: {res.error}", file=sys.stderr)
        return res.exit_code

    try:
        results = run_suite(args.suite, out_dir)
        summary = {
            "suite": args.suite,
            "passed": bool(all(r.passed for r in results)),
            "results": [{"name": r.name, "passed": bool(r.passed), "detail": r.detail}
                        for r in results],
        }
        (out_dir / f"suite_{args.suite}.json").write_text(
            json.dumps(summary, indent=2) + "\n")
    except (ValueError, SynclabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not args.quiet:
        _print_table(results)
    return 0 if summary["passed"] else 2


if __name__ == "__main__":
    raise SystemExit(main())
