"""Repository benchmark: ``python3 perfbench/run.py --workload <name>``.

Run from the repository root. Prints every metric by name with its
unit, then, as the last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}`` holding the
end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``). Exits 1 when any operation failed, 2 when it cannot
run at all (bad arguments, a polluting environment variable, or no
``src/repro`` next to the benchmark).
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Environment that changes what the program does or where it writes.
POLLUTING_ENV = ("REPRO_SIM_DISPATCH", "REPRO_OBS", "REPRO_OBS_JSONL",
                 "REPRO_TRACE_JSON", "REPRO_COMPILE_CACHE")


def isolation_error(environ) -> str:
    """Why the benchmark must not start in this environment ('' if ok)."""
    bad = [name for name in POLLUTING_ENV if name in environ]
    if bad:
        return ("refusing to run with %s set: the benchmark measures the "
                "program's defaults" % ", ".join(bad))
    return ""


def _footprint():
    """Files the benchmark must leave alone: root BENCH_*.json and the
    on-disk compile cache."""
    seen = {}
    for path in glob.glob(os.path.join(ROOT, "BENCH_*.json")):
        st = os.stat(path)
        seen[path] = (st.st_size, st.st_mtime_ns)
    for base, _dirs, files in os.walk(os.path.join(ROOT, ".repro_cache")):
        for name in files:
            st = os.stat(os.path.join(base, name))
            seen[os.path.join(base, name)] = (st.st_size, st.st_mtime_ns)
    return seen


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("compile", "cells", "churn", "tune"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--profile-seed", type=int, default=None,
                    help="profiling-trace seed (default: from --seed)")
    ap.add_argument("--measure-seed", type=int, default=None,
                    help="held-out trace seed (default: from --seed)")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    why = isolation_error(os.environ)
    if why:
        print(why, file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("no src/repro under %s: run from a full checkout" % ROOT,
              file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench.hostclock import HostClock

    # The clock runs from before the program's import, which counts as
    # set-up, to the end of the timed passes; stopped on every path.
    clock = HostClock()
    clock.start()
    try:
        w0 = clock.now()
        from perfbench.core import run_benchmark  # imports repro
        from perfbench import spec
        from perfbench.workloads import WORKLOADS, Seeds
        imports = (w0, clock.now())
        try:
            seeds = Seeds.derive(
                args.seed, args.profile_seed, args.measure_seed,
                WORKLOADS[args.workload].default_profile_seed)
        except ValueError as exc:
            print(exc, file=sys.stderr)
            return 2
        before = _footprint()
        report = run_benchmark(args.workload, seeds, args.seconds,
                               bool(args.trace), clock, imports,
                               out_dir=os.path.join(ROOT, "perfbench", "out"))
    finally:
        clock.stop()
    if _footprint() != before:
        report.attempted += 1
        report.failed += 1
        report.errors.append("wrote BENCH_*.json or .repro_cache")

    print("workload %s: seed=%d passes=%d inputs=%s"
          % (args.workload, seeds.run, report.passes,
             json.dumps(report.inputs, sort_keys=True)))
    for name, unit in spec.metrics(False):
        print("  %-28s %14.6g %s" % (name, report.e2e[name], unit))
    for name, unit in spec.metrics(True):
        if name in report.layer:
            print("  %-28s %14.6g %-6s moves %s" % (
                name, report.layer[name], unit, spec.MOVES.get(name, "?")))
    for label, row in sorted(report.cells.items()):
        print("  cell %-22s %s" % (label, " ".join(
            "%s=%.6g" % kv for kv in sorted(row.items()))))
    for err in report.errors:
        print("  FAILED " + err)
    print(json.dumps(report.result_json(bool(args.trace)), sort_keys=True))
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main())
