"""Runs one workload and derives its metrics.

Untraced run (``trace=False``): set up three times, then repeat passes
until ``seconds`` have elapsed (at least one whole pass), then run the
workload's final operations once, untimed. Every repeated operation
must return exactly what its first run returned.

The host, a VM shared with other tenants, changes speed by a third
within seconds. So a :class:`HostClock` times a fixed job every
``CALIBRATE_EVERY_S`` of work, inside operations too, and the
end-to-end host times (setup_s, work_s) are scaled, piece by piece, to
a host that runs that job in ``CALIBRATION_REF_S``.

Traced run (``trace=True``): set up three times, then an untraced pass,
a pass (and the final operations) with spans recorded around each
layer's public entry points, and a second untraced pass. Both later
passes must return exactly what the first did; the per-layer times come
from the spans and the tracing overhead is the traced pass's wall time
over the second untraced one.
"""

from __future__ import annotations

import gc
import os
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from perfbench import spec
from perfbench.hostclock import HostClock
from perfbench.tracing import SpanRecorder
from perfbench.workloads import (
    WORKLOADS,
    Seeds,
    Workload,
    compile_counts,
    geomean,
)

SETUP_REPEATS = 3
RATE_KINDS = ("cell", "winner")


@dataclass
class Report:
    seeds: Seeds
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    e2e: Dict[str, float] = field(default_factory=dict)
    layer: Dict[str, float] = field(default_factory=dict)
    outputs: Dict[str, dict] = field(default_factory=dict)
    cells: Dict[str, dict] = field(default_factory=dict)
    passes: int = 0
    #: The seeds the workload actually fed to the program.
    inputs: Dict[str, object] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0

    def result_json(self, trace: bool) -> Dict[str, object]:
        values = self.layer if trace else self.e2e
        return {"correct": self.correct, "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {name: {"value": values.get(name, 0.0),
                                   "unit": unit}
                            for name, unit in spec.metrics(trace)}}


class Runner:
    def __init__(self, wl: Workload, report: Report, clock: HostClock):
        self.wl = wl
        self.report = report
        self.clock = clock
        #: label -> host seconds per run of the operation
        self.times: Dict[str, List[float]] = defaultdict(list)
        #: label -> the same runs in reference seconds (HostClock)
        self.scaled: Dict[str, List[float]] = defaultdict(list)
        self.kinds: Dict[str, str] = {}
        self.first: Dict[str, dict] = {}

    def fail(self, label: str, why: str) -> None:
        self.report.failed += 1
        self.report.errors.append("%s: %s" % (label, why))
        print("FAILED %s: %s" % (label, why), file=sys.stderr)

    def run_op(self, op, recorder: Optional[SpanRecorder] = None,
               timed: bool = True) -> None:
        self.report.attempted += 1
        self.kinds[op.label] = op.kind
        # Collect the previous operation's garbage outside the timed
        # region, so neither its time nor the peak RSS depends on when
        # the collector last happened to run.
        gc.collect()
        w0 = self.clock.now()
        try:
            if recorder is not None:
                recorder.label = op.label
                with recorder.span("bench." + op.kind):
                    out = op.fn()
            else:
                out = op.fn()
        except Exception as exc:  # counted, never fatal: see fail_frac
            traceback.print_exc(file=sys.stderr)
            self.fail(op.label, "%s: %s" % (type(exc).__name__, exc))
            return
        w1 = self.clock.now()
        if self.first.setdefault(op.label, out) != out:
            self.fail(op.label, "output differs from its first run")
        elif recorder is None and timed:
            self.times[op.label].append(w1 - w0)
            self.scaled[op.label].append(self.clock.scaled(w0, w1))

    def run_pass(self, deadline: Optional[float] = None,
                 recorder: Optional[SpanRecorder] = None) -> bool:
        """One pass; with a deadline, stop before an operation whose
        median so far would end past it. True if the pass completed."""
        for op in self.wl.ops():
            if deadline is not None and self.times.get(op.label):
                est = statistics.median(self.times[op.label])
                if time.perf_counter() + est > deadline:
                    return False
            self.run_op(op, recorder)
        return True

    def run_finals(self, recorder: Optional[SpanRecorder] = None) -> None:
        """The workload's once-per-run operations; never in work_s."""
        for op in self.wl.finals():
            self.run_op(op, recorder, timed=False)

    def median_time(self, kinds) -> float:
        return sum(statistics.median(t) for label, t in self.times.items()
                   if self.kinds[label] in kinds)


def run_benchmark(workload: str, seeds: Seeds, seconds: float,
                  trace: bool, clock: HostClock,
                  imports: Tuple[float, float] = (0.0, 0.0),
                  out_dir: Optional[str] = None) -> Report:
    """Run one workload. The caller starts ``clock`` and stops it on
    every path out (an unstarted clock leaves host times unscaled).
    ``imports`` is the work-time interval in which the caller imported
    the program."""
    report = Report(seeds)
    wl = WORKLOADS[workload](seeds)
    report.inputs = wl.describe()
    setup, setup_scaled = [], []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        w0 = clock.now()
        wl.prepare()
        w1 = clock.now()
        setup.append(w1 - w0)
        setup_scaled.append(clock.scaled(w0, w1))
    runner = Runner(wl, report, clock)

    t0 = time.perf_counter()
    runner.run_pass()
    untraced_wall = time.perf_counter() - t0
    report.passes = 1
    recorder = None
    if trace:
        # The first pass filled process-wide lazy caches (predecode
        # templates and the like), so the overhead compares the traced
        # pass with a second untraced pass, both warm. Calibration
        # stops here: its samples are not tracing overhead.
        clock.stop()
        recorder = SpanRecorder()
        wl.traced = True
        t0 = time.perf_counter()
        with recorder.installed():
            runner.run_pass(recorder=recorder)
            traced_wall = time.perf_counter() - t0
            runner.run_finals(recorder)
        wl.traced = False
        t0 = time.perf_counter()
        runner.run_pass()
        untraced_wall = time.perf_counter() - t0
        report.passes = 3
    else:
        deadline = t0 + seconds
        while time.perf_counter() < deadline and runner.run_pass(deadline):
            report.passes += 1
        clock.stop()
        runner.run_finals()

    report.outputs = dict(runner.first)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    compiles = compile_rows(wl, runner)
    rates = {label: out for label, out in runner.first.items()
             if runner.kinds[label] in RATE_KINDS}
    serve = next((out for label, out in runner.first.items()
                  if runner.kinds[label] == "serve"), None)
    setup_s = imports[1] - imports[0] + statistics.median(setup)
    work_s = sum(statistics.median(t) for t in runner.times.values())
    report.e2e = {
        "setup_s": (clock.scaled(*imports)
                    + statistics.median(setup_scaled)),
        "peak_rss_mb": rss_kib / 1024.0,
        "work_s": sum(statistics.median(t)
                      for t in runner.scaled.values()),
        "code_words": float(sum(c["code_words"] for c in compiles)),
        "sim_gbps": (geomean([r["gbps"] for r in rates.values()]) if rates
                     else (serve or {}).get("gbps", 0.0)),
    }
    report.cells = cell_rows(rates, wl.occupancy)
    report.layer = layer_metrics(report, runner, compiles, rates, serve)
    report.layer.update({"bench.setup_host_s": setup_s,
                         "bench.work_host_s": work_s,
                         "bench.host_scale": clock.scale()})
    if recorder is not None:
        report.layer.update(span_metrics(recorder, wl))
        report.layer["bench.trace_overhead_frac"] = (
            traced_wall / untraced_wall - 1.0)
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)
            recorder.dump(
                os.path.join(out_dir, "%s-seed%d.spans.json"
                             % (workload, seeds.run)),
                {"workload": workload, "seeds": report.inputs,
                 "untraced_wall_s": untraced_wall,
                 "traced_wall_s": traced_wall, "cells": report.cells})
    return report


def compile_rows(wl: Workload, runner: Runner) -> List[dict]:
    """Per-compile counts of the programs the workload owns."""
    rows = [compile_counts(r) for r in wl.setup_compiles.values()]
    for label, out in runner.first.items():
        kind = runner.kinds[label]
        if kind == "compile":
            rows.append(out)
        elif kind == "winner":
            rows.append(out["compile"])
    return rows


ACCESS_COLUMNS = ("pkt_scratch", "pkt_sram", "pkt_dram", "app_scratch",
                  "app_sram", "mem")


def cell_rows(rates: Dict[str, dict], occupancy: Dict[str, dict]
              ) -> Dict[str, dict]:
    """Per-cell ixp view, labelled ``<app>/<level>@<n>``."""
    out = {cell: dict(occ) for cell, occ in occupancy.items()}
    for r in rates.values():
        row = out.setdefault(r["cell"], {})
        row.update({"gbps": r["gbps"],
                    "instrs_per_pkt": r["instrs"] / max(r["packets_out"], 1),
                    "me_util": r["me_util"]})
        row.update({c + "_per_pkt": v
                    for c, v in zip(ACCESS_COLUMNS, r["access"])})
    return out


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def layer_metrics(report: Report, runner: Runner, compiles: List[dict],
                  rates: Dict[str, dict], serve: Optional[dict]
                  ) -> Dict[str, float]:
    """Per-layer metrics that need no spans, for the layers this
    workload exercised (the result line reads the rest as 0)."""
    m: Dict[str, float] = {}

    def total(key):
        return float(sum(c[key] for c in compiles))

    m.update({
        "opt.pac.combined": total("pac_combined"),
        "opt.pac.wide": total("pac_wide"),
        "opt.phr.elided": total("phr_elided"),
        "opt.swc.cached": total("swc_cached"),
        "opt.swc.check_period": total("swc_check_period"),
        "aggregation.me_aggregates": total("me_aggregates"),
        "ir.instrs": total("ir_instrs"),
        "cg.code_words": total("code_words"),
        "cg.insns": total("insns"),
        "bench.fail_frac": report.failed / max(report.attempted, 1),
    })
    for kind, metric in (("compile", "compiler.compile_s"),
                         ("oracle", "rts.oracle_s")):
        if kind in runner.kinds.values():
            m[metric] = runner.median_time((kind,))
    rate_cells = [c for c in report.cells.values() if "gbps" in c]
    if rate_cells:
        for key in ("instrs_per_pkt", "me_util") + tuple(
                c + "_per_pkt" for c in ACCESS_COLUMNS):
            m["ixp." + key] = _mean([c[key] for c in rate_cells])
    for app in ("l3switch", "firewall", "mpls"):
        gbps = [r["gbps"] for r in rates.values()
                if r["cell"].startswith(app + "/")]
        if gbps:
            m["rts.fwd_gbps." + app] = geomean(gbps)
    sim_packets = sum(r["packets_out"] for r in rates.values())
    sim_time = runner.median_time(RATE_KINDS)
    if serve is not None:
        sim_packets += serve["tx_packets"]
        sim_time += runner.median_time(("serve",))
        m.update({
            "serve.updates": float(serve["updates"]),
            "serve.stale_per_update": serve["stale_tx"] / max(
                serve["updates"], 1),
            "serve.stale_tx_frac": serve["stale_tx"] / max(
                serve["tx_packets"], 1),
            "serve.latency_p50_cycles": serve["latency_p50"],
            "serve.latency_p99_cycles": serve["latency_p99"],
            "serve.latency_samples": float(serve["latency_count"]),
            "serve.drop_frac": serve["drops"] / max(serve["rx_offered"], 1),
        })
    if sim_time > 0:
        m["rts.sim_pkts_per_s"] = sim_packets / sim_time
    tune = next((out for label, out in runner.first.items()
                 if runner.kinds[label] == "tune"), None)
    if tune is not None:
        m.update({
            "tune.explored": float(tune["explored"]),
            "tune.confirmed": float(tune["confirmed"]),
            "tune.pruned": float(tune["pruned"]),
            "tune.compiles": float(tune["compiles"]),
            "tune.tune_s": runner.median_time(("tune",)),
        })
        winner = [r["gbps"] for label, r in rates.items()
                  if runner.kinds[label] == "winner"]
        m["tune.tuned_gbps"] = winner[0] if winner else 0.0
    return m


#: Per-layer time metric -> span name whose self time it reports.
SELF_TIME = {
    "baker.parse_s": "baker.parse",
    "baker.lower_s": "baker.lower",
    "profiler.profile_s": "profiler.profile",
    "profiler.reference_s": "profiler.reference",
    "opt.scalar_s": "opt.scalar",
    "opt.pac_s": "opt.pac",
    "opt.soar_s": "opt.soar",
    "opt.phr_s": "opt.phr",
    "opt.swc_s": "opt.swc",
    "aggregation.form_s": "aggregation.form",
    "cg.codegen_s": "cg.codegen",
    "rts.load_s": "rts.load",
    "rts.sim_s": "rts.sim",
    "ixp.fastforward.plan_s": "ixp.fastforward.plan",
    "ixp.fastforward.run_s": "ixp.fastforward.run",
    "sweep.run_sweep_s": "sweep.run_sweep",
    "serve.run_s": "serve.run_service",
}


def span_metrics(recorder: SpanRecorder, wl: Workload) -> Dict[str, float]:
    selfs = recorder.self_times()
    m = {metric: selfs.get(name, 0.0) for metric, name in SELF_TIME.items()}
    ff = recorder.named("ixp.fastforward.run")
    m["ixp.fastforward.cells"] = float(len(ff))
    m["ixp.fastforward.saturated_cells"] = float(
        sum(1 for s in ff if s["tags"].get("mode") == "saturated"))
    m["sweep.jobs"] = float(sum(s["tags"]["jobs"]
                                for s in recorder.named("sweep.run_sweep")))
    occ = list(wl.occupancy.values())
    for key in ("occ.scratch", "occ.sram", "occ.dram", "stall.exec",
                "stall.mem_dram", "stall.mem_sram", "stall.ring_empty",
                "stall.ring_full", "stall.idle"):
        m["ixp." + key] = _mean([o[key] for o in occ])
    return m
