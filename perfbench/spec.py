"""What the benchmark measures.

``BENCHMARK.json`` is the one source of metric names, units, directions
and bounds; :func:`metrics` reads them. This module adds what that file
has no room for: for each per-layer metric, the end-to-end metric and
workload it should move. README.md defines the end-to-end metrics.

Every end-to-end metric is reported on every workload, so each one is
defined for all four. Results that exist on one workload only
(compile_s, fwd_gbps per app, stale-frame share, churn latency, tuned
rate...) are per-layer metrics named after the module that produces
them.

Bounds: host times (setup_s, work_s) take the largest bound allowed,
0.25. Converted to reference seconds (hostclock.HostClock), work_s
spread 0.025-0.097 over ten runs, the top of that on cells, where the
work follows the seed's simulated rate (README, "Measured noise"). The
simulated metrics are deterministic for a seed; their spread over
seeds comes from the inputs (firewall's rate follows the rule depth of
the 48 flows a seed draws). sim_gbps has 0.12, about twice the largest
spread over seeds 1-20 (0.064); code_words 0.02 (spread 0: the
profiling trace never changed code size, so the bound is the smallest
step worth gating). peak_rss_mb gets 0.20: for identical inputs the
peak can land on one of a few values 10-15% apart (compile, in an
earlier version; tune, once in 20 runs), although its spread over ten
runs stays below 0.013.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Tuple

BENCHMARK_JSON = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCHMARK.json")

#: Per-layer metric -> the end-to-end metric (and workload) it should move.
MOVES: Dict[str, str] = {
    "baker.parse_s": "work_s on compile; setup_s elsewhere",
    "baker.lower_s": "work_s on compile; setup_s elsewhere",
    "profiler.profile_s": "compiler.compile_s on compile",
    "profiler.reference_s": "rts.oracle_s on compile",
    "opt.scalar_s": "compiler.compile_s on compile",
    "opt.pac_s": "compiler.compile_s on compile",
    "opt.soar_s": "compiler.compile_s on compile",
    "opt.phr_s": "compiler.compile_s on compile",
    "opt.swc_s": "compiler.compile_s on compile",
    "opt.pac.combined": "sim_gbps on cells",
    "opt.pac.wide": "sim_gbps on cells",
    "opt.phr.elided": "sim_gbps on cells",
    "opt.swc.cached": "sim_gbps on cells up, serve.stale_tx_frac on churn up",
    "opt.swc.check_period": "sim_gbps on cells up, serve.stale_tx_frac on "
                            "churn up",
    "aggregation.form_s": "compiler.compile_s on compile",
    "aggregation.me_aggregates": "sim_gbps on cells via ME mapping",
    "ir.instrs": "compiler.compile_s on compile",
    "cg.codegen_s": "compiler.compile_s on compile",
    "cg.code_words": "code_words; sim_gbps at 1 ME",
    "cg.insns": "sim_gbps at 1 ME on cells",
    "rts.load_s": "work_s on cells and churn",
    "rts.sim_s": "work_s on cells and churn, tune.tune_s",
    "rts.sim_pkts_per_s": "work_s on cells and churn",
    "ixp.instrs_per_pkt": "sim_gbps at 1 ME on cells",
    "ixp.me_util": "sim_gbps at 1 ME on cells",
    "ixp.pkt_scratch_per_pkt": "sim_gbps on cells",
    "ixp.pkt_sram_per_pkt": "rts.fwd_gbps.firewall at 4 MEs on cells",
    "ixp.pkt_dram_per_pkt": "rts.fwd_gbps.mpls at 4 MEs on cells",
    "ixp.app_scratch_per_pkt": "sim_gbps on cells",
    "ixp.app_sram_per_pkt": "rts.fwd_gbps.firewall at 4 MEs on cells",
    "ixp.mem_per_pkt": "sim_gbps on cells",
    "ixp.occ.scratch": "sim_gbps on cells",
    "ixp.occ.sram": "rts.fwd_gbps.firewall on cells",
    "ixp.occ.dram": "rts.fwd_gbps.mpls on cells",
    "ixp.stall.exec": "sim_gbps at 1 ME on cells",
    "ixp.stall.mem_dram": "rts.fwd_gbps.mpls on cells",
    "ixp.stall.mem_sram": "rts.fwd_gbps.firewall on cells",
    "ixp.stall.ring_empty": "sim_gbps on cells",
    "ixp.stall.ring_full": "sim_gbps on cells",
    "ixp.stall.idle": "sim_gbps on cells",
    # zero on every workload but tune
    "ixp.fastforward.plan_s": "tune.tune_s on tune",
    "ixp.fastforward.run_s": "tune.tune_s on tune",
    "ixp.fastforward.cells": "tune.tune_s on tune",
    "ixp.fastforward.saturated_cells": "tune.tune_s on tune",
    "sweep.run_sweep_s": "tune.tune_s on tune",
    "sweep.jobs": "tune.tune_s on tune",
    "tune.explored": "tune.tune_s on tune",
    "tune.confirmed": "tune.tune_s on tune",
    "tune.pruned": "tune.tune_s on tune, keeping sim_gbps",
    "tune.compiles": "tune.tune_s on tune",
    "tune.tune_s": "work_s on tune",
    "tune.tuned_gbps": "sim_gbps on tune",
    "serve.updates": "serve.stale_tx_frac on churn",
    "serve.stale_per_update": "serve.stale_tx_frac on churn",
    "serve.run_s": "work_s on churn",
    "serve.stale_tx_frac": "none (churn result)",
    "serve.latency_p50_cycles": "none (churn result)",
    "serve.latency_p99_cycles": "none (churn result)",
    "serve.latency_samples": "none (sample count)",
    "serve.drop_frac": "none (churn result)",
    "compiler.compile_s": "work_s on compile",
    "rts.oracle_s": "work_s on compile",
    "rts.fwd_gbps.l3switch": "sim_gbps on cells",
    "rts.fwd_gbps.firewall": "sim_gbps on cells",
    "rts.fwd_gbps.mpls": "sim_gbps on cells",
    "bench.fail_frac": "correct on every workload",
    "bench.trace_overhead_frac": "none (tracing cost)",
    "bench.setup_host_s": "setup_s (host seconds, not converted)",
    "bench.work_host_s": "work_s (host seconds, not converted)",
    "bench.host_scale": "none (host speed: reference / median calibration "
                        "sample)",
}


def metrics(trace: bool) -> List[Tuple[str, str]]:
    """(name, unit) of the metrics a run reports, in ``BENCHMARK.json``
    order: the per-layer ones when traced, else the end-to-end ones."""
    with open(BENCHMARK_JSON) as fh:
        table = json.load(fh)["per_layer" if trace else "end_to_end"]
    return [(m["name"], m["unit"]) for m in table]
