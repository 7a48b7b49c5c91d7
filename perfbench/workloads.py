"""The benchmark's four workloads, driven through ``repro``'s public API.

A workload has a set-up (traces, reference outputs, and the compiles it
does not time), a *pass*: an ordered list of timed operations, each one
a compile, an oracle check, a simulated cell, a service run or a tuning
run, and final operations that run once per run and are never timed.
Every operation returns plain data that is a pure function of the
inputs; the runner compares repeated passes (and the traced pass
against the untraced one) on that data bit for bit.

Measurement windows and seeds are the benchmark's own constants, never
the defaults of ``repro.rts`` or ``repro.sweep``, so a later change to
those defaults cannot silently change what is measured.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional

from repro import compiler
from repro.apps import get_app
from repro.baker import parse_and_check
from repro.baker.lowering import lower_program
from repro.ixp import fastforward
from repro.obs.profile import (
    StallProfiler,
    aggregate_attribution,
    attribution_shares,
    channel_utilization,
)
from repro.options import LEVEL_ORDER, options_for
from repro.profiler.interpreter import run_reference
from repro.rts import system
from repro.serve import harness
from repro.serve.churn import parse_churn_spec
from repro.sweep.cache import CompileCache
from repro.tune import driver as tune_driver
from repro.tune.space import SearchSpace

APPS = ("l3switch", "firewall", "mpls")

#: Profiling trace length (the sweep's); the held-out trace is longer so
#: a cell's rate depends less on which packets one seed happened to draw.
PROFILE_PACKETS, HELDOUT_PACKETS = 200, 1000
#: Converged cycle-accurate window (ROADMAP's reference: 600 + 2500).
CELL_WARMUP, CELL_MEASURE = 600, 2500
#: Offered load of every rate cell: above every cell's capacity.
OFFERED_GBPS = 3.0
#: Differential oracle: held-out packets replayed, MEs simulated.
ORACLE_PACKETS, ORACLE_MES = 60, 2

CELL_LEVELS = ("PAC", "SWC")
#: The compile workload's rate cells: each app's fully optimized program.
RATE_LEVEL = "SWC"
CELL_MES = (1, 4)

CHURN_SPEC = "route-flap:n=12,start=8,every=7"
CHURN_WINDOWS = 100

TUNE_APP = "mpls"
#: The tuner's profiling-trace seed, the one ``python -m repro.tune``
#: uses. The tuner picks between near-tied configurations, so its
#: winner (and with it the search's cost and memory) changes with the
#: profiling trace; a fixed seed measures one search. ``--profile-seed``
#: overrides it; the held-out seed still follows ``--seed``.
TUNE_PROFILE_SEED = 5


class CheckFailed(Exception):
    """An operation ran but its output is wrong."""


@dataclass
class Seeds:
    run: int
    profile: int
    measure: int

    @classmethod
    def derive(cls, seed: int, profile: Optional[int] = None,
               measure: Optional[int] = None,
               default_profile: Optional[int] = None) -> "Seeds":
        """Profiling and held-out seeds; they must differ."""
        if profile is None:
            profile = (default_profile if default_profile is not None
                       else 1000 + 2 * seed)
        if measure is None:
            measure = 1001 + 2 * seed
        if profile == measure:
            raise ValueError("profile and measure seeds must differ")
        return cls(seed, profile, measure)


@dataclass
class Op:
    label: str
    kind: str
    fn: Callable[[], Dict[str, object]]


# -- shared helpers -----------------------------------------------------------


def compile_counts(result) -> Dict[str, object]:
    """Deterministic per-layer counts of one compile."""
    images = list(result.images.values())
    pac = result.pac_result
    return {
        "code_words": sum(img.code_size for img in images),
        "insns": sum(len(img.insns) for img in images),
        "ir_instrs": sum(fn.instr_count()
                         for fn in result.mod.functions.values()),
        "me_aggregates": len(result.plan.me_aggregates),
        "pac_combined": (pac.combined_loads + pac.combined_stores
                         if pac else 0),
        "pac_wide": pac.wide_loads + pac.wide_stores if pac else 0,
        "phr_elided": (result.phr_result.elided_encaps
                       if result.phr_result else 0),
        "swc_cached": (len(result.swc_result.cached_names())
                       if result.swc_result else 0),
        "swc_check_period": (result.swc_result.check_period or 0
                             if result.swc_result else 0),
    }


def reference_outputs(app, trace) -> frozenset:
    """Every frame the functional reference (the unoptimized IR of the
    app's Baker source) transmits for the trace: a correct chip, at any
    level, transmits nothing else."""
    checked = parse_and_check(app.source, app.name)
    ref = run_reference(lower_program(checked), trace)
    return frozenset(ref.tx_signature())


def geomean(values: List[float]) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def run_summary(run, allowed: frozenset) -> Dict[str, object]:
    """Check and summarize one cycle-accurate cell."""
    if run.fastforward is not None:
        raise CheckFailed("cell was priced by fast-forward, not simulated")
    if run.packets_measured <= 0:
        raise CheckFailed("no packet forwarded in the measured window")
    bad = sum(1 for p in run.tx_payloads if p not in allowed)
    if bad:
        raise CheckFailed("%d transmitted frames differ from every "
                          "reference output" % bad)
    digest = hashlib.sha256(b"".join(sorted(run.tx_payloads))).hexdigest()
    return {
        "gbps": run.forwarding_gbps,
        "packets_measured": run.packets_measured,
        "packets_out": run.packets_out,
        "rx_offered": run.rx_offered,
        "rx_dropped": run.rx_dropped,
        "sim_cycles": run.sim_cycles,
        "instrs": sum(run.me_executed_instrs),
        "me_util": run.me_utilization,
        "access": list(run.access_profile.row()),
        "tx_digest": digest,
    }


def stall_view(shares: dict, channels: dict) -> Dict[str, float]:
    """Channel busy shares and thread-cycle stall shares of one run."""
    util = channel_utilization({"channels": channels})
    out = {"occ." + ch: util[ch] for ch in ("scratch", "sram", "dram")}
    out.update({"stall." + cat: shares[cat] for cat in shares})
    return out


# -- workloads ------------------------------------------------------------------


class Workload:
    """Base: subclasses fill :meth:`prepare` and :meth:`ops`."""

    name = ""
    #: Profiling seed when ``--profile-seed`` is not given (None: derive
    #: it from ``--seed``).
    default_profile_seed: Optional[int] = None

    def __init__(self, seeds: Seeds):
        self.seeds = seeds
        self.traced = False
        # Traced passes only: cell label -> stall_view of that run.
        self.occupancy: Dict[str, Dict[str, float]] = {}
        # Compiles the workload owns but does not time (set-up).
        self.setup_compiles: Dict[str, object] = {}

    def prepare(self) -> None:
        raise NotImplementedError

    def ops(self) -> List[Op]:
        raise NotImplementedError

    def finals(self) -> List[Op]:
        """Operations run once, after the timed passes."""
        return []

    def simulate(self, cell: str, result, trace, n_mes: int,
                 warmup: int, measure: int, allowed: frozenset):
        """One rate cell, labelled ``<app>/<level>@<n>``."""
        profiler = StallProfiler() if self.traced else None
        run = system.run_on_simulator(
            result, trace, n_mes=n_mes, warmup_packets=warmup,
            measure_packets=measure, offered_gbps=OFFERED_GBPS,
            profiler=profiler)
        summary = run_summary(run, allowed)
        summary["cell"] = cell
        if profiler is not None:
            shares = attribution_shares(aggregate_attribution(run.occupancy))
            self.occupancy[cell] = stall_view(
                shares, run.occupancy["channels"])
        return summary

    def describe(self) -> Dict[str, object]:
        return {"profile_seed": self.seeds.profile,
                "measure_seed": self.seeds.measure}


class CompileWorkload(Workload):
    """21 programs: compile and oracle-check; then, once per run, each
    app's SWC program in a converged 1-ME rate cell."""

    name = "compile"

    def prepare(self) -> None:
        self.traces = {}
        for name in APPS:
            app = get_app(name)
            self.traces[name] = (
                app.make_trace(PROFILE_PACKETS, seed=self.seeds.profile),
                app.make_trace(HELDOUT_PACKETS, seed=self.seeds.measure))
        self.allowed = {name: reference_outputs(get_app(name),
                                                self.traces[name][1])
                        for name in APPS}
        self.built: Dict[str, object] = {}

    def ops(self) -> List[Op]:
        ops = []
        for name in APPS:
            for level in LEVEL_ORDER:
                key = "%s/%s" % (name, level)
                ops.append(Op("compile:" + key, "compile",
                              self._compile(name, level, key)))
                ops.append(Op("oracle:" + key, "oracle",
                              self._oracle(name, key)))
        return ops

    def finals(self) -> List[Op]:
        # The rate shows the compiler's output quality, not its speed,
        # so it is measured once and kept out of work_s.
        return [Op("cell:%s/%s@1" % (name, RATE_LEVEL), "cell",
                   self._rate(name, "%s/%s" % (name, RATE_LEVEL)))
                for name in APPS]

    def _compile(self, name, level, key):
        def run():
            self.built.pop(key, None)
            ptrace = self.traces[name][0]
            result = compiler.compile_baker(get_app(name).source,
                                            options_for(level), ptrace)
            self.built[key] = result
            return compile_counts(result)
        return run

    def _oracle(self, name, key):
        def run():
            result = _built(self.built, key)
            ok = system.verify_against_reference(
                result, self.traces[name][1], packets=ORACLE_PACKETS,
                n_mes=ORACLE_MES)
            if not ok:
                raise CheckFailed("oracle mismatch for " + key)
            return {"ok": True}
        return run

    def _rate(self, name, key):
        def run():
            result = _built(self.built, key)
            return self.simulate(key + "@1", result, self.traces[name][1], 1,
                                 CELL_WARMUP, CELL_MEASURE,
                                 self.allowed[name])
        return run


def _built(built: Dict[str, object], key: str):
    if key not in built:
        raise CheckFailed("no compiled program for %s (compile failed)" % key)
    return built[key]


class CellsWorkload(Workload):
    """12 converged cycle-accurate cells at 3 Gbps offered."""

    name = "cells"

    def prepare(self) -> None:
        self.traces, self.allowed, self.results = {}, {}, {}
        self.setup_compiles = {}
        for name in APPS:
            app = get_app(name)
            ptrace = app.make_trace(PROFILE_PACKETS, seed=self.seeds.profile)
            mtrace = app.make_trace(HELDOUT_PACKETS, seed=self.seeds.measure)
            self.traces[name] = mtrace
            for level in CELL_LEVELS:
                result = compiler.compile_baker(app.source,
                                                options_for(level), ptrace)
                self.results[(name, level)] = result
                self.setup_compiles["%s/%s" % (name, level)] = result
            self.allowed[name] = reference_outputs(app, mtrace)

    def ops(self) -> List[Op]:
        ops = []
        for name in APPS:
            for level in CELL_LEVELS:
                for n in CELL_MES:
                    cell = "%s/%s@%d" % (name, level, n)
                    ops.append(Op("cell:" + cell, "cell",
                                  self._cell(cell, name, level, n)))
        return ops

    def _cell(self, cell, name, level, n):
        def run():
            return self.simulate(cell, self.results[(name, level)],
                                 self.traces[name], n, CELL_WARMUP,
                                 CELL_MEASURE, self.allowed[name])
        return run


class ChurnWorkload(Workload):
    """l3switch SWC on 3 MEs serving 2.5 Gbps of streaming traffic
    while the control plane flaps routes."""

    name = "churn"

    def prepare(self) -> None:
        self.spec = parse_churn_spec(CHURN_SPEC)
        self.cfg = harness.ServeConfig(
            app="l3switch", level="SWC", n_mes=3, windows=CHURN_WINDOWS,
            offered_gbps=2.5, churn=[self.spec],
            traffic_seed=self.seeds.measure, churn_seed=self.seeds.run)
        # The same compile run_service performs (its profiling trace is
        # the app's default), so code size is attributable to this run.
        app = harness.build_app(self.cfg.app, self.cfg.table_seed)
        self.setup_compiles = {"l3switch/SWC": compiler.compile_baker(
            app.source, options_for(self.cfg.level),
            app.make_trace(self.cfg.profile_packets))}

    def ops(self) -> List[Op]:
        return [Op("serve:l3switch/SWC@3", "serve", self._serve)]

    def _serve(self) -> Dict[str, object]:
        cfg = self.cfg
        if self.traced:
            cfg = replace(cfg, profile=True)
        res = harness.run_service(cfg)
        if len(res.applied) != self.spec.count:
            raise CheckFailed("applied %d of %d scheduled updates"
                              % (len(res.applied), self.spec.count))
        if res.occupancy is not None:
            self.occupancy["l3switch/SWC@3"] = stall_view(
                res.occupancy["shares"], res.occupancy["channels"])
        s = res.bench["summary"]
        lat = s["latency"]
        return {
            "gbps": s["mean_rate_gbps"],
            "rx_offered": s["rx_offered"],
            "tx_packets": s["tx_packets"],
            "drops": s["drops"],
            "updates": s["updates_applied"],
            "stale_tx": s["stale_tx_total"],
            "latency_p50": lat["p50"],
            "latency_p99": lat["p99"],
            "latency_count": lat["count"],
            "truncated": s["latencies_truncated"],
        }

    def describe(self) -> Dict[str, object]:
        return {"profile_seed": "app default (run_service)",
                "traffic_seed": self.seeds.measure,
                "churn_seed": self.seeds.run}


class TuneWorkload(Workload):
    """``run_tune`` over mpls' default space, then the winner re-measured
    on the held-out trace at the converged window."""

    name = "tune"
    default_profile_seed = TUNE_PROFILE_SEED

    def prepare(self) -> None:
        app = get_app(TUNE_APP)
        self.ptrace = app.make_trace(PROFILE_PACKETS, seed=self.seeds.profile)
        self.mtrace = app.make_trace(HELDOUT_PACKETS, seed=self.seeds.measure)
        self.space = SearchSpace(app=TUNE_APP)
        self.outcome = None
        self.allowed = reference_outputs(app, self.mtrace)

    def ops(self) -> List[Op]:
        return [Op("tune:" + TUNE_APP, "tune", self._tune),
                Op("winner:" + TUNE_APP, "winner", self._winner)]

    def _tune(self) -> Dict[str, object]:
        self.outcome = None
        # Fast-forward plans are memoized per process; a user running
        # the tuner pays for them every time, so every pass does too.
        fastforward._PLAN_MEMO.clear()
        cache = CompileCache(enabled=False)
        outcome = tune_driver.run_tune(
            self.space, n_jobs=1, cache=cache,
            trace_packets=PROFILE_PACKETS, trace_seed=self.seeds.profile)
        if outcome.best is None:
            raise CheckFailed("tuner confirmed no configuration")
        self.outcome = outcome
        return {
            "best": outcome.best.config.label(),
            "best_mes": outcome.best.n_mes,
            "confirmed_gbps": outcome.best.confirmed_gbps,
            "explored": sum(1 for c in outcome.cells
                            if c.explore_gbps is not None),
            "confirmed": sum(1 for c in outcome.cells
                             if c.confirmed_gbps is not None),
            "pruned": len(outcome.pruned),
            "compiles": cache.misses,
        }

    def _winner(self) -> Dict[str, object]:
        if self.outcome is None:
            raise CheckFailed("no tuning outcome (tune failed)")
        best = self.outcome.best
        app = get_app(TUNE_APP)
        result = compiler.compile_baker(
            app.source, options_for(best.config.level,
                                    **best.config.override_dict()),
            self.ptrace, target_gbps=best.config.target_gbps)
        cell = "%s/%s@%d" % (TUNE_APP, best.config.label(), best.n_mes)
        out = self.simulate(cell, result, self.mtrace,
                            best.n_mes, CELL_WARMUP, CELL_MEASURE,
                            self.allowed)
        out["compile"] = compile_counts(result)
        return out


WORKLOADS = {w.name: w for w in (CompileWorkload, CellsWorkload,
                                 ChurnWorkload, TuneWorkload)}
