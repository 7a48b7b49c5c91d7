"""Span recording around the public entry points of each layer.

The benchmark never edits ``src/``: a traced pass swaps the module
attributes below for thin wrappers, records one span per call
(name, start, end, parent span, the operation it belongs to) in memory,
and restores the originals afterwards. Each layer's self time is its
spans' duration minus the part covered by their direct child spans.

Patch points name the module whose *global* the caller looks up:
``repro.compiler`` bound ``run_reference`` at import, so its profiling
calls are ``profiler.profile``, while ``verify_against_reference``
imports ``run_reference`` from ``repro.profiler.interpreter`` at call
time, so the oracle's calls are ``profiler.reference``.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple


def _fastforward_mode(run) -> Dict[str, object]:
    return {"mode": (getattr(run, "fastforward", None) or {}).get("mode")}


def _job_count(jobs, *_a, **_kw) -> Dict[str, object]:
    return {"jobs": len(jobs)}


# (module, attribute, span name, tag-from-result, tag-from-arguments)
PATCH_POINTS: List[Tuple[str, str, str, Optional[Callable],
                         Optional[Callable]]] = [
    ("repro.compiler", "compile_baker", "compiler.compile", None, None),
    ("repro.serve.harness", "compile_baker", "compiler.compile", None, None),
    ("repro.compiler", "parse_and_check", "baker.parse", None, None),
    ("repro.compiler", "lower_program", "baker.lower", None, None),
    ("repro.baker.lowering", "lower_program", "baker.lower", None, None),
    ("repro.compiler", "run_reference", "profiler.profile", None, None),
    ("repro.profiler.interpreter", "run_reference", "profiler.reference",
     None, None),
    ("repro.compiler", "run_scalar_pipeline", "opt.scalar", None, None),
    ("repro.compiler", "scalar_optimize_function", "opt.scalar", None, None),
    ("repro.compiler", "form_aggregates", "aggregation.form", None, None),
    ("repro.compiler", "apply_plan", "aggregation.form", None, None),
    ("repro.opt.pac", "run", "opt.pac", None, None),
    ("repro.opt.soar", "run", "opt.soar", None, None),
    ("repro.opt.phr", "run", "opt.phr", None, None),
    ("repro.opt.swc", "select_candidates", "opt.swc", None, None),
    ("repro.opt.swc", "enforce_check_period", "opt.swc", None, None),
    ("repro.opt.swc", "apply", "opt.swc", None, None),
    ("repro.cg.assemble", "generate_images", "cg.codegen", None, None),
    ("repro.rts.system", "run_on_simulator", "rts.sim", None, None),
    ("repro.rts.system", "verify_against_reference", "rts.verify",
     None, None),
    ("repro.rts.system", "load_system", "rts.load", None, None),
    ("repro.serve.harness", "load_system", "rts.load", None, None),
    ("repro.ixp.fastforward", "load_system", "rts.load", None, None),
    ("repro.ixp.fastforward", "build_plan", "ixp.fastforward.plan",
     None, None),
    ("repro.ixp.fastforward", "run_fastforward", "ixp.fastforward.run",
     _fastforward_mode, None),
    ("repro.tune.driver", "run_sweep", "sweep.run_sweep", None, _job_count),
    ("repro.serve.harness", "run_service", "serve.run_service", None, None),
    ("repro.tune.driver", "run_tune", "tune.run_tune", None, None),
]


class SpanRecorder:
    """In-memory span list; one recorder per traced pass."""

    def __init__(self):
        self.spans: List[Dict[str, object]] = []
        self._stack: List[int] = []
        self.label: str = ""

    @contextmanager
    def span(self, name: str, tags: Optional[Dict[str, object]] = None):
        idx = len(self.spans)
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": self._stack[-1] if self._stack else None,
               "label": self.label, "tags": dict(tags or {})}
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def wrap(self, name: str, fn: Callable, on_result=None, on_args=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tags = on_args(*args, **kwargs) if on_args else None
            with self.span(name, tags) as rec:
                out = fn(*args, **kwargs)
                if on_result is not None:
                    rec["tags"].update(on_result(out))
                return out
        return traced

    @contextmanager
    def installed(self):
        """Swap every patch point for its wrapper; always restore."""
        saved = []
        try:
            for mod_name, attr, name, on_result, on_args in PATCH_POINTS:
                mod = importlib.import_module(mod_name)
                orig = getattr(mod, attr)
                saved.append((mod, attr, orig))
                setattr(mod, attr, self.wrap(name, orig, on_result, on_args))
            yield self
        finally:
            for mod, attr, orig in reversed(saved):
                setattr(mod, attr, orig)

    # -- derived views ----------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Span name -> summed self time (duration minus direct children)."""
        child = defaultdict(float)
        for rec in self.spans:
            if rec["parent"] is not None:
                child[rec["parent"]] += rec["end"] - rec["start"]
        out: Dict[str, float] = defaultdict(float)
        for idx, rec in enumerate(self.spans):
            out[rec["name"]] += rec["end"] - rec["start"] - child[idx]
        return dict(out)

    def named(self, name: str) -> List[Dict[str, object]]:
        return [rec for rec in self.spans if rec["name"] == name]

    def dump(self, path: str, header: Dict[str, object]) -> None:
        t0 = self.spans[0]["start"] if self.spans else 0.0
        rows = [{"id": i, "name": r["name"], "parent": r["parent"],
                 "label": r["label"], "start_s": r["start"] - t0,
                 "end_s": r["end"] - t0, "tags": r["tags"]}
                for i, r in enumerate(self.spans)]
        with open(path, "w") as fh:
            json.dump({"header": header, "spans": rows}, fh, indent=0,
                      sort_keys=True, default=str)
            fh.write("\n")
