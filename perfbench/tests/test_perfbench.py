"""Tests of the benchmark itself (run: ``python3 -m pytest perfbench/tests``).

Slices of the workloads keep them short: the slice shrinks the program
set and the windows through the workload module's constants, and runs
the same code paths the full benchmark runs.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import textwrap
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import core, hostclock, run, spec, workloads  # noqa: E402

#: Shrinks every workload to a few seconds; shared with the subprocess
#: runs so both sides measure the same slice.
SLICE = textwrap.dedent("""
    import functools
    from perfbench import core, workloads as w
    core.SETUP_REPEATS = 1
    w.APPS = ("l3switch", "mpls")
    w.LEVEL_ORDER = ["BASE", "SWC"]
    w.CELL_LEVELS, w.CELL_MES = ("SWC",), (2,)
    w.CELL_WARMUP, w.CELL_MEASURE = 100, 300
    w.CHURN_WINDOWS, w.CHURN_SPEC = 16, "route-flap:n=2,start=4,every=5"
    w.SearchSpace = functools.partial(
        w.SearchSpace, levels=("SWC",), check_periods=(16,),
        me_counts=(1, 2))
""")


@pytest.fixture
def sliced():
    saved = {name: getattr(workloads, name) for name in (
        "APPS", "LEVEL_ORDER", "CELL_LEVELS", "CELL_MES", "CELL_WARMUP",
        "CELL_MEASURE", "CHURN_WINDOWS",
        "CHURN_SPEC", "SearchSpace")}
    saved_repeats = core.SETUP_REPEATS
    exec(SLICE, {})
    yield
    for name, value in saved.items():
        setattr(workloads, name, value)
    core.SETUP_REPEATS = saved_repeats


def test_isolation_guard_refuses_dispatch_override():
    env = dict(os.environ, REPRO_SIM_DISPATCH="legacy")
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", "cells", "--seconds", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "REPRO_SIM_DISPATCH" in proc.stderr
    assert "{" not in proc.stdout


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "compile",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_host_clock_scales_each_piece_by_the_samples_around_it():
    clock = hostclock.HostClock()
    assert clock.scaled(2.0, 5.0) == 3.0  # nothing sampled: host seconds
    ref = hostclock.CALIBRATION_REF_S
    clock.samples = [(10.0, ref), (11.0, 3 * ref)]
    assert clock.scaled(9.0, 10.0) == pytest.approx(1.0)  # first's speed
    assert clock.scaled(10.0, 11.0) == pytest.approx(0.5)  # both samples'
    assert clock.scaled(11.0, 13.0) == pytest.approx(2 / 3)  # last's speed
    assert clock.scaled(9.5, 12.0) == pytest.approx(0.5 + 0.5 + 1 / 3)


def test_host_clock_samples_inside_work_and_excludes_itself():
    before = signal.getsignal(signal.SIGALRM)
    clock = hostclock.HostClock()
    clock.start()
    try:
        w0, t0 = clock.now(), time.perf_counter()
        while time.perf_counter() - t0 < 1.0:
            pass
        w1, wall = clock.now(), time.perf_counter() - t0
    finally:
        clock.stop()
    inside = [dt for w, dt in clock.samples if w0 < w < w1]
    assert len(inside) >= 2
    assert w1 - w0 == pytest.approx(wall - sum(inside), abs=1e-3)
    assert signal.getsignal(signal.SIGALRM) is before


def _subprocess_reports(hash_seed: str, trace: bool) -> dict:
    """Deterministic parts of every workload's report, from a fresh
    interpreter: outputs, non-time per-layer metrics, simulated e2e."""
    script = SLICE + textwrap.dedent("""
        import json
        from perfbench import spec
        from perfbench.hostclock import HostClock
        host = {n for n, u in spec.metrics(True) if u in ("s", "pkt/s")} | {
            "bench.trace_overhead_frac", "bench.host_scale"}
        out = {}
        for name in ("compile", "cells", "churn", "tune"):
            r = core.run_benchmark(name, w.Seeds.derive(3), 0.0, %s,
                                   HostClock())
            out[name] = {
                "outputs": r.outputs, "failed": r.failed,
                "layer": {k: v for k, v in r.layer.items() if k not in host},
                "e2e": {k: r.e2e[k] for k in ("code_words", "sim_gbps")}}
        print(json.dumps(out, sort_keys=True))
    """ % trace)
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), ROOT]))
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_simulated_numbers_repeat_across_runs_hash_seeds_and_tracing():
    """Untraced under one hash seed, traced under both: outputs, counts
    and simulated metrics are bit-identical, and nothing fails (each
    traced run also checks its traced pass against its untraced ones).
    The counts only a traced run has (occupancy and stall shares,
    fast-forward and sweep counts) are compared between the two traced
    runs."""
    plain = _subprocess_reports("1", False)
    traced = _subprocess_reports("2", True)
    traced_again = _subprocess_reports("1", True)
    assert set(plain) == {"compile", "cells", "churn", "tune"}
    for name in plain:
        for report in (plain, traced, traced_again):
            assert report[name]["failed"] == 0, name
        assert plain[name]["outputs"] == traced[name]["outputs"], name
        assert plain[name]["e2e"] == traced[name]["e2e"], name
        for key, value in plain[name]["layer"].items():
            assert traced[name]["layer"][key] == value, (name, key)
        assert traced[name] == traced_again[name], name
    # The traced-only counts are really there to compare.
    assert traced["cells"]["layer"]["ixp.occ.dram"] > 0
    assert traced["tune"]["layer"]["ixp.fastforward.cells"] > 0
    assert traced["tune"]["layer"]["sweep.jobs"] > 0


def test_corrupted_tx_payload_counts_as_failures(sliced, monkeypatch, capsys):
    from repro.ixp import rxtx

    real = rxtx.TxRecord

    def corrupt(time, payload, rx_port):
        flipped = bytes([payload[20] ^ 0xFF])
        return real(time, payload[:20] + flipped + payload[21:], rx_port)

    monkeypatch.setattr(rxtx, "TxRecord", corrupt)
    report = core.run_benchmark("compile", workloads.Seeds.derive(0), 0.0,
                                False, hostclock.HostClock())
    # Every oracle check and every rate cell fails; compiles succeed.
    kinds = [e.split(":", 1)[0] for e in report.errors]
    assert report.attempted == 10
    assert report.failed == 6
    assert sorted(set(kinds)) == ["cell", "oracle"]
    assert not report.correct

    assert run.main(["--workload", "cells", "--seconds", "0"]) == 1
    last = capsys.readouterr().out.strip().splitlines()[-1]
    result = json.loads(last)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == 2
    assert set(result["metrics"]) == {n for n, _u in spec.metrics(False)}


def test_result_line_has_every_metric(sliced, capsys):
    assert run.main(["--workload", "churn", "--seconds", "0",
                     "--trace", "1"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["failed"] == 0 and result["attempted"] == 3
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == dict(spec.metrics(True))
