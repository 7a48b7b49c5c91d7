"""Golden digests pinning the functional interpreter's observable output.

The interpreter is the profiler, the compiler's reference oracle and the
XScale stand-in at once, so any change to how it executes IR must leave
its results bit-identical. These digests were recorded with the
original instruction-at-a-time interpreter and must keep matching:

* the full :class:`ProfileData` (every counter, per-global load offsets,
  function invocations and per-line instruction counts) plus the Tx
  signature, for each bundled app over two traces;
* l3switch's global memory after ``load_system``, which covers the
  init blocks the XScale runs at boot against simulated SRAM/Scratch.
"""

import hashlib

import pytest

from repro.apps import get_app
from repro.baker import parse_and_check
from repro.baker.lowering import lower_program
from repro.compiler import compile_baker
from repro.ixp.chip import IXP2400
from repro.options import options_for
from repro.profiler.interpreter import run_reference
from repro.rts.loader import load_system

TRACES = {"200@1006": (200, 1006), "1000@1007": (1000, 1007)}

GOLDEN = {
    ("l3switch", "200@1006"):
        "00c0e3b1f88887ad22e801e70e9ee2b52b34c2f52a4bc48e5c489bc4e092811a",
    ("l3switch", "1000@1007"):
        "3f3499196a60d28177515cbd9f56c01c02f2331cdb1bb76114d962d4ad6048f1",
    ("firewall", "200@1006"):
        "a00c30940586776369c436b41c18aceef310471edb4cd5aa1406646a52b48c5b",
    ("firewall", "1000@1007"):
        "7c3e2459535d775423346b9c4f687ccd222755a4a1d1d3183418ebe7cc1c2816",
    ("mpls", "200@1006"):
        "b4fe128f1c303741ee3e2448f415d922fab159a251ed0c189cfd55a035808f54",
    ("mpls", "1000@1007"):
        "ab9e68a47535a26c9d35e9a1a8e0d8d595146ea1b239f3e86f35672e85fbe38b",
}

GOLDEN_L3SWITCH_BOOT = (
    "b6fc787fe8357f86a134b96906e2b8108a275f997a60a1fcec0f456333558a61")


def _counter(c):
    return sorted(c.items())


def profile_digest(result) -> str:
    """sha256 over a canonical rendering of a SystemResult."""
    p = result.profile
    canon = (
        p.packets_in, p.packets_out, p.packets_dropped,
        _counter(p.ppf_invocations), _counter(p.ppf_instrs),
        _counter(p.channel_puts), _counter(p.func_invocations),
        _counter(p.line_instrs),
        sorted((name, s.loads, s.stores, _counter(s.load_offsets))
               for name, s in p.global_stats.items()),
        result.tx_signature(),
    )
    return hashlib.sha256(repr(canon).encode()).hexdigest()


@pytest.mark.parametrize("app_name,trace_key", sorted(GOLDEN))
def test_reference_profile_matches_golden(app_name, trace_key):
    app = get_app(app_name)
    count, seed = TRACES[trace_key]
    mod = lower_program(parse_and_check(app.source, app.name))
    result = run_reference(mod, app.make_trace(count, seed=seed),
                           attribute_lines=True)
    assert profile_digest(result) == GOLDEN[(app_name, trace_key)]


def test_xscale_boot_globals_match_golden():
    app = get_app("l3switch")
    result = compile_baker(app.source, options_for("SWC"),
                           app.make_trace(200, seed=1006))
    chip = IXP2400(n_programmable_mes=2)
    layout = load_system(result, chip, n_mes=2)
    h = hashlib.sha256()
    for name, sym in sorted(result.mod.globals.items()):
        data = chip.memory.read_bytes(layout.global_space[name],
                                      layout.global_addr[name],
                                      sym.type.size_bytes())
        h.update(name.encode() + b"\0" + data)
    assert h.hexdigest() == GOLDEN_L3SWITCH_BOOT
