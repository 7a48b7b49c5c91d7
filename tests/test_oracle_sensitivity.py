"""Meta-tests of the differential oracle: it must actually catch wrong
code, and the XScale execution paths must carry their weight."""

from collections import Counter

import pytest

from repro.cg import isa
from repro.compiler import compile_baker
from repro.ixp.chip import IXP2400
from repro.ixp.rxtx import RxEngine, TxEngine
from repro.options import options_for
from repro.profiler.trace import ipv4_trace
from repro.rts import system
from repro.rts.loader import load_system
from repro.rts.system import run_oracle, verify_against_reference
from tests.samples import ETHER_IPV4_PROTOCOLS, MINI_FORWARDER

MACS = [0x0A0000000001, 0x0A0000000002, 0x0A0000000003]

# Forwards every frame except ethertype 0x0999, which it drops.
DROPPER = ETHER_IPV4_PROTOCOLS + r"""
module m {
  ppf go(ether_pkt *ph) from rx {
    if (ph->type == 0x0999) {
      packet_drop(ph);
    } else {
      channel_put(tx, ph);
    }
  }
}
"""


def test_oracle_detects_corrupted_code():
    """Flip one ALU immediate in the generated image: the differential
    check must fail (if it passed, the oracle would be vacuous)."""
    trace = ipv4_trace(40, [0xC0A80101], MACS, seed=3)
    result = compile_baker(MINI_FORWARDER, options_for("SWC"), trace)
    image = next(iter(result.images.values()))
    victim = next(
        i for i in image.insns
        if isinstance(i, isa.Alu) and isinstance(i.b, isa.Imm) and i.op == "sub"
        and i.b.value == 1
    )
    victim.b = isa.Imm(2)  # TTL now decremented by 2
    assert not verify_against_reference(result, trace, packets=30)
    victim.b = isa.Imm(1)
    assert verify_against_reference(result, trace, packets=30)


def test_oracle_fails_fast_on_lost_frames():
    """Point the drop test at IPv4 (0x0800): every frame is dropped. The
    oracle must fail, and stop once the chip is quiescent rather than
    polling empty rings up to its 100e6-cycle cap."""
    trace = ipv4_trace(30, [0xC0A80101], MACS, seed=3)
    result = compile_baker(DROPPER, options_for("SWC"), trace)
    image = next(iter(result.images.values()))
    victims = [i for i in image.insns
               if isinstance(i, isa.Immed) and i.value == 0x0999]
    assert victims
    for insn in victims:
        insn.value = 0x0800
    chip, got, want = run_oracle(result, trace, packets=30)
    assert got == [] and len(want) == 30
    assert chip.quiescent()
    assert chip.now < 1e6
    assert not verify_against_reference(result, trace, packets=30)


class _OneExtraFrameRx(RxEngine):
    """Injects the finite trace plus a copy of its last packet, so the
    chip transmits one frame more than the reference -- last, after
    the expected count is already reached."""

    def __init__(self, chip, trace, **kw):
        super().__init__(chip, trace, **kw)
        self.packets.append(self.packets[-1])
        self.max_packets += 1


def test_oracle_catches_extra_frame_after_expected_count(monkeypatch):
    trace = ipv4_trace(30, [0xC0A80101], MACS, seed=3)
    result = compile_baker(MINI_FORWARDER, options_for("SWC"), trace)
    assert verify_against_reference(result, trace, packets=30)
    monkeypatch.setattr(system, "RxEngine", _OneExtraFrameRx)
    chip, got, want = run_oracle(result, trace, packets=30)
    extra = Counter(got) - Counter(want)
    assert len(got) == len(want) + 1
    assert list(extra) == [chip.tx.records[-1].payload]
    assert not verify_against_reference(result, trace, packets=30)


class _RepeatingRx(RxEngine):
    """Same packet budget, but ``repeat=True``: never quiescent."""

    def __init__(self, chip, trace, **kw):
        kw["repeat"] = True
        super().__init__(chip, trace, **kw)


def test_oracle_drain_cap_holds_without_quiescence(monkeypatch):
    """A chip that never quiesces still gets exactly the fixed drain
    window after the expected count, and the verdict is unchanged."""
    trace = ipv4_trace(30, [0xC0A80101], MACS, seed=3)
    result = compile_baker(MINI_FORWARDER, options_for("SWC"), trace)
    monkeypatch.setattr(system, "RxEngine", _RepeatingRx)
    chip, got, want = run_oracle(result, trace, packets=30)
    assert got == want
    assert not chip.quiescent()
    assert chip.now >= 300_000


def test_oracle_detects_wrong_route():
    """Corrupt a next-hop MAC in simulated SRAM after load: outputs must
    diverge from the reference."""
    from repro.baker.lowering import lower_program
    from repro.profiler.interpreter import run_reference

    app_src = MINI_FORWARDER
    trace = ipv4_trace(30, [0xC0A80101], MACS, seed=3)
    result = compile_baker(app_src, options_for("PHR"), trace)
    ref = run_reference(lower_program(result.checked), trace.repeated(30))

    chip = IXP2400(n_programmable_mes=2)
    load_system(result, chip, n_mes=2)
    # Corrupt mac_addrs[0] (used as the rewritten source MAC).
    chip.memory.write_words("sram", chip.symbols["mac_addrs"], [0xDEAD, 0xBEEF])
    rx = RxEngine(chip, trace.repeated(30), offered_gbps=1.0, max_packets=30,
                  repeat=False)
    tx = TxEngine(chip)
    chip.attach_traffic(rx, tx)
    chip.run(20_000_000, stop=lambda: tx.packets_out() >= ref.profile.packets_out)
    chip.run_for(300_000)
    assert sorted(r.payload for r in tx.records) != ref.tx_signature()


def test_xscale_packet_copy_path():
    """A cold PPF that copies packets (mapped to the XScale) must produce
    byte-identical results to the reference -- exercising SimPacket.copy
    against simulated memory."""
    src = (
        ETHER_IPV4_PROTOCOLS
        + """
module m {
  channel mirror_cc;
  ppf fast(ether_pkt *ph) from rx {
    if (ph->type == 0x0999) {
      channel_put(mirror_cc, ph);
    } else {
      channel_put(tx, ph);
    }
  }
  // Cold path: duplicate the frame (mirror port) and send both out.
  ppf mirror(ether_pkt *ph) from mirror_cc {
    ether_pkt *dup = packet_copy(ph);
    dup->src = 0x0a0000009999;
    channel_put(tx, dup);
    channel_put(tx, ph);
  }
}
"""
    )
    from repro.profiler.trace import Trace, TracePacket, build_ethernet

    packets = []
    for i in range(40):
        ethertype = 0x0999 if i % 40 == 7 else 0x0800
        packets.append(TracePacket(
            build_ethernet(0x0C0000000001, 0x020000000000 | i, ethertype,
                           bytes([i & 0xFF] * 30)), i % 3))
    trace = Trace(packets)
    result = compile_baker(src, options_for("SWC"), trace)
    xscale_ppfs = [p for a in result.plan.xscale_aggregates for p in a.ppfs]
    assert "m.mirror" in xscale_ppfs
    assert verify_against_reference(result, trace, packets=40)
