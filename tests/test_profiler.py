"""Tests for the functional profiler: packet model, traces, interpreter."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baker import types as T
from repro.baker.packetmodel import HEADROOM_BYTES, META_RX_PORT
from repro.ir import instructions as I
from repro.ir.module import IRFunction
from repro.profiler.hostpackets import HostPacket, get_bits, set_bits
from repro.profiler.interpreter import InterpError, Interpreter, run_reference
from repro.profiler.trace import (
    Trace,
    TracePacket,
    build_ethernet,
    build_ipv4,
    build_mpls_stack,
    build_udp,
    ipv4_checksum,
    ipv4_trace,
    mpls_trace,
    udp_flow_trace,
)
from tests.ir_helpers import lower
from tests.samples import ETHER_IPV4_PROTOCOLS, MINI_FORWARDER, PASSTHROUGH

MACS = [0x0A0000000001, 0x0A0000000002, 0x0A0000000003]


# -- bit access primitives ------------------------------------------------------


def test_get_set_bits_roundtrip_simple():
    buf = bytearray(8)
    set_bits(buf, 4, 12, 0xABC)
    assert get_bits(buf, 4, 12) == 0xABC


def _get_bits_bitwise(buf, bit_off, width):
    """Bit-at-a-time reference for get_bits."""
    out = 0
    for i in range(width):
        bit = bit_off + i
        out = (out << 1) | ((buf[bit >> 3] >> (7 - (bit & 7))) & 1)
    return out


def _set_bits_bitwise(buf, bit_off, width, value):
    """Bit-at-a-time reference for set_bits."""
    for i in range(width):
        bit = bit_off + i
        mask = 1 << (7 - (bit & 7))
        if (value >> (width - 1 - i)) & 1:
            buf[bit >> 3] |= mask
        else:
            buf[bit >> 3] &= ~mask & 0xFF


@settings(max_examples=200)
@given(
    off=st.integers(min_value=0, max_value=63),
    width=st.integers(min_value=1, max_value=64),
    data=st.data(),
)
def test_get_set_bits_roundtrip_property(off, width, data):
    value = data.draw(st.integers(min_value=0, max_value=(1 << width) - 1))
    init = data.draw(st.binary(min_size=16, max_size=16))
    buf = bytearray(init)
    assert get_bits(buf, off, width) == _get_bits_bitwise(buf, off, width)
    set_bits(buf, off, width, value)
    assert get_bits(buf, off, width) == value
    want = bytearray(init)
    _set_bits_bitwise(want, off, width, value)
    assert buf == want
    # Bytes wholly outside the field are untouched.
    first, last = off >> 3, (off + width - 1) >> 3
    assert buf[:first] == init[:first]
    assert buf[last + 1:] == init[last + 1:]


def test_set_bits_leaves_neighbors():
    buf = bytearray(b"\xff" * 4)
    set_bits(buf, 8, 8, 0)
    assert buf == bytearray(b"\xff\x00\xff\xff")


# -- HostPacket --------------------------------------------------------------------


def test_packet_field_access_big_endian():
    pkt = HostPacket(b"\x12\x34\x56\x78")
    assert pkt.load_bits(0, 16) == 0x1234
    pkt.store_bits(16, 16, 0xABCD)
    assert pkt.payload() == b"\x12\x34\xab\xcd"


def test_packet_encap_decap():
    pkt = HostPacket(b"payload!")
    pkt.encap(14)
    assert pkt.length == 22
    assert pkt.head == HEADROOM_BYTES - 14
    pkt.decap(14)
    assert pkt.payload() == b"payload!"


def test_packet_decap_too_far():
    pkt = HostPacket(b"abc")
    with pytest.raises(ValueError):
        pkt.decap(4)


def test_packet_encap_exhausts_headroom():
    pkt = HostPacket(b"x")
    with pytest.raises(ValueError):
        pkt.encap(HEADROOM_BYTES + 1)


def test_packet_tail_ops():
    pkt = HostPacket(b"abcd")
    pkt.add_tail(4)
    assert pkt.length == 8
    pkt.remove_tail(6)
    assert pkt.payload() == b"ab"


def test_packet_copy_independent():
    pkt = HostPacket(b"\x00" * 4, rx_port=2)
    dup = pkt.copy()
    dup.store_bits(0, 8, 0xFF)
    dup.meta[META_RX_PORT] = 1
    assert pkt.load_bits(0, 8) == 0
    assert pkt.meta[META_RX_PORT] == 2
    assert dup.uid != pkt.uid


# -- trace builders -----------------------------------------------------------------


def test_ipv4_checksum_verifies():
    hdr = build_ipv4(0x0A000001, 0xC0A80101)[:20]
    assert ipv4_checksum(hdr) == 0


def test_build_ethernet_pads_to_64():
    frame = build_ethernet(1, 2, 0x0800, b"")
    assert len(frame) == 64


def test_build_mpls_stack_bottom_bit():
    stack = build_mpls_stack([100, 200])
    first = int.from_bytes(stack[0:4], "big")
    second = int.from_bytes(stack[4:8], "big")
    assert (first >> 12) == 100 and not (first >> 8) & 1
    assert (second >> 12) == 200 and (second >> 8) & 1


def test_ipv4_trace_deterministic():
    a = ipv4_trace(20, [1, 2, 3], MACS, seed=7)
    b = ipv4_trace(20, [1, 2, 3], MACS, seed=7)
    assert [p.data for p in a] == [p.data for p in b]


def test_trace_repeated():
    t = ipv4_trace(3, [1], MACS).repeated(10)
    assert len(t) == 10
    assert t.packets[3].data == t.packets[0].data


def test_udp_flow_trace_shape():
    flows = [(0x0A000001, 0xC0A80101, 1000, 80, 6)]
    t = udp_flow_trace(5, MACS, flows)
    frame = t.packets[0].data
    assert len(frame) == 64
    assert frame[23] == 6  # protocol byte


def test_mpls_trace_stack_depth():
    t = mpls_trace(4, MACS, [64, 65], stack_depth=2)
    frame = t.packets[0].data
    assert frame[12:14] == b"\x88\x47"
    first_entry = int.from_bytes(frame[14:18], "big")
    assert not (first_entry >> 8) & 1  # not bottom-of-stack


# -- interpreter --------------------------------------------------------------------


def test_passthrough_forwards_everything():
    mod = lower(PASSTHROUGH)
    trace = ipv4_trace(10, [0xC0A80101], MACS)
    res = run_reference(mod, trace)
    assert res.profile.packets_in == 10
    assert res.profile.packets_out == 10
    assert res.tx_payloads()[0] == trace.packets[0].data


def test_forwarder_routes_and_rewrites():
    mod = lower(MINI_FORWARDER)
    trace = ipv4_trace(20, [0xC0A80101], MACS, arp_fraction=0.0)
    res = run_reference(mod, trace)
    assert res.profile.packets_out == 20
    out = res.tx[0].payload()
    # New source MAC installed from mac_addrs[0]:
    assert out[6:12] == (0x0A0000000001).to_bytes(6, "big")
    # TTL decremented from 64 to 63 (IPv4 TTL at byte 14+8):
    assert out[22] == 63


def test_arp_packets_copied_and_dropped():
    mod = lower(MINI_FORWARDER)
    trace = ipv4_trace(40, [0xC0A80101], MACS, arp_fraction=0.3, seed=9)
    res = run_reference(mod, trace)
    p = res.profile
    arps = p.ppf_invocations["l3_switch.arp_handler"]
    assert arps > 0
    assert p.packets_dropped == arps
    # ARP frames bridge out (copy went to the handler), so out == in.
    assert p.packets_out == p.packets_in
    # Shared counter updated through the critical section:
    interp_val = res.profile.global_stats["arp_seen"].stores
    assert interp_val == arps  # one store per handler call (init excluded)


def test_init_blocks_run():
    mod = lower(MINI_FORWARDER)
    interp = Interpreter(mod)
    interp.run_inits()
    assert interp.globals.load("arp_seen", 0, 4) == 0


def test_global_init_values_installed():
    mod = lower(MINI_FORWARDER)
    interp = Interpreter(mod)
    assert interp.globals.load("mac_addrs", 0, 8) == 0x0A0000000001
    assert interp.globals.load("mac_addrs", 8, 8) == 0x0A0000000002


def test_profile_costs_positive():
    mod = lower(MINI_FORWARDER)
    res = run_reference(mod, ipv4_trace(10, [1], MACS))
    p = res.profile
    assert p.ppf_cost_per_packet("l3_switch.l2_clsfr") > 5
    assert p.channel_utilization("tx") == 1.0


def test_interpreter_fuel_guard():
    src = (
        ETHER_IPV4_PROTOCOLS
        + "module m { ppf p(ether_pkt *ph) from rx { while (true) { } channel_put(tx, ph); } }"
    )
    mod = lower(src)
    interp = Interpreter(mod, fuel=10_000)
    with pytest.raises(InterpError):
        interp.run_trace(ipv4_trace(1, [1], MACS))


# -- error contract: each of these must raise InterpError ---------------------------


def _with_function(mod, fn):
    mod.functions[fn.name] = fn
    return Interpreter(mod)


def test_undefined_temp_raises():
    fn = IRFunction("bad", "func", T.U32)
    x = fn.new_temp(T.U32, "x")
    fn.params.append(x)
    undefined = fn.new_temp(T.U32, "u")
    out = fn.new_temp(T.U32, "out")
    bb = fn.new_block("entry")
    bb.append(I.BinOp("add", out, x, undefined))
    bb.terminate(I.Ret(out))
    interp = _with_function(lower(PASSTHROUGH), fn)
    with pytest.raises(InterpError, match="undefined temp"):
        interp.call("bad", [1])


def test_ordered_compare_of_packet_handles_raises():
    fn = IRFunction("bad", "func", T.BOOL)
    a = fn.new_temp(T.RAW_PACKET, "a")
    b = fn.new_temp(T.RAW_PACKET, "b")
    fn.params.extend([a, b])
    out = fn.new_temp(T.BOOL, "out")
    bb = fn.new_block("entry")
    bb.append(I.Cmp("lt_u", out, a, b))
    bb.terminate(I.Ret(out))
    interp = _with_function(lower(PASSTHROUGH), fn)
    with pytest.raises(InterpError, match="packet handles"):
        interp.call("bad", [HostPacket(b"\x00"), HostPacket(b"\x01")])


GLOBAL_TABLE = (
    "u32 tbl[4];"
    " u32 get(u32 i) { return tbl[i]; }"
    " void put(u32 i) { tbl[i] = 7; }"
    + PASSTHROUGH
)


def test_out_of_bounds_global_load_raises():
    interp = Interpreter(lower(GLOBAL_TABLE))
    assert interp.call("get", [3]) == 0
    with pytest.raises(InterpError, match="out-of-bounds load"):
        interp.call("get", [4])


def test_out_of_bounds_global_store_raises():
    interp = Interpreter(lower(GLOBAL_TABLE))
    interp.call("put", [3])
    assert interp.call("get", [3]) == 7
    with pytest.raises(InterpError, match="out-of-bounds store"):
        interp.call("put", [1000])


def test_fuel_exhausted_in_called_function():
    src = (
        ETHER_IPV4_PROTOCOLS
        + "u32 spin(u32 x) { while (x > 0) { x = x + 1; } return x; }"
        + " module m { ppf p(ether_pkt *ph) from rx {"
        + " ph->type = spin(1); channel_put(tx, ph); } }"
    )
    interp = Interpreter(lower(src), fuel=10_000)
    with pytest.raises(InterpError, match="fuel"):
        interp.run_trace(ipv4_trace(1, [1], MACS))


def test_fuel_exhausted_in_init_block():
    src = (
        ETHER_IPV4_PROTOCOLS
        + "shared u32 n = 0;"
        + " module m { ppf p(ether_pkt *ph) from rx { channel_put(tx, ph); }"
        + " init { while (true) { n = n + 1; } } }"
    )
    interp = Interpreter(lower(src), fuel=10_000)
    with pytest.raises(InterpError, match="fuel"):
        interp.run_inits()


def test_call_function_directly():
    mod = lower(MINI_FORWARDER)
    interp = Interpreter(mod)
    assert interp.call("mix", [0]) == 0
    assert interp.call("mix", [1]) == ((1 ^ 0) * 0x45D9F3B) & 0xFFFFFFFF


def test_div_by_zero_raises():
    mod = lower("u32 f(u32 a) { return 10 / a; }" + PASSTHROUGH)
    interp = Interpreter(mod)
    with pytest.raises(InterpError):
        interp.call("f", [0])


def test_signed_arithmetic():
    mod = lower("int f(int a, int b) { return a / b; }" + PASSTHROUGH)
    interp = Interpreter(mod)
    assert interp.call("f", [7 & 0xFFFFFFFF, (-2) & 0xFFFFFFFF]) == (-3) & 0xFFFFFFFF


def test_signed_compare():
    mod = lower("bool f(int a, int b) { return a < b; }" + PASSTHROUGH)
    interp = Interpreter(mod)
    assert interp.call("f", [(-1) & 0xFFFFFFFF, 1]) == 1


def test_unsigned_compare():
    mod = lower("bool f(u32 a, u32 b) { return a < b; }" + PASSTHROUGH)
    interp = Interpreter(mod)
    assert interp.call("f", [0xFFFFFFFF, 1]) == 0


def test_local_array_roundtrip():
    mod = lower(
        "u32 f(u32 x) { u32 buf[4]; buf[1] = x; buf[2] = buf[1] + 1; return buf[2]; }"
        + PASSTHROUGH
    )
    interp = Interpreter(mod)
    assert interp.call("f", [41]) == 42


def test_local_array_bounds_checked():
    mod = lower("u32 f(u32 i) { u32 buf[2]; return buf[i]; }" + PASSTHROUGH)
    interp = Interpreter(mod)
    with pytest.raises(InterpError):
        interp.call("f", [5])


def test_u64_arithmetic_wraps():
    mod = lower("u64 f(u64 a) { return a + 1; }" + PASSTHROUGH)
    interp = Interpreter(mod)
    assert interp.call("f", [0xFFFFFFFFFFFFFFFF]) == 0


def test_dynamic_demux_decap():
    # ipv4 demux is ihl << 2, exercised by decapping ether then ipv4.
    src = (
        ETHER_IPV4_PROTOCOLS
        + """
protocol udp {
  sport : 16;
  dport : 16;
  len : 16;
  csum : 16;
  demux { 8 };
}
metadata { u32 dport; }
module m {
  ppf p(ether_pkt *ph) from rx {
    ipv4_pkt *iph = packet_decap(ph);
    udp_pkt *uph = packet_decap(iph);
    uph->meta.dport = uph->dport;
    channel_put(tx, uph);
  }
}
"""
    )
    mod = lower(src)
    udp = build_udp(1111, 2222)
    ip = build_ipv4(1, 2, payload=udp)
    frame = build_ethernet(MACS[0], 5, 0x0800, ip)
    res = run_reference(mod, Trace([TracePacket(frame, 0)]))
    out = res.tx[0]
    assert out.meta[4] == 2222  # first user metadata word
    assert out.payload()[:2] == (1111).to_bytes(2, "big")


def test_mpls_loop_decap():
    # Pop MPLS labels in a loop until bottom-of-stack (dynamic control flow).
    src = r"""
protocol ether { dst : 48; src : 48; type : 16; demux { 14 }; }
protocol mpls { label : 20; tc : 3; bos : 1; ttl : 8; demux { 4 }; }
module m {
  ppf p(ether_pkt *ph) from rx {
    mpls_pkt *mph = packet_decap(ph);
    u32 guard = 8;
    while (mph->bos == 0 && guard > 0) {
      mpls_pkt *inner = packet_decap(mph);
      mph = inner;
      guard -= 1;
    }
    channel_put(tx, mph);
  }
}
"""
    mod = lower(src)
    trace = mpls_trace(6, MACS, [100, 200, 300], stack_depth=3)
    res = run_reference(mod, trace)
    assert res.profile.packets_out == 6
    # Output payload starts at the bottom-of-stack label.
    out = res.tx[0].payload()
    entry = int.from_bytes(out[0:4], "big")
    assert (entry >> 8) & 1 == 1
