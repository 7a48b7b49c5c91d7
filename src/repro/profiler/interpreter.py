"""The functional profiler: a whole-system IR interpreter.

Paper section 4.1: *"the Function Profiler, which takes a user-supplied
packet trace, simulates the network application by interpreting the IR
nodes. During simulation, the Functional profiler collects global data
structure access frequencies, CC utilizations and relative PPF execution
times."*

The interpreter is also the compiler's semantic oracle: its transmitted
packets are the reference output that optimized code (and the ME
simulator) must reproduce, and it can execute post-optimization IR
(including PAC/SOAR/SWC forms) so every pass can be differentially
tested.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, List, Optional, Tuple

from repro.baker import ast
from repro.baker import types as T
from repro.baker.semantic import eval_const_expr
from repro.ir import instructions as I
from repro.ir.eval import EvalError, eval_binop, eval_cmp
from repro.ir.module import IRFunction, IRModule
from repro.ir.values import Const, Operand, Temp
from repro.profiler.hostpackets import HostPacket
from repro.profiler.stats import ProfileData
from repro.profiler.trace import Trace

_U32 = 0xFFFFFFFF
_U64 = 0xFFFFFFFFFFFFFFFF


class InterpError(RuntimeError):
    pass


def _bits_of(type_: T.Type) -> int:
    if isinstance(type_, T.IntType):
        return type_.bits
    if type_.is_bool:
        return 1
    return 32


class GlobalMemory:
    """Byte-addressed big-endian storage for every global variable."""

    def __init__(self, mod: IRModule):
        self.mod = mod
        self.data: Dict[str, bytearray] = {}
        for name, sym in mod.globals.items():
            size = sym.type.size_bytes()
            buf = bytearray(size)
            if sym.init_values:
                elem = sym.type.element if isinstance(sym.type, T.ArrayType) else sym.type
                esize = elem.size_bytes()
                for i, v in enumerate(sym.init_values):
                    buf[i * esize : (i + 1) * esize] = (v & ((1 << (esize * 8)) - 1)).to_bytes(
                        esize, "big"
                    )
            self.data[name] = buf

    def load(self, g: str, offset: int, width: int) -> int:
        buf = self.data[g]
        if offset < 0 or offset + width > len(buf):
            raise InterpError("out-of-bounds load of %s at %d" % (g, offset))
        return int.from_bytes(buf[offset : offset + width], "big")

    def store(self, g: str, offset: int, value: int, width: int) -> None:
        buf = self.data[g]
        if offset < 0 or offset + width > len(buf):
            raise InterpError("out-of-bounds store of %s at %d" % (g, offset))
        buf[offset : offset + width] = (value & ((1 << (width * 8)) - 1)).to_bytes(width, "big")


class SystemResult:
    """Outcome of interpreting a trace through the whole program."""

    def __init__(self, tx: List[HostPacket], profile: ProfileData):
        self.tx = tx
        self.profile = profile

    def tx_payloads(self) -> List[bytes]:
        return [p.payload() for p in self.tx]

    def tx_signature(self) -> List[bytes]:
        """Order-insensitive signature for differential testing."""
        return sorted(self.tx_payloads())


class Interpreter:
    """Interprets an IRModule; reusable across traces."""

    def __init__(self, mod: IRModule, fuel: int = 50_000_000,
                 attribute_lines: bool = False):
        self.mod = mod
        self.globals = GlobalMemory(mod)
        self.profile = ProfileData()
        self.fuel = fuel
        # When set, every interpreted instruction with a source location
        # is charged to its (filename, line) in profile.line_instrs --
        # the hot-path attribution behind the obs report's top-N table.
        # Off by default: the extra dict update is wasted work for plain
        # differential-oracle runs.
        self._attr_lines = attribute_lines
        self._ppf_by_channel: Dict[str, str] = {}
        for fn in mod.ppfs():
            for chan in fn.input_channels:
                self._ppf_by_channel[chan] = fn.name
        self._queue: deque = deque()
        self.tx: List[HostPacket] = []
        self._current_ppf: Optional[str] = None
        # ME-local structures (single logical ME for functional runs).
        self.cam_tags: List[Optional[int]] = [None] * 16
        self.cam_lru: List[int] = list(range(16))
        self.local_mem: Dict[int, int] = {}
        self._demux_cache: Dict[str, Callable[[HostPacket], int]] = {}

    # -- public API ---------------------------------------------------------------

    def run_inits(self) -> None:
        """Execute every module init block (the paper runs these on the
        XScale at boot). Boot-time activity is excluded from the profile:
        the functional profiler measures the packet trace only."""
        saved = self.profile
        self.profile = ProfileData()
        try:
            for fn in self.mod.inits():
                self._exec_function(fn, [])
        finally:
            self.profile = saved

    def run_trace(self, trace: Trace) -> SystemResult:
        """Feed every trace packet through rx and drain all channels."""
        rx_consumer = self._ppf_by_channel.get("rx")
        if rx_consumer is None:
            raise InterpError("no PPF consumes 'rx'")
        for tp in trace:
            self.profile.packets_in += 1
            pkt = HostPacket(tp.data, rx_port=tp.rx_port)
            self._deliver(rx_consumer, pkt)
            while self._queue:
                chan, qpkt = self._queue.popleft()
                self._deliver(self._ppf_by_channel[chan], qpkt)
        return SystemResult(self.tx, self.profile)

    def call(self, name: str, args: List[object]) -> object:
        """Call one function directly (unit-testing convenience)."""
        return self._exec_function(self.mod.functions[name], list(args))

    # -- dispatch -----------------------------------------------------------------

    def _deliver(self, ppf_name: str, pkt: HostPacket) -> None:
        fn = self.mod.functions[ppf_name]
        self.profile.ppf_invocations[ppf_name] += 1
        prev = self._current_ppf
        self._current_ppf = ppf_name
        try:
            self._exec_function(fn, [pkt])
        finally:
            self._current_ppf = prev

    # -- execution ---------------------------------------------------------------------

    def _exec_function(self, fn: IRFunction, args: List[object]) -> object:
        if len(args) != len(fn.params):
            raise InterpError("%s: expected %d args" % (fn.name, len(fn.params)))
        self.profile.func_invocations[fn.name] += 1
        env: Dict[Temp, object] = dict(zip(fn.params, args))
        arrays: Dict[str, bytearray] = {
            name: bytearray(arr.size_bytes) for name, arr in fn.local_arrays.items()
        }
        bb = fn.entry
        while True:
            for instr in bb.instrs:
                self._step(fn, instr, env, arrays)
            term = bb.terminator
            self._count_instr()
            if isinstance(term, I.Jump):
                bb = term.target
            elif isinstance(term, I.Branch):
                cond = self._value(term.cond, env)
                bb = term.then_bb if cond != 0 else term.else_bb
            elif isinstance(term, I.Ret):
                if term.value is None:
                    return None
                return self._value(term.value, env)
            else:  # pragma: no cover
                raise InterpError("bad terminator %r" % term)

    def _count_instr(self) -> None:
        self.fuel -= 1
        if self.fuel <= 0:
            raise InterpError("interpreter fuel exhausted (infinite loop?)")
        if self._current_ppf is not None:
            self.profile.ppf_instrs[self._current_ppf] += 1

    def _value(self, op: Operand, env: Dict[Temp, object]) -> object:
        if isinstance(op, Const):
            return op.value
        try:
            return env[op]
        except KeyError:
            raise InterpError("use of undefined temp %r" % op)

    def _set(self, dst: Temp, value: object, env: Dict[Temp, object]) -> None:
        if isinstance(value, int):
            value &= (1 << _bits_of(dst.type)) - 1
        env[dst] = value

    # -- instruction semantics ------------------------------------------------------

    def _step(self, fn: IRFunction, instr: I.Instr, env: Dict[Temp, object],
              arrays: Dict[str, bytearray]) -> None:
        self._count_instr()
        if self._attr_lines:
            loc = instr.loc
            if loc is not None:
                self.profile.line_instrs[(loc.filename, loc.line)] += 1
        v = self._value

        if isinstance(instr, I.Assign):
            self._set(instr.dst, v(instr.src, env), env)
        elif isinstance(instr, I.BinOp):
            self._set(instr.dst, self._binop(instr, env), env)
        elif isinstance(instr, I.Cmp):
            self._set(instr.dst, self._cmp(instr, env), env)
        elif isinstance(instr, I.Call):
            result = self._exec_function(self.mod.functions[instr.func],
                                         [v(a, env) for a in instr.args])
            if instr.dst is not None:
                self._set(instr.dst, result if result is not None else 0, env)
        elif isinstance(instr, I.LoadG):
            offset = v(instr.offset, env)
            value = self.globals.load(instr.g, offset, instr.width)
            stat = self.profile.gstat(instr.g)
            stat.loads += 1
            stat.load_offsets[offset] += 1
            self._set(instr.dst, value, env)
        elif isinstance(instr, I.LoadGWords):
            offset = v(instr.offset, env)
            stat = self.profile.gstat(instr.g)
            stat.loads += 1
            stat.load_offsets[offset] += 1
            for i, dst in enumerate(instr.dsts):
                self._set(dst, self.globals.load(instr.g, offset + i * 4, 4), env)
        elif isinstance(instr, I.StoreG):
            offset = v(instr.offset, env)
            self.globals.store(instr.g, offset, v(instr.value, env), instr.width)
            self.profile.gstat(instr.g).stores += 1
        elif isinstance(instr, I.LoadL):
            buf = arrays[instr.array]
            off = v(instr.offset, env)
            if off < 0 or off + instr.width > len(buf):
                raise InterpError("%s: out-of-bounds local access" % fn.name)
            self._set(instr.dst, int.from_bytes(buf[off : off + instr.width], "big"), env)
        elif isinstance(instr, I.StoreL):
            buf = arrays[instr.array]
            off = v(instr.offset, env)
            if off < 0 or off + instr.width > len(buf):
                raise InterpError("%s: out-of-bounds local access" % fn.name)
            value = v(instr.value, env) & ((1 << (instr.width * 8)) - 1)
            buf[off : off + instr.width] = value.to_bytes(instr.width, "big")
        elif isinstance(instr, I.PktLoadField):
            pkt: HostPacket = v(instr.ph, env)
            self._set(instr.dst, pkt.load_bits(instr.bit_off, instr.bit_width), env)
        elif isinstance(instr, I.PktStoreField):
            pkt = v(instr.ph, env)
            pkt.store_bits(instr.bit_off, instr.bit_width, v(instr.value, env))
        elif isinstance(instr, I.PktLoadWords):
            pkt = v(instr.ph, env)
            raw = pkt.load_bytes(instr.byte_off, instr.nwords * 4)
            for i, dst in enumerate(instr.dsts):
                self._set(dst, int.from_bytes(raw[i * 4 : i * 4 + 4], "big"), env)
        elif isinstance(instr, I.PktStoreWords):
            pkt = v(instr.ph, env)
            for i in range(instr.nwords):
                word = v(instr.values[i], env) & _U32
                mask = instr.byte_masks[i]
                data = word.to_bytes(4, "big")
                for b in range(4):
                    if mask & (1 << (3 - b)):  # bit 3 = most-significant byte
                        pkt.store_bytes(instr.byte_off + i * 4 + b, data[b : b + 1])
        elif isinstance(instr, I.MetaLoad):
            pkt = v(instr.ph, env)
            self._set(instr.dst, pkt.meta.get(instr.word, 0), env)
        elif isinstance(instr, I.MetaStore):
            pkt = v(instr.ph, env)
            pkt.meta[instr.word] = v(instr.value, env) & _U32
        elif isinstance(instr, I.PktEncap):
            pkt = v(instr.ph if hasattr(instr, "ph") else instr.src, env)
            pkt.encap(instr.header_bytes)
            self._set(instr.dst, pkt, env)
        elif isinstance(instr, I.PktDecap):
            pkt = v(instr.src, env)
            hdr = instr.header_bytes
            if hdr is None:
                hdr = self._demux_bytes(instr.src_proto, pkt)
            pkt.decap(hdr)
            self._set(instr.dst, pkt, env)
        elif isinstance(instr, I.PktCopy):
            pkt = v(instr.src, env)
            self._set(instr.dst, pkt.copy(), env)
        elif isinstance(instr, I.PktDrop):
            pkt = v(instr.ph, env)
            self._drop_packet(pkt)
        elif isinstance(instr, I.PktCreate):
            length = v(instr.length, env)
            pkt = self._new_packet(instr.header_bytes + length)
            self._set(instr.dst, pkt, env)
        elif isinstance(instr, I.PktLength):
            pkt = v(instr.ph, env)
            self._set(instr.dst, pkt.length, env)
        elif isinstance(instr, I.PktAdjust):
            pkt = v(instr.ph, env)
            amount = v(instr.amount, env)
            getattr(pkt, instr.op)(amount)
        elif isinstance(instr, I.PktSyncHead):
            pkt = v(instr.ph, env)
            if instr.delta_bytes >= 0:
                pkt.decap(instr.delta_bytes)
            else:
                pkt.encap(-instr.delta_bytes)
        elif isinstance(instr, I.CamClear):
            self.cam_tags = [None] * 16
            self.cam_lru = list(range(16))
        elif isinstance(instr, I.ChanPut):
            pkt = v(instr.ph, env)
            self.profile.channel_puts[instr.channel] += 1
            self._emit_channel(instr.channel, pkt)
        elif isinstance(instr, (I.LockAcquire, I.LockRelease)):
            pass  # single-threaded functional model
        elif isinstance(instr, I.CamLookup):
            self._set(instr.dst, self._cam_lookup(v(instr.key, env)), env)
        elif isinstance(instr, I.CamWrite):
            entry = v(instr.entry, env) & 0xF
            self.cam_tags[entry] = v(instr.key, env) & _U32
            self._cam_touch(entry)
        elif isinstance(instr, I.LmLoad):
            self._set(instr.dst, self.local_mem.get(v(instr.index, env), 0), env)
        elif isinstance(instr, I.LmStore):
            self.local_mem[v(instr.index, env)] = v(instr.value, env) & _U32
        else:  # pragma: no cover
            raise InterpError("cannot interpret %r" % instr)

    # -- integration hooks (overridden by the simulated-XScale executor) -----------

    def _emit_channel(self, channel: str, pkt) -> None:
        if channel == "tx":
            self.profile.packets_out += 1
            self.tx.append(pkt)
        else:
            self._queue.append((channel, pkt))

    def _drop_packet(self, pkt) -> None:
        pkt.dropped = True
        self.profile.packets_dropped += 1

    def _new_packet(self, size: int):
        return HostPacket(bytes(size))

    # -- helpers ---------------------------------------------------------------------

    def _binop(self, instr: I.BinOp, env) -> int:
        a = self._value(instr.a, env)
        b = self._value(instr.b, env)
        bits = _bits_of(instr.dst.type)
        try:
            return eval_binop(instr.op, a, b, bits)
        except EvalError as exc:
            raise InterpError(str(exc))

    def _cmp(self, instr: I.Cmp, env) -> int:
        a = self._value(instr.a, env)
        b = self._value(instr.b, env)
        op = instr.op
        if op in ("eq", "ne"):
            # Packet handles compare by identity (same metadata address).
            if isinstance(a, HostPacket) or isinstance(b, HostPacket):
                same = a is b
                return int(same) if op == "eq" else int(not same)
        elif isinstance(a, HostPacket) or isinstance(b, HostPacket):
            raise InterpError("ordered comparison of packet handles")
        bits = max(_bits_of(getattr(instr.a, "type", T.U32)),
                   _bits_of(getattr(instr.b, "type", T.U32)))
        try:
            return eval_cmp(op, a, b, bits)
        except EvalError as exc:
            raise InterpError(str(exc))

    def _demux_bytes(self, proto_name: str, pkt: HostPacket) -> int:
        """Evaluate a protocol's demux expression against a live packet."""
        fn = self._demux_cache.get(proto_name)
        if fn is None:
            proto = self.mod.protocols[proto_name]

            def evaluator(packet: HostPacket, proto=proto) -> int:
                env = {
                    f.name: packet.load_bits(f.offset_bits, f.width_bits)
                    for f in proto.fields
                }
                return eval_const_expr(proto.demux_expr, env)

            fn = evaluator
            self._demux_cache[proto_name] = fn
        return fn(pkt)

    def _cam_lookup(self, key: int) -> int:
        key &= _U32
        for entry, tag in enumerate(self.cam_tags):
            if tag == key:
                self._cam_touch(entry)
                return (entry << 1) | 1
        # Miss: the reported LRU victim becomes MRU (MEv2 behavior).
        lru = self.cam_lru[0]
        self._cam_touch(lru)
        return lru << 1

    def _cam_touch(self, entry: int) -> None:
        self.cam_lru.remove(entry)
        self.cam_lru.append(entry)


def run_reference(mod: IRModule, trace: Trace,
                  attribute_lines: bool = False) -> SystemResult:
    """Convenience: init globals, run init blocks, feed the trace."""
    interp = Interpreter(mod, attribute_lines=attribute_lines)
    interp.run_inits()
    return interp.run_trace(trace)
