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

Execution is *block-predecoded*: on first entry into a basic block the
interpreter generates one Python function for the whole block (operands
pre-resolved, common operations inlined, the terminator fused in; it
returns the next block, or ``None`` on ``Ret``), and
:meth:`Interpreter._exec_function` is a short loop over those. The loop
charges fuel and the per-PPF instruction count for the whole block at
block entry -- ``len(instrs) + 1``, the same total the instruction-at-a-
time model charged -- so profiles are unchanged and fuel exhaustion can
only fire up to one block earlier. Generated sources are cached by their
text (parameter names are positional, so equal shapes share one code
object); the per-block functions bind only IR objects and constants and
receive the interpreter as an argument, so decoded blocks live and die
with the interpreter instance, never on the (mutable) IR. Everything a
subclass may redirect -- ``globals``, ``_emit_channel``,
``_drop_packet``, ``_new_packet``, ``_demux_bytes`` and the packet
objects' own methods -- is still reached through the instance at run
time (see :class:`repro.ixp.xscale_core.XScaleCore`).
"""

from __future__ import annotations

from collections import Counter, deque
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.baker import types as T
from repro.baker.semantic import eval_const_expr
from repro.ir import instructions as I
from repro.ir.eval import EvalError, eval_binop, eval_cmp
from repro.ir.module import BasicBlock, IRFunction, IRModule
from repro.ir.values import Const, Temp
from repro.ixp.cam import CAM
from repro.profiler.hostpackets import HostPacket
from repro.profiler.stats import ProfileData
from repro.profiler.trace import Trace

_U32 = 0xFFFFFFFF


class InterpError(RuntimeError):
    pass


def _bits_of(type_: T.Type) -> int:
    if isinstance(type_, T.IntType):
        return type_.bits
    if type_.is_bool:
        return 1
    return 32


def _is_num(type_: T.Type) -> bool:
    """Temps of these types only ever hold ints (everything else may hold
    a packet handle, which is never masked)."""
    return isinstance(type_, (T.IntType, T.BoolType))


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


#: A decoded block: (run(it, env, arrays) -> next block or None,
#: instructions charged at entry, (source line, count) pairs).
Block = Tuple[Callable[..., Optional[BasicBlock]], int, Tuple[tuple, ...]]

#: env key under which a Ret block leaves the function's return value.
_RET = object()


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
        self.cam = CAM()
        self.local_mem: Dict[int, int] = {}
        self._demux_cache: Dict[str, Callable[[HostPacket], int]] = {}
        # Predecode state (see the module docstring).
        self._blocks: Dict[BasicBlock, Block] = {}
        self._env_reads: Dict[IRFunction, Set[Temp]] = {}

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
        profile = self.profile
        profile.func_invocations[fn.name] += 1
        env: Dict[object, object] = dict(zip(fn.params, args))
        arrays: Dict[str, bytearray] = {
            name: bytearray(arr.size_bytes) for name, arr in fn.local_arrays.items()
        }
        ppf = self._current_ppf
        ppf_instrs = profile.ppf_instrs
        line_instrs = profile.line_instrs if self._attr_lines else None
        blocks = self._blocks
        bb = fn.entry
        try:
            while bb is not None:
                block = blocks.get(bb)
                if block is None:
                    block = self._decode(fn, bb)
                run, cost, lines = block
                self.fuel -= cost
                if self.fuel <= 0:
                    raise InterpError("interpreter fuel exhausted (infinite loop?)")
                if ppf is not None:
                    ppf_instrs[ppf] += cost
                if line_instrs is not None:
                    for key, n in lines:
                        line_instrs[key] += n
                bb = run(self, env, arrays)
        except KeyError as exc:
            # Generated code reads temps with env[temp]: a miss is a use
            # of a temp no executed instruction defined.
            if exc.args and isinstance(exc.args[0], Temp):
                raise InterpError("use of undefined temp %r" % exc.args[0]) from None
            raise
        return env.get(_RET)

    def _decode(self, fn: IRFunction, bb: BasicBlock) -> Block:
        env_reads = self._env_reads.get(fn)
        if env_reads is None:
            env_reads = self._env_reads[fn] = _upward_exposed(fn)
        lines: Counter = Counter()
        for instr in bb.instrs:
            loc = instr.loc
            if loc is not None:
                lines[(loc.filename, loc.line)] += 1
        block = (_BlockBuilder(fn, env_reads).build(bb),
                 len(bb.instrs) + 1, tuple(lines.items()))
        self._blocks[bb] = block
        return block

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


def run_reference(mod: IRModule, trace: Trace,
                  attribute_lines: bool = False) -> SystemResult:
    """Convenience: init globals, run init blocks, feed the trace."""
    interp = Interpreter(mod, attribute_lines=attribute_lines)
    interp.run_inits()
    return interp.run_trace(trace)


# -- block predecode ----------------------------------------------------------------------


def _upward_exposed(fn: IRFunction) -> Set[Temp]:
    """Temps some block reads before defining them: the only ones whose
    values must live in ``env`` across blocks. Every other definition
    stays in a generated function's local variable."""
    out: Set[Temp] = set()
    for bb in fn.blocks:
        defined: Set[Temp] = set()
        for instr in bb.all_instrs():
            for use in instr.uses():
                if isinstance(use, Temp) and use not in defined:
                    out.add(use)
            defined.update(instr.defs())
    return out


def _binop(op: str, a, b, bits: int) -> int:
    try:
        return eval_binop(op, a, b, bits)
    except EvalError as exc:
        raise InterpError(str(exc))


def _cmp(op: str, a, b, bits: int) -> int:
    if op in ("eq", "ne"):
        # Packet handles compare by identity (same metadata address).
        if isinstance(a, HostPacket) or isinstance(b, HostPacket):
            same = a is b
            return int(same) if op == "eq" else int(not same)
    elif isinstance(a, HostPacket) or isinstance(b, HostPacket):
        raise InterpError("ordered comparison of packet handles")
    try:
        return eval_cmp(op, a, b, bits)
    except EvalError as exc:
        raise InterpError(str(exc))


#: BinOps inlined into generated code; ``{a}``/``{b}`` are operand
#: expressions, ``{m}`` the result mask and ``{s}`` the shift mask
#: (bits - 1). Each matches :func:`repro.ir.eval.eval_binop` exactly.
_BINOP_EXPR = {
    "add": "({a} + {b}) & {m}",
    "sub": "({a} - {b}) & {m}",
    "mul": "({a} * {b}) & {m}",
    "and": "{a} & {b} & {m}",
    "or": "({a} | {b}) & {m}",
    "xor": "({a} ^ {b}) & {m}",
    "shl": "({a} << ({b} & {s})) & {m}",
    "lshr": "({a} & {m}) >> ({b} & {s})",
}

#: Comparisons inlined into generated code. ``==``/``!=`` also cover
#: packet handles (no packet class defines ``__eq__``, so they compare
#: by identity); ordered compares only inline on integer-typed operands.
_CMP_EXPR = {
    "eq": "==", "ne": "!=",
    "lt_u": "<", "le_u": "<=", "gt_u": ">", "ge_u": ">=",
}

_PROLOGUE = (
    ("prof", "it.profile"),
    ("gs", "prof.global_stats"),
    ("glob", "it.globals"),
    ("funcs", "it.mod.functions"),
)

_MAKE_CACHE: Dict[str, Callable] = {}

_EXEC_GLOBALS = {
    "InterpError": InterpError,
    "_binop": _binop,
    "_cmp": _cmp,
    "_RET": _RET,
}


class _BlockBuilder:
    """Generates the body of one block's ``run(it, env, arrays)``.

    A temp's value is read from ``env`` at most once per block (on its
    first use before any definition) and then kept in a local ``r<n>``;
    a definition writes ``env`` only when some block reads that temp
    from ``env`` (:func:`_upward_exposed`). Parameter and local names are
    positional, so two blocks of the same shape generate the same
    source and share one compiled factory.
    """

    def __init__(self, fn: IRFunction, env_reads: Set[Temp]):
        self.fn = fn
        self.env_reads = env_reads
        self.lines: List[str] = []
        self.params: Dict[str, object] = {}
        self.slots: Dict[object, int] = {}
        self.bound: Set[object] = set()
        self.needs: Set[str] = set()
        self.k = 0

    # -- generation helpers -------------------------------------------------------

    def emit(self, line: str) -> None:
        self.lines.append("        " + line + "\n")

    def p(self, name: str, value) -> str:
        full = "k%d_%s" % (self.k, name)
        self.params[full] = value
        return full

    def need(self, *names: str) -> None:
        self.needs.update(names)

    def use(self, op) -> str:
        """Expression for a source operand, in evaluation order."""
        if isinstance(op, Const):
            return "(%d)" % op.value
        n = self._slot(op)
        if op not in self.bound:
            self.emit("r%d = env[t%d]" % (n, n))
            self.bound.add(op)
        return "r%d" % n

    def define(self, dst: Temp, expr: str) -> None:
        n = self._slot(dst)
        self.bound.add(dst)
        if dst in self.env_reads:
            self.emit("env[t%d] = r%d = %s" % (n, n, expr))
        else:
            self.emit("r%d = %s" % (n, expr))

    def set_int(self, dst: Temp, expr: str, width: int = 0) -> None:
        """Define an integer result, masked to the dst type unless the
        value is known to fit (``width`` bits wide)."""
        bits = _bits_of(dst.type)
        if 0 < width <= bits:
            self.define(dst, expr)
        else:
            self.define(dst, "(%s) & %d" % (expr, (1 << bits) - 1))

    def set_any(self, dst: Temp, expr: str, none_is_zero: bool = False) -> None:
        """Define a value that may be a packet handle: only ints mask."""
        self.emit("x = %s" % expr)
        other = "(0 if x is None else x)" if none_is_zero else "x"
        self.define(dst, "x & %d if isinstance(x, int) else %s"
                    % ((1 << _bits_of(dst.type)) - 1, other))

    def _slot(self, temp) -> int:
        n = self.slots.get(temp)
        if n is None:
            n = self.slots[temp] = len(self.slots)
            self.params["t%d" % n] = temp
        return n

    # -- assembly ------------------------------------------------------------------------

    def build(self, bb: BasicBlock):
        for k, instr in enumerate(bb.instrs):
            self.k = k
            emitter = _EMITTERS.get(type(instr))
            if emitter is None:
                self.emit("raise InterpError('cannot interpret %%r' %% %s)"
                          % self.p("I", instr))
            else:
                emitter(self, instr)
        self.k = len(bb.instrs)
        self._terminator(bb.terminator)
        head = ["        %s = %s\n" % (name, expr)
                for name, expr in _PROLOGUE if name in self.needs]
        names = sorted(self.params)
        src = ("def _make(%s):\n"
               "    def run(it, env, arrays):\n"
               "%s%s"
               "    return run\n" % (", ".join(names), "".join(head),
                                     "".join(self.lines)))
        make = _MAKE_CACHE.get(src)
        if make is None:
            ns: Dict[str, object] = {}
            exec(compile(src, "<interp-block>", "exec"), dict(_EXEC_GLOBALS), ns)
            make = _MAKE_CACHE[src] = ns["_make"]
        return make(*[self.params[n] for n in names])

    def _terminator(self, term) -> None:
        if isinstance(term, I.Jump):
            self.emit("return %s" % self.p("T", term.target))
        elif isinstance(term, I.Branch):
            if isinstance(term.cond, Const):
                target = term.then_bb if term.cond.value != 0 else term.else_bb
                self.emit("return %s" % self.p("T", target))
            else:
                cond = self.use(term.cond)
                self.emit("return %s if %s != 0 else %s"
                          % (self.p("T", term.then_bb), cond,
                             self.p("E", term.else_bb)))
        elif isinstance(term, I.Ret):
            if term.value is not None:
                self.emit("env[_RET] = %s" % self.use(term.value))
            self.emit("return None")
        else:
            self.emit("raise InterpError('bad terminator %%r' %% (%s,))"
                      % self.p("T", term))


# -- per-instruction emitters -----------------------------------------------------------
# Each emits one instruction's semantics, reading operands in the order
# the instruction-at-a-time interpreter evaluated them.


def _e_assign(b: _BlockBuilder, instr: I.Assign) -> None:
    src, dst = instr.src, instr.dst
    if isinstance(src, Const):
        b.define(dst, "(%d)" % (src.value & ((1 << _bits_of(dst.type)) - 1)))
    elif _is_num(src.type) and _is_num(dst.type):
        b.set_int(dst, b.use(src))
    else:
        b.set_any(dst, b.use(src))


def _e_binop(b: _BlockBuilder, instr: I.BinOp) -> None:
    x, y = b.use(instr.a), b.use(instr.b)
    bits = _bits_of(instr.dst.type)
    template = _BINOP_EXPR.get(instr.op)
    if template is None:
        b.define(instr.dst, "_binop(%r, %s, %s, %d)" % (instr.op, x, y, bits))
    else:
        b.define(instr.dst, template.format(a=x, b=y, m=(1 << bits) - 1,
                                            s=bits - 1))


def _e_cmp(b: _BlockBuilder, instr: I.Cmp) -> None:
    x, y = b.use(instr.a), b.use(instr.b)
    op = instr.op
    sym = _CMP_EXPR.get(op)
    if sym is not None and (op in ("eq", "ne") or (
            _is_num(instr.a.type) and _is_num(instr.b.type))):
        b.define(instr.dst, "1 if %s %s %s else 0" % (x, sym, y))
    else:
        bits = max(_bits_of(getattr(instr.a, "type", T.U32)),
                   _bits_of(getattr(instr.b, "type", T.U32)))
        b.define(instr.dst, "_cmp(%r, %s, %s, %d)" % (op, x, y, bits))


def _e_call(b: _BlockBuilder, instr: I.Call) -> None:
    args = [b.use(a) for a in instr.args]
    b.need("funcs")
    call = "it._exec_function(funcs[%s], [%s])" % (b.p("F", instr.func),
                                                   ", ".join(args))
    if instr.dst is None:
        b.emit(call)
    else:
        b.set_any(instr.dst, call, none_is_zero=True)


def _global_stat(b: _BlockBuilder, g: str) -> None:
    b.need("prof", "gs")
    b.emit("st = gs.get(%s)" % g)
    b.emit("if st is None: st = prof.gstat(%s)" % g)


def _e_loadg(b: _BlockBuilder, instr: I.LoadG) -> None:
    b.emit("o = %s" % b.use(instr.offset))
    b.need("glob")
    g = b.p("G", instr.g)
    b.emit("v = glob.load(%s, o, %d)" % (g, instr.width))
    _global_stat(b, g)
    b.emit("st.loads += 1")
    b.emit("st.load_offsets[o] += 1")
    b.set_int(instr.dst, "v", instr.width * 8)


def _e_loadgwords(b: _BlockBuilder, instr: I.LoadGWords) -> None:
    b.emit("o = %s" % b.use(instr.offset))
    b.need("glob")
    g = b.p("G", instr.g)
    _global_stat(b, g)
    b.emit("st.loads += 1")
    b.emit("st.load_offsets[o] += 1")
    for i, dst in enumerate(instr.dsts):
        b.set_int(dst, "glob.load(%s, o + %d, 4)" % (g, i * 4), 32)


def _e_storeg(b: _BlockBuilder, instr: I.StoreG) -> None:
    off = b.use(instr.offset)
    value = b.use(instr.value)
    b.need("glob")
    g = b.p("G", instr.g)
    b.emit("glob.store(%s, %s, %s, %d)" % (g, off, value, instr.width))
    _global_stat(b, g)
    b.emit("st.stores += 1")


def _local_access(b: _BlockBuilder, instr) -> None:
    b.emit("buf = arrays[%s]" % b.p("A", instr.array))
    b.emit("o = %s" % b.use(instr.offset))
    b.emit("if o < 0 or o + %d > len(buf): raise InterpError("
           "'%%s: out-of-bounds local access' %% %s)"
           % (instr.width, b.p("FN", b.fn.name)))


def _e_loadl(b: _BlockBuilder, instr: I.LoadL) -> None:
    _local_access(b, instr)
    b.set_int(instr.dst, "int.from_bytes(buf[o:o + %d], 'big')" % instr.width,
              instr.width * 8)


def _e_storel(b: _BlockBuilder, instr: I.StoreL) -> None:
    _local_access(b, instr)
    w = instr.width
    b.emit("buf[o:o + %d] = (%s & %d).to_bytes(%d, 'big')"
           % (w, b.use(instr.value), (1 << (w * 8)) - 1, w))


def _e_pktloadfield(b: _BlockBuilder, instr: I.PktLoadField) -> None:
    b.set_int(instr.dst, "%s.load_bits(%d, %d)"
              % (b.use(instr.ph), instr.bit_off, instr.bit_width),
              instr.bit_width)


def _e_pktstorefield(b: _BlockBuilder, instr: I.PktStoreField) -> None:
    pkt = b.use(instr.ph)
    b.emit("%s.store_bits(%d, %d, %s)"
           % (pkt, instr.bit_off, instr.bit_width, b.use(instr.value)))


def _e_pktloadwords(b: _BlockBuilder, instr: I.PktLoadWords) -> None:
    b.emit("raw = %s.load_bytes(%d, %d)"
           % (b.use(instr.ph), instr.byte_off, instr.nwords * 4))
    for i, dst in enumerate(instr.dsts):
        b.set_int(dst, "int.from_bytes(raw[%d:%d], 'big')" % (i * 4, i * 4 + 4),
                  32)


def _e_pktstorewords(b: _BlockBuilder, instr: I.PktStoreWords) -> None:
    pkt = b.use(instr.ph)
    for i in range(instr.nwords):
        b.emit("data = (%s & %d).to_bytes(4, 'big')"
               % (b.use(instr.values[i]), _U32))
        mask = instr.byte_masks[i]
        for byte in range(4):
            if mask & (1 << (3 - byte)):  # bit 3 = most-significant byte
                b.emit("%s.store_bytes(%d, data[%d:%d])"
                       % (pkt, instr.byte_off + i * 4 + byte, byte, byte + 1))


def _e_metaload(b: _BlockBuilder, instr: I.MetaLoad) -> None:
    b.set_int(instr.dst, "%s.meta.get(%d, 0)" % (b.use(instr.ph), instr.word))


def _e_metastore(b: _BlockBuilder, instr: I.MetaStore) -> None:
    pkt = b.use(instr.ph)
    b.emit("%s.meta[%d] = %s & %d"
           % (pkt, instr.word, b.use(instr.value), _U32))


def _e_pktencap(b: _BlockBuilder, instr: I.PktEncap) -> None:
    pkt = b.use(instr.src)
    b.emit("%s.encap(%d)" % (pkt, instr.header_bytes))
    b.define(instr.dst, pkt)


def _e_pktdecap(b: _BlockBuilder, instr: I.PktDecap) -> None:
    pkt = b.use(instr.src)
    if instr.header_bytes is None:
        b.emit("%s.decap(it._demux_bytes(%s, %s))"
               % (pkt, b.p("P", instr.src_proto), pkt))
    else:
        b.emit("%s.decap(%d)" % (pkt, instr.header_bytes))
    b.define(instr.dst, pkt)


def _e_pktcopy(b: _BlockBuilder, instr: I.PktCopy) -> None:
    b.define(instr.dst, "%s.copy()" % b.use(instr.src))


def _e_pktdrop(b: _BlockBuilder, instr: I.PktDrop) -> None:
    b.emit("it._drop_packet(%s)" % b.use(instr.ph))


def _e_pktcreate(b: _BlockBuilder, instr: I.PktCreate) -> None:
    b.define(instr.dst, "it._new_packet(%d + %s)"
             % (instr.header_bytes, b.use(instr.length)))


def _e_pktlength(b: _BlockBuilder, instr: I.PktLength) -> None:
    b.set_int(instr.dst, "%s.length" % b.use(instr.ph))


def _e_pktadjust(b: _BlockBuilder, instr: I.PktAdjust) -> None:
    pkt = b.use(instr.ph)
    b.emit("%s.%s(%s)" % (pkt, instr.op, b.use(instr.amount)))


def _e_pktsynchead(b: _BlockBuilder, instr: I.PktSyncHead) -> None:
    pkt = b.use(instr.ph)
    if instr.delta_bytes >= 0:
        b.emit("%s.decap(%d)" % (pkt, instr.delta_bytes))
    else:
        b.emit("%s.encap(%d)" % (pkt, -instr.delta_bytes))


def _e_chanput(b: _BlockBuilder, instr: I.ChanPut) -> None:
    pkt = b.use(instr.ph)
    b.need("prof")
    chan = b.p("C", instr.channel)
    b.emit("prof.channel_puts[%s] += 1" % chan)
    b.emit("it._emit_channel(%s, %s)" % (chan, pkt))


def _e_lock(b: _BlockBuilder, instr) -> None:
    pass  # single-threaded functional model


def _e_camlookup(b: _BlockBuilder, instr: I.CamLookup) -> None:
    b.set_int(instr.dst, "it.cam.lookup(%s)" % b.use(instr.key))


def _e_camwrite(b: _BlockBuilder, instr: I.CamWrite) -> None:
    entry = b.use(instr.entry)
    b.emit("it.cam.write(%s, %s)" % (entry, b.use(instr.key)))


def _e_camclear(b: _BlockBuilder, instr: I.CamClear) -> None:
    b.emit("it.cam.clear()")


def _e_lmload(b: _BlockBuilder, instr: I.LmLoad) -> None:
    b.set_int(instr.dst, "it.local_mem.get(%s, 0)" % b.use(instr.index))


def _e_lmstore(b: _BlockBuilder, instr: I.LmStore) -> None:
    value = b.use(instr.value)
    b.emit("it.local_mem[%s] = %s & %d" % (b.use(instr.index), value, _U32))


_EMITTERS = {
    I.Assign: _e_assign,
    I.BinOp: _e_binop,
    I.Cmp: _e_cmp,
    I.Call: _e_call,
    I.LoadG: _e_loadg,
    I.LoadGWords: _e_loadgwords,
    I.StoreG: _e_storeg,
    I.LoadL: _e_loadl,
    I.StoreL: _e_storel,
    I.PktLoadField: _e_pktloadfield,
    I.PktStoreField: _e_pktstorefield,
    I.PktLoadWords: _e_pktloadwords,
    I.PktStoreWords: _e_pktstorewords,
    I.MetaLoad: _e_metaload,
    I.MetaStore: _e_metastore,
    I.PktEncap: _e_pktencap,
    I.PktDecap: _e_pktdecap,
    I.PktCopy: _e_pktcopy,
    I.PktDrop: _e_pktdrop,
    I.PktCreate: _e_pktcreate,
    I.PktLength: _e_pktlength,
    I.PktAdjust: _e_pktadjust,
    I.PktSyncHead: _e_pktsynchead,
    I.ChanPut: _e_chanput,
    I.LockAcquire: _e_lock,
    I.LockRelease: _e_lock,
    I.CamLookup: _e_camlookup,
    I.CamWrite: _e_camwrite,
    I.CamClear: _e_camclear,
    I.LmLoad: _e_lmload,
    I.LmStore: _e_lmstore,
}
