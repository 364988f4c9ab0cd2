"""Compiled RTL simulator backend.

The design is translated once into Python source (one ``settle`` function
for the combinational logic in dependency order, one ``edge`` function for
the sequential logic with buffered non-blocking commits) and ``exec``-ed.
Dispatch, statement walking and width bookkeeping all happen at compile
time, so the generated code runs an order of magnitude faster than the
tree-walking :class:`~repro.sim.interpreter.Interpreter`.

In HardSnap terms this backend is the *FPGA emulation target*: fast, but
with no per-cycle tracing — the only state access paths the
:class:`~repro.targets.fpga.FpgaTarget` exposes on top of it are the scan
chain and the readback model, exactly like real fabric.

The generated code maintains the same invariant as the interpreter: every
stored value is already masked to its net's width.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

from repro.errors import SimulationError
from repro.hdl import ir
from repro.sim.base import BaseSimulation
from repro.sim.scheduler import clock_domain, order_comb_blocks


# ---------------------------------------------------------------------------
# Design fingerprinting and the compiled-artifact cache
# ---------------------------------------------------------------------------
#
# Optimising + code-generating + byte-compiling a design is by far the most
# expensive part of constructing a CompiledSimulation, and callers rebuild
# simulations for the *same* design all the time: every benchmark variant,
# every strategy in run_all_strategies, every parallel worker booting the
# same target. The cache below keys compiled artifacts on a content hash of
# the IR, so only the first construction pays for run_opt/codegen/compile.
# Targets go one step further back: the hosted-design memo keeps each
# peripheral's elaborated and instrumented design, with its fingerprint,
# so hosting the same peripheral again parses, elaborates, instruments
# and fingerprints nothing.

#: Fields that never affect generated code — source bookkeeping only.
_FP_SKIP_FIELDS = frozenset({"line", "source_file"})


def _fp_walk(obj: Any, emit) -> None:
    """Feed a canonical byte encoding of an IR object tree to *emit*.

    Generic recursive walk over the dataclass nodes of
    :mod:`repro.hdl.ir`: class names delimit structure, scalar fields are
    encoded with type tags, and dict/set containers are visited in sorted
    key order so iteration order cannot leak into the fingerprint.
    """
    if obj is None:
        emit(b"~")
    elif obj is True:
        emit(b"T")
    elif obj is False:
        emit(b"F")
    elif isinstance(obj, int):
        emit(b"i%d;" % obj)
    elif isinstance(obj, str):
        data = obj.encode("utf-8")
        emit(b"s%d:" % len(data))
        emit(data)
    elif isinstance(obj, (list, tuple)):
        emit(b"[")
        for item in obj:
            _fp_walk(item, emit)
        emit(b"]")
    elif isinstance(obj, (set, frozenset)):
        emit(b"{")
        for item in sorted(obj):
            _fp_walk(item, emit)
        emit(b"}")
    elif isinstance(obj, dict):
        emit(b"<")
        for key in sorted(obj):
            _fp_walk(key, emit)
            _fp_walk(obj[key], emit)
        emit(b">")
    elif dataclasses.is_dataclass(obj):
        emit(type(obj).__name__.encode("ascii"))
        emit(b"(")
        for f in dataclasses.fields(obj):
            if f.name not in _FP_SKIP_FIELDS:
                _fp_walk(getattr(obj, f.name), emit)
        emit(b")")
    else:
        raise SimulationError(
            f"cannot fingerprint {type(obj).__name__!r} in design IR")


def design_fingerprint(design: ir.Design) -> str:
    """Content hash of an elaborated design.

    Two designs with identical structure (nets, memories, processes,
    expressions — everything the code generator consumes) fingerprint
    identically regardless of object identity or source location.
    """
    digest = hashlib.blake2b(digest_size=16)
    _fp_walk(design, digest.update)
    return digest.hexdigest()


@dataclasses.dataclass
class _CompiledArtifact:
    """Everything construction-time work produces for one (design, clock,
    opt) combination. ``design`` is the post-optimisation design when
    opt was requested — it is shared read-only between simulations."""

    design: ir.Design
    source: str
    code: Any
    has_negedge: bool
    opt_report: Any
    #: The ``axi`` transaction entry, compiled on its own (see
    #: :meth:`_CodeGen.generate_axi`); None when the design has none.
    axi_code: Any = None


_ARTIFACT_CACHE: Dict[Tuple[str, str, bool], _CompiledArtifact] = {}
_ARTIFACT_CACHE_LIMIT = 64
_CACHE_STATS = {"hits": 0, "misses": 0}


@dataclasses.dataclass(frozen=True)
class _HostedDesign:
    """One memoised hosted design: what the target compiles, whatever
    the target keeps beside it, and the compiled design's fingerprint."""

    design: ir.Design
    extra: Any
    fingerprint: str


_HOSTED_CACHE: Dict[Hashable, _HostedDesign] = {}


def hosted_design(key: Hashable,
                  build: Callable[[], Tuple[ir.Design, Any]]
                  ) -> Tuple[ir.Design, Any]:
    """``build()`` memoised per *key*, next to the compiled artifacts.

    *key* must name everything *build* depends on (a target passes the
    spec name, its Verilog source and its scan scoping). The returned
    design and extra are shared by every caller with the same key, so
    no one may mutate them; a :class:`CompiledSimulation` built over the
    design reuses its stored fingerprint.
    """
    entry = _HOSTED_CACHE.get(key)
    if entry is None:
        design, extra = build()
        entry = _HostedDesign(design, extra, design_fingerprint(design))
        if len(_HOSTED_CACHE) >= _ARTIFACT_CACHE_LIMIT:
            _HOSTED_CACHE.pop(next(iter(_HOSTED_CACHE)))
        _HOSTED_CACHE[key] = entry
    return entry.design, entry.extra


def _fingerprint(design: ir.Design) -> str:
    """The fingerprint the hosted-design memo stored for *design*, else
    a fresh one. The memo holds its designs, so identity is safe."""
    for entry in _HOSTED_CACHE.values():
        if entry.design is design:
            return entry.fingerprint
    return design_fingerprint(design)


def compile_cache_stats() -> Dict[str, int]:
    """Hit/miss counters plus current entry counts (diagnostics/tests):
    ``entries`` compiled artifacts, ``designs`` memoised hosted designs."""
    return {**_CACHE_STATS, "entries": len(_ARTIFACT_CACHE),
            "designs": len(_HOSTED_CACHE)}


def clear_compile_cache() -> None:
    """Drop all cached artifacts and hosted designs; reset the counters."""
    _ARTIFACT_CACHE.clear()
    _HOSTED_CACHE.clear()
    _CACHE_STATS["hits"] = 0
    _CACHE_STATS["misses"] = 0


class CompiledSimulation(BaseSimulation):
    """Cycle-based simulation through generated Python code.

    With ``opt=True`` the design first runs through the
    :mod:`repro.opt` netlist optimizer (single-use wire fusion — all
    state elements and ports preserved) and the code generator switches
    to its fast scheme:
    combinational and flip-flop values live in function locals instead
    of dict slots for the duration of ``settle``/``edge``, and whole
    multi-cycle runs execute inside one generated ``run`` loop. The
    optimization report is exposed as :attr:`opt_report`. A design with
    an AXI4-Lite slave port also gets :attr:`axi_entry`, one whole bus
    transaction in one generated call.
    """

    def __init__(self, design: ir.Design, clock: str = "clk",
                 opt: bool = False):
        self.opt = opt
        key = (_fingerprint(design), clock, opt)
        artifact = _ARTIFACT_CACHE.get(key)
        if artifact is None:
            _CACHE_STATS["misses"] += 1
            opt_report = None
            if opt:
                from repro.opt import run_opt
                result = run_opt(design, clock)
                design = result.design
                opt_report = result.report
            gen = _CodeGen(design, clock, fast=opt)
            source = gen.generate()
            code = compile(source, f"<compiled:{design.name}>", "exec")
            # A separate compile() keeps the transient peak of compiling
            # the module at the size of the larger of the two sources.
            axi_source = gen.generate_axi()
            axi_code = (None if axi_source is None else
                        compile(axi_source, f"<compiled-axi:{design.name}>",
                                "exec"))
            artifact = _CompiledArtifact(
                design=design, source=source, code=code,
                has_negedge=gen.has_negedge, opt_report=opt_report,
                axi_code=axi_code)
            if len(_ARTIFACT_CACHE) >= _ARTIFACT_CACHE_LIMIT:
                _ARTIFACT_CACHE.pop(next(iter(_ARTIFACT_CACHE)))
            _ARTIFACT_CACHE[key] = artifact
        else:
            _CACHE_STATS["hits"] += 1
        self.opt_report = artifact.opt_report
        self.source = artifact.source
        namespace: Dict[str, object] = {}
        exec(artifact.code, namespace)  # noqa: S102 - generated from our IR
        self._settle_fn = namespace["settle"]
        self._edge_fn = namespace["edge"]
        self._edge_neg_fn = namespace["edge_neg"]
        self._init_fn = namespace["init"]
        self._run_fn = namespace.get("run")
        if artifact.axi_code is not None:
            exec(artifact.axi_code, namespace)  # noqa: S102
            self.axi_entry = namespace["axi"]
        self._has_negedge = artifact.has_negedge
        super().__init__(artifact.design, clock)

    def step(self, cycles: int = 1) -> None:
        # Fast path: one call into the generated loop.  Worth taking
        # even for a single cycle — the fused loop's hoisted locals beat
        # the per-phase dict traffic of settle/edge, and single-cycle
        # stepping is exactly what the fuzzer's interrupt-poll hook
        # does.  The base implementation stays authoritative whenever
        # anything wants per-cycle hooks (VCD sampling, negedge
        # evaluation).
        if (self._run_fn is None or cycles < 1 or self._has_negedge
                or self._vcd is not None):
            super().step(cycles)
            return
        self.state_version += 1
        self._run_fn(self.values, self.memories, cycles)
        self.cycle += cycles

    def _run_init_blocks(self) -> None:
        self._init_fn(self.values, self.memories)

    def _settle(self) -> None:
        self._settle_fn(self.values, self.memories)

    def _clock_edge(self) -> None:
        self._edge_fn(self.values, self.memories)

    def _clock_negedge(self) -> None:
        self._edge_neg_fn(self.values, self.memories)


#: The AXI4-Lite slave ports (after the ``s_axi_`` prefix) a design
#: needs for the generated ``axi`` transaction entry.
_AXI_PORTS = ("awvalid", "awready", "awaddr", "wvalid", "wready", "wdata",
              "bvalid", "bready", "arvalid", "arready", "araddr", "rvalid",
              "rready", "rdata")

#: ``axi`` entry, before the loop: the master's opening poke.
_AXI_PROLOGUE = """
if write:
    {awvalid} = 1
    {awaddr} = addr & {awaddr_mask}
    {wvalid} = 1
    {wdata} = data & {wdata_mask}
    {bready} = 1
    st = 0
else:
    {arvalid} = 1
    {araddr} = addr & {araddr_mask}
    {rready} = 1
    st = 10
act = 1
n = cycles = out = aw_done = w_done = rdy_a = rdy_b = 0
"""

#: ``axi`` entry, in the loop after each settle: the master's next
#: move. ``n`` counts the iterations of the current timeout loop;
#: 30+k deasserts the master's signals and then ends with status k.
_AXI_STATES = """
if st < 10:  # write
    if st == 0:  # address and data phase
        if n >= timeout:
            st, act = 31, 0
        else:
            rdy_a = {awready}
            rdy_b = {wready}
            st, act = 1, 2
    elif st == 1:
        if rdy_a and not aw_done:
            aw_done = 1
            {awvalid} = 0
            st, act = 2, 1
        else:
            st, act = 2, 0
    elif st == 2:
        if rdy_b and not w_done:
            w_done = 1
            {wvalid} = 0
            st, act = 3, 1
        else:
            st, act = 3, 0
    elif st == 3:
        if aw_done and w_done:
            st, n, act = 4, 0, 0
        else:
            st, n, act = 0, n + 1, 0
    elif n >= timeout:  # 4: response phase
        st, act = 32, 0
    elif {bvalid}:
        st, act = 30, 2  # consume the response beat
    else:
        n, act = n + 1, 2
elif st < 20:  # read
    if st == 10:  # address phase
        if n >= timeout:
            st, act = 33, 0
        else:
            rdy_a = {arready}
            st, act = 11, 2
    elif st == 11:
        if rdy_a:
            {arvalid} = 0
            st, n, act = 12, 0, 1
        else:
            st, n, act = 10, n + 1, 0
    elif n >= timeout:  # 12: data phase
        st, act = 34, 0
    elif {rvalid}:
        out = {rdata}
        st, act = 30, 2  # consume the data beat
    else:
        n, act = n + 1, 2
elif st >= 30:  # idle: deassert every master-driven signal
    {awvalid} = 0
    {wvalid} = 0
    {bready} = 0
    {arvalid} = 0
    {rready} = 0
    st, act = st - 10, 1
else:
    break
"""


class _CodeGen:
    def __init__(self, design: ir.Design, clock: str, fast: bool = False):
        self.design = design
        self.clock = clock
        self.fast = fast
        self.lines: List[str] = []
        self.indent = 0
        self.temp_count = 0
        self.has_negedge = False
        #: net name -> local variable text, active while generating the
        #: fused ``run`` loop; None elsewhere.
        self.vmap: Optional[Dict[str, str]] = None
        self.run_sentinel_at = 0
        self.run_sentinel_indent = 0

    # -- emit helpers ---------------------------------------------------------

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)

    def fresh(self, hint: str = "t") -> str:
        self.temp_count += 1
        return f"_{hint}{self.temp_count}"

    # -- top level ----------------------------------------------------------------

    def generate(self) -> str:
        self.lines = []
        self._gen_init()
        self._gen_settle()
        self._gen_edge("edge", "posedge")
        self._gen_edge("edge_neg", "negedge")
        if self.fast:
            self._gen_run()
        return "\n".join(self.lines) + "\n"

    def _gen_run(self) -> None:
        """Fused multi-cycle loop.

        Every net value is hoisted into a Python local before the loop
        and stored back after it, so the hot path (posedge + settle per
        iteration, same ordering as :meth:`BaseSimulation.step`) runs
        entirely on ``LOAD_FAST``/``STORE_FAST`` — no dict traffic.
        Inputs cannot change mid-run (pokes happen between calls), and
        the VCD / negedge cases never reach this path.
        """
        self._begin_hoisted("def run(V, M, n):")
        self.emit("for _ in range(n):")
        self.indent += 1
        self._gen_hoisted_clock()
        self._gen_hoisted_settle()
        self.indent -= 1
        self._end_hoisted()

    def generate_axi(self) -> Optional[str]:
        """Source of ``axi(V, M, write, addr, data, timeout) -> (data,
        cycles, status)``: one AXI4-Lite transaction of
        :class:`~repro.bus.axi4lite.Axi4LiteMaster` run over hoisted
        net locals.

        The handshake is the master's, step for step: every poke is
        followed by its own settle, every clock step is a rising edge
        plus a settle, and the timeout budgets are the same. Status 0
        is success; 1–4 name the master's ``BUS_ERRORS``. The function
        is a state machine around one clock-edge site and one settle
        site shared by pokes and steps (``act`` 1: settle after a poke,
        2: clock edge then settle, 0: neither). None when the design is
        not compiled at the fast tier, has negedge logic, or lacks any
        of the fourteen ``s_axi_*`` ports.
        """
        nets = self.design.nets
        if (not self.fast or self.has_negedge
                or any(f"s_axi_{p}" not in nets for p in _AXI_PORTS)):
            return None
        self.lines = []
        self._begin_hoisted("def axi(V, M, write, addr, data, timeout):")
        pins = {p: self.vmap[f"s_axi_{p}"] for p in _AXI_PORTS}
        masks = {f"{p}_mask": nets[f"s_axi_{p}"].mask
                 for p in ("awaddr", "araddr", "wdata")}
        self._emit_text(_AXI_PROLOGUE.format(**pins, **masks))
        self.emit("while True:")
        self.indent += 1
        self.emit("if act:")
        self.indent += 1
        self.emit("if act == 2:")
        self.indent += 1
        self._gen_hoisted_clock()
        self.emit("cycles += 1")
        self.indent -= 1
        self._gen_hoisted_settle()
        self.indent -= 1
        self._emit_text(_AXI_STATES.format(**pins))
        self.indent -= 1
        self._end_hoisted("return out, cycles, st - 20")
        return "\n".join(self.lines) + "\n"

    def _emit_text(self, text: str) -> None:
        """Emit a multi-line block at the current indent."""
        for line in text.strip("\n").splitlines():
            self.emit(line)

    def _begin_hoisted(self, header: str) -> None:
        """Open a function that keeps every net in a local for its whole
        body (see :meth:`_gen_run`)."""
        self.emit(header)
        self.indent += 1
        names = sorted(self.design.nets)
        self.vmap = {name: f"_v{i}" for i, name in enumerate(names)}
        for name in names:
            self.emit(f"{self.vmap[name]} = V[{name!r}]")

    def _end_hoisted(self, *tail: str) -> None:
        for name, local in self.vmap.items():
            self.emit(f"V[{name!r}] = {local}")
        for line in tail:
            self.emit(line)
        self.indent -= 1
        self.emit("")
        self.vmap = None

    def _gen_hoisted_clock(self) -> None:
        """One rising edge on the hoisted locals: clock high, posedge
        blocks (commit sentinels re-armed first), clock low."""
        self.emit(f"{self.vmap[self.clock]} = 1")
        self.run_sentinel_at = len(self.lines)
        self.run_sentinel_indent = self.indent
        self._gen_run_edge()
        self.emit(f"{self.vmap[self.clock]} = 0")

    def _gen_hoisted_settle(self) -> None:
        ctx = _RunCombCtx(self, self.vmap)
        for block in order_comb_blocks(self.design):
            ctx.gen_stmts(block.stmts)

    def _gen_run_edge(self) -> None:
        domain = clock_domain(self.design, self.clock)
        blocks = [b for b in self.design.seq_blocks
                  if b.clock.name in domain and b.clock_edge == "posedge"]
        if not blocks:
            return
        commits: List[str] = []
        nb_nets = sorted({name for b in blocks
                          for name in _nonblocking_net_writes(b.stmts)})
        nb_map = {name: f"_s{i}" for i, name in enumerate(nb_nets)}
        for name, local in nb_map.items():
            self.emit(f"{local} = {self.vmap[name]}")
        for block in blocks:
            blocking = _blocking_net_writes(block.stmts)
            local_map = {}
            if blocking:
                local_map = {name: self.fresh("l")
                             for name in sorted(blocking)}
                for name, local in local_map.items():
                    self.emit(f"{local} = {self.vmap[name]}")
            ctx = _RunSeqCtx(self, commits, local_map, nb_map)
            ctx.gen_stmts(block.stmts)
            for name, local in local_map.items():
                net = self.design.nets[name]
                commits.append(f"{self.vmap[name]} = {local} & {net.mask}")
        for line in commits:
            self.emit(line)
        for name, local in nb_map.items():
            self.emit(f"{self.vmap[name]} = {local}")

    def _gen_init(self) -> None:
        self.emit("def init(V, M):")
        self.indent += 1
        body_emitted = False
        for block in self.design.init_blocks:
            self._gen_stmts_direct(block.stmts)
            body_emitted = True
        if not body_emitted:
            self.emit("pass")
        self.indent -= 1
        self.emit("")

    def _gen_settle(self) -> None:
        self.emit("def settle(V, M):")
        self.indent += 1
        ordered = order_comb_blocks(self.design)
        if not ordered:
            self.emit("pass")
        elif self.fast:
            # Every comb-written net lives in a local for the whole
            # settle: loaded once, updated in dependency order, stored
            # back unconditionally.  Initialising from V preserves
            # read-modify-write and latched bits exactly like the
            # direct scheme (V holds last settle's value).
            written = sorted({name for b in ordered for name in b.writes
                              if name in self.design.nets})
            local_map = {name: f"_c{i}" for i, name in enumerate(written)}
            for name, local in local_map.items():
                self.emit(f"{local} = V[{name!r}]")
            ctx = _FastCombCtx(self, local_map)
            for block in ordered:
                ctx.gen_stmts(block.stmts)
            for name, local in local_map.items():
                self.emit(f"V[{name!r}] = {local}")
        else:
            for block in ordered:
                self._gen_stmts_direct(block.stmts)
        self.indent -= 1
        self.emit("")

    def _gen_edge(self, fn_name: str, edge: str) -> None:
        self._edge_fn_name = fn_name
        self.emit(f"def {fn_name}(V, M):")
        self.indent += 1
        domain = clock_domain(self.design, self.clock)
        blocks = [b for b in self.design.seq_blocks
                  if b.clock.name in domain and b.clock_edge == edge]
        if edge == "negedge" and blocks:
            self.has_negedge = True
        if not blocks:
            self.emit("pass")
            self.indent -= 1
            self.emit("")
            return
        commits: List[str] = []
        nb_map: Dict[str, str] = {}
        if self.fast:
            # Shared write-locals: every non-blocking-written net gets
            # one local seeded with the pre-edge value.  Writes update
            # the local in program order (RHS evaluated at write time,
            # like the buffered scheme); sibling reads keep going to V,
            # which still holds the pre-edge value until the final
            # unconditional stores.
            nb_nets = sorted({name for b in blocks
                              for name in _nonblocking_net_writes(b.stmts)})
            nb_map = {name: f"_s{i}" for i, name in enumerate(nb_nets)}
            for name, local in nb_map.items():
                self.emit(f"{local} = V[{name!r}]")
        for i, block in enumerate(blocks):
            self.emit(f"# seq block {block.name or i}")
            self._gen_seq_block(block, commits, nb_map)
        self.emit("# commit non-blocking updates")
        for line in commits:
            self.emit(line)
        for name, local in nb_map.items():
            self.emit(f"V[{name!r}] = {local}")
        self.indent -= 1
        self.emit("")

    # -- sequential blocks --------------------------------------------------------

    def _gen_seq_block(self, block: ir.SeqBlock, commits: List[str],
                       nb_map: Optional[Dict[str, str]] = None) -> None:
        blocking_nets = _blocking_net_writes(block.stmts)
        if blocking_nets:
            # Locals shadow every blocking-written net so sibling blocks
            # keep reading pre-edge values from V.
            local_map = {name: self.fresh("l") for name in sorted(blocking_nets)}
            for name, local in local_map.items():
                self.emit(f"{local} = V[{name!r}]")
            ctx = _SeqCtx(self, commits, local_map, nb_map or {})
            ctx.gen_stmts(block.stmts)
            for name, local in local_map.items():
                net = self.design.nets[name]
                commits.append(f"V[{name!r}] = {local} & {net.mask}")
        else:
            ctx = _SeqCtx(self, commits, {}, nb_map or {})
            ctx.gen_stmts(block.stmts)

    # -- direct (combinational / initial) statements ------------------------------------

    def _gen_stmts_direct(self, stmts: List[ir.Stmt]) -> None:
        ctx = _CombCtx(self)
        ctx.gen_stmts(stmts)

    # -- expressions ---------------------------------------------------------------

    def gen_expr(self, expr: ir.Expr, rd) -> str:
        kind = type(expr)
        mask = (1 << expr.width) - 1
        if kind is ir.Const:
            return str(expr.value)
        if kind is ir.Ref:
            return rd(expr.net.name)
        if kind is ir.Binary:
            return self._gen_binary(expr, rd, mask)
        if kind is ir.Unary:
            return self._gen_unary(expr, rd, mask)
        if kind is ir.Ternary:
            cond = self.gen_expr(expr.cond, rd)
            then = self.gen_expr(expr.then, rd)
            other = self.gen_expr(expr.other, rd)
            return f"({then} if {cond} else {other})"
        if kind is ir.Slice:
            value = self.gen_expr(expr.value, rd)
            if expr.lo == 0:
                return f"({value} & {mask})"
            return f"(({value} >> {expr.lo}) & {mask})"
        if kind is ir.Concat:
            pieces = []
            offset = 0
            for part in reversed(expr.parts):
                text = self.gen_expr(part, rd)
                pieces.append(f"({text} << {offset})" if offset else text)
                offset += part.width
            return "(" + " | ".join(pieces) + ")"
        if kind is ir.MemRead:
            index = self.gen_expr(expr.index, rd)
            mem = expr.memory
            return (f"(M[{mem.name!r}][{index}] "
                    f"if {index} < {mem.depth} else 0)")
        if kind is ir.DynBit:
            value = self.gen_expr(expr.value, rd)
            index = self.gen_expr(expr.index, rd)
            return (f"((({value}) >> ({index})) & 1 "
                    f"if ({index}) < {expr.value.width} else 0)")
        raise SimulationError(f"codegen: unknown expression {expr!r}")

    def _gen_binary(self, expr: ir.Binary, rd, mask: int) -> str:
        a = self.gen_expr(expr.left, rd)
        op = expr.op
        if op == "&&":
            b = self.gen_expr(expr.right, rd)
            return f"(1 if ({a}) and ({b}) else 0)"
        if op == "||":
            b = self.gen_expr(expr.right, rd)
            return f"(1 if ({a}) or ({b}) else 0)"
        b = self.gen_expr(expr.right, rd)
        if op in ("+", "-", "*"):
            return f"((({a}) {op} ({b})) & {mask})"
        if op == "/":
            return f"(((({a}) // ({b})) & {mask}) if ({b}) else {mask})"
        if op == "%":
            return f"(((({a}) % ({b})) & {mask}) if ({b}) else (({a}) & {mask}))"
        if op in ("&", "|", "^"):
            return f"(({a}) {op} ({b}))"
        if op == "<<":
            if isinstance(expr.right, ir.Const):
                if expr.right.value >= expr.width:
                    return "0"
                return f"((({a}) << {expr.right.value}) & {mask})"
            return f"(((({a}) << ({b})) & {mask}) if ({b}) < 64 else 0)"
        if op in (">>", ">>>"):
            if isinstance(expr.right, ir.Const):
                return f"(({a}) >> {expr.right.value})" if expr.right.value < 64 else "0"
            return f"((({a}) >> ({b})) if ({b}) < 64 else 0)"
        py_ops = {"==": "==", "!=": "!=", "<": "<", "<=": "<=",
                  ">": ">", ">=": ">="}
        if op in py_ops:
            return f"(1 if ({a}) {py_ops[op]} ({b}) else 0)"
        raise SimulationError(f"codegen: unknown binary op {op!r}")

    def _gen_unary(self, expr: ir.Unary, rd, mask: int) -> str:
        value = self.gen_expr(expr.operand, rd)
        op = expr.op
        operand_mask = (1 << expr.operand.width) - 1
        if op == "~":
            return f"(~({value}) & {mask})"
        if op == "-":
            return f"(-({value}) & {mask})"
        if op == "!":
            return f"(1 if ({value}) == 0 else 0)"
        if op == "&":
            return f"(1 if ({value}) == {operand_mask} else 0)"
        if op == "|":
            return f"(1 if ({value}) else 0)"
        if op == "^":
            return f"(({value}).bit_count() & 1)"
        if op == "~&":
            return f"(0 if ({value}) == {operand_mask} else 1)"
        if op == "~|":
            return f"(0 if ({value}) else 1)"
        if op == "~^":
            return f"((({value}).bit_count() + 1) & 1)"
        raise SimulationError(f"codegen: unknown unary op {op!r}")


class _StmtCtx:
    """Shared statement-lowering logic; subclasses define write semantics."""

    def __init__(self, gen: _CodeGen):
        self.gen = gen

    def rd(self, name: str) -> str:
        raise NotImplementedError

    def write(self, target: ir.LValue, value_text: str) -> None:
        raise NotImplementedError

    def gen_stmts(self, stmts: List[ir.Stmt]) -> None:
        if not stmts:
            self.gen.emit("pass")
            return
        for stmt in stmts:
            self.gen_stmt(stmt)

    def gen_stmt(self, stmt: ir.Stmt) -> None:
        gen = self.gen
        if isinstance(stmt, ir.SAssign):
            self.assign(stmt)
        elif isinstance(stmt, ir.SIf):
            cond = gen.gen_expr(stmt.cond, self.rd)
            gen.emit(f"if {cond}:")
            gen.indent += 1
            self.gen_stmts(stmt.then)
            gen.indent -= 1
            if stmt.other:
                gen.emit("else:")
                gen.indent += 1
                self.gen_stmts(stmt.other)
                gen.indent -= 1
        elif isinstance(stmt, ir.SCase):
            subj_temp = gen.fresh("cs")
            gen.emit(f"{subj_temp} = {gen.gen_expr(stmt.subject, self.rd)}")
            first = True
            for item in stmt.items:
                tests = []
                for value, care in item.labels:
                    full = (1 << stmt.subject.width) - 1
                    if care == full:
                        tests.append(f"{subj_temp} == {value}")
                    else:
                        tests.append(f"({subj_temp} & {care}) == {value}")
                keyword = "if" if first else "elif"
                gen.emit(f"{keyword} {' or '.join(tests)}:")
                gen.indent += 1
                self.gen_stmts(item.body)
                gen.indent -= 1
                first = False
            if stmt.default or not first:
                if first:
                    self.gen_stmts(stmt.default)
                else:
                    gen.emit("else:")
                    gen.indent += 1
                    self.gen_stmts(stmt.default)
                    gen.indent -= 1
            elif first:
                gen.emit("pass")
        else:
            raise SimulationError(f"codegen: unknown statement {stmt!r}")

    def assign(self, stmt: ir.SAssign) -> None:
        if isinstance(stmt.target, ir.LConcat):
            # Evaluate once, scatter to parts.
            temp = self.gen.fresh("cc")
            self.gen.emit(f"{temp} = {self.gen.gen_expr(stmt.value, self.rd)}")
            offset = 0
            for part in reversed(stmt.target.parts):
                part_mask = (1 << part.width) - 1
                piece = f"(({temp} >> {offset}) & {part_mask})" if offset \
                    else f"({temp} & {part_mask})"
                self.write_leaf(part, piece, stmt.blocking, part.width)
                offset += part.width
            return
        value_text = self.gen.gen_expr(stmt.value, self.rd)
        self.write_leaf(stmt.target, value_text, stmt.blocking,
                        stmt.value.width)

    def write_leaf(self, target: ir.LValue, value_text: str,
                   blocking: bool,
                   value_width: Optional[int] = None) -> None:
        raise NotImplementedError


class _CombCtx(_StmtCtx):
    """Combinational / initial context: direct reads and writes on V/M."""

    def rd(self, name: str) -> str:
        return f"V[{name!r}]"

    def write_leaf(self, target: ir.LValue, value_text: str,
                   blocking: bool,
                   value_width: Optional[int] = None) -> None:
        gen = self.gen
        if isinstance(target, ir.LNet):
            net = target.net
            if target.hi is None:
                gen.emit(f"V[{net.name!r}] = ({value_text}) & {net.mask}")
            else:
                width = target.hi - target.lo + 1
                field_mask = ((1 << width) - 1) << target.lo
                gen.emit(
                    f"V[{net.name!r}] = ((V[{net.name!r}] & {~field_mask & net.mask}) "
                    f"| ((({value_text}) << {target.lo}) & {field_mask}))")
        elif isinstance(target, ir.LNetDyn):
            net = target.net
            idx = gen.gen_expr(target.index, self.rd)
            temp = gen.fresh("i")
            gen.emit(f"{temp} = {idx}")
            gen.emit(f"if {temp} < {net.width}:")
            gen.indent += 1
            gen.emit(
                f"V[{net.name!r}] = ((V[{net.name!r}] & ~(1 << {temp})) "
                f"| ((({value_text}) & 1) << {temp}))")
            gen.indent -= 1
        elif isinstance(target, ir.LMem):
            mem = target.memory
            idx = gen.gen_expr(target.index, self.rd)
            temp = gen.fresh("i")
            gen.emit(f"{temp} = {idx}")
            gen.emit(f"if {temp} < {mem.depth}:")
            gen.indent += 1
            gen.emit(f"M[{mem.name!r}][{temp}] = ({value_text}) & {mem.mask}")
            gen.indent -= 1
        else:
            raise SimulationError(f"codegen: unknown lvalue {target!r}")


class _FastCombCtx(_CombCtx):
    """Settle-locals context: every comb-written net lives in a local
    loaded once at function entry and stored back once at the end."""

    def __init__(self, gen: _CodeGen, local_map: Dict[str, str]):
        super().__init__(gen)
        self.local_map = local_map

    def rd(self, name: str) -> str:
        local = self.local_map.get(name)
        if local is not None:
            return local
        return f"V[{name!r}]"

    def write_leaf(self, target: ir.LValue, value_text: str,
                   blocking: bool,
                   value_width: Optional[int] = None) -> None:
        gen = self.gen
        if isinstance(target, ir.LNet):
            net = target.net
            local = self.local_map[net.name]
            if target.hi is None:
                # Generated expressions never exceed their node width,
                # so the store mask is redundant when the value is no
                # wider than the net.
                if value_width is not None and value_width <= net.width:
                    gen.emit(f"{local} = {value_text}")
                else:
                    gen.emit(f"{local} = ({value_text}) & {net.mask}")
            else:
                width = target.hi - target.lo + 1
                field_mask = ((1 << width) - 1) << target.lo
                gen.emit(
                    f"{local} = (({local} & {~field_mask & net.mask}) "
                    f"| ((({value_text}) << {target.lo}) & {field_mask}))")
        elif isinstance(target, ir.LNetDyn):
            net = target.net
            local = self.local_map[net.name]
            idx = gen.gen_expr(target.index, self.rd)
            temp = gen.fresh("i")
            gen.emit(f"{temp} = {idx}")
            gen.emit(f"if {temp} < {net.width}:")
            gen.indent += 1
            gen.emit(f"{local} = (({local} & ~(1 << {temp})) "
                     f"| ((({value_text}) & 1) << {temp}))")
            gen.indent -= 1
        else:
            super().write_leaf(target, value_text, blocking, value_width)


class _SeqCtx(_StmtCtx):
    """Sequential context: buffered non-blocking writes, local blocking."""

    def __init__(self, gen: _CodeGen, commits: List[str],
                 local_map: Dict[str, str],
                 nb_map: Optional[Dict[str, str]] = None):
        super().__init__(gen)
        self.commits = commits
        self.local_map = local_map
        self.nb_map = nb_map or {}

    def rd(self, name: str) -> str:
        local = self.local_map.get(name)
        if local is not None:
            return local
        return f"V[{name!r}]"

    def write_leaf(self, target: ir.LValue, value_text: str,
                   blocking: bool,
                   value_width: Optional[int] = None) -> None:
        gen = self.gen
        if blocking:
            self._write_blocking(target, value_text)
            return
        if isinstance(target, ir.LNet) and target.net.name in self.nb_map:
            net = target.net
            local = self.nb_map[net.name]
            if target.hi is None:
                if value_width is not None and value_width <= net.width:
                    gen.emit(f"{local} = {value_text}")
                else:
                    gen.emit(f"{local} = ({value_text}) & {net.mask}")
            else:
                width = target.hi - target.lo + 1
                field_mask = ((1 << width) - 1) << target.lo
                gen.emit(
                    f"{local} = (({local} & {~field_mask & net.mask}) "
                    f"| ((({value_text}) << {target.lo}) & {field_mask}))")
            return
        if isinstance(target, ir.LNetDyn) and target.net.name in self.nb_map:
            net = target.net
            local = self.nb_map[net.name]
            idx = gen.gen_expr(target.index, self.rd)
            temp = gen.fresh("i")
            gen.emit(f"{temp} = {idx}")
            gen.emit(f"if {temp} < {net.width}:")
            gen.indent += 1
            gen.emit(f"{local} = (({local} & ~(1 << {temp})) "
                     f"| ((({value_text}) & 1) << {temp}))")
            gen.indent -= 1
            return
        if isinstance(target, ir.LNet):
            net = target.net
            temp = gen.fresh("nb")
            self._emit_sentinel(temp)
            gen.emit(f"{temp} = {value_text}")
            if target.hi is None:
                self.commits.append(
                    f"if {temp} is not None: V[{net.name!r}] = {temp} & {net.mask}")
            else:
                width = target.hi - target.lo + 1
                field_mask = ((1 << width) - 1) << target.lo
                self.commits.append(
                    f"if {temp} is not None: V[{net.name!r}] = "
                    f"((V[{net.name!r}] & {~field_mask & net.mask}) "
                    f"| (({temp} << {target.lo}) & {field_mask}))")
        elif isinstance(target, ir.LNetDyn):
            net = target.net
            idx = gen.gen_expr(target.index, self.rd)
            temp = gen.fresh("nb")
            self._emit_sentinel(temp)
            gen.emit(f"{temp} = (({idx}), ({value_text}))")
            self.commits.append(
                f"if {temp} is not None and {temp}[0] < {net.width}: "
                f"V[{net.name!r}] = ((V[{net.name!r}] & ~(1 << {temp}[0])) "
                f"| (({temp}[1] & 1) << {temp}[0]))")
        elif isinstance(target, ir.LMem):
            mem = target.memory
            idx = gen.gen_expr(target.index, self.rd)
            temp = gen.fresh("nb")
            self._emit_sentinel(temp)
            gen.emit(f"{temp} = (({idx}), ({value_text}))")
            self.commits.append(
                f"if {temp} is not None and {temp}[0] < {mem.depth}: "
                f"M[{mem.name!r}][{temp}[0]] = {temp}[1] & {mem.mask}")
        else:
            raise SimulationError(f"codegen: unknown lvalue {target!r}")

    def _emit_sentinel(self, temp: str) -> None:
        """Initialise a non-blocking commit temporary to None at the top
        of the edge function (a conditional write site may not execute)."""
        header = f"def {self.gen._edge_fn_name}("
        for i, line in enumerate(self.gen.lines):
            if line.startswith(header):
                self.gen.lines.insert(i + 1, f"    {temp} = None")
                return
        raise SimulationError("edge function header not found")

    def _write_blocking(self, target: ir.LValue, value_text: str) -> None:
        gen = self.gen
        if isinstance(target, ir.LNet):
            local = self.local_map.get(target.net.name)
            if local is None:
                raise SimulationError(
                    f"blocking write to {target.net.name!r} missing local")
            net = target.net
            if target.hi is None:
                gen.emit(f"{local} = ({value_text}) & {net.mask}")
            else:
                width = target.hi - target.lo + 1
                field_mask = ((1 << width) - 1) << target.lo
                gen.emit(
                    f"{local} = (({local} & {~field_mask & net.mask}) "
                    f"| ((({value_text}) << {target.lo}) & {field_mask}))")
        elif isinstance(target, ir.LNetDyn):
            local = self.local_map.get(target.net.name)
            if local is None:
                raise SimulationError(
                    f"blocking write to {target.net.name!r} missing local")
            idx = gen.gen_expr(target.index, self.rd)
            temp = gen.fresh("i")
            gen.emit(f"{temp} = {idx}")
            gen.emit(f"if {temp} < {target.net.width}:")
            gen.indent += 1
            gen.emit(f"{local} = (({local} & ~(1 << {temp})) "
                     f"| ((({value_text}) & 1) << {temp}))")
            gen.indent -= 1
        elif isinstance(target, ir.LMem):
            # Blocking memory writes in seq blocks commit immediately
            # (matches the interpreter's documented behaviour).
            mem = target.memory
            idx = gen.gen_expr(target.index, self.rd)
            temp = gen.fresh("i")
            gen.emit(f"{temp} = {idx}")
            gen.emit(f"if {temp} < {mem.depth}:")
            gen.indent += 1
            gen.emit(f"M[{mem.name!r}][{temp}] = ({value_text}) & {mem.mask}")
            gen.indent -= 1
        else:
            raise SimulationError(f"codegen: unknown lvalue {target!r}")


class _RunCombCtx(_FastCombCtx):
    """Settle section of the fused run loop: the local map covers every
    net, so no V access happens inside the loop at all."""


class _RunSeqCtx(_SeqCtx):
    """Edge section of the fused run loop: reads resolve to the hoisted
    net locals, commit sentinels are re-armed every iteration."""

    def rd(self, name: str) -> str:
        local = self.local_map.get(name)
        if local is not None:
            return local
        vmap = self.gen.vmap or {}
        return vmap.get(name) or f"V[{name!r}]"

    def _emit_sentinel(self, temp: str) -> None:
        gen = self.gen
        gen.lines.insert(
            gen.run_sentinel_at,
            "    " * gen.run_sentinel_indent + f"{temp} = None")
        gen.run_sentinel_at += 1


def _blocking_net_writes(stmts: List[ir.Stmt]) -> set:
    """Names of nets written with blocking assignments anywhere in *stmts*."""
    names: set = set()
    for stmt in ir._walk_stmts(stmts):
        if isinstance(stmt, ir.SAssign) and stmt.blocking:
            for leaf in ir._leaf_lvalues(stmt.target):
                if isinstance(leaf, (ir.LNet, ir.LNetDyn)):
                    names.add(leaf.net.name)
    return names


def _nonblocking_net_writes(stmts: List[ir.Stmt]) -> set:
    """Names of nets written non-blocking anywhere in *stmts* (memories
    keep the buffered commit scheme and are not collected here)."""
    names: set = set()
    for stmt in ir._walk_stmts(stmts):
        if isinstance(stmt, ir.SAssign) and not stmt.blocking:
            for leaf in ir._leaf_lvalues(stmt.target):
                if isinstance(leaf, (ir.LNet, ir.LNetDyn)):
                    names.add(leaf.net.name)
    return names
