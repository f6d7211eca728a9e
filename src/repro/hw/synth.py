"""Hardware synthesis: CFSM s-graphs to a gate-level FSMD.

Each hardware-mapped CFSM is compiled in two stages, mirroring the
"fast HW synthesis" box of the paper's Figure 2(a):

1. **RTL compilation** — every transition body is lowered to a
   *micro-program*: one register-transfer operation per controller
   state (shared-ALU FSMD style).  The micro-op IR has four op kinds:
   ALU transfers, non-zero tests with two successor states, event
   emissions, and DONE markers.

2. **Structural synthesis** — the micro-program is mapped onto a
   one-hot controller plus a datapath built from the gate library:
   load-enable registers for CFSM variables and temporaries, one shared
   ALU (ripple-carry add/sub, logic unit, optional barrel shifter,
   comparators), AND-OR one-hot operand selection, and per-event output
   value registers with strobe outputs.

Restrictions (documented for users): the hardware datapath is unsigned
modulo ``2^width``; MUL/DIV/MOD are not synthesizable (map such
processes to software); loop bounds must be non-negative.  The
reference micro-program executor in this module is used by tests to
check the gate-level netlist bit-for-bit against behavioral execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union
from repro.errors import ReproError

from repro.cfsm.expr import BinaryOp, Const, EventValue, Expression, UnaryOp, Var
from repro.cfsm.model import Cfsm
from repro.cfsm.sgraph import (
    Assign,
    Emit,
    If,
    Loop,
    SGraph,
    SharedRead,
    SharedWrite,
    Statement,
)

#: Reserved port/event names for the block's shared-memory interface.
#: A SharedRead lowers to "emit the address on the memory-request port,
#: then capture the returned word from the memory-data input port"; a
#: SharedWrite drives the address and data ports in two cycles.  The
#: estimator (and, at system level, the simulation master) plays the
#: role of the bus interface by answering requests on these ports.
MEM_READ_REQ = "__MEMRD"
MEM_WRITE_ADDR = "__MEMWA"
MEM_WRITE_DATA = "__MEMWD"
MEM_DATA_IN = "__MEMDATA"
from repro.hw.library import GateLibrary
from repro.hw.netlist import Netlist, NetlistBuilder
from repro.lru import LruCache


class SynthesisError(ReproError):
    """Raised when a CFSM cannot be mapped to hardware."""


# ---------------------------------------------------------------------------
# Micro-op IR
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegSrc:
    """Datapath register operand."""

    name: str


@dataclass(frozen=True)
class ConstSrc:
    """Immediate operand (masked to the datapath width)."""

    value: int


@dataclass(frozen=True)
class InputSrc:
    """Input-event value port operand."""

    event: str


Src = Union[RegSrc, ConstSrc, InputSrc]

#: ALU operation mnemonics supported by the datapath.
ALU_OPS = ("ADD", "SUB", "AND", "OR", "XOR", "SHL", "SHR",
           "EQ", "NE", "LT", "LE", "GT", "GE", "PASS")


@dataclass
class AluOp:
    """``dest := a <op> b`` in one cycle."""

    dest: str
    op: str
    a: Src
    b: Src
    next: int = -1

    def __post_init__(self) -> None:
        if self.op not in ALU_OPS:
            raise SynthesisError("unsupported ALU op %r" % self.op)


@dataclass
class TestOp:
    """Branch: to ``next_taken`` when ``src`` is non-zero, else ``next``."""

    __test__ = False  # not a pytest test class

    src: Src
    next: int = -1
    next_taken: int = -1


@dataclass
class EmitOp:
    """Assert the event strobe and load its value register from ``src``."""

    event: str
    src: Src
    next: int = -1


@dataclass
class DoneOp:
    """End of a transition's micro-sequence; returns the FSMD to idle."""

    next: int = -1


MicroOp = Union[AluOp, TestOp, EmitOp, DoneOp]


@dataclass
class MicroProgram:
    """All transitions of one CFSM, lowered to micro-ops."""

    cfsm_name: str
    width: int
    ops: List[MicroOp] = field(default_factory=list)
    entries: Dict[str, int] = field(default_factory=dict)

    def execute(
        self,
        transition_name: str,
        state: Dict[str, int],
        inputs: Dict[str, int],
        max_cycles: int = 1_000_000,
    ) -> Tuple[int, List[Tuple[str, int]]]:
        """Reference execution of one transition's micro-sequence.

        Mutates ``state`` (register values, modulo ``2^width``) and
        returns ``(cycles, emitted (event, value) pairs)``.  Used to
        validate the gate-level netlist and for estimator fallbacks.
        """
        mask = (1 << self.width) - 1
        index = self.entries[transition_name]
        emitted: List[Tuple[str, int]] = []
        cycles = 0

        def read(src: Src) -> int:
            if isinstance(src, RegSrc):
                return state.get(src.name, 0) & mask
            if isinstance(src, ConstSrc):
                return src.value & mask
            return inputs.get(src.event, 0) & mask

        while True:
            cycles += 1
            if cycles > max_cycles:
                raise SynthesisError("micro-program exceeded %d cycles" % max_cycles)
            op = self.ops[index]
            if isinstance(op, AluOp):
                state[op.dest] = _alu_semantics(op.op, read(op.a), read(op.b), mask)
                index = op.next
            elif isinstance(op, TestOp):
                index = op.next_taken if read(op.src) != 0 else op.next
            elif isinstance(op, EmitOp):
                emitted.append((op.event, read(op.src)))
                index = op.next
            elif isinstance(op, DoneOp):
                return cycles, emitted
            else:
                raise SynthesisError("unknown micro-op %r" % op)


def _alu_semantics(op: str, a: int, b: int, mask: int) -> int:
    if op == "ADD":
        return (a + b) & mask
    if op == "SUB":
        return (a - b) & mask
    if op == "AND":
        return a & b
    if op == "OR":
        return a | b
    if op == "XOR":
        return a ^ b
    if op in ("SHL", "SHR"):
        # Match the barrel shifter exactly: only the stage-count low
        # bits of the amount are wired, so larger amounts wrap.
        width = mask.bit_length()
        stages = max(1, (width - 1).bit_length())
        amount = b & ((1 << stages) - 1)
        if op == "SHL":
            return (a << amount) & mask
        return (a & mask) >> amount
    if op == "EQ":
        return int(a == b)
    if op == "NE":
        return int(a != b)
    if op == "LT":
        return int(a < b)
    if op == "LE":
        return int(a <= b)
    if op == "GT":
        return int(a > b)
    if op == "GE":
        return int(a >= b)
    if op == "PASS":
        return a
    raise SynthesisError("unknown ALU op %r" % op)


# ---------------------------------------------------------------------------
# Stage 1: RTL compilation
# ---------------------------------------------------------------------------

_COMPARISONS = ("EQ", "NE", "LT", "LE", "GT", "GE")

_DIRECT_ALU = {
    "ADD": "ADD", "SUB": "SUB", "AND": "AND", "OR": "OR", "XOR": "XOR",
    "SHL": "SHL", "SHR": "SHR",
    "EQ": "EQ", "NE": "NE", "LT": "LT", "LE": "LE", "GT": "GT", "GE": "GE",
}


class RtlCompiler:
    """Lowers one CFSM's transitions into a :class:`MicroProgram`."""

    def __init__(self, cfsm: Cfsm) -> None:
        self.cfsm = cfsm
        self.program = MicroProgram(cfsm_name=cfsm.name, width=cfsm.width)
        self._temp_pool: List[str] = []
        self._temp_count = 0
        self._loop_depth = 0

    def compile(self) -> MicroProgram:
        for transition in self.cfsm.transitions:
            self.program.entries[transition.name] = len(self.program.ops)
            self._temp_pool = []
            self._loop_depth = 0
            self._compile_block(transition.body.statements)
            self._emit(DoneOp())
        self._check_targets()
        return self.program

    # -- helpers -----------------------------------------------------------

    def _emit(self, op: MicroOp) -> int:
        index = len(self.program.ops)
        self.program.ops.append(op)
        if op.next == -1:
            op.next = index + 1
        return index

    def _alloc_temp(self) -> str:
        if self._temp_pool:
            return self._temp_pool.pop()
        name = "_t%d" % self._temp_count
        self._temp_count += 1
        return name

    def _free_temp(self, src: Src) -> None:
        if isinstance(src, RegSrc) and src.name.startswith("_t"):
            if src.name not in self._temp_pool:
                self._temp_pool.append(src.name)

    def _check_targets(self) -> None:
        count = len(self.program.ops)
        for index, op in enumerate(self.program.ops):
            targets = [op.next] if not isinstance(op, DoneOp) else []
            if isinstance(op, TestOp):
                targets.append(op.next_taken)
            for target in targets:
                if not 0 <= target < count:
                    raise SynthesisError(
                        "micro-op %d has dangling target %d" % (index, target)
                    )

    # -- statements -----------------------------------------------------------

    def _compile_block(self, statements: Sequence[Statement]) -> None:
        for statement in statements:
            self._compile_statement(statement)

    def _compile_statement(self, statement: Statement) -> None:
        if isinstance(statement, Assign):
            self._compile_expr_into(statement.target, statement.value)
        elif isinstance(statement, Emit):
            src: Src = ConstSrc(0)
            if statement.value is not None:
                src = self._compile_expr(statement.value)
            self._emit(EmitOp(statement.event, src))
            self._free_temp(src)
        elif isinstance(statement, If):
            self._compile_if(statement)
        elif isinstance(statement, Loop):
            self._compile_loop(statement)
        elif isinstance(statement, SharedRead):
            address = self._compile_expr(statement.address)
            self._emit(EmitOp(MEM_READ_REQ, address))
            self._free_temp(address)
            self._emit(
                AluOp(statement.target, "PASS", InputSrc(MEM_DATA_IN), ConstSrc(0))
            )
        elif isinstance(statement, SharedWrite):
            address = self._compile_expr(statement.address)
            self._emit(EmitOp(MEM_WRITE_ADDR, address))
            self._free_temp(address)
            data = self._compile_expr(statement.value)
            self._emit(EmitOp(MEM_WRITE_DATA, data))
            self._free_temp(data)
        else:
            raise SynthesisError("cannot synthesize statement %r" % statement)

    def _compile_if(self, statement: If) -> None:
        cond = self._compile_expr(statement.cond)
        test_index = self._emit(TestOp(cond))
        self._free_temp(cond)
        test = self.program.ops[test_index]
        test.next_taken = len(self.program.ops)
        self._compile_block(statement.then)
        if statement.els:
            # A PASS-to-nowhere join state skips the else block.
            join_index = self._emit(AluOp("_join", "PASS", ConstSrc(0), ConstSrc(0)))
            test.next = len(self.program.ops)
            self._compile_block(statement.els)
            self.program.ops[join_index].next = len(self.program.ops)
        else:
            test.next = len(self.program.ops)

    def _compile_loop(self, statement: Loop) -> None:
        counter = "_lc%d" % self._loop_depth
        self._loop_depth += 1
        count_src = self._compile_expr(statement.count)
        self._emit(AluOp(counter, "PASS", count_src, ConstSrc(0)))
        self._free_temp(count_src)
        test_index = self._emit(TestOp(RegSrc(counter)))
        test = self.program.ops[test_index]
        test.next_taken = len(self.program.ops)
        self._compile_block(statement.body)
        decrement = AluOp(counter, "SUB", RegSrc(counter), ConstSrc(1))
        self._emit(decrement)
        decrement.next = test_index
        test.next = len(self.program.ops)
        self._loop_depth -= 1

    # -- expressions -----------------------------------------------------------

    def _compile_expr(self, expression: Expression) -> Src:
        if isinstance(expression, Const):
            return ConstSrc(expression.value)
        if isinstance(expression, Var):
            return RegSrc(expression.name)
        if isinstance(expression, EventValue):
            return InputSrc(expression.event)
        dest = self._alloc_temp()
        self._compile_expr_into(dest, expression)
        return RegSrc(dest)

    def _compile_expr_into(self, dest: str, expression: Expression) -> None:
        """Compile ``expression`` with its final op writing ``dest``."""
        if isinstance(expression, (Const, Var, EventValue)):
            self._emit(AluOp(dest, "PASS", self._compile_expr(expression), ConstSrc(0)))
            return
        if isinstance(expression, UnaryOp):
            operand = self._compile_expr(expression.operand)
            if expression.op == "NEG":
                self._emit(AluOp(dest, "SUB", ConstSrc(0), operand))
            elif expression.op == "NOT":
                self._emit(AluOp(dest, "EQ", operand, ConstSrc(0)))
            elif expression.op == "BNOT":
                self._emit(AluOp(dest, "XOR", operand, ConstSrc(-1)))
            else:
                raise SynthesisError("cannot synthesize unary %r" % expression.op)
            self._free_temp(operand)
            return
        if isinstance(expression, BinaryOp):
            op = expression.op
            if op in ("MUL", "DIV", "MOD"):
                raise SynthesisError(
                    "%s is not synthesizable; map process %r to software"
                    % (op, self.cfsm.name)
                )
            if op in ("LAND", "LOR"):
                left = self._bool_src(expression.left)
                right = self._bool_src(expression.right)
                self._emit(AluOp(dest, "AND" if op == "LAND" else "OR", left, right))
                self._free_temp(left)
                self._free_temp(right)
                return
            if op not in _DIRECT_ALU:
                raise SynthesisError("cannot synthesize binary %r" % op)
            left = self._compile_expr(expression.left)
            right = self._compile_expr(expression.right)
            self._emit(AluOp(dest, _DIRECT_ALU[op], left, right))
            self._free_temp(left)
            self._free_temp(right)
            return
        raise SynthesisError("cannot synthesize expression %r" % expression)

    def _bool_src(self, expression: Expression) -> Src:
        """Source normalized to 0/1 (comparisons already are)."""
        if isinstance(expression, BinaryOp) and expression.op in _COMPARISONS:
            return self._compile_expr(expression)
        operand = self._compile_expr(expression)
        dest = self._alloc_temp()
        self._emit(AluOp(dest, "NE", operand, ConstSrc(0)))
        self._free_temp(operand)
        return RegSrc(dest)


# ---------------------------------------------------------------------------
# Stage 2: structural synthesis
# ---------------------------------------------------------------------------


@dataclass
class SynthesizedBlock:
    """The synthesis result handed to the hardware power estimator."""

    cfsm: Cfsm
    micro_program: MicroProgram
    netlist: Netlist
    go_ports: Dict[str, str]  # transition name -> go port name
    input_ports: Dict[str, str]  # event name -> value port name
    value_ports: Dict[str, str]  # event name -> emitted-value port name
    strobe_ports: Dict[str, str]  # event name -> strobe port name
    register_ports: Dict[str, str]  # variable name -> observation port

    def logic_depth(self) -> int:
        """Levelized combinational depth of the synthesized netlist."""
        return levelize(self.netlist).depth


@dataclass(frozen=True)
class Levelization:
    """Levelized view of a netlist's combinational logic.

    ``net_levels[n]`` is the combinational level of net ``n``: 0 for
    constants, primary inputs, and flip-flop outputs (cycle
    boundaries), and ``1 + max(level of inputs)`` for gate outputs.
    ``level_widths[d]`` counts the gates at level ``d + 1`` — the gates
    that could evaluate concurrently in a data-parallel backend.
    ``depth`` (the critical path in gate delays) bounds the clock the
    block could sustain and feeds the static cost model.
    """

    net_levels: Tuple[int, ...]
    level_widths: Tuple[int, ...]

    @property
    def depth(self) -> int:
        return len(self.level_widths)


def levelize(netlist: Netlist) -> Levelization:
    """Levelize ``netlist`` (single pass: gates are in dependency order)."""
    levels = [0] * netlist.num_nets
    widths: List[int] = []
    for gate in netlist.gates:
        level = 1 + max((levels[net] for net in gate.inputs), default=0)
        levels[gate.output] = level
        while len(widths) < level:
            widths.append(0)
        widths[level - 1] += 1
    return Levelization(net_levels=tuple(levels),
                        level_widths=tuple(widths))


def synthesize_cfsm(
    cfsm: Cfsm, library: Optional[GateLibrary] = None
) -> SynthesizedBlock:
    """Synthesize ``cfsm`` into a gate-level FSMD netlist."""
    program = RtlCompiler(cfsm).compile()
    return _Structural(cfsm, program, library or GateLibrary.default()).build()


#: Synthesis results keyed by (CFSM structure, library) digest.  The
#: explorer instantiates one master — and therefore one
#: HardwarePowerSimulator per hardware block — per design point, and
#: synthesis is a pure function of the CFSM structure and the library.
#: The cached SynthesizedBlock is shared read-only: all mutable
#: simulation state (net values, registers) lives in each
#: CompiledSimulator instance.
_SYNTH_CACHE: LruCache[SynthesizedBlock] = LruCache(capacity=128)

SYNTH_CACHE_STATS = _SYNTH_CACHE.stats


def clear_synth_cache() -> None:
    """Drop all cached synthesis results (tests and benchmarks)."""
    _SYNTH_CACHE.clear()


def synthesize_cfsm_cached(
    cfsm: Cfsm, library: Optional[GateLibrary] = None
) -> SynthesizedBlock:
    """Like :func:`synthesize_cfsm`, via the process-wide cache."""
    from repro.cfsm.fingerprint import cfsm_digest

    resolved = library or GateLibrary.default()
    key = cfsm_digest(cfsm, resolved.signature())
    block = _SYNTH_CACHE.get(key)
    if block is None:
        block = synthesize_cfsm(cfsm, resolved)
        _SYNTH_CACHE.put(key, block)
    return block


class _Structural:
    """Maps a micro-program onto gates."""

    def __init__(self, cfsm: Cfsm, program: MicroProgram, library: GateLibrary) -> None:
        self.cfsm = cfsm
        self.program = program
        self.library = library
        self.width = cfsm.width
        self.builder = NetlistBuilder("%s_netlist" % cfsm.name)

    def build(self) -> SynthesizedBlock:
        builder = self.builder
        program = self.program
        ops = program.ops
        width = self.width

        # -- ports -------------------------------------------------------
        go_ports: Dict[str, str] = {}
        go_nets: Dict[str, int] = {}
        for name in program.entries:
            port = "go_%s" % name
            go_ports[name] = port
            go_nets[name] = builder.input_bus(port, 1)[0]

        input_events = sorted(
            {op.a.event for op in ops if isinstance(op, AluOp) and isinstance(op.a, InputSrc)}
            | {op.b.event for op in ops if isinstance(op, AluOp) and isinstance(op.b, InputSrc)}
            | {op.src.event for op in ops if isinstance(op, (TestOp, EmitOp)) and isinstance(op.src, InputSrc)}
        )
        input_ports: Dict[str, str] = {}
        input_buses: Dict[str, List[int]] = {}
        for event in input_events:
            port = "in_%s" % event
            input_ports[event] = port
            input_buses[event] = builder.input_bus(port, width)

        # -- controller state registers (Q created first, D attached last)
        state_q = [builder.new_net("s%d" % index) for index in range(len(ops))]
        idle_q = builder.new_net("idle")

        # -- operand sources ------------------------------------------------
        registers = sorted(
            set(self.cfsm.variables)
            | {op.dest for op in ops if isinstance(op, AluOp)}
        )
        reg_buses: Dict[str, List[int]] = {}

        # Registers must exist before operand muxes; build them with a
        # placeholder data bus?  No — load-enable registers read the
        # shared result bus, which reads operand muxes, which read the
        # register Q nets.  Create Q nets now, attach DFF muxes later.
        for reg in registers:
            reg_buses[reg] = [
                builder.new_net("%s[%d]" % (reg, bit)) for bit in range(width)
            ]

        def src_bus(src: Src) -> List[int]:
            if isinstance(src, RegSrc):
                return reg_buses[src.name]
            if isinstance(src, ConstSrc):
                return builder.const_bus(src.value, width)
            return input_buses[src.event]

        # -- one-hot operand selection ------------------------------------
        a_users: Dict[Src, List[int]] = {}
        b_users: Dict[Src, List[int]] = {}
        for index, op in enumerate(ops):
            if isinstance(op, AluOp):
                a_users.setdefault(op.a, []).append(index)
                b_users.setdefault(op.b, []).append(index)
            elif isinstance(op, (TestOp, EmitOp)):
                a_users.setdefault(op.src, []).append(index)

        def build_operand_bus(users: Dict[Src, List[int]]) -> List[int]:
            choices = []
            for src in sorted(users, key=repr):
                select = builder.or_tree([state_q[i] for i in users[src]])
                choices.append((select, src_bus(src)))
            if not choices:
                return builder.const_bus(0, width)
            return builder.onehot_mux(choices)

        a_bus = build_operand_bus(a_users)
        b_bus = build_operand_bus(b_users)

        # -- ALU -------------------------------------------------------------
        used_alu_ops = sorted({op.op for op in ops if isinstance(op, AluOp)})
        sum_bus, _carry = builder.ripple_add(a_bus, b_bus)
        diff_bus, no_borrow = builder.ripple_sub(a_bus, b_bus)
        eq_net = builder.is_zero(builder.bus_xor(a_bus, b_bus))
        lt_net = builder.not_(no_borrow)  # unsigned a < b
        le_net = builder.or_(lt_net, eq_net)

        def flag_bus(flag: int) -> List[int]:
            return [flag] + [0] * (width - 1)

        unit_results: Dict[str, List[int]] = {
            "ADD": sum_bus,
            "SUB": diff_bus,
            "AND": builder.bus_and(a_bus, b_bus),
            "OR": builder.bus_or(a_bus, b_bus),
            "XOR": builder.bus_xor(a_bus, b_bus),
            "EQ": flag_bus(eq_net),
            "NE": flag_bus(builder.not_(eq_net)),
            "LT": flag_bus(lt_net),
            "LE": flag_bus(le_net),
            "GT": flag_bus(builder.not_(le_net)),
            "GE": flag_bus(builder.not_(lt_net)),
            "PASS": list(a_bus),
        }
        if "SHL" in used_alu_ops:
            unit_results["SHL"] = builder.barrel_shift(a_bus, b_bus, left=True)
        if "SHR" in used_alu_ops:
            unit_results["SHR"] = builder.barrel_shift(a_bus, b_bus, left=False)

        op_selects: Dict[str, int] = {}
        for alu_op in used_alu_ops:
            states = [
                state_q[i]
                for i, op in enumerate(ops)
                if isinstance(op, AluOp) and op.op == alu_op
            ]
            op_selects[alu_op] = builder.or_tree(states)
        if used_alu_ops:
            result_bus = builder.onehot_mux(
                [(op_selects[alu_op], unit_results[alu_op]) for alu_op in used_alu_ops]
            )
        else:
            result_bus = builder.const_bus(0, width)

        # -- register write-back ---------------------------------------------
        for reg in registers:
            writer_states = [
                state_q[i]
                for i, op in enumerate(ops)
                if isinstance(op, AluOp) and op.dest == reg
            ]
            enable = builder.or_tree(writer_states)
            init = self.cfsm.variables.get(reg, 0)
            for bit in range(width):
                q_net = reg_buses[reg][bit]
                d_net = builder.mux(enable, q_net, result_bus[bit])
                builder.add_dff(d_net, q_net, (init >> bit) & 1)

        # -- emissions ---------------------------------------------------------
        value_ports: Dict[str, str] = {}
        strobe_ports: Dict[str, str] = {}
        emit_events = sorted({op.event for op in ops if isinstance(op, EmitOp)})
        for event in emit_events:
            states = [
                state_q[i]
                for i, op in enumerate(ops)
                if isinstance(op, EmitOp) and op.event == event
            ]
            strobe = builder.or_tree(states)
            value_reg = builder.register(a_bus, strobe, name="emit_%s" % event)
            value_port = "val_%s" % event
            strobe_port = "stb_%s" % event
            builder.output_bus(value_port, value_reg)
            builder.output_bus(strobe_port, [strobe])
            value_ports[event] = value_port
            strobe_ports[event] = strobe_port

        # -- controller next-state logic ---------------------------------------
        test_nonzero = builder.or_tree(a_bus)  # test ops route src via A
        incoming: Dict[int, List[int]] = {index: [] for index in range(len(ops))}
        done_states: List[int] = []
        for index, op in enumerate(ops):
            if isinstance(op, DoneOp):
                done_states.append(state_q[index])
                continue
            if isinstance(op, TestOp):
                taken = builder.and_(state_q[index], test_nonzero)
                fall = builder.and_(state_q[index], builder.not_(test_nonzero))
                incoming[op.next_taken].append(taken)
                incoming[op.next].append(fall)
            else:
                incoming[op.next].append(state_q[index])
        any_go_terms = []
        for name, entry in program.entries.items():
            start = builder.and_(idle_q, go_nets[name])
            incoming[entry].append(start)
            any_go_terms.append(go_nets[name])
        for index in range(len(ops)):
            builder.add_dff(builder.or_tree(incoming[index]), state_q[index], 0)
        stay_idle = builder.and_(idle_q, builder.not_(builder.or_tree(any_go_terms)))
        idle_d = builder.or_(builder.or_tree(done_states), stay_idle)
        builder.add_dff(idle_d, idle_q, 1)

        done_net = builder.or_tree(done_states)
        builder.output_bus("done", [done_net])
        builder.output_bus("idle", [idle_q])

        # -- variable observation ports (for equivalence checking) --------------
        register_ports: Dict[str, str] = {}
        for name in sorted(self.cfsm.variables):
            port = "var_%s" % name
            builder.output_bus(port, reg_buses[name])
            register_ports[name] = port

        netlist = builder.build()
        return SynthesizedBlock(
            cfsm=self.cfsm,
            micro_program=program,
            netlist=netlist,
            go_ports=go_ports,
            input_ports=input_ports,
            value_ports=value_ports,
            strobe_ports=strobe_ports,
            register_ports=register_ports,
        )
