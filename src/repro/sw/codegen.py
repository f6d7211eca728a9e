"""Compile CFSM transition s-graphs into instruction sequences.

This is the "SW synthesis + target compiler" stage of the paper's
Figure 2(a): each software-mapped CFSM becomes an object-code segment
with one entry point per transition.  The generated code mirrors what a
straightforward C compiler produces from POLIS output: every variable
lives in memory and is loaded/stored around each statement, tests use
compare-and-branch with NOP-filled delay slots, and counted loops keep
the trip counter in a dedicated register.

The simulation master writes the values of the triggering events into
per-event *mailbox* words before invoking the ISS, and event emissions
are stores to per-event memory-mapped doorbell/value words — the same
state/input-value/command exchange shown in Figure 2(b).

Register conventions:

* ``r8``–``r19``: expression temporaries (stack discipline),
* ``r20``–``r23``: loop trip counters, by nesting depth,
* ``r24``: doorbell scratch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional
from repro.errors import ReproError

from repro.cfsm.expr import BinaryOp, Const, EventValue, Expression, UnaryOp, Var
from repro.cfsm.model import Cfsm
from repro.cfsm.sgraph import (
    Assign,
    Emit,
    If,
    Loop,
    SharedRead,
    SharedWrite,
    Statement,
)
from repro.lru import LruCache
from repro.sw.isa import Opcode
from repro.sw.program import Program, ProgramBuilder

TEMP_REGS = tuple(range(8, 20))
LOOP_REGS = (20, 21, 22, 23)
DOORBELL_REG = 24

#: Word address where the system's shared memory is mapped into the
#: embedded processor's address space.
SHARED_MEMORY_BASE = 0x8000

#: Inverted conditional branch per comparison operator: the branch is
#: taken when the comparison is FALSE (we branch around the then-block).
_INVERTED_BRANCH = {
    "EQ": Opcode.BNE,
    "NE": Opcode.BE,
    "LT": Opcode.BGE,
    "LE": Opcode.BG,
    "GT": Opcode.BLE,
    "GE": Opcode.BL,
}

#: Direct conditional branch per comparison operator.
_DIRECT_BRANCH = {
    "EQ": Opcode.BE,
    "NE": Opcode.BNE,
    "LT": Opcode.BL,
    "LE": Opcode.BLE,
    "GT": Opcode.BG,
    "GE": Opcode.BGE,
}


class CodegenError(ReproError):
    """Raised when an s-graph cannot be compiled (e.g. too deep)."""


@dataclass
class MemoryMap:
    """Data-segment layout for one software CFSM.

    Word addresses are assigned in a deterministic order: variables
    first (sorted), then input-event mailboxes, then output-event value
    and doorbell words.
    """

    base: int = 0
    variables: Dict[str, int] = field(default_factory=dict)
    event_mailboxes: Dict[str, int] = field(default_factory=dict)
    emit_values: Dict[str, int] = field(default_factory=dict)
    emit_doorbells: Dict[str, int] = field(default_factory=dict)

    @classmethod
    def for_cfsm(cls, cfsm: Cfsm, base: int = 0) -> "MemoryMap":
        """Lay out the data segment of ``cfsm`` starting at ``base``."""
        layout = cls(base=base)
        address = base
        for name in sorted(cfsm.variables):
            layout.variables[name] = address
            address += 1
        for name in sorted(cfsm.inputs):
            layout.event_mailboxes[name] = address
            address += 1
        for name in sorted(cfsm.outputs):
            layout.emit_values[name] = address
            address += 1
            layout.emit_doorbells[name] = address
            address += 1
        return layout

    @property
    def size_words(self) -> int:
        """Total data-segment size in words."""
        return (
            len(self.variables)
            + len(self.event_mailboxes)
            + len(self.emit_values)
            + len(self.emit_doorbells)
        )

    def variable_address(self, name: str) -> int:
        if name not in self.variables:
            raise KeyError("variable %r has no address" % name)
        return self.variables[name]

    def mailbox_address(self, event: str) -> int:
        if event not in self.event_mailboxes:
            raise KeyError("input event %r has no mailbox" % event)
        return self.event_mailboxes[event]


def transition_label(cfsm_name: str, transition_name: str) -> str:
    """Entry-point label for one transition."""
    return "%s__%s" % (cfsm_name, transition_name)


@dataclass
class CompiledCfsm:
    """Object code plus layout for one software CFSM."""

    cfsm: Cfsm
    program: Program
    memory_map: MemoryMap


class CodeGenerator:
    """Compiles one CFSM into a :class:`CompiledCfsm`."""

    def __init__(self, cfsm: Cfsm, memory_base: int = 0) -> None:
        self.cfsm = cfsm
        self.memory_map = MemoryMap.for_cfsm(cfsm, base=memory_base)
        self._builder = ProgramBuilder()
        self._free_temps: List[int] = []
        self._loop_depth = 0
        # Variables pre-loaded into pinned registers for the duration
        # of one rooted expression (redundant-load elimination).
        self._pinned_vars: Dict[str, int] = {}

    def compile(self) -> CompiledCfsm:
        """Generate code for every transition."""
        for transition in self.cfsm.transitions:
            self._builder.label(transition_label(self.cfsm.name, transition.name))
            self._free_temps = list(TEMP_REGS)
            self._loop_depth = 0
            self._compile_block(transition.body.statements)
            self._builder.ret()
        return CompiledCfsm(self.cfsm, self._builder.build(), self.memory_map)

    # -- statement compilation ---------------------------------------------

    def _compile_block(self, statements: List[Statement]) -> None:
        for statement in statements:
            self._compile_statement(statement)

    def _compile_statement(self, statement: Statement) -> None:
        if isinstance(statement, Assign):
            reg = self._compile_rooted(statement.value)
            self._builder.store(reg, 0, self.memory_map.variable_address(statement.target))
            self._free(reg)
        elif isinstance(statement, Emit):
            if statement.value is not None:
                reg = self._compile_rooted(statement.value)
            else:
                reg = 0
            self._builder.store(reg, 0, self.memory_map.emit_values[statement.event])
            if reg:
                self._free(reg)
            self._builder.seti(DOORBELL_REG, 1)
            self._builder.store(
                DOORBELL_REG, 0, self.memory_map.emit_doorbells[statement.event]
            )
        elif isinstance(statement, If):
            self._compile_if(statement)
        elif isinstance(statement, Loop):
            self._compile_loop(statement)
        elif isinstance(statement, SharedRead):
            address = self._compile_rooted(statement.address)
            value = self._alloc()
            self._builder.load(value, address, SHARED_MEMORY_BASE)
            self._builder.store(
                value, 0, self.memory_map.variable_address(statement.target)
            )
            self._free(value)
            self._free(address)
        elif isinstance(statement, SharedWrite):
            address = self._compile_rooted(statement.address)
            value = self._compile_rooted(statement.value)
            self._builder.store(value, address, SHARED_MEMORY_BASE)
            self._free(value)
            self._free(address)
        else:
            raise CodegenError("cannot compile statement %r" % statement)

    def _compile_if(self, statement: If) -> None:
        else_label = self._builder.fresh_label("else")
        end_label = self._builder.fresh_label("endif")
        self._compile_condition_branch(statement.cond, branch_to=else_label, on_false=True)
        self._compile_block(statement.then)
        if statement.els:
            self._builder.branch(Opcode.BA, end_label)
            self._builder.label(else_label)
            self._compile_block(statement.els)
            self._builder.label(end_label)
        else:
            self._builder.label(else_label)

    def _compile_loop(self, statement: Loop) -> None:
        if self._loop_depth >= len(LOOP_REGS):
            raise CodegenError("loop nesting exceeds %d levels" % len(LOOP_REGS))
        counter = LOOP_REGS[self._loop_depth]
        self._loop_depth += 1
        reg = self._compile_rooted(statement.count)
        self._builder.mov(counter, reg)
        self._free(reg)
        top_label = self._builder.fresh_label("loop")
        exit_label = self._builder.fresh_label("loopend")
        self._builder.label(top_label)
        self._builder.cmp(counter, imm=0)
        self._builder.branch(Opcode.BLE, exit_label)
        self._compile_block(statement.body)
        self._builder.alu(Opcode.SUB, counter, counter, imm=1)
        self._builder.branch(Opcode.BA, top_label)
        self._builder.label(exit_label)
        self._loop_depth -= 1

    def _compile_condition_branch(
        self, cond: Expression, branch_to: str, on_false: bool
    ) -> None:
        """Branch to ``branch_to`` based on ``cond``.

        Comparisons compile directly to CMP + conditional branch; other
        expressions are materialized and compared against zero.
        """
        pinned_here = []
        counts = {}
        for name in cond.variables():
            counts[name] = counts.get(name, 0) + 1
        for name, count in counts.items():
            if count >= 2 and name not in self._pinned_vars:
                register = self._alloc()
                self._builder.load(
                    register, 0, self.memory_map.variable_address(name)
                )
                self._pinned_vars[name] = register
                pinned_here.append(name)
        if isinstance(cond, BinaryOp) and cond.op in _INVERTED_BRANCH:
            left = self._compile_expr(cond.left)
            right = self._compile_expr(cond.right)
            self._builder.cmp(left, rs2=right)
            self._free(right)
            self._free(left)
            table = _INVERTED_BRANCH if on_false else _DIRECT_BRANCH
            self._builder.branch(table[cond.op], branch_to)
        else:
            reg = self._compile_expr(cond)
            self._builder.cmp(reg, imm=0)
            self._free(reg)
            self._builder.branch(Opcode.BE if on_false else Opcode.BNE, branch_to)
        for name in pinned_here:
            register = self._pinned_vars.pop(name)
            self._free(register)

    # -- expression compilation ---------------------------------------------

    def _alloc(self) -> int:
        if not self._free_temps:
            raise CodegenError(
                "expression too deep for the temporary register pool"
            )
        return self._free_temps.pop()

    def _free(self, reg: int) -> None:
        if reg in self._pinned_vars.values():
            return
        if reg in TEMP_REGS and reg not in self._free_temps:
            self._free_temps.append(reg)

    def _compile_rooted(self, expression: Expression) -> int:
        """Compile a statement-level expression with load reuse.

        Variables read more than once inside one rooted expression are
        loaded into a pinned register up front and shared by every
        read, the way even a mildly optimizing compiler would.  Pins
        last only for this expression: any later statement may have
        stored to the variable, so the pin cannot safely outlive it.
        """
        pinned_here: List[str] = []
        counts: Dict[str, int] = {}
        for name in expression.variables():
            counts[name] = counts.get(name, 0) + 1
        for name, count in counts.items():
            if count >= 2 and name not in self._pinned_vars:
                register = self._alloc()
                self._builder.load(
                    register, 0, self.memory_map.variable_address(name)
                )
                self._pinned_vars[name] = register
                pinned_here.append(name)
        result = self._compile_expr(expression)
        for name in pinned_here:
            register = self._pinned_vars.pop(name)
            self._free(register)
        return result

    def _compile_expr(self, expression: Expression) -> int:
        """Compile ``expression``; returns the register holding it."""
        if isinstance(expression, Const):
            reg = self._alloc()
            self._builder.seti(reg, expression.value)
            return reg
        if isinstance(expression, Var):
            pinned = self._pinned_vars.get(expression.name)
            if pinned is not None:
                return pinned
            reg = self._alloc()
            address = self.memory_map.variable_address(expression.name)
            self._builder.load(reg, 0, address)
            return reg
        if isinstance(expression, EventValue):
            reg = self._alloc()
            address = self.memory_map.mailbox_address(expression.event)
            self._builder.load(reg, 0, address)
            return reg
        if isinstance(expression, UnaryOp):
            return self._compile_unary(expression)
        if isinstance(expression, BinaryOp):
            return self._compile_binary(expression)
        raise CodegenError("cannot compile expression %r" % expression)

    def _compile_unary(self, expression: UnaryOp) -> int:
        operand = self._compile_expr(expression.operand)
        result = self._alloc()
        if expression.op == "NEG":
            self._builder.alu(Opcode.SUB, result, 0, rs2=operand)
        elif expression.op == "BNOT":
            self._builder.alu(Opcode.XOR, result, operand, imm=-1)
        elif expression.op == "NOT":
            self._materialize_comparison(Opcode.BE, operand, None, 0, result)
        else:
            raise CodegenError("cannot compile unary op %r" % expression.op)
        self._free(operand)
        return result

    _SIMPLE_ALU = {
        "ADD": Opcode.ADD,
        "SUB": Opcode.SUB,
        "AND": Opcode.AND,
        "OR": Opcode.OR,
        "XOR": Opcode.XOR,
        "SHL": Opcode.SLL,
        "SHR": Opcode.SRL,
        "MUL": Opcode.SMUL,
        "DIV": Opcode.SDIV,
    }

    def _compile_binary(self, expression: BinaryOp) -> int:
        left = self._compile_expr(expression.left)
        right = self._compile_expr(expression.right)
        result = self._alloc()
        op = expression.op
        if op in self._SIMPLE_ALU:
            self._builder.alu(self._SIMPLE_ALU[op], result, left, rs2=right)
        elif op == "MOD":
            # a - trunc(a / b) * b, sharing SDIV's divide-by-zero rule.
            self._builder.alu(Opcode.SDIV, result, left, rs2=right)
            self._builder.alu(Opcode.SMUL, result, result, rs2=right)
            self._builder.alu(Opcode.SUB, result, left, rs2=result)
        elif op in _DIRECT_BRANCH:
            self._materialize_comparison(_DIRECT_BRANCH[op], left, right, None, result)
        elif op in ("LAND", "LOR"):
            left_bool = self._alloc()
            right_bool = self._alloc()
            self._materialize_comparison(Opcode.BNE, left, None, 0, left_bool)
            self._materialize_comparison(Opcode.BNE, right, None, 0, right_bool)
            machine_op = Opcode.AND if op == "LAND" else Opcode.OR
            self._builder.alu(machine_op, result, left_bool, rs2=right_bool)
            self._free(right_bool)
            self._free(left_bool)
        else:
            raise CodegenError("cannot compile binary op %r" % op)
        self._free(right)
        self._free(left)
        return result

    def _materialize_comparison(
        self,
        branch_op: str,
        rs1: int,
        rs2: Optional[int],
        imm: Optional[int],
        result: int,
    ) -> None:
        """Set ``result`` to 1 when the comparison branch is taken."""
        true_label = self._builder.fresh_label("cmpt")
        end_label = self._builder.fresh_label("cmpe")
        self._builder.cmp(rs1, rs2=rs2, imm=imm)
        self._builder.branch(branch_op, true_label)
        self._builder.seti(result, 0)
        self._builder.branch(Opcode.BA, end_label)
        self._builder.label(true_label)
        self._builder.seti(result, 1)
        self._builder.label(end_label)


def compile_cfsm(cfsm: Cfsm, memory_base: int = 0) -> CompiledCfsm:
    """Compile ``cfsm`` into object code with a data-segment layout."""
    return CodeGenerator(cfsm, memory_base=memory_base).compile()


#: Compilation results keyed by (CFSM structure, memory base) digest.
#: Code generation is a pure function of both, and the simulation
#: master compiles every software process afresh for every design
#: point; the compiled program and memory map are immutable, so they
#: are shared across masters (run-time state — registers, data memory —
#: lives in each Iss / master).
_CODEGEN_CACHE: LruCache[CompiledCfsm] = LruCache(capacity=128)

CODEGEN_CACHE_STATS = _CODEGEN_CACHE.stats


def clear_codegen_cache() -> None:
    """Drop all cached compilation results (tests and benchmarks)."""
    _CODEGEN_CACHE.clear()


def compile_cfsm_cached(cfsm: Cfsm, memory_base: int = 0) -> CompiledCfsm:
    """Like :func:`compile_cfsm`, via the process-wide cache."""
    from repro.cfsm.fingerprint import cfsm_digest

    key = cfsm_digest(cfsm, memory_base)
    compiled = _CODEGEN_CACHE.get(key)
    if compiled is None:
        compiled = compile_cfsm(cfsm, memory_base=memory_base)
        _CODEGEN_CACHE.put(key, compiled)
    return compiled
