"""Instruction set simulator with cycle and energy reporting.

The ISS plays the role of the paper's enhanced SPARCsim: it executes
object code produced by :mod:`repro.sw.codegen` and reports, for every
invocation, the clock cycles consumed and the energy drawn according to
an :class:`repro.sw.power_model.InstructionPowerModel`.  Those two
figures, plus the instruction count that telemetry reports, are all an
invocation returns: the master takes what a transition emits and writes
from behavioural execution.

The timing model covers the effects the paper lists for SPARCsim:
register interlocks (a load immediately followed by a use of the loaded
register stalls one cycle), delayed branches (the delay-slot instruction
executes before control transfers), multi-cycle multiply/divide, and
pipeline fill at the start of every invocation.  Cache behaviour is
*not* modeled here — as in the paper, the ISS assumes 100% cache hits
and the cache simulator is attached directly to the simulation master.

The pipeline-fill cost is the mechanism behind the conservatism of
software macro-modeling measured in Table 2: macro-operation templates
are characterized standalone (each one pays the fill), while a real
path pays it only once, so the additive macro-model over-estimates.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, fields
from itertools import count, repeat
from typing import (
    Callable, Dict, Iterable, List, MutableMapping, NamedTuple, Optional,
    Sequence, Tuple,
)
from repro.deadline import WatchdogTimeout, check_deadline, current_deadline
from repro.errors import ReproError

from repro.cfsm.expr import _BINOP_FUNCS
from repro.lru import LruCache
from repro.sw.isa import BASE_CYCLES, Instruction, NUM_REGISTERS, Opcode, class_of
from repro.sw.power_model import InstructionPowerModel
from repro.sw.program import Program
from repro.telemetry import NULL_TELEMETRY, Telemetry

#: Cycles to refill the pipeline at every invocation entry.
PIPELINE_FILL_CYCLES = 1

#: Safety bound per invocation.
DEFAULT_MAX_INSTRUCTIONS = 5_000_000

#: Retired instructions between two polls of a supervised call's
#: deadline (see :mod:`repro.deadline`).
DEADLINE_POLL_INSTRUCTIONS = 1024

_ALU_SEMANTICS = {
    Opcode.ADD: _BINOP_FUNCS["ADD"],
    Opcode.SUB: _BINOP_FUNCS["SUB"],
    Opcode.AND: _BINOP_FUNCS["AND"],
    Opcode.OR: _BINOP_FUNCS["OR"],
    Opcode.XOR: _BINOP_FUNCS["XOR"],
    Opcode.SLL: _BINOP_FUNCS["SHL"],
    Opcode.SRL: _BINOP_FUNCS["SHR"],
    Opcode.SMUL: _BINOP_FUNCS["MUL"],
    Opcode.SDIV: _BINOP_FUNCS["DIV"],
}


# -- decode/dispatch cache ---------------------------------------------------
#
# The inner interpreter loop used to re-derive, for every retired
# instruction, its register read set, power-model class, base cycle
# count and opcode dispatch (a long if/elif chain).  All of that is a
# pure function of the instruction word, so it is decoded once per
# *program* and reused for every invocation — and, because design-space
# exploration recompiles identical CFSMs into structurally identical
# programs (one master per design point), decode tables are shared
# across Program instances through a process-wide table keyed by the
# program's content: its instruction tuple (Instruction is a frozen,
# hashable dataclass) and its labels.  Each entry also names the
# program content with a process-unique token, which the run memo keys
# on; tokens are never reused, so memo entries of an evicted program
# go stale and age out.

_DECODED_ATTR = "_iss_decoded"

#: At most 128 distinct programs stay decoded (LRU eviction).
_DECODE_CACHE: "LruCache[Tuple[List[tuple], int]]" = LruCache(capacity=128)

DECODE_CACHE_STATS = _DECODE_CACHE.stats

#: Source of program and power-model tokens.
_TOKENS = count(1)


def clear_decode_cache() -> None:
    """Drop all shared decode tables (tests and benchmarks)."""
    _DECODE_CACHE.clear()


def _exec_nop(iss: "Iss", instruction: Instruction,
              memory: MutableMapping[int, int]) -> int:
    return 0


def _exec_seti(iss: "Iss", instruction: Instruction,
               memory: MutableMapping[int, int]) -> int:
    value = instruction.imm or 0
    if instruction.rd != 0:
        iss.registers[instruction.rd] = value
    return value


def _exec_mov(iss: "Iss", instruction: Instruction,
              memory: MutableMapping[int, int]) -> int:
    value = iss.registers[instruction.rs1]
    if instruction.rd != 0:
        iss.registers[instruction.rd] = value
    return value


def _make_alu_executor(func: Callable[[int, int], int]):
    def _exec_alu(iss: "Iss", instruction: Instruction,
                  memory: MutableMapping[int, int]) -> int:
        registers = iss.registers
        if instruction.rs2 is not None:
            right = registers[instruction.rs2]
        else:
            right = instruction.imm or 0
        value = func(registers[instruction.rs1], right)
        if instruction.rd != 0:
            registers[instruction.rd] = value
        return value

    return _exec_alu


def _exec_cmp(iss: "Iss", instruction: Instruction,
              memory: MutableMapping[int, int]) -> int:
    registers = iss.registers
    if instruction.rs2 is not None:
        right = registers[instruction.rs2]
    else:
        right = instruction.imm or 0
    left = registers[instruction.rs1]
    iss._flag_eq = left == right
    iss._flag_lt = left < right
    return int(iss._flag_lt) * 2 + int(iss._flag_eq)


def _exec_ld(iss: "Iss", instruction: Instruction,
             memory: MutableMapping[int, int]) -> int:
    address = iss.registers[instruction.rs1] + (instruction.imm or 0)
    value = memory.get(address, 0)
    if instruction.rd != 0:
        iss.registers[instruction.rd] = value
    return value


def _exec_st(iss: "Iss", instruction: Instruction,
             memory: MutableMapping[int, int]) -> int:
    address = iss.registers[instruction.rs1] + (instruction.imm or 0)
    value = iss.registers[instruction.rd]
    memory[address] = value
    return value


_EXECUTORS: Dict[str, Callable] = {
    Opcode.NOP: _exec_nop,
    Opcode.SETI: _exec_seti,
    Opcode.MOV: _exec_mov,
    Opcode.CMP: _exec_cmp,
    Opcode.LD: _exec_ld,
    Opcode.ST: _exec_st,
    Opcode.CALL: _exec_nop,
    Opcode.RET: _exec_nop,
}
for _op in Opcode.BRANCHES:
    _EXECUTORS[_op] = _exec_nop
for _op, _func in _ALU_SEMANTICS.items():
    _EXECUTORS[_op] = _make_alu_executor(_func)


def _decode_instruction(instruction: Instruction) -> tuple:
    """Precompute everything :meth:`Iss._interpret` needs per instruction.

    Tuple layout: ``(reads, klass, cycles, load_rd, executor, is_branch)``.
    """
    op = instruction.op
    load_rd = instruction.rd if (op == Opcode.LD and instruction.rd != 0) else None
    return (
        instruction.reads(),
        class_of(op),
        BASE_CYCLES[op],
        load_rd,
        _EXECUTORS[op],
        op in Opcode.BRANCHES,
    )


def _decode_program(program: Program) -> Tuple[List[tuple], int]:
    """Decode table and content token of ``program``, shared process-wide."""
    decoded = getattr(program, _DECODED_ATTR, None)
    if decoded is not None:
        DECODE_CACHE_STATS.hits += 1
        return decoded
    instructions = tuple(program.instructions)
    key = (instructions, tuple(sorted(program.labels.items())))
    decoded = _DECODE_CACHE.get(key)
    if decoded is None:
        decoded = (
            [_decode_instruction(instruction) for instruction in instructions],
            next(_TOKENS),
        )
        _DECODE_CACHE.put(key, decoded)
    try:
        setattr(program, _DECODED_ATTR, decoded)
    except AttributeError:  # pragma: no cover - exotic Program subclasses
        pass
    return decoded


class IssError(ReproError):
    """Raised on malformed executions (runaway loops, bad delay slots)."""


@dataclass(frozen=True)
class IssResult:
    """What the master takes from one ISS invocation.

    Frozen, so that the run memo can hand out the recorded result itself.
    """

    cycles: int = 0
    energy: float = 0.0
    instruction_count: int = 0


# -- exact run memo -------------------------------------------------------------
#
# The software twin of the hardware estimator's run memo.  An invocation
# is a deterministic function of (program, entry, registers, flags,
# instruction bound, power model) plus the values its loads return.
# Each load returns either memory as it was at entry -- recorded as the
# first value read from an address not yet stored to, and checked
# before a replay -- or a value the run itself stored, which the rest of
# the key already determines.  A replay therefore applies the recorded
# stores, restores registers and flags, and returns the recorded
# IssResult without interpreting one instruction: reports stay
# bit-identical.  A run that raises records nothing.


class _Recording(NamedTuple):
    """One memoized invocation; address sequences are packed."""

    read_addresses: Sequence[int]
    read_values: Tuple[int, ...]
    store_addresses: Sequence[int]
    store_values: Tuple[int, ...]
    registers: Tuple[int, ...]
    flag_eq: bool
    flag_lt: bool
    result: IssResult


#: Keyed by (program token, power-model token, entry, registers, flags,
#: instruction bound); each value holds the newest recordings of that
#: key, which differ in the values their first reads saw.
_ISS_RUN_MEMO: "LruCache[Tuple[_Recording, ...]]" = LruCache(capacity=1024)

_RECORDINGS_PER_KEY = 2

ISS_RUN_MEMO_STATS = _ISS_RUN_MEMO.stats

#: Power-model signature -> token.  Models are treated as immutable
#: after first use, as the model's own energy cache already assumes.
_MODEL_TOKENS: "LruCache[int]" = LruCache(capacity=64)

_ZEROS = repeat(0)


def clear_iss_run_memo() -> None:
    """Drop all memoized ISS invocations (tests and benchmarks)."""
    _ISS_RUN_MEMO.clear()


def _model_token(model: InstructionPowerModel) -> int:
    """Token shared by every model with equal type and field values."""
    signature = (type(model),) + tuple(
        tuple(sorted(value.items())) if isinstance(value, dict) else value
        for value in (getattr(model, spec.name) for spec in fields(model))
    )
    token = _MODEL_TOKENS.touch(signature)
    if token is None:
        token = next(_TOKENS)
        _MODEL_TOKENS.put(signature, token)
    return token


def _pack(values: Iterable[int]) -> Sequence[int]:
    """A flat ``array('q')``, or a tuple for values beyond 64 bits."""
    values = tuple(values)
    try:
        return array("q", values)
    except (OverflowError, TypeError):
        return values


#: Marks an address a run stored to that its memory did not hold.
_ABSENT = object()


class _RecordingMemory:
    """The caller's memory as seen by one run, noting what replay needs.

    ``first_reads`` holds the value each address first returned to a
    load before the run stored to it.  ``stores`` holds each stored
    address's last value in first-store order: applied with ``update``
    it leaves a dict exactly as the run's stores, in order, did.
    ``overwritten`` holds what each stored address held before the run
    (or ``_ABSENT``), for :meth:`rollback`.
    """

    __slots__ = ("memory", "first_reads", "stores", "overwritten")

    def __init__(self, memory: MutableMapping[int, int]) -> None:
        self.memory = memory
        self.first_reads: Dict[int, int] = {}
        self.stores: Dict[int, int] = {}
        self.overwritten: Dict[int, object] = {}

    def get(self, address: int, default: int) -> int:
        value = self.memory.get(address, default)
        if address not in self.stores:
            self.first_reads.setdefault(address, value)
        return value

    def __setitem__(self, address: int, value: int) -> None:
        if address not in self.stores:
            self.overwritten[address] = self.memory.get(address, _ABSENT)
        self.memory[address] = value
        self.stores[address] = value

    def rollback(self) -> None:
        """Undo every store of the run."""
        memory = self.memory
        for address, value in self.overwritten.items():
            if value is _ABSENT:
                del memory[address]
            else:
                memory[address] = value


class Iss:
    """A pipelined instruction-set simulator.

    Registers persist across invocations (like a real core between
    RTOS dispatches); memory is owned by the caller and passed to
    :meth:`run`, mirroring the state/command exchange between the
    master and the ISS in the paper's Figure 2(b).
    """

    def __init__(
        self,
        program: Program,
        power_model: Optional[InstructionPowerModel] = None,
        max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.program = program
        self.power_model = power_model or InstructionPowerModel.default_sparclite()
        self.max_instructions = max_instructions
        self.telemetry = NULL_TELEMETRY if telemetry is None else telemetry
        self.registers = [0] * NUM_REGISTERS
        self._flag_eq = False
        self._flag_lt = False
        misses_before = DECODE_CACHE_STATS.misses
        self._decode, self._program_token = _decode_program(program)
        self._model_token = _model_token(self.power_model)
        metrics = self.telemetry.metrics
        if DECODE_CACHE_STATS.misses == misses_before:
            metrics.counter("iss.decode_cache.hits").inc()
        else:
            metrics.counter("iss.decode_cache.misses").inc()

    # -- public API ---------------------------------------------------------

    def run(self, entry: str, memory: MutableMapping[int, int]) -> IssResult:
        """Execute from label ``entry`` until RET at call depth zero.

        Args:
            entry: entry-point label (one CFSM transition).
            memory: word-addressed data memory, updated in place.

        Returns:
            The invocation's cycles and energy, including the
            pipeline-fill cost, and its instruction count.
        """
        telemetry = self.telemetry
        if not telemetry.enabled:
            return self._run_memoized(entry, memory)
        with telemetry.tracer.span(
            "iss.run", track="iss", args={"entry": entry}
        ) as span:
            result = self._run_memoized(entry, memory)
            span.set("cycles", result.cycles)
            span.set("instructions", result.instruction_count)
        metrics = telemetry.metrics
        metrics.counter("iss.invocations").inc()
        metrics.counter("iss.instructions").inc(result.instruction_count)
        metrics.counter("iss.cycles").inc(result.cycles)
        return result

    def _run_memoized(
        self, entry: str, memory: MutableMapping[int, int]
    ) -> IssResult:
        """Replay an identical previous invocation, or run and record it."""
        key = (
            self._program_token,
            self._model_token,
            entry,
            tuple(self.registers),
            self._flag_eq,
            self._flag_lt,
            self.max_instructions,
        )
        recordings = _ISS_RUN_MEMO.touch(key) or ()
        metrics = self.telemetry.metrics if self.telemetry.enabled else None
        for recording in recordings:
            seen = tuple(map(memory.get, recording.read_addresses, _ZEROS))
            if seen != recording.read_values:
                continue
            ISS_RUN_MEMO_STATS.hits += 1
            if metrics is not None:
                metrics.counter("iss.run_memo.hits").inc()
            memory.update(zip(recording.store_addresses, recording.store_values))
            self.registers[:] = recording.registers
            self._flag_eq = recording.flag_eq
            self._flag_lt = recording.flag_lt
            return recording.result
        ISS_RUN_MEMO_STATS.misses += 1
        if metrics is not None:
            metrics.counter("iss.run_memo.misses").inc()
        seen_memory = _RecordingMemory(memory)
        result = self._run_program(entry, seen_memory)
        recording = _Recording(
            _pack(seen_memory.first_reads),
            tuple(seen_memory.first_reads.values()),
            _pack(seen_memory.stores),
            tuple(seen_memory.stores.values()),
            tuple(self.registers),
            self._flag_eq,
            self._flag_lt,
            result,
        )
        _ISS_RUN_MEMO.put(key, (recording,) + recordings[:_RECORDINGS_PER_KEY - 1])
        return result

    def _run_program(self, entry: str, memory: _RecordingMemory) -> IssResult:
        """Interpret one invocation.

        Under a deadline (see :mod:`repro.deadline`) the loop polls it
        every :data:`DEADLINE_POLL_INSTRUCTIONS` instructions; a run it
        stops leaves registers, flags and memory as they were.
        """
        deadline = current_deadline()
        if deadline is None:
            return self._interpret(entry, memory, None)
        registers = self.registers[:]
        flags = (self._flag_eq, self._flag_lt)
        try:
            return self._interpret(entry, memory, deadline)
        except WatchdogTimeout:
            memory.rollback()
            self.registers[:] = registers
            self._flag_eq, self._flag_lt = flags
            raise

    def _interpret(
        self,
        entry: str,
        memory: MutableMapping[int, int],
        deadline: Optional[float],
    ) -> IssResult:
        """The interpreter loop, with hazard and energy accounting inline.

        Each instruction (and each delay slot) runs its decoded executor
        (see :func:`_decode_instruction`), stalls a cycle if it reads
        the register the previous instruction loaded, and is charged the
        power model's instruction energy: read from the model's energy
        cache, filled by :meth:`InstructionPowerModel.instruction_energy`
        on a miss.  A data-dependent model keeps no cache, so every
        instruction of it is charged by that method.
        """
        model = self.power_model
        cycles = PIPELINE_FILL_CYCLES
        energy = model.fill_energy(PIPELINE_FILL_CYCLES)
        count = 0
        energies = (
            {} if model.data_alpha
            else model.__dict__.setdefault("_energy_cache", {})
        )
        instruction_energy = model.instruction_energy
        stall_energy = model.stall_energy(1)

        program = self.program
        pc = program.entry(entry)
        return_stack: List[int] = []
        previous_class = ""
        pending_load_rd: Optional[int] = None
        instructions = program.instructions
        size = len(instructions)
        decode = self._decode
        # The instruction bound doubles as the deadline's poll point.
        limit = self.max_instructions
        if deadline is not None:
            limit = min(limit, DEADLINE_POLL_INSTRUCTIONS)

        while True:
            if count >= limit:
                if count >= self.max_instructions:
                    raise IssError(
                        "invocation exceeded %d instructions (runaway loop?)"
                        % self.max_instructions
                    )
                check_deadline(deadline)
                limit = min(self.max_instructions,
                            count + DEADLINE_POLL_INSTRUCTIONS)
            if not 0 <= pc < size:
                raise IssError("PC out of range: %d" % pc)

            instruction = instructions[pc]
            reads, klass, base, load_rd, executor, is_branch = decode[pc]
            value = executor(self, instruction, memory)
            count += 1
            charge = energies.get((klass, base, previous_class))
            if charge is None:
                charge = instruction_energy(klass, base, previous_class, value)
            energy += charge
            if pending_load_rd is not None and pending_load_rd in reads:
                cycles += base + 1
                energy += stall_energy
            else:
                cycles += base
            previous_class = klass
            pending_load_rd = load_rd

            if is_branch:
                if self._branch_taken(instruction.op):
                    delay_pc = pc + 1
                    if delay_pc < size:
                        _, klass, base, load_rd, executor, is_branch = (
                            decode[delay_pc]
                        )
                        if is_branch:
                            raise IssError(
                                "branch in delay slot at index %d" % delay_pc
                            )
                        # The branch loads nothing, so the slot never
                        # stalls.
                        delay_slot = instructions[delay_pc]
                        value = executor(self, delay_slot, memory)
                        count += 1
                        charge = energies.get((klass, base, previous_class))
                        if charge is None:
                            charge = instruction_energy(
                                klass, base, previous_class, value
                            )
                        energy += charge
                        cycles += base
                        previous_class = klass
                        pending_load_rd = load_rd
                    pc = program.resolve(instruction.target)
                else:
                    pc += 1
            elif instruction.op == Opcode.CALL:
                return_stack.append(pc + 1)
                pc = program.resolve(instruction.target)
            elif instruction.op == Opcode.RET:
                if not return_stack:
                    break
                pc = return_stack.pop()
            else:
                pc += 1
        return IssResult(cycles, energy, count)

    def _branch_taken(self, op: str) -> bool:
        if op == Opcode.BA:
            return True
        if op == Opcode.BE:
            return self._flag_eq
        if op == Opcode.BNE:
            return not self._flag_eq
        if op == Opcode.BL:
            return self._flag_lt
        if op == Opcode.BLE:
            return self._flag_lt or self._flag_eq
        if op == Opcode.BG:
            return not (self._flag_lt or self._flag_eq)
        if op == Opcode.BGE:
            return not self._flag_lt
        raise IssError("not a branch: %r" % op)
