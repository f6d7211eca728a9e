"""Object-code container and assembler-style builder."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional
from repro.errors import ReproError

from repro.sw.isa import Instruction, Opcode

#: Bytes per instruction word (used for the ``.size`` macro-model entry
#: and for code-size reporting, as in the paper's parameter files).
INSTRUCTION_BYTES = 4


class ProgramError(ReproError):
    """Raised for malformed programs (duplicate/undefined labels)."""


@dataclass
class Program:
    """A fully assembled program.

    Attributes:
        instructions: the instruction words in memory order.
        labels: label name to instruction index.
    """

    instructions: List[Instruction] = field(default_factory=list)
    labels: Dict[str, int] = field(default_factory=dict)

    def entry(self, label: str) -> int:
        """Instruction index of ``label``."""
        if label not in self.labels:
            raise ProgramError("undefined label %r" % label)
        return self.labels[label]

    def resolve(self, target: str) -> int:
        """Branch-target resolution (same as :meth:`entry`)."""
        return self.entry(target)

    @property
    def size_bytes(self) -> int:
        """Code size in bytes."""
        return len(self.instructions) * INSTRUCTION_BYTES


class ProgramBuilder:
    """Assembles instructions and labels into a :class:`Program`.

    Labels may be referenced before they are defined; they are checked
    at :meth:`build` time.
    """

    def __init__(self) -> None:
        self._instructions: List[Instruction] = []
        self._labels: Dict[str, int] = {}
        self._fresh = 0

    def label(self, name: str) -> str:
        """Define ``name`` at the current position."""
        if name in self._labels:
            raise ProgramError("duplicate label %r" % name)
        self._labels[name] = len(self._instructions)
        return name

    def fresh_label(self, hint: str = "L") -> str:
        """Generate a unique label name (not yet placed)."""
        self._fresh += 1
        return "%s_%d" % (hint, self._fresh)

    def append(self, instruction: Instruction) -> None:
        """Append one instruction."""
        self._instructions.append(instruction)

    # Convenience emitters -------------------------------------------------

    def nop(self) -> None:
        self.append(Instruction(Opcode.NOP))

    def seti(self, rd: int, imm: int) -> None:
        self.append(Instruction(Opcode.SETI, rd=rd, imm=imm))

    def mov(self, rd: int, rs1: int) -> None:
        self.append(Instruction(Opcode.MOV, rd=rd, rs1=rs1))

    def alu(self, op: str, rd: int, rs1: int, rs2: Optional[int] = None,
            imm: Optional[int] = None) -> None:
        self.append(Instruction(op, rd=rd, rs1=rs1, rs2=rs2, imm=imm))

    def cmp(self, rs1: int, rs2: Optional[int] = None, imm: Optional[int] = None) -> None:
        self.append(Instruction(Opcode.CMP, rs1=rs1, rs2=rs2, imm=imm))

    def branch(self, op: str, target: str, fill_delay_slot: bool = True) -> None:
        """Emit a delayed branch, by default with a NOP in the slot."""
        self.append(Instruction(op, target=target))
        if fill_delay_slot:
            self.nop()

    def load(self, rd: int, base: int, offset: int) -> None:
        self.append(Instruction(Opcode.LD, rd=rd, rs1=base, imm=offset))

    def store(self, rs: int, base: int, offset: int) -> None:
        self.append(Instruction(Opcode.ST, rd=rs, rs1=base, imm=offset))

    def call(self, target: str) -> None:
        self.append(Instruction(Opcode.CALL, target=target))

    def ret(self) -> None:
        self.append(Instruction(Opcode.RET))

    def build(self) -> Program:
        """Check label references and return the program."""
        for instruction in self._instructions:
            if instruction.target is not None and instruction.target not in self._labels:
                raise ProgramError("undefined label %r" % instruction.target)
        return Program(list(self._instructions), dict(self._labels))
