"""Unit tests: ISA, program container, and the ISS timing model."""

import pytest

from repro.sw.isa import BASE_CYCLES, Instruction, InstructionClass, Opcode, class_of
from repro.sw.iss import Iss, IssError, PIPELINE_FILL_CYCLES
from repro.sw.program import Program, ProgramBuilder, ProgramError
from repro.sw.power_model import InstructionPowerModel


class TestInstruction:
    def test_classification(self):
        assert class_of(Opcode.ADD) == InstructionClass.ALU
        assert class_of(Opcode.LD) == InstructionClass.LOAD
        assert class_of(Opcode.BA) == InstructionClass.BRANCH
        assert class_of(Opcode.SMUL) == InstructionClass.MUL

    def test_multi_cycle_opcodes(self):
        assert BASE_CYCLES[Opcode.SMUL] == 4
        assert BASE_CYCLES[Opcode.SDIV] == 12
        assert BASE_CYCLES[Opcode.ADD] == 1

    def test_branch_requires_target(self):
        with pytest.raises(ValueError):
            Instruction(Opcode.BE)

    def test_reads_and_writes(self):
        add = Instruction(Opcode.ADD, rd=3, rs1=1, rs2=2)
        assert set(add.reads()) == {1, 2}
        assert add.writes() == 3
        store = Instruction(Opcode.ST, rd=4, rs1=5, imm=0)
        assert set(store.reads()) == {4, 5}
        assert store.writes() is None

    def test_r0_never_written(self):
        inst = Instruction(Opcode.ADD, rd=0, rs1=1, rs2=2)
        assert inst.writes() is None

    def test_disassembly(self):
        assert repr(Instruction(Opcode.NOP)) == "nop"
        assert "ld r3" in repr(Instruction(Opcode.LD, rd=3, rs1=0, imm=8))


class TestProgramBuilder:
    def test_duplicate_label_rejected(self):
        builder = ProgramBuilder()
        builder.label("x")
        with pytest.raises(ProgramError):
            builder.label("x")

    def test_undefined_target_rejected_at_build(self):
        builder = ProgramBuilder()
        builder.branch(Opcode.BA, "nowhere")
        builder.label("nowhere_else")
        with pytest.raises(ProgramError):
            builder.build()

    def test_size_bytes(self):
        builder = ProgramBuilder()
        builder.label("e")
        builder.nop()
        builder.ret()
        program = builder.build()
        assert program.size_bytes == 8


def assemble(body):
    builder = ProgramBuilder()
    builder.label("main")
    body(builder)
    builder.ret()
    return builder.build()


class TestIssTiming:
    def test_pipeline_fill_charged(self):
        program = assemble(lambda b: b.nop())
        result = Iss(program).run("main", {})
        assert result.cycles == PIPELINE_FILL_CYCLES + 1 + BASE_CYCLES[Opcode.RET]

    def test_load_use_interlock(self):
        def with_stall(builder):
            builder.load(8, 0, 0)
            builder.alu(Opcode.ADD, 9, 8, imm=1)  # uses r8 immediately

        def without_stall(builder):
            builder.load(8, 0, 0)
            builder.nop()
            builder.alu(Opcode.ADD, 9, 8, imm=1)

        stalled = Iss(assemble(with_stall)).run("main", {})
        clean = Iss(assemble(without_stall)).run("main", {})
        # One instruction fewer, the same cycles: the stall costs the
        # cycle that the NOP fills.
        assert stalled.instruction_count + 1 == clean.instruction_count
        assert stalled.cycles == clean.cycles

    def test_delay_slot_executes_before_branch(self):
        def body(builder):
            builder.seti(8, 1)
            builder.cmp(8, imm=1)
            builder.append(Instruction(Opcode.BE, target="skip"))
            builder.seti(9, 42)  # delay slot: executes although branch taken
            builder.seti(10, 7)  # skipped
            builder.label("skip")

        iss = Iss(assemble(body))
        iss.run("main", {})
        assert iss.registers[9] == 42
        assert iss.registers[10] == 0

    def test_branch_in_delay_slot_rejected(self):
        def body(builder):
            builder.append(Instruction(Opcode.BA, target="main"))
            builder.append(Instruction(Opcode.BA, target="main"))

        with pytest.raises(IssError):
            Iss(assemble(body)).run("main", {})

    def test_runaway_guard(self):
        def body(builder):
            builder.label("spin")
            builder.branch(Opcode.BA, "spin")

        with pytest.raises(IssError):
            Iss(assemble(body), max_instructions=100).run("main", {})

    def test_call_and_ret(self):
        builder = ProgramBuilder()
        builder.label("main")
        builder.call("sub")
        builder.seti(9, 5)
        builder.ret()
        builder.label("sub")
        builder.seti(8, 4)
        builder.ret()
        iss = Iss(builder.build())
        iss.run("main", {})
        assert iss.registers[8] == 4
        assert iss.registers[9] == 5


class TestIssEnergy:
    def test_energy_positive_and_class_counts(self):
        def body(builder):
            builder.seti(8, 3)
            builder.load(9, 0, 0)
            builder.store(9, 0, 1)

        model = InstructionPowerModel.default_sparclite()
        result = Iss(assemble(body), model).run("main", {})
        assert result.energy > 0
        assert result.instruction_count == 4
        # Each instruction is charged by its class after the previous
        # one's, and the store stalls on the loaded register.
        expected = model.fill_energy(PIPELINE_FILL_CYCLES)
        previous = ""
        for op in (Opcode.SETI, Opcode.LD, Opcode.ST, Opcode.RET):
            expected += model.instruction_energy(
                class_of(op), BASE_CYCLES[op], previous, 0)
            previous = class_of(op)
        expected += model.stall_energy(1)
        assert result.energy == pytest.approx(expected, rel=1e-12)

    def test_data_dependent_model_varies_with_values(self):
        def body(builder):
            builder.load(8, 0, 0)
            builder.alu(Opcode.ADD, 9, 8, rs2=8)

        model = InstructionPowerModel.dsp_like()
        low = Iss(assemble(body), model).run("main", {0: 0})
        high = Iss(assemble(body), model).run("main", {0: 0xFFFF})
        assert high.energy > low.energy

    def test_sparclite_model_is_data_independent(self):
        def body(builder):
            builder.load(8, 0, 0)
            builder.alu(Opcode.ADD, 9, 8, rs2=8)

        low = Iss(assemble(body)).run("main", {0: 0})
        high = Iss(assemble(body)).run("main", {0: 0xFFFF})
        assert low.energy == high.energy
