"""Unit tests: the ISS exact run memo replays invocations losslessly.

A replayed invocation must be indistinguishable from interpreting it:
equal ``IssResult`` fields, final registers and flags, and caller
memory equal as a dict *and* in key insertion order.  The reference
for every comparison is ``Iss._run_program``, the interpreter below the
memo.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cfsm.builder import CfsmBuilder
from repro.core import PowerCoEstimator
from repro.sw.codegen import SHARED_MEMORY_BASE, compile_cfsm, transition_label
from repro.sw.isa import Instruction, Opcode
from repro.sw.iss import (
    ISS_RUN_MEMO_STATS,
    Iss,
    _ISS_RUN_MEMO,
    _RECORDINGS_PER_KEY,
    clear_iss_run_memo,
)
from repro.sw.power_model import InstructionPowerModel
from repro.sw.program import ProgramBuilder
from repro.systems import build_bundle
from repro.telemetry import Telemetry

from tests.generators import EVENT_IN, EVENT_OUT, VAR_NAMES, sw_bodies

#: Small pools make equal keys with different load values likely.
VALUES = st.sampled_from([0, 1, 2, -3, 7, 1 << 40])


def outcome(iss, result, memory):
    return (result, list(iss.registers), iss._flag_eq, iss._flag_lt,
            list(memory.items()))


def run_steps(program, steps, interpret=False, model=None, label="main"):
    """Run ``steps`` on one Iss; each step is (reset, registers, flags, image)."""
    iss = Iss(program, model)
    outcomes = []
    for reset, registers, flags, image in steps:
        if reset:
            iss.registers[1:] = registers
            iss._flag_eq, iss._flag_lt = flags
        memory = dict(image)
        if interpret:
            result = iss._run_program(label, memory)
        else:
            result = iss.run(label, memory)
        outcomes.append(outcome(iss, result, memory))
    return outcomes


def build_cfsm(body):
    builder = CfsmBuilder("prop")
    builder.input(EVENT_IN, has_value=True)
    builder.output(EVENT_OUT, has_value=True)
    for name in VAR_NAMES:
        builder.var(name, 0)
    builder.transition("t", trigger=[EVENT_IN], body=body)
    return builder.build()


def assemble(body):
    builder = ProgramBuilder()
    builder.label("main")
    body(builder)
    builder.ret()
    return builder.build()


def images(addresses):
    """Memory images over ``addresses`` in a random insertion order."""
    return st.lists(
        st.tuples(st.sampled_from(addresses), VALUES), max_size=len(addresses)
    )


@st.composite
def programs_and_steps(draw):
    cfsm = build_cfsm(list(draw(sw_bodies())))
    compiled = compile_cfsm(cfsm)
    memory_map = compiled.memory_map
    addresses = [memory_map.variables[name] for name in VAR_NAMES]
    addresses.append(memory_map.event_mailboxes[EVENT_IN])
    addresses += [SHARED_MEMORY_BASE + offset for offset in range(16)]
    registers = draw(st.lists(VALUES, min_size=31, max_size=31))
    step = st.tuples(
        st.booleans(), st.just(registers), st.tuples(st.booleans(), st.booleans()),
        images(addresses),
    )
    steps = draw(st.lists(step, min_size=1, max_size=6))
    steps[0] = (True,) + steps[0][1:]
    return compiled.program, steps


@given(programs_and_steps(), st.sampled_from([None, InstructionPowerModel.dsp_like()]))
@settings(max_examples=80, deadline=None)
def test_cold_and_warm_memo_match_the_interpreter(program_and_steps, model):
    program, steps = program_and_steps
    label = transition_label("prop", "t")
    reference = run_steps(program, steps, interpret=True, model=model, label=label)
    clear_iss_run_memo()
    assert run_steps(program, steps, model=model, label=label) == reference
    hits = ISS_RUN_MEMO_STATS.hits
    assert run_steps(program, steps, model=model, label=label) == reference
    if len(steps) <= _RECORDINGS_PER_KEY:
        assert ISS_RUN_MEMO_STATS.hits > hits


def two_loads(builder):
    builder.load(8, 0, 100)
    builder.load(9, 0, 101)
    builder.alu(Opcode.ADD, 10, 8, 9)
    builder.store(10, 0, 102)


class TestReplay:
    def setup_method(self):
        clear_iss_run_memo()

    def test_load_after_store_is_not_checked(self):
        def body(builder):
            builder.seti(8, 5)
            builder.store(8, 0, 100)
            builder.load(9, 0, 100)
            builder.store(9, 0, 101)

        program = assemble(body)
        first = [(True, [0] * 31, (False, False), [(100, 1)])]
        second = [(True, [0] * 31, (False, False), [(100, 2)])]
        run_steps(program, first)
        hits = ISS_RUN_MEMO_STATS.hits
        assert run_steps(program, second) == run_steps(program, second, interpret=True)
        assert ISS_RUN_MEMO_STATS.hits == hits + 1

    def test_changed_later_load_value_misses(self):
        program = assemble(two_loads)
        first = [(True, [0] * 31, (False, False), [(100, 1), (101, 2)])]
        second = [(True, [0] * 31, (False, False), [(100, 1), (101, 3)])]
        run_steps(program, first)
        misses = ISS_RUN_MEMO_STATS.misses
        replayed = run_steps(program, second)
        assert ISS_RUN_MEMO_STATS.misses == misses + 1
        assert replayed == run_steps(program, second, interpret=True)
        assert replayed[0][1][10] == 4

    def test_stores_replay_in_order(self):
        def body(builder):
            builder.seti(8, 1)
            builder.store(8, 0, 300)
            builder.store(8, 0, 200)
            builder.store(8, 0, 100)
            builder.seti(8, 2)
            builder.store(8, 0, 300)

        program = assemble(body)
        steps = [(True, [0] * 31, (False, False), [(100, 9)])]
        run_steps(program, steps)
        replayed = run_steps(program, steps)
        assert ISS_RUN_MEMO_STATS.hits == 1
        assert replayed == run_steps(program, steps, interpret=True)
        assert replayed[0][4] == [(100, 1), (300, 2), (200, 1)]

    def test_addresses_beyond_64_bits(self):
        program = assemble(lambda builder: builder.load(9, 8, 1))
        wide = 1 << 70
        steps = [(True, [0] * 7 + [wide] + [0] * 23, (False, False), [(wide + 1, 5)])]
        run_steps(program, steps)
        replayed = run_steps(program, steps)
        assert ISS_RUN_MEMO_STATS.hits == 1
        assert replayed == run_steps(program, steps, interpret=True)
        assert replayed[0][0].memory_reads == [wide + 1]

    def test_entry_flags_are_part_of_the_key(self):
        def body(builder):
            builder.branch(Opcode.BE, "skip")
            builder.seti(8, 1)
            builder.label("skip")

        program = assemble(body)
        for flags in ((False, False), (True, False)):
            steps = [(True, [0] * 31, flags, [])]
            assert run_steps(program, steps) == run_steps(
                program, steps, interpret=True)
        assert ISS_RUN_MEMO_STATS.hits == 0

    def test_data_dependent_model(self):
        program = assemble(two_loads)
        model = InstructionPowerModel.dsp_like()
        low = [(True, [0] * 31, (False, False), [(100, 1), (101, 2)])]
        high = [(True, [0] * 31, (False, False), [(100, 255), (101, 255)])]
        energies = []
        for steps in (low, high, low, high):
            replayed = run_steps(program, steps, model=model)
            assert replayed == run_steps(program, steps, interpret=True, model=model)
            energies.append(replayed[0][0].energy)
        assert energies[0] != energies[1]
        assert ISS_RUN_MEMO_STATS.snapshot()["hits"] == 2

    def test_models_with_different_parameters_do_not_share(self):
        program = assemble(two_loads)
        steps = [(True, [0] * 31, (False, False), [(100, 1), (101, 2)])]
        default = run_steps(program, steps)
        hot = InstructionPowerModel(vdd=5.0)
        assert run_steps(program, steps, model=hot) == run_steps(
            program, steps, interpret=True, model=hot)
        assert ISS_RUN_MEMO_STATS.hits == 0
        # An equal model built separately shares the entry.
        assert run_steps(program, steps, model=InstructionPowerModel()) == default
        assert ISS_RUN_MEMO_STATS.hits == 1

    def test_equal_instructions_with_different_labels_do_not_share(self):
        def build(target_index):
            instructions = [
                Instruction(Opcode.BA, target="there"),
                Instruction(Opcode.NOP),
                Instruction(Opcode.SETI, rd=8, imm=1),
                Instruction(Opcode.SETI, rd=9, imm=2),
                Instruction(Opcode.RET),
            ]
            builder = ProgramBuilder()
            for index, instruction in enumerate(instructions):
                if index == 0:
                    builder.label("main")
                if index == target_index:
                    builder.label("there")
                builder.append(instruction)
            return builder.build()

        steps = [(True, [0] * 31, (False, False), [])]
        near, far = build(2), build(3)
        assert near.instructions == far.instructions
        run_steps(near, steps)
        assert run_steps(far, steps) == run_steps(far, steps, interpret=True)
        assert ISS_RUN_MEMO_STATS.hits == 0

    def test_trace_and_breakpoints_bypass_the_memo(self):
        builder = ProgramBuilder()
        builder.label("main")
        builder.seti(8, 1)
        builder.label("bp")
        builder.seti(8, 2)
        builder.ret()
        program = builder.build()
        traced = Iss(program, record_trace=True)
        stopped = Iss(program)
        for _ in range(2):
            assert len(traced.run("main", {}).executed) == 3
            result = stopped.run("main", {}, breakpoints={"bp"})
            assert result.stopped_at_breakpoint == "bp"
        assert ISS_RUN_MEMO_STATS.snapshot() == {"hits": 0, "misses": 0, "evictions": 0}
        assert len(_ISS_RUN_MEMO) == 0

    def test_telemetry_counters(self):
        program = assemble(two_loads)
        telemetry = Telemetry.metrics_only()
        iss = Iss(program, telemetry=telemetry)
        for _ in range(3):
            iss.registers[:] = [0] * 32
            iss.run("main", {100: 1, 101: 2})
        counters = telemetry.metrics.snapshot()["counters"]
        assert counters["iss.run_memo.misses"] == 1
        assert counters["iss.run_memo.hits"] == 2
        assert counters["iss.invocations"] == 3


def test_repeated_macromodel_estimates_do_not_grow_the_memo():
    """Characterization compiles fresh template programs on every run.

    The memo keys programs by content, so the second run's templates hit
    the first run's entries instead of adding new ones.
    """
    clear_iss_run_memo()
    sizes = []
    for _ in range(3):
        bundle = build_bundle("fig1")
        PowerCoEstimator(bundle.network, bundle.config).estimate(
            bundle.stimuli(), strategy="macromodel")
        sizes.append((len(_ISS_RUN_MEMO), ISS_RUN_MEMO_STATS.misses))
    assert sizes[0][0] > 0
    assert sizes[1] == sizes[0] and sizes[2] == sizes[0]

