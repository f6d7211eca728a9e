"""Property tests: hardware synthesis correctness.

Two layers are checked on random transition bodies:

1. the micro-program (RTL) lowering is semantics-preserving versus the
   behavioral interpreter, and
2. the gate-level netlist agrees with the behavioral interpreter
   bit-for-bit — variable registers, emitted events (order and
   values), and shared-memory traffic observed on the memory ports.
"""

from hypothesis import given, settings

from repro.cfsm.builder import CfsmBuilder
from repro.cfsm.events import Event
from repro.hw.estimator import HardwarePowerSimulator, clear_hw_run_memo
from repro.hw.synth import (
    AluOp,
    ConstSrc,
    DoneOp,
    EmitOp,
    RegSrc,
    RtlCompiler,
    TestOp,
    _alu_semantics,
)

from tests.generators import (
    EVENT_IN,
    EVENT_OUT,
    VAR_NAMES,
    hw_bodies,
    hw_values,
    var_bindings,
)

WIDTH = 16
MASK = (1 << WIDTH) - 1

SHARED_IMAGE = {address: (address * 29 + 3) % 251 for address in range(16)}


class DictShared:
    def __init__(self, words=None):
        self.words = dict(words or {})

    def read(self, address):
        return self.words.get(address, 0)

    def write(self, address, value):
        self.words[address] = value


def build_cfsm(body):
    builder = CfsmBuilder("hprop", width=WIDTH)
    builder.input(EVENT_IN, has_value=True)
    builder.output(EVENT_OUT, has_value=True)
    for name in VAR_NAMES:
        builder.var(name, 0)
    builder.transition("t", trigger=[EVENT_IN], body=body)
    return builder.build()


def run_behavioral(cfsm, bindings, event_value):
    shared = DictShared(SHARED_IMAGE)
    buffer = cfsm.make_buffer()
    state = dict(bindings)
    buffer.deliver(Event(EVENT_IN, value=event_value, time=0.0))
    transition = cfsm.enabled_transition(buffer, state)
    trace = cfsm.react(transition, buffer, state, shared=shared)
    return state, trace, shared


def interpret_micro(program, state, inputs, read_script):
    """Reference interpretation feeding scripted shared-read values."""
    script = list(read_script)
    position = 0
    index = program.entries["t"]
    emits = []
    cycles = 0

    def read(src):
        if isinstance(src, RegSrc):
            return state.get(src.name, 0) & MASK
        if isinstance(src, ConstSrc):
            return src.value & MASK
        if src.event == "__MEMDATA":
            if position == 0 and not script:
                return 0
            return script[min(position, len(script)) - 1] & MASK
        return inputs.get(src.event, 0) & MASK

    while True:
        cycles += 1
        op = program.ops[index]
        if isinstance(op, AluOp):
            state[op.dest] = _alu_semantics(op.op, read(op.a), read(op.b), MASK)
            index = op.next
        elif isinstance(op, TestOp):
            index = op.next_taken if read(op.src) != 0 else op.next
        elif isinstance(op, EmitOp):
            emits.append((op.event, read(op.src)))
            if op.event == "__MEMRD":
                position += 1
            index = op.next
        elif isinstance(op, DoneOp):
            return cycles, emits
        else:  # pragma: no cover
            raise AssertionError("unknown op %r" % op)


@given(hw_bodies(), var_bindings(hw_values()), hw_values())
@settings(max_examples=40)
def test_micro_program_matches_behavioral(body, bindings, event_value):
    cfsm = build_cfsm(list(body))
    state, trace, _ = run_behavioral(cfsm, bindings, event_value)

    program = RtlCompiler(cfsm).compile()
    micro_state = dict(bindings)
    cycles, raw_emits = interpret_micro(
        program,
        micro_state,
        {EVENT_IN: event_value},
        [value for _, value in trace.shared_reads],
    )

    for name in VAR_NAMES:
        assert micro_state.get(name, 0) & MASK == state[name] & MASK, name
    emitted = [(e, v) for e, v in raw_emits if e == EVENT_OUT]
    assert emitted == [(e, v & MASK) for e, v in trace.emitted]
    mem_reads = [v for e, v in raw_emits if e == "__MEMRD"]
    assert mem_reads == [a & MASK for a, _ in trace.shared_reads]
    assert cycles >= 1


@given(hw_bodies(), var_bindings(hw_values()), hw_values())
@settings(max_examples=20)
def test_gate_level_matches_behavioral(body, bindings, event_value):
    cfsm = build_cfsm(list(body))
    state, trace, _ = run_behavioral(cfsm, bindings, event_value)

    simulator = HardwarePowerSimulator(cfsm)
    simulator.poke_variables(bindings)
    # The run ends in the cycle that raises ``done``; an emission strobed
    # in that same cycle would be lost, so no strobe may be high in it.
    sim = simulator.simulator
    ports = sim.netlist.output_ports
    strobe_nets = [ports[port][0] for port in simulator.block.strobe_ports.values()]
    done_net = ports["done"][0]
    step = sim.step
    done_cycles = []

    def checked_step(inputs=None):
        energy = step(inputs)
        if sim.values[done_net]:
            done_cycles.append(sim.cycle)
            assert not any(sim.values[net] for net in strobe_nets)
        return energy

    sim.step = checked_step
    clear_hw_run_memo()  # a memo replay would not step
    result = simulator.run_transition(
        "t",
        {EVENT_IN: event_value},
        read_values=[value for _, value in trace.shared_reads],
    )
    assert done_cycles == [sim.cycle]

    for name in VAR_NAMES:
        assert simulator.read_variable(name) == state[name] & MASK, name
    assert result.emitted == [(e, v & MASK) for e, v in trace.emitted]
    assert result.mem_read_addresses == [a & MASK for a, _ in trace.shared_reads]
    assert result.mem_writes == [
        (a & MASK, v & MASK) for a, v in trace.shared_writes
    ]
    assert result.cycles > 0
    assert result.energy > 0.0
