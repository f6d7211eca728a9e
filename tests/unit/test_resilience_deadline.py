"""The inline deadline of supervised estimator calls.

A supervised call runs on its caller's thread under a deadline the
engines poll: the gate-level simulator once per cycle, the ISS every
``DEADLINE_POLL_INSTRUCTIONS`` instructions.  A run its deadline stops
leaves the engine exactly as it found it, so the retry computes what an
uninterrupted run computes.
"""

import sys
import threading
import time
from itertools import count

import pytest

from repro import deadline as deadline_module
from repro.cfsm.builder import CfsmBuilder
from repro.cfsm.expr import add, const, event_value, var
from repro.cfsm.sgraph import assign, emit, loop
from repro.deadline import (
    WatchdogTimeout,
    check_deadline,
    current_deadline,
    deadline_after,
    sleep_within_deadline,
)
from repro.estimation import Estimate
from repro.hw.estimator import HardwarePowerSimulator, clear_hw_run_memo
from repro.resilience.faults import FaultInjector, FaultPlan
from repro.resilience.supervisor import ResilienceConfig, ResilientEstimator
from repro.sw.isa import Instruction, Opcode
from repro.sw.iss import DEADLINE_POLL_INSTRUCTIONS, Iss, clear_iss_run_memo
from repro.sw.power_model import InstructionPowerModel
from repro.sw.program import ProgramBuilder


@pytest.fixture
def ticking_clock(monkeypatch):
    """A deadline clock that advances by one on every reading."""
    ticks = count()
    monkeypatch.setattr(deadline_module, "monotonic", lambda: next(ticks))


class TestDeadline:
    def test_none_sets_no_deadline(self):
        with deadline_after(None):
            assert current_deadline() is None

    def test_deadline_is_restored_on_exit(self, ticking_clock):
        with pytest.raises(WatchdogTimeout):
            with deadline_after(2.0):
                assert current_deadline() == 2.0
                check_deadline(current_deadline())  # clock reads 1
                check_deadline(current_deadline())  # clock reads 2
        assert current_deadline() is None

    def test_deadline_is_per_thread(self):
        seen = []
        with deadline_after(10.0):
            thread = threading.Thread(
                target=lambda: seen.append(current_deadline()))
            thread.start()
            thread.join()
        assert seen == [None]

    def test_check(self, ticking_clock):
        check_deadline(5)  # clock reads 0
        with pytest.raises(WatchdogTimeout):
            check_deadline(1)  # clock reads 1

    def test_hang_sleeps_only_until_the_deadline(self):
        started = time.monotonic()
        with deadline_after(0.05):
            with pytest.raises(WatchdogTimeout):
                sleep_within_deadline(30.0)
        assert time.monotonic() - started < 5.0
        with deadline_after(30.0):
            sleep_within_deadline(0.001)  # shorter than the budget


def _hw_simulator():
    builder = CfsmBuilder("deadline_hw", width=16)
    builder.input("GO", has_value=True)
    builder.output("OUT", has_value=True)
    builder.var("a", 0).var("b", 3)
    builder.transition("t", trigger=["GO"], body=[
        loop(const(12), [assign("a", add(var("a"), event_value("GO")))]),
        emit("OUT", var("a")),
    ])
    return HardwarePowerSimulator(builder.build())


def _hw_state(hw):
    sim = hw.simulator
    return (bytes(sim.values), hw._needs_settle, sim.cycle, sim.total_energy,
            sim.total_toggles, hw.invocations, hw.total_cycles,
            hw.total_energy)


def _hw_runs(stop_after_ticks=None):
    """Poke, run, run again; the first run optionally stopped."""
    hw = _hw_simulator()
    hw.run_transition("t", {"GO": 2})
    hw.poke_variables({"b": 9})  # the stopped run settles first
    if stop_after_ticks is not None:
        before = _hw_state(hw)
        with deadline_after(stop_after_ticks):
            with pytest.raises(WatchdogTimeout):
                hw.run_transition("t", {"GO": 3})
        assert _hw_state(hw) == before
    return hw.run_transition("t", {"GO": 3}), _hw_state(hw)


def test_stopped_gate_level_run_is_undone(ticking_clock):
    clear_hw_run_memo()
    reference = _hw_runs()
    assert reference[0].cycles > 10
    clear_hw_run_memo()
    # The clock reads 0 when the deadline is set and one more at each
    # per-cycle poll: the run stops in its fifth cycle.
    assert _hw_runs(stop_after_ticks=4.5) == reference


def _spin_program(iterations):
    """Store an increasing counter to consecutive words."""
    builder = ProgramBuilder()
    builder.label("main")
    builder.seti(8, 0)
    builder.seti(9, 100)
    builder.label("loop")
    builder.store(8, 9, 0)
    builder.append(Instruction(Opcode.ADD, rd=8, rs1=8, imm=1))
    builder.append(Instruction(Opcode.ADD, rd=9, rs1=9, imm=1))
    builder.cmp(8, imm=iterations)
    builder.branch(Opcode.BL, "loop")
    builder.ret()
    return builder.build()


def _iss_state(iss, memory):
    return list(iss.registers), iss._flag_eq, iss._flag_lt, list(memory.items())


def _iss_runs(stop_after_ticks=None):
    program = _spin_program(1000)
    iss = Iss(program, InstructionPowerModel())
    iss.registers[12] = 77
    iss._flag_lt = True
    # Words 100 and 105 are overwritten by the run, 101.. are new.
    memory = {100: -1, 7: 8, 105: 42}
    if stop_after_ticks is not None:
        before = _iss_state(iss, memory)
        with deadline_after(stop_after_ticks):
            with pytest.raises(WatchdogTimeout):
                iss.run("main", memory)
        assert _iss_state(iss, memory) == before
    return iss.run("main", memory), _iss_state(iss, memory)


def test_stopped_iss_run_is_undone(ticking_clock):
    clear_iss_run_memo()
    reference = _iss_runs()
    assert reference[0].instruction_count > 3 * DEADLINE_POLL_INSTRUCTIONS
    clear_iss_run_memo()
    # The first poll (clock 1) passes, the second (clock 2) stops the
    # run after about 340 stores.
    assert _iss_runs(stop_after_ticks=1.5) == reference


def test_deadlines_of_concurrent_threads_stay_apart():
    """Four supervising threads on two cores, switching every 10 us:
    each call sees its own thread's deadline, and each thread times out
    exactly on the hangs its own fault plan draws."""
    calls = 30
    plans = [
        FaultPlan.uniform(["hw"], rate, seed=seed, kind="hang", hang_s=30.0)
        for rate, seed in ((0.2, 1), (0.3, 2), (0.4, 3), (0.25, 4))
    ]
    budgets = [0.05, 0.1, 0.15, 0.2]
    outcomes = {}

    def supervise(index):
        budget = budgets[index]
        estimator = ResilientEstimator(
            ResilienceConfig(watchdog_s=budget, fault_plan=plans[index],
                             max_retries=0, backoff_base_s=0.0),
            power_model=InstructionPowerModel(),
        )
        misplaced = []
        for _ in range(calls):
            called_at = time.monotonic()

            def low_level():
                deadline = current_deadline()
                if not (called_at + budget <= deadline
                        <= time.monotonic() + budget):
                    misplaced.append(deadline)
                for _ in range(50):
                    check_deadline(deadline)
                return Estimate(cycles=1, energy=1e-9, ran_low_level=True)

            try:
                estimator.supervise("hw", "block%d" % index, low_level)()
            except Exception:
                pass
        outcomes[index] = (estimator.watchdog_timeouts, misplaced)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=supervise, args=(index,))
                   for index in range(len(plans))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60.0)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for index, plan in enumerate(plans):
        injector = FaultInjector(plan)
        hangs = sum(injector.draw("hw") is not None for _ in range(calls))
        assert hangs > 0
        assert outcomes[index] == (hangs, []), index
