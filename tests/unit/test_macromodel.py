"""Unit tests: macro-model characterization and the parameter file."""

import math

import pytest

from repro.cfsm.actions import MacroOpKind, all_macro_op_names
from repro.core.macromodel import (
    HW_MACRO_CYCLES,
    MacroCost,
    MacroModelCharacterizer,
    ParameterFile,
    characterize_hw,
)


@pytest.fixture(scope="module")
def parameter_file():
    return MacroModelCharacterizer().characterize()


class TestCharacterization:
    def test_covers_every_macro_op(self, parameter_file):
        for name in all_macro_op_names():
            assert name in parameter_file.costs, name

    def test_costs_non_negative(self, parameter_file):
        for name, cost in parameter_file.costs.items():
            assert cost.time_cycles >= 0, name
            assert cost.energy_j >= 0, name
            assert cost.size_bytes >= 0, name

    def test_expensive_ops_cost_more(self, parameter_file):
        """Costs are *marginal* (peeled): a multiply's marginal cost
        exceeds an add's, and divide exceeds multiply (12- vs 4-cycle
        units on the target)."""
        assert (parameter_file.cost("MUL").time_cycles
                > parameter_file.cost("ADD").time_cycles)
        assert (parameter_file.cost("DIV").time_cycles
                > parameter_file.cost("MUL").time_cycles)

    def test_emission_is_characterized(self, parameter_file):
        cost = parameter_file.cost(MacroOpKind.AEMIT)
        assert cost.time_cycles > 0
        assert cost.energy_j > 0

    def test_estimate_ops_sums_costs(self, parameter_file):
        ops = ["ADD", "AVV", "AEMIT"]
        cycles, energy = parameter_file.estimate_ops(ops)
        expected_cycles = sum(parameter_file.cost(op).time_cycles for op in ops)
        assert cycles == pytest.approx(expected_cycles)
        assert energy > 0

    def test_macromodel_reproduces_its_own_templates(self, parameter_file):
        """The peeled costs reconstruct the template measurements: the
        estimate of [ADD, AVV] equals the measured assign(a, b + c)."""
        characterizer = MacroModelCharacterizer()
        from repro.cfsm.expr import BinaryOp, Var
        from repro.cfsm.sgraph import assign

        ops, measured = characterizer._measure(
            characterizer._template_cfsm(
                [assign("a", BinaryOp("ADD", Var("b"), Var("c")))]
            )
        )
        cycles, energy = parameter_file.estimate_ops(ops)
        assert cycles == pytest.approx(measured.time_cycles, rel=0.01)
        assert energy == pytest.approx(measured.energy_j, rel=0.01)


class TestParameterFile:
    def test_serialize_has_paper_format(self, parameter_file):
        text = parameter_file.serialize()
        assert ".unit_time cycle" in text
        assert ".unit_energy nJ" in text
        assert ".time AVV" in text
        assert ".energy AEMIT" in text

    def test_round_trip(self, parameter_file):
        text = parameter_file.serialize()
        parsed = ParameterFile.parse(text)
        for name, cost in parameter_file.costs.items():
            assert parsed.cost(name).time_cycles == pytest.approx(
                cost.time_cycles, rel=1e-4
            )
            assert parsed.cost(name).energy_j == pytest.approx(
                cost.energy_j, rel=1e-4, abs=1e-15
            )

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            ParameterFile.parse("bogus line here")
        with pytest.raises(ValueError):
            ParameterFile.parse(".weird AVV 2")

    def test_unknown_op_costs_zero(self):
        empty = ParameterFile()
        cycles, energy = empty.estimate_ops(["NOPE"])
        assert cycles == 0
        assert energy == 0


class TestHwMacroModel:
    def test_cycle_table_covers_all_ops(self):
        for name in all_macro_op_names():
            assert name in HW_MACRO_CYCLES

    def test_characterize_hw_profile(self):
        from repro.cfsm.builder import CfsmBuilder
        from repro.cfsm.expr import add, const, var
        from repro.cfsm.sgraph import assign

        builder = CfsmBuilder("hwm", width=8)
        builder.input("GO", has_value=True)
        builder.var("a", 0)
        builder.transition("t", trigger=["GO"],
                           body=[assign("a", add(var("a"), const(1)))])
        profile = characterize_hw(builder.build())
        assert profile.energy_per_cycle_j > 0
        assert profile.clock_period_ns > 0


def test_macromodel_estimates_reuse_the_synthesized_blocks(monkeypatch):
    """Characterizing a hardware block takes its netlist from the
    process-wide synthesis cache, so a repeated macromodel estimate
    synthesizes nothing, and its report does not move a bit."""
    import dataclasses

    from repro.hw import synth
    from repro.parallel.runners import run_estimate
    from repro.systems import build_bundle, builder_spec

    synthesized = []
    uncached = synth.synthesize_cfsm

    def counting(cfsm, library=None):
        synthesized.append(cfsm.name)
        return uncached(cfsm, library)

    monkeypatch.setattr(synth, "synthesize_cfsm", counting)
    synth.clear_synth_cache()
    builder, kwargs = builder_spec("tcpip")
    reports = [
        dataclasses.asdict(run_estimate(builder, dict(kwargs),
                                        strategy="macromodel"))
        for _ in range(2)
    ]
    blocks = sorted(cfsm.name for cfsm in
                    build_bundle("tcpip").network.hardware_cfsms())
    assert blocks
    assert sorted(synthesized) == blocks
    assert synth.SYNTH_CACHE_STATS.misses == len(blocks)
    for report in reports:
        for key in [key for key in report if key.endswith("_seconds")]:
            del report[key]
    assert repr(reports[0]) == repr(reports[1])
