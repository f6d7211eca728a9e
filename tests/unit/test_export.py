"""Unit tests: CSV/VCD/report export of power waveforms."""

import pytest

from repro.master.export import (
    export_power_csv,
    export_power_vcd,
    _vcd_identifier,
)
from repro.master.tracing import EnergyAccountant


@pytest.fixture
def accountant():
    acc = EnergyAccountant()
    acc.add("cpu", "sw", 0.0, 100.0, 4e-9)
    acc.add("cpu", "sw", 150.0, 250.0, 2e-9)
    acc.add("asic", "hw", 50.0, 150.0, 8e-9)
    acc.add("_bus", "bus", 90.0, 110.0, 1e-9)
    return acc


class TestCsv:
    def test_header_and_columns(self, accountant):
        text = export_power_csv(accountant, bin_ns=50.0)
        lines = text.strip().splitlines()
        assert lines[0] == "time_ns,_bus,asic,cpu"
        assert len(lines) > 2
        for line in lines[1:]:
            assert len(line.split(",")) == 4

    def test_component_filter(self, accountant):
        text = export_power_csv(accountant, bin_ns=50.0, components=["cpu"])
        assert text.splitlines()[0] == "time_ns,cpu"

    def test_energy_conserved_in_csv(self, accountant):
        text = export_power_csv(accountant, bin_ns=50.0, components=["cpu"])
        total = 0.0
        for line in text.strip().splitlines()[1:]:
            total += float(line.split(",")[1]) * 50e-9
        assert total == pytest.approx(6e-9, rel=1e-6)


class TestVcd:
    def test_structure(self, accountant):
        text = export_power_vcd(accountant, bin_ns=50.0)
        assert "$timescale 1ns $end" in text
        assert "$enddefinitions $end" in text
        assert "$var integer 32" in text
        assert "cpu_uW" in text
        assert "#0" in text

    def test_value_changes_only_on_change(self, accountant):
        text = export_power_vcd(accountant, bin_ns=50.0, components=["cpu"])
        # The cpu is quiet in bins 2 (100-150ns): its value must change
        # (to something near zero), then change again when it resumes.
        changes = [line for line in text.splitlines()
                   if line.startswith("b")]
        assert len(changes) >= 3

    def test_identifier_uniqueness(self):
        codes = {_vcd_identifier(i) for i in range(300)}
        assert len(codes) == 300

