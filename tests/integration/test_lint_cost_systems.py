"""Integration: static cost reports over the bundled systems.

Three claims are pinned:

* **golden reports** — the admission weight and cache-table size of
  every bundled system, so a cost-model change shows up as a readable
  diff (the service's `Retry-After` quotes are priced off these exact
  numbers);
* **Section 4.2 agreement** — `CostReport.cache_table_size` equals the
  path-cacheability prediction, which in turn equals the dynamic
  energy-cache population on the Figure 7 workload;
* **DF502 soundness at system scale** — no concrete cycle of any
  bundled netlist, driven by seeded random stimuli, dissipates more
  than the abstract per-cycle bound.
"""

import random

import pytest

from repro.core import PowerCoEstimator
from repro.core.caching import CachingStrategy, EnergyCacheConfig
from repro.core.macromodel import MacroModelCharacterizer
from repro.hw.logicsim import CompiledSimulator
from repro.hw.synth import synthesize_cfsm_cached
from repro.lint.cost import compute_cost_report
from repro.lint.paths import cacheability_report
from repro.lint.absint import abstract_netlist_values, netlist_energy_bound
from repro.systems import build_bundle, system_names

#: (cost units, cache-table entries) golden per bundled system.  The
#: ordering automotive < fig1 < tcpip < tcpip-out is what the service's
#: cost-aware admission relies on: a tcpip-out request must be quoted a
#: longer Retry-After than an automotive one against the same queue.
GOLDEN = {
    "automotive": (1.2446, 17),
    "fig1": (19.0612, 5),
    "tcpip": (35.0081, 8),
    "tcpip-out": (44.2485, 12),
}


@pytest.fixture(scope="module")
def parameter_file():
    return MacroModelCharacterizer().characterize()


class TestGoldenCostReports:
    def test_every_bundled_system_has_a_golden(self):
        assert sorted(GOLDEN) == sorted(system_names())

    @pytest.mark.parametrize("system", sorted(GOLDEN))
    def test_golden_cost_report(self, system, parameter_file):
        report = compute_cost_report(build_bundle(system).network,
                                     parameter_file=parameter_file)
        units, table = GOLDEN[system]
        assert report.cost_units == units
        assert report.cache_table_size == table
        assert not report.cache_table_unbounded
        assert report.cycles_per_event_bound is not None
        assert report.energy_per_event_bound_j is not None
        assert report.energy_per_event_bound_j > 0.0

    def test_admission_ordering(self, parameter_file):
        units = {
            system: compute_cost_report(
                build_bundle(system).network,
                parameter_file=parameter_file).cost_units
            for system in system_names()
        }
        assert (units["automotive"] < units["fig1"]
                < units["tcpip"] < units["tcpip-out"])


class TestSection42Agreement:
    @pytest.mark.parametrize("system", sorted(GOLDEN))
    def test_cost_report_matches_cacheability_prediction(
            self, system, parameter_file):
        network = build_bundle(system).network
        report = compute_cost_report(network, parameter_file=parameter_file)
        cache = cacheability_report(network)
        assert report.cache_table_size == cache.predicted_table_size("path")
        assert report.cache_table_unbounded == cache.unbounded

    def test_static_table_size_matches_dynamic_cache_on_fig7(
            self, parameter_file):
        """The full chain: CostReport == path prediction == the energy
        cache's population once every live path ran (Figure 7 workload,
        clean run; the one statically-live-but-clean-unreachable
        checksum-mismatch path accounts for the -1)."""
        bundle = build_bundle("tcpip")
        static = compute_cost_report(
            bundle.network, parameter_file=parameter_file).cache_table_size
        strategy = CachingStrategy(EnergyCacheConfig())
        estimator = PowerCoEstimator(bundle.network, bundle.config)
        estimator.estimate(
            bundle.stimuli(),
            strategy=strategy,
            shared_memory_image=bundle.shared_memory_image,
        )
        dynamic = len(set(strategy.cache.entries))
        assert dynamic == static - 1


class TestEnergyBoundsAtSystemScale:
    @pytest.mark.parametrize("system", sorted(GOLDEN))
    def test_no_concrete_cycle_exceeds_the_abstract_bound(self, system):
        rng = random.Random(0xD502)
        network = build_bundle(system).network
        checked = 0
        for cfsm in network.hardware_cfsms():
            netlist = synthesize_cfsm_cached(cfsm).netlist
            values = abstract_netlist_values(netlist)
            bound = netlist_energy_bound(netlist, values=values)
            sim = CompiledSimulator(netlist)
            sim.reset()
            ports = sorted(netlist.input_ports)
            for _ in range(100):
                inputs = {
                    port: rng.getrandbits(len(netlist.input_ports[port]))
                    for port in ports
                }
                energy = sim.step(inputs)
                assert energy <= bound.total_j + 1e-15, (
                    "%s/%s: cycle dissipated %.3g J above the static "
                    "bound %.3g J" % (system, netlist.name, energy,
                                      bound.total_j)
                )
                for net, proved in enumerate(values):
                    if proved is not None:
                        assert sim.values[net] == proved
            checked += 1
        assert checked > 0, "%s has no hardware processes" % system
