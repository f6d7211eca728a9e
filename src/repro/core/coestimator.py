"""The user-facing power co-estimation facade.

``PowerCoEstimator`` wraps network compilation (done once) and runs
co-simulations under any estimation strategy::

    estimator = PowerCoEstimator(network, config)
    baseline = estimator.estimate(stimuli)                   # full co-estimation
    cached = estimator.estimate(stimuli, strategy="caching")
    fast = estimator.estimate(stimuli, strategy="macromodel")
    print(fast.report.speedup_over(baseline.report))

Software macro-model characterization (the paper's Figure 3 flow) runs
lazily the first time the ``"macromodel"`` strategy is requested and is
reused across runs, like the pre-characterized library of the paper;
hardware blocks are characterized under ``config.library`` as the run
first reaches them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Union

from repro.cfsm.events import Event
from repro.cfsm.model import Network
from repro.core.caching import CachingStrategy, EnergyCacheConfig
from repro.core.report import EnergyReport
from repro.core.strategy import EstimationStrategy, FullStrategy
from repro.master.master import MasterConfig, SimulationMaster
from repro.telemetry import Telemetry

if TYPE_CHECKING:
    from repro.core.macromodel import ParameterFile


@dataclass
class CoEstimationResult:
    """Report plus the finished master (for waveforms and drill-down)."""

    report: EnergyReport
    master: SimulationMaster

    def power_waveform(self, bin_ns: float, component: Optional[str] = None):
        """Time-binned power waveform, see
        :meth:`repro.master.tracing.EnergyAccountant.power_waveform`."""
        return self.master.accountant.power_waveform(bin_ns, component=component)


class PowerCoEstimator:
    """Run SOC power co-estimation for one network."""

    STRATEGIES = ("full", "caching", "macromodel", "sampling")

    def __init__(self, network: Network, config: Optional[MasterConfig] = None) -> None:
        self.network = network
        self.config = config or MasterConfig()
        self._parameter_file: Optional[ParameterFile] = None

    # -- macro-model library -----------------------------------------------------

    def parameter_file(self) -> ParameterFile:
        """The characterized software macro-model library (lazy)."""
        if self._parameter_file is None:
            from repro.core.macromodel import MacroModelCharacterizer

            characterizer = MacroModelCharacterizer(self.config.power_model)
            self._parameter_file = characterizer.characterize()
        return self._parameter_file

    # -- strategies -----------------------------------------------------------

    def make_strategy(self, spec: Union[str, EstimationStrategy, None]) -> EstimationStrategy:
        """Resolve a strategy name (or pass an instance through)."""
        if spec is None:
            return FullStrategy()
        if isinstance(spec, EstimationStrategy):
            return spec
        if spec == "full":
            return FullStrategy()
        if spec == "caching":
            return CachingStrategy(EnergyCacheConfig())
        # The macro-model and sampling modules load only when asked for.
        if spec == "macromodel":
            from repro.core.macromodel import MacromodelStrategy

            return MacromodelStrategy(
                self.parameter_file(), library=self.config.library
            )
        if spec == "sampling":
            from repro.core.sampling import SamplingStrategy

            return SamplingStrategy()
        raise ValueError(
            "unknown strategy %r (choose from %s)" % (spec, self.STRATEGIES)
        )

    # -- runs -----------------------------------------------------------------

    def estimate(
        self,
        stimuli: List[Event],
        strategy: Union[str, EstimationStrategy, None] = None,
        until_ns: Optional[float] = None,
        shared_memory_image: Optional[Dict[int, int]] = None,
        label: str = "",
        telemetry: Optional["Telemetry"] = None,
    ) -> CoEstimationResult:
        """Run one co-estimation.

        Args:
            stimuli: timestamped environment events.
            strategy: ``"full"`` (default), ``"caching"``,
                ``"macromodel"``, ``"sampling"``, or a strategy object.
            until_ns: optional simulation horizon.
            shared_memory_image: initial contents of the shared memory.
            label: report label (defaults to network + strategy names).
            telemetry: optional :class:`repro.telemetry.Telemetry`
                bundle; when given, the run is traced and metered.

        Returns:
            The report and the finished master.
        """
        resolved = self.make_strategy(strategy)
        master = SimulationMaster(
            self.network, resolved, self.config, telemetry=telemetry
        )
        if shared_memory_image:
            for address, value in shared_memory_image.items():
                master.shared_memory.words[address] = value
        master.run(stimuli, until_ns=until_ns)
        report_label = label or "%s/%s" % (self.network.name, resolved.name)
        return CoEstimationResult(
            report=EnergyReport.from_master(master, report_label), master=master
        )
