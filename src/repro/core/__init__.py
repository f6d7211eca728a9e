"""The paper's contribution: power co-estimation and its accelerations.

* :mod:`repro.core.strategy` — the estimation-strategy seam between the
  simulation master and the component-level estimators, plus the basic
  (full, unaccelerated) co-estimation strategy of Section 3.
* :mod:`repro.core.caching` — energy and delay caching (Section 4.2).
* :mod:`repro.core.macromodel` — software (and hardware) power
  macro-modeling (Section 4.1).
* :mod:`repro.core.sampling` — statistical sampling / K-memory dynamic
  sequence compaction (Section 4.3).
* :mod:`repro.core.coestimator` — the user-facing facade.
* :mod:`repro.core.separate` — the separate-estimation baseline used to
  motivate co-estimation (Section 2).
* :mod:`repro.core.report` — energy reports and comparisons.
* :mod:`repro.core.explorer` — communication-architecture design-space
  exploration (Section 5.3).
"""

import importlib

from repro.core.strategy import Estimate, EstimationJob, EstimationStrategy, FullStrategy
from repro.core.caching import (
    CachingStrategy,
    EnergyCache,
    EnergyCacheConfig,
    WarmStartCache,
)
from repro.core.report import EnergyReport
from repro.core.coestimator import CoEstimationResult, PowerCoEstimator
from repro.core.separate import SeparateEstimator

#: Names whose modules load on first access (PEP 562): an estimate
#: under the full or caching strategy never explores, samples or
#: macro-models, so it does not pay for importing those modules.
_LAZY = {
    "MacroModelCharacterizer": "repro.core.macromodel",
    "MacromodelStrategy": "repro.core.macromodel",
    "ParameterFile": "repro.core.macromodel",
    "SamplingStrategy": "repro.core.sampling",
    "KMemoryCompactor": "repro.core.sampling",
    "StaticCompactor": "repro.core.sampling",
    "DesignSpaceExplorer": "repro.core.explorer",
    "DesignPoint": "repro.core.explorer",
    "PartitionExplorer": "repro.core.explorer",
    "PartitionPoint": "repro.core.explorer",
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


__all__ = [
    "Estimate",
    "EstimationJob",
    "EstimationStrategy",
    "FullStrategy",
    "CachingStrategy",
    "EnergyCache",
    "EnergyCacheConfig",
    "WarmStartCache",
    "MacroModelCharacterizer",
    "MacromodelStrategy",
    "ParameterFile",
    "SamplingStrategy",
    "KMemoryCompactor",
    "StaticCompactor",
    "EnergyReport",
    "PowerCoEstimator",
    "CoEstimationResult",
    "SeparateEstimator",
    "DesignSpaceExplorer",
    "DesignPoint",
    "PartitionExplorer",
    "PartitionPoint",
]
