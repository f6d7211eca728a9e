"""End-to-end equivalence of compiled transition bodies.

Whole co-estimation runs with ``SGraph.execute`` swapped for the
reference interpreter of ``tests/unit/test_sgraph_reference.py`` must
report exactly what the compiled bodies report: every
``EnergyReport`` field but the wall-clock ``*_seconds`` on all bundled
systems and strategies, with and without injected faults, and the
sweep rows of a Fig. 7 slice.
"""

import dataclasses

import pytest

from repro.cfsm.sgraph import SGraph
from repro.core.explorer import parallel_sweep, priority_permutations, sweep_summary_rows
from repro.parallel.runners import run_estimate
from repro.resilience import FaultPlan, ResilienceConfig
from repro.systems import builder_spec, system_names, tcpip

from tests.unit.test_sgraph_reference import reference_execute

STRATEGIES = ("full", "caching", "macromodel", "sampling")


def _reports(name, faults):
    builder, kwargs = builder_spec(name)
    resilience = None
    if faults:
        resilience = ResilienceConfig(
            fault_plan=FaultPlan.uniform(["hw", "iss", "cache", "bus"], 0.1, seed=7),
            max_retries=0,
        )
    reports = {}
    for strategy in STRATEGIES:
        report = run_estimate(builder, kwargs, strategy=strategy, resilience=resilience)
        reports[strategy] = {
            key: value
            for key, value in dataclasses.asdict(report).items()
            if not key.endswith("_seconds")
        }
    return reports


@pytest.mark.parametrize("faults", [False, True], ids=["clean", "faults"])
@pytest.mark.parametrize("name", system_names())
def test_reports_match_reference_interpreter(name, faults, monkeypatch):
    compiled = _reports(name, faults)
    monkeypatch.setattr(SGraph, "execute", reference_execute)
    reference = _reports(name, faults)
    for strategy in STRATEGIES:
        assert repr(compiled[strategy]) == repr(reference[strategy]), strategy


def _fig7_rows():
    points, _ = parallel_sweep(
        "repro.systems.tcpip:build_system",
        [2, 16, 128],
        priority_permutations(list(tcpip.BUS_MASTERS)),
        strategy="caching",
        jobs=1,
        builder_kwargs={"num_packets": 3, "packet_period_ns": 30_000.0},
    )
    return sweep_summary_rows(points)


def test_fig7_sweep_rows_match_reference_interpreter(monkeypatch):
    compiled = _fig7_rows()
    monkeypatch.setattr(SGraph, "execute", reference_execute)
    assert repr(_fig7_rows()) == repr(compiled)
