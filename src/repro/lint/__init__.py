"""Whole-design static analysis (the ``repro lint`` subsystem).

Layers:

* :mod:`repro.lint.diagnostics` — rule catalog, severities, locations,
  fingerprints;
* :mod:`repro.lint.baseline` — accepted-findings suppression files;
* :mod:`repro.lint.emitters` — text / JSON / SARIF 2.1.0 reports;
* :mod:`repro.lint.network_rules` — per-CFSM and cross-CFSM wiring
  rules (including shared-variable race detection);
* :mod:`repro.lint.paths` — s-graph reachability, feasible-path
  enumeration, the Section 4.2 cacheability report, and Section 4.1
  macro-model coverage;
* :mod:`repro.lint.netlist_rules` — gate-level structural lint;
* :mod:`repro.lint.absint` — abstract interpretation engine (bit-level
  netlist fixpoint, expression intervals, sound energy bounds);
* :mod:`repro.lint.dataflow_rules` — DF5xx dataflow diagnostics;
* :mod:`repro.lint.cost` — per-system static :class:`CostReport`
  (cycle, energy, and cache-table bounds) consumed by the service's
  cost-aware admission control;
* :mod:`repro.lint.passes` — the pass manager tying it together.
"""

from repro.lint.absint import (
    Interval,
    abstract_eval,
    abstract_netlist_values,
    compute_var_intervals,
    netlist_energy_bound,
)
from repro.lint.baseline import (
    Baseline,
    BaselineError,
    load_baseline,
    write_baseline,
)
from repro.lint.diagnostics import (
    RULES,
    Diagnostic,
    Location,
    Rule,
    Severity,
    exit_code,
    max_severity,
    rule,
    sort_diagnostics,
)
from repro.lint.emitters import (
    EMITTERS,
    render_json,
    render_sarif,
    render_text,
    sarif_report,
)
from repro.lint.cost import CostReport, compute_cost_report
from repro.lint.passes import PASSES, LintPass, LintResult, run_lint
from repro.lint.paths import CacheabilityReport, cacheability_report

__all__ = [
    "Baseline",
    "BaselineError",
    "CacheabilityReport",
    "CostReport",
    "Diagnostic",
    "EMITTERS",
    "Interval",
    "LintPass",
    "LintResult",
    "Location",
    "PASSES",
    "RULES",
    "Rule",
    "Severity",
    "abstract_eval",
    "abstract_netlist_values",
    "cacheability_report",
    "compute_cost_report",
    "compute_var_intervals",
    "exit_code",
    "load_baseline",
    "max_severity",
    "netlist_energy_bound",
    "render_json",
    "render_sarif",
    "render_text",
    "rule",
    "run_lint",
    "sarif_report",
    "sort_diagnostics",
    "write_baseline",
]
