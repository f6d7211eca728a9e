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

The package re-exports nothing: import from the submodules.  The
network rules run on every system build (``validate_network``), and
importing the package must not pull in the analyzer behind them.
"""
