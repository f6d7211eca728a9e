"""Static checks on CFSM networks (legacy string-list façade).

The checks themselves now live in the :mod:`repro.lint` rule catalog —
this module re-renders the subset marked ``in_validate`` (the
historical contract of ``NetworkBuilder.build(validate=True)``) back
into the plain strings this API has always returned.  New, advisory
analyses (races, unconsumed outputs, path/cacheability reports) are
deliberately NOT part of this subset: strict builds must not start
failing on designs that were previously accepted.  Run ``repro lint``
for the full analysis.
"""

from __future__ import annotations

from typing import List
from repro.errors import ReproError

from repro.cfsm.model import Network


class NetworkValidationError(ReproError):
    """Raised when a network fails validation in strict mode."""

    def __init__(self, issues: List[str]) -> None:
        super().__init__("network validation failed:\n" + "\n".join(issues))
        self.issues = issues


def _legacy_strings(diagnostics) -> List[str]:
    """Render lint diagnostics in the historical ``proc.t: message``
    form, keeping only the rules in the validate contract."""
    from repro.lint.diagnostics import RULES

    issues: List[str] = []
    for diagnostic in diagnostics:
        if not RULES[diagnostic.code].in_validate:
            continue
        location = diagnostic.location
        if location.cfsm and location.transition:
            issues.append(
                "%s.%s: %s"
                % (location.cfsm, location.transition, diagnostic.message)
            )
        elif location.cfsm:
            issues.append("%s: %s" % (location.cfsm, diagnostic.message))
        else:
            issues.append(diagnostic.message)
    return issues


def validate_network(network: Network, strict: bool = True) -> List[str]:
    """Validate every CFSM and the inter-process wiring.

    Returns the list of issues; raises :class:`NetworkValidationError`
    in strict mode when the list is non-empty.
    """
    from repro.lint.network_rules import check_cfsm, check_network

    issues: List[str] = []
    for _, cfsm in sorted(network.cfsms.items()):
        issues.extend(_legacy_strings(check_cfsm(cfsm)))
    issues.extend(_legacy_strings(check_network(network)))
    if strict and issues:
        raise NetworkValidationError(issues)
    return issues
