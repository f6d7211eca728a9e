"""Report emitters: human text, machine JSON, and SARIF 2.1.0.

The SARIF output follows the 2.1.0 schema shape that code-scanning
services (GitHub, Azure DevOps) ingest: one run, the rule catalog in
``tool.driver.rules``, one ``result`` per diagnostic with a logical
location (designs have no source files) and a partial fingerprint for
cross-run matching.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from repro.lint.diagnostics import (
    Diagnostic,
    RULES,
    Severity,
    max_severity,
    sort_diagnostics,
)

TOOL_NAME = "repro-lint"
TOOL_VERSION = "1.0.0"
TOOL_URI = "https://github.com/repro/repro"
SARIF_SCHEMA = "https://json.schemastore.org/sarif-2.1.0.json"
SARIF_VERSION = "2.1.0"

#: SARIF ``level`` values happen to match our severity strings
#: (``note`` / ``warning`` / ``error``); keep an explicit map anyway so
#: a future severity does not silently leak an invalid level.
_SARIF_LEVELS = {
    Severity.NOTE: "note",
    Severity.WARNING: "warning",
    Severity.ERROR: "error",
}


def render_text(diagnostics: List[Diagnostic], suppressed: int = 0,
                title: Optional[str] = None) -> str:
    """Human-readable report, most severe first."""
    lines: List[str] = []
    if title:
        lines.append("lint: %s" % title)
    ordered = sort_diagnostics(diagnostics)
    for diagnostic in ordered:
        lines.append(diagnostic.render())
    counts = {severity: 0 for severity in Severity.ORDER}
    for diagnostic in diagnostics:
        counts[diagnostic.severity] += 1
    summary = "%d error(s), %d warning(s), %d note(s)" % (
        counts[Severity.ERROR], counts[Severity.WARNING],
        counts[Severity.NOTE],
    )
    if suppressed:
        summary += ", %d suppressed by baseline" % suppressed
    lines.append(summary)
    return "\n".join(lines) + "\n"


def render_json(diagnostics: List[Diagnostic], suppressed: int = 0,
                title: Optional[str] = None) -> str:
    """Machine-readable report (stable ordering and key set)."""
    payload: Dict[str, Any] = {
        "tool": TOOL_NAME,
        "version": TOOL_VERSION,
        "title": title or "",
        "max_severity": max_severity(diagnostics),
        "suppressed": suppressed,
        "diagnostics": [
            {
                "code": d.code,
                "severity": d.severity,
                "message": d.message,
                "location": d.location.qualified_name(),
                "fingerprint": d.fingerprint,
                "data": _jsonable(d.data),
            }
            for d in sort_diagnostics(diagnostics)
        ],
    }
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


def _jsonable(value: Any) -> Any:
    """Best-effort conversion of diagnostic data to JSON-safe values."""
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = list(value)
        if isinstance(value, (set, frozenset)):
            items = sorted(items, key=repr)
        return [_jsonable(item) for item in items]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def _logical_locations(diagnostic: Diagnostic) -> List[Dict[str, Any]]:
    """SARIF logical locations for one finding.

    The fully qualified design path always comes first.  Findings
    anchored at a sub-expression (dataflow DF5xx) additionally carry
    the expression itself as a child logical location of kind
    ``expression`` so SARIF viewers can render the hierarchy instead of
    a flat string.
    """
    locations: List[Dict[str, Any]] = [
        {"fullyQualifiedName": diagnostic.location.qualified_name()}
    ]
    if diagnostic.location.expr is not None:
        locations.append({
            "name": diagnostic.location.expr,
            "kind": "expression",
            "parentIndex": 0,
        })
    return locations


def sarif_report(diagnostics: List[Diagnostic],
                 title: Optional[str] = None) -> Dict[str, Any]:
    """The SARIF 2.1.0 log as a plain dict."""
    rule_codes = sorted(RULES)
    rule_index = {code: index for index, code in enumerate(rule_codes)}
    rules = [
        {
            "id": code,
            "name": RULES[code].title,
            "shortDescription": {"text": RULES[code].title},
            "fullDescription": {"text": RULES[code].rationale},
            "defaultConfiguration": {
                "level": _SARIF_LEVELS[RULES[code].severity],
            },
        }
        for code in rule_codes
    ]
    results = [
        {
            "ruleId": d.code,
            "ruleIndex": rule_index[d.code],
            "level": _SARIF_LEVELS[d.severity],
            "message": {"text": d.message},
            "locations": [{"logicalLocations": _logical_locations(d)}],
            "partialFingerprints": {"reproLint/v1": d.fingerprint},
        }
        for d in sort_diagnostics(diagnostics)
    ]
    run: Dict[str, Any] = {
        "tool": {
            "driver": {
                "name": TOOL_NAME,
                "version": TOOL_VERSION,
                "informationUri": TOOL_URI,
                "rules": rules,
            }
        },
        "results": results,
    }
    if title:
        run["properties"] = {"title": title}
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [run],
    }


def render_sarif(diagnostics: List[Diagnostic], suppressed: int = 0,
                 title: Optional[str] = None) -> str:
    """SARIF 2.1.0 report as JSON text.

    ``suppressed`` is accepted for signature parity with the other
    emitters; baseline-suppressed findings are simply absent (SARIF's
    own ``suppressions`` mechanism is a possible later refinement).
    """
    return json.dumps(sarif_report(diagnostics, title=title),
                      indent=1, sort_keys=True) + "\n"


#: Emitter dispatch for the CLI's ``--format`` flag.
EMITTERS = {
    "text": render_text,
    "json": render_json,
    "sarif": render_sarif,
}
