"""Unit tests: lint diagnostics framework, baselines, and emitters."""

import json

import pytest

from repro.lint.baseline import (
    BASELINE_VERSION,
    Baseline,
    BaselineError,
    load_baseline,
    write_baseline,
)
from repro.lint.diagnostics import (
    RULES,
    Diagnostic,
    Location,
    Severity,
    exit_code,
    make,
    max_severity,
    rule,
    sort_diagnostics,
)
from repro.lint.emitters import (
    EMITTERS,
    SARIF_VERSION,
    render_json,
    render_sarif,
    render_text,
    sarif_report,
)

#: The published rule catalog.  Codes are a stable public contract:
#: they appear in baselines, SARIF reports, and telemetry counters, so
#: removing or renumbering one is a breaking change (the TV6xx rules
#: left only with the s-graph optimizer they checked, and their numbers
#: are never reused).  Adding rules is fine — extend this snapshot in
#: the same commit.
EXPECTED_CODES = [
    "CFSM001", "CFSM002", "CFSM003", "CFSM004", "CFSM005", "CFSM006",
    "CFSM007", "CFSM008", "CFSM009", "CFSM010", "CFSM011", "CFSM012",
    "CFSM013",
    "DF501", "DF502", "DF503", "DF504",
    "MM401",
    "NET101", "NET102", "NET103", "NET104", "NET105", "NET106",
    "NET107", "NET108", "NET109",
    "NL300", "NL301", "NL302", "NL303", "NL304", "NL305", "NL306",
    "SG201", "SG202", "SG203", "SG204", "SG205",
]


def diag(code="NET109", message="m", **location):
    return make(code, message, Location(**location))


class TestRuleCatalog:
    def test_rule_codes_are_stable(self):
        assert sorted(RULES) == EXPECTED_CODES

    def test_every_rule_is_complete(self):
        for code, entry in RULES.items():
            assert entry.code == code
            assert entry.title
            assert entry.rationale
            assert entry.severity in Severity.ORDER

    def test_validate_subset_is_error_only(self):
        # The legacy validate() contract aborts builds, so everything
        # it re-renders must be an ERROR.
        for entry in RULES.values():
            if entry.in_validate:
                assert entry.severity == Severity.ERROR

    def test_rule_lookup(self):
        assert rule("NET108").severity == Severity.WARNING
        with pytest.raises(KeyError):
            rule("XX999")


class TestSeverity:
    def test_ordering(self):
        assert Severity.rank(Severity.NOTE) \
            < Severity.rank(Severity.WARNING) \
            < Severity.rank(Severity.ERROR)

    def test_max(self):
        assert Severity.max([Severity.NOTE, Severity.ERROR,
                             Severity.WARNING]) == Severity.ERROR
        assert Severity.max([]) is None

    def test_exit_codes(self):
        assert exit_code([]) == 0
        assert exit_code([diag("NET109")]) == 0          # note
        assert exit_code([diag("NET108")]) == 1          # warning
        assert exit_code([diag("NET108"), diag("NET101")]) == 2  # error

    def test_max_severity_of_diagnostics(self):
        assert max_severity([diag("NET109"), diag("NET108")]) \
            == Severity.WARNING


class TestLocation:
    def test_qualified_name_composition(self):
        location = Location(system="sys", cfsm="p", transition="t",
                            node=3, event="GO")
        assert location.qualified_name() == "sys/p/t@n3[event:GO]"

    def test_netlist_locations(self):
        location = Location(system="sys", netlist="ctrl", net=7)
        assert location.qualified_name() == "sys/netlist:ctrl@net7"

    def test_empty_location(self):
        assert Location().qualified_name() == "<design>"


class TestFingerprints:
    def test_deterministic(self):
        a = diag(cfsm="p", transition="t")
        b = diag(cfsm="p", transition="t")
        assert a.fingerprint == b.fingerprint
        assert len(a.fingerprint) == 20
        int(a.fingerprint, 16)  # hex

    def test_sensitive_to_code_location_message(self):
        base = diag(cfsm="p")
        assert diag("NET108", cfsm="p").fingerprint != base.fingerprint
        assert diag(cfsm="q").fingerprint != base.fingerprint
        assert diag(message="other", cfsm="p").fingerprint \
            != base.fingerprint

    def test_insensitive_to_data(self):
        a = make("NET109", "m", Location(cfsm="p"), data={"k": 1})
        b = make("NET109", "m", Location(cfsm="p"), data={"k": 2})
        assert a.fingerprint == b.fingerprint


class TestSorting:
    def test_severity_first_then_code(self):
        ordered = sort_diagnostics([
            diag("NET109", cfsm="a"),   # note
            diag("NET101", cfsm="b"),   # error
            diag("SG201", cfsm="c"),    # warning
            diag("NET108", cfsm="d"),   # warning
        ])
        assert [d.code for d in ordered] \
            == ["NET101", "NET108", "SG201", "NET109"]

    def test_stable_within_code(self):
        ordered = sort_diagnostics([diag(cfsm="z"), diag(cfsm="a")])
        assert [d.location.cfsm for d in ordered] == ["a", "z"]


class TestSeverityOverride:
    def test_make_default_and_override(self):
        assert make("NET109", "m", Location()).severity == Severity.NOTE
        promoted = make("NET109", "m", Location(),
                        severity=Severity.ERROR)
        assert promoted.severity == Severity.ERROR

    def test_unknown_code_rejected(self):
        with pytest.raises(KeyError):
            make("BOGUS99", "m", Location())


class TestBaseline:
    def findings(self):
        return [diag("NET108", message="race", cfsm="a"),
                diag("NET109", message="unused", cfsm="b")]

    def test_round_trip(self):
        baseline = Baseline.from_diagnostics(self.findings())
        restored = Baseline.from_json(baseline.to_json())
        assert restored.entries == baseline.entries
        for finding in self.findings():
            assert restored.suppresses(finding)

    def test_apply_splits(self):
        known, fresh = self.findings()
        baseline = Baseline.from_diagnostics([known])
        kept, suppressed = baseline.apply([known, fresh])
        assert kept == [fresh]
        assert suppressed == [known]

    def test_file_round_trip(self, tmp_path):
        path = str(tmp_path / "lint.base.json")
        write_baseline(path, self.findings())
        restored = load_baseline(path)
        assert all(restored.suppresses(d) for d in self.findings())

    def test_version_mismatch_rejected(self):
        payload = json.dumps({"version": BASELINE_VERSION + 1,
                              "suppress": []})
        with pytest.raises(BaselineError):
            Baseline.from_json(payload)

    def test_malformed_rejected(self):
        with pytest.raises(BaselineError):
            Baseline.from_json("not json at all {")
        with pytest.raises(BaselineError):
            Baseline.from_json(json.dumps(
                {"version": BASELINE_VERSION, "suppress": [{"code": "X"}]}
            ))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(BaselineError):
            load_baseline(str(tmp_path / "absent.json"))


class TestTextEmitter:
    def test_summary_counts(self):
        text = render_text([diag("NET101"), diag("NET108"), diag()],
                           suppressed=2, title="sys")
        assert text.startswith("lint: sys\n")
        assert "1 error(s), 1 warning(s), 1 note(s)" in text
        assert "2 suppressed by baseline" in text

    def test_most_severe_first(self):
        text = render_text([diag("NET109"), diag("NET101")])
        assert text.index("NET101") < text.index("NET109")


class TestJsonEmitter:
    def test_payload_shape(self):
        payload = json.loads(render_json([diag(cfsm="p")], suppressed=1,
                                         title="sys"))
        assert payload["tool"] == "repro-lint"
        assert payload["title"] == "sys"
        assert payload["suppressed"] == 1
        (entry,) = payload["diagnostics"]
        assert set(entry) == {"code", "severity", "message", "location",
                              "fingerprint", "data"}

    def test_data_is_json_safe(self):
        finding = make("NET108", "m", Location(),
                       data={"addresses": frozenset({2, 1}),
                             "other": ("a", "b")})
        payload = json.loads(render_json([finding]))
        assert payload["diagnostics"][0]["data"]["addresses"] == [1, 2]


class TestSarifEmitter:
    def report(self):
        return sarif_report([diag("NET108", message="race", cfsm="p")],
                            title="sys")

    def test_log_shell(self):
        log = self.report()
        assert log["version"] == SARIF_VERSION == "2.1.0"
        assert log["$schema"].endswith("sarif-2.1.0.json")
        assert len(log["runs"]) == 1

    def test_driver_rules_cover_catalog(self):
        driver = self.report()["runs"][0]["tool"]["driver"]
        assert driver["name"] == "repro-lint"
        assert [r["id"] for r in driver["rules"]] == EXPECTED_CODES
        for entry in driver["rules"]:
            assert entry["shortDescription"]["text"]
            assert entry["defaultConfiguration"]["level"] in (
                "note", "warning", "error")

    def test_result_shape(self):
        run = self.report()["runs"][0]
        (result,) = run["results"]
        assert result["ruleId"] == "NET108"
        rules = run["tool"]["driver"]["rules"]
        assert rules[result["ruleIndex"]]["id"] == "NET108"
        assert result["level"] == "warning"
        assert result["message"]["text"] == "race"
        logical = result["locations"][0]["logicalLocations"][0]
        assert logical["fullyQualifiedName"] == "p"
        assert result["partialFingerprints"]["reproLint/v1"]

    def test_render_is_valid_json(self):
        log = json.loads(render_sarif([diag()]))
        assert log["runs"][0]["results"]

    def test_expression_findings_get_hierarchical_locations(self):
        """DF/TV findings anchored at a sub-expression carry it as a
        child logical location, not squashed into the flat name."""
        finding = diag("DF504", message="decided", cfsm="p",
                       transition="t", expr="GT(Var(x), Const(0))")
        (result,) = sarif_report([finding])["runs"][0]["results"]
        locations = result["locations"][0]["logicalLocations"]
        assert len(locations) == 2
        parent, child = locations
        assert "expr" not in parent
        assert child["name"] == "GT(Var(x), Const(0))"
        assert child["kind"] == "expression"
        assert child["parentIndex"] == 0

    def test_expressionless_findings_stay_flat(self):
        (result,) = sarif_report([diag("NET108", cfsm="p")]
                                 )["runs"][0]["results"]
        assert len(result["locations"][0]["logicalLocations"]) == 1

    def test_emitter_registry(self):
        assert set(EMITTERS) == {"text", "json", "sarif"}
        for emitter in EMITTERS.values():
            assert emitter([diag()], suppressed=0, title="t")
