"""Unit tests: the ``repro lint`` command and the pre-flight gate."""

import argparse
import json
import os

import pytest

from repro.__main__ import _preflight, _preflight_service, build_parser, main
from repro.cfsm.builder import NetworkBuilder
from repro.cfsm.expr import const
from repro.cfsm.model import Implementation
from repro.cfsm.sgraph import assign


class TestParser:
    def test_lint_requires_known_system(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["lint", "warp-core"])

    def test_lint_format_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["lint", "fig1", "--format", "xml"])

    def test_no_preflight_flags_exist(self):
        estimate = build_parser().parse_args(
            ["estimate", "fig1", "--no-preflight"])
        assert estimate.no_preflight
        explore = build_parser().parse_args(["explore", "--no-preflight"])
        assert explore.no_preflight

    def test_service_no_preflight_flags_exist(self):
        serve = build_parser().parse_args(["serve", "--no-preflight"])
        assert serve.no_preflight
        cluster = build_parser().parse_args(["cluster", "--no-preflight"])
        assert cluster.no_preflight
        assert not build_parser().parse_args(["serve"]).no_preflight

    def test_lint_cost_flags(self):
        args = build_parser().parse_args(
            ["lint", "fig1", "--cost", "--cost-output", "cost.json"])
        assert args.cost
        assert args.cost_output == "cost.json"
        assert not build_parser().parse_args(["lint", "fig1"]).cost


class TestLintCommand:
    def test_text_report_and_exit_code(self, capsys):
        # All bundled systems lint clean (notes only → exit 0).
        assert main(["lint", "fig1"]) == 0
        out = capsys.readouterr().out
        assert "lint: fig1_example" in out
        assert "0 error(s), 0 warning(s)" in out

    def test_json_report(self, capsys):
        assert main(["lint", "fig1", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["tool"] == "repro-lint"
        assert payload["max_severity"] in (None, "note")

    def test_sarif_report(self, capsys):
        assert main(["lint", "fig1", "--format", "sarif"]) == 0
        log = json.loads(capsys.readouterr().out)
        assert log["version"] == "2.1.0"
        assert log["runs"][0]["tool"]["driver"]["name"] == "repro-lint"

    def test_output_file(self, tmp_path, capsys):
        path = os.path.join(str(tmp_path), "report.sarif")
        assert main(["lint", "fig1", "--format", "sarif",
                     "--output", path]) == 0
        assert "wrote" in capsys.readouterr().out
        with open(path) as handle:
            assert json.load(handle)["version"] == "2.1.0"

    def test_fast_subset_skips_netlist_rules(self, capsys):
        assert main(["lint", "fig1", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "NL304" not in out  # netlist pass did not run

    def test_baseline_workflow(self, tmp_path, capsys):
        path = os.path.join(str(tmp_path), "lint.base.json")
        assert main(["lint", "fig1", "--write-baseline", path]) == 0
        capsys.readouterr()
        assert main(["lint", "fig1", "--baseline", path]) == 0
        out = capsys.readouterr().out
        assert "0 error(s), 0 warning(s), 0 note(s)" in out
        assert "suppressed by baseline" in out

    def test_metrics_export(self, tmp_path, capsys):
        path = os.path.join(str(tmp_path), "metrics.json")
        assert main(["lint", "fig1", "--metrics", path]) == 0
        with open(path) as handle:
            snapshot = json.load(handle)
        counters = snapshot["counters"]
        assert counters["lint.rule.NET109"] >= 1
        assert counters["lint.rule.NL304"] >= 1

    def test_dataflow_rules_hit_the_metrics_counters(self, tmp_path, capsys):
        # The tcpip checksum datapath has dead upper bits (DF501) and a
        # provable energy bound (DF502): both must surface as
        # ``lint.rule.<CODE>`` counters for dashboards.
        path = os.path.join(str(tmp_path), "metrics.json")
        assert main(["lint", "tcpip", "--metrics", path]) == 0
        with open(path) as handle:
            counters = json.load(handle)["counters"]
        assert counters["lint.rule.DF501"] >= 1
        assert counters["lint.rule.DF502"] >= 1

    def test_cost_report_appended(self, capsys):
        assert main(["lint", "automotive", "--cost"]) == 0
        out = capsys.readouterr().out
        assert "lint: automotive_dashboard" in out  # the lint ran too
        assert "Static cost report: automotive_dashboard" in out
        assert "cost units" in out
        assert "cache table" in out

    def test_cost_output_file(self, tmp_path, capsys):
        path = os.path.join(str(tmp_path), "cost.json")
        assert main(["lint", "automotive", "--cost-output", path]) == 0
        assert "wrote %s" % path in capsys.readouterr().out
        with open(path) as handle:
            payload = json.load(handle)
        assert payload["system"] == "automotive_dashboard"
        assert payload["cost_units"] == 1.2446
        assert payload["cache_table_size"] == 17
        assert payload["components"]


def broken_network():
    """A network whose fast lint finds an ERROR (undeclared variable)."""
    net = NetworkBuilder("broken")
    proc = net.cfsm("p", mapping=Implementation.SW)
    proc.input("GO")
    proc.transition("t", trigger=["GO"],
                    body=[assign("ghost", const(1))])
    net.environment_input("GO")
    return net.build(validate=False)


class TestPreflight:
    def args(self, no_preflight=False):
        return argparse.Namespace(no_preflight=no_preflight)

    def test_errors_abort(self, capsys):
        with pytest.raises(SystemExit) as info:
            _preflight(broken_network(), self.args())
        assert "--no-preflight" in str(info.value)
        assert "CFSM004" in capsys.readouterr().err

    def test_opt_out_skips(self):
        _preflight(broken_network(), self.args(no_preflight=True))

    def test_advisory_findings_do_not_abort(self, capsys):
        from repro.systems import producer_consumer

        bundle = producer_consumer.build_system(num_packets=1)
        _preflight(bundle.network, self.args(), label="fig1")
        out = capsys.readouterr().out
        assert "advisory" in out
        assert "repro lint fig1" in out

    def test_estimate_runs_preflight(self, capsys):
        assert main(["estimate", "fig1", "--strategy", "macromodel"]) == 0
        out = capsys.readouterr().out
        assert "pre-flight lint" in out

    def test_estimate_no_preflight_is_silent(self, capsys):
        assert main(["estimate", "fig1", "--strategy", "macromodel",
                     "--no-preflight"]) == 0
        assert "pre-flight" not in capsys.readouterr().out


class TestServicePreflight:
    """``serve``/``cluster`` refuse to start on error-severity designs."""

    def args(self, no_preflight=False):
        return argparse.Namespace(no_preflight=no_preflight)

    def _poison_bundles(self, monkeypatch):
        import repro.__main__ as cli

        class Bundle:
            network = broken_network()

        monkeypatch.setattr(cli, "system_names", lambda: ["broken"])
        monkeypatch.setattr(cli, "_bundle", lambda name: Bundle())

    def test_error_design_refuses_startup(self, monkeypatch, capsys):
        self._poison_bundles(monkeypatch)
        with pytest.raises(SystemExit) as info:
            _preflight_service(self.args(), "serve")
        message = str(info.value)
        assert "refuses to start" in message
        assert "serve" in message
        assert "--no-preflight" in message
        assert "CFSM004" in capsys.readouterr().err

    def test_opt_out_skips_even_with_errors(self, monkeypatch):
        self._poison_bundles(monkeypatch)
        _preflight_service(self.args(no_preflight=True), "serve")

    def test_clean_systems_pass_silently(self, monkeypatch, capsys):
        import repro.__main__ as cli

        # Restrict to one real bundled system to keep the test fast;
        # all of them lint clean, so the gate must not raise.
        monkeypatch.setattr(cli, "system_names", lambda: ["fig1"])
        _preflight_service(self.args(), "cluster")
        captured = capsys.readouterr()
        assert captured.err == ""
