"""Tests for the ``python -m repro`` command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.campaign import CAMPAIGNS, Campaign, register_campaign
from repro.cli import build_parser, main
from repro.lang.programs import DEFAULT_FACTORIES, stfq_program


class TestParser:
    def test_known_subcommands(self):
        parser = build_parser()
        for argv in (["list"], ["run", "table1"], ["report"], ["programs"],
                     ["scenarios"], ["show", "stfq"]):
            args = parser.parse_args(argv)
            assert args.command == argv[0]

    def test_run_flags(self):
        args = build_parser().parse_args(["run", "fig1", "--quick", "--json"])
        assert args.experiment == "fig1"
        assert args.quick is True
        assert args.json is True

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0
        assert "repro" in capsys.readouterr().out


class TestCommands:
    def test_no_command_prints_help_and_fails(self, capsys):
        assert main([]) == 1
        assert "usage:" in capsys.readouterr().out

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out
        assert "fig3" in out

    def test_run_table2(self, capsys):
        assert main(["run", "table2"]) == 0
        out = capsys.readouterr().out
        assert "2048" in out
        assert "4096" in out

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "bogus"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment" in err

    def test_run_json_output(self, capsys):
        assert main(["run", "sec5.4", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment_id"] == "sec5.4"
        assert payload["rows"]

    def test_run_behavioural_experiment_quick(self, capsys):
        assert main(["run", "fig1", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "measured_share" in out

    def test_report_subset(self, capsys):
        assert main(["report", "table1", "sec5.4", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "[table1]" in out
        assert "[sec5.4]" in out

    def test_report_unknown_experiment(self, capsys):
        assert main(["report", "bogus"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_programs_command(self, capsys):
        assert main(["programs"]) == 0
        out = capsys.readouterr().out
        assert "stfq" in out
        assert "token_bucket" in out

    def test_scenarios_command(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        assert "fig6_chain" in out
        assert "leaf_spine_fct" in out
        assert "LSTF" in out

    def test_list_includes_fabric_experiments(self, capsys):
        assert main(["list"]) == 0
        assert "leaf_spine_fct" in capsys.readouterr().out

    def test_show_command(self, capsys):
        assert main(["show", "token_bucket"]) == 0
        out = capsys.readouterr().out
        assert "p.send_time" in out
        assert "Atom pipeline" in out
        assert "feasible at line rate : yes" in out

    def test_show_shaping_program_tree_kernel(self, capsys):
        # A shaping program is shown where it runs — pacing a child of a
        # FIFO root — so the printed kernel suspends and resumes.
        assert main(["show", "token_bucket", "--tree-kernel"]) == 0
        kernel = capsys.readouterr().out.split("Fused tree kernel")[1]
        assert "not fused" not in kernel
        assert "_ShapingToken(n1, packet, path1, 1, send_time)" in kernel
        assert "S._shaping_calendar" in kernel
        assert "if node is n1:" in kernel
        assert "time_now = max(token.release_time, 0.0)" in kernel
        # The program paces; it does not rank the scheduling PIFO.
        assert "rank = time_now" in kernel
        # Its statements are spliced into the walk, none of it is called.
        assert "every program is spliced" in kernel
        assert "called, not spliced" not in kernel
        assert "t1_st['last_time'] = time_now" in kernel
        assert "_replay(_exc, sh1._compiled, packet," in kernel

    def test_show_tree_kernel_lists_called_programs(self, capsys, monkeypatch):
        # An interpreted program is called, not spliced, and the kernel
        # listing says so.
        monkeypatch.setitem(DEFAULT_FACTORIES, "stfq",
                            lambda: stfq_program(backend="interpreted"))
        assert main(["show", "stfq", "--tree-kernel"]) == 0
        kernel = capsys.readouterr().out.split("Fused tree kernel")[1]
        assert ("# called, not spliced: stfq at node root: runs on the "
                "interpreted back end") in kernel
        assert "res = x0(packet, ectx, e0)" in kernel

    def test_show_unknown_program(self, capsys):
        assert main(["show", "bogus"]) == 2
        assert "unknown program" in capsys.readouterr().err

    def test_show_tree_kernel_unknown_backend(self, capsys):
        assert main(["show", "fifo", "--tree-kernel",
                     "--pifo-backend", "bucketed"]) == 2
        err = capsys.readouterr().err
        assert "unknown PIFO backend 'bucketed'" in err
        assert "available" in err

    def test_run_json_out_writes_file(self, capsys, tmp_path):
        out = tmp_path / "result.json"
        assert main(["run", "sec5.4", "--json", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "wrote" in stdout
        payload = json.loads(out.read_text())
        assert payload["experiment_id"] == "sec5.4"

    def test_run_out_implies_json(self, tmp_path):
        out = tmp_path / "result.json"
        assert main(["run", "sec5.4", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["rows"]


@pytest.fixture()
def cli_campaign():
    campaign = register_campaign(Campaign(
        name="cli_probe",
        title="one-run campaign for CLI tests",
        scenarios=["fig6_chain"],
        variants=["FIFO"],
        pifo_backends=["sorted"],
    ))
    yield campaign
    CAMPAIGNS.pop("cli_probe", None)


class TestCampaignCommands:
    def test_campaign_without_subcommand(self, capsys):
        assert main(["campaign"]) == 2
        assert "{run,list,report,verify,status}" in capsys.readouterr().err

    def test_campaign_list(self, capsys):
        assert main(["campaign", "list"]) == 0
        out = capsys.readouterr().out
        assert "paper_sweep" in out
        assert "24" in out

    def test_campaign_run_unknown(self, capsys):
        assert main(["campaign", "run", "bogus"]) == 2
        assert "unknown campaign" in capsys.readouterr().err

    def test_campaign_run_and_report(self, capsys, tmp_path, cli_campaign):
        store = tmp_path / "store.jsonl"
        assert main(["campaign", "run", "cli_probe", "--quick",
                     "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "fig6_chain/FIFO/sorted/native/x1/r0" in out
        assert store.exists()

        assert main(["campaign", "report", "cli_probe",
                     "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "FIFO" in out
        assert "mean_delay_ms" in out

    def test_campaign_run_resume_skips_everything(self, capsys, tmp_path,
                                                  cli_campaign):
        store = tmp_path / "store.jsonl"
        assert main(["campaign", "run", "cli_probe", "--quick",
                     "--store", str(store)]) == 0
        capsys.readouterr()
        assert main(["campaign", "run", "cli_probe", "--quick", "--resume",
                     "--store", str(store), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["executed"] == 0
        assert summary["skipped"] == 1

    def test_campaign_run_json_summary(self, capsys, tmp_path, cli_campaign):
        store = tmp_path / "store.jsonl"
        assert main(["campaign", "run", "cli_probe", "--quick", "--json",
                     "--store", str(store)]) == 0
        # --json emits pure JSON on stdout (no banner, pipeable to jq).
        payload = json.loads(capsys.readouterr().out)
        assert payload["executed"] == 1
        assert payload["campaign"] == "cli_probe"

    def test_campaign_report_group_by_and_out(self, capsys, tmp_path,
                                              cli_campaign):
        store = tmp_path / "store.jsonl"
        assert main(["campaign", "run", "cli_probe", "--quick",
                     "--store", str(store)]) == 0
        capsys.readouterr()
        out_file = tmp_path / "rows.json"
        assert main(["campaign", "report", "--store", str(store),
                     "--group-by", "scenario,pifo_backend",
                     "--out", str(out_file)]) == 0
        rows = json.loads(out_file.read_text())
        assert rows[0]["pifo_backend"] == "sorted"
        assert rows[0]["runs"] == 1

    def test_campaign_report_bad_group_key(self, capsys, tmp_path,
                                           cli_campaign):
        store = tmp_path / "store.jsonl"
        assert main(["campaign", "run", "cli_probe", "--quick",
                     "--store", str(store)]) == 0
        capsys.readouterr()
        assert main(["campaign", "report", "--store", str(store),
                     "--group-by", "bogus"]) == 2
        assert "cannot group by" in capsys.readouterr().err

    def test_campaign_run_invalid_workers(self, capsys, tmp_path,
                                          cli_campaign):
        assert main(["campaign", "run", "cli_probe", "--quick", "--workers",
                     "0", "--store", str(tmp_path / "s.jsonl")]) == 2
        assert "workers" in capsys.readouterr().err

    def test_campaign_report_dedupes_reruns(self, capsys, tmp_path,
                                            cli_campaign):
        store = tmp_path / "store.jsonl"
        for _ in range(2):  # same campaign twice, no --resume
            assert main(["campaign", "run", "cli_probe", "--quick",
                         "--store", str(store)]) == 0
        capsys.readouterr()
        out_file = tmp_path / "rows.json"
        assert main(["campaign", "report", "--store", str(store),
                     "--out", str(out_file)]) == 0
        rows = json.loads(out_file.read_text())
        assert rows[0]["runs"] == 1  # last record wins, not doubled

    def test_campaign_report_missing_store(self, capsys, tmp_path):
        assert main(["campaign", "report", "--store",
                     str(tmp_path / "none.jsonl")]) == 2
        assert "no result store" in capsys.readouterr().err

    def test_campaign_report_needs_name_or_store(self, capsys):
        assert main(["campaign", "report"]) == 2
        assert "needs a campaign name" in capsys.readouterr().err

    def test_run_json_includes_kernel_cache(self, capsys, tmp_path,
                                            cli_campaign):
        store = tmp_path / "store.jsonl"
        assert main(["campaign", "run", "cli_probe", "--quick", "--json",
                     "--store", str(store)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "kernel_cache" in payload
        assert payload["kernel_cache"]["installs"] >= 0


class TestCampaignVerify:
    def test_verify_clean_store(self, capsys, tmp_path, cli_campaign):
        store = tmp_path / "store.jsonl"
        assert main(["campaign", "run", "cli_probe", "--quick",
                     "--store", str(store)]) == 0
        capsys.readouterr()
        assert main(["campaign", "verify", "cli_probe", "--quick",
                     "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "all records verified" in out
        assert "missing runs  : 0" in out

    def test_verify_reports_issues_with_exit_1(self, capsys, tmp_path,
                                               cli_campaign):
        store = tmp_path / "store.jsonl"
        assert main(["campaign", "run", "cli_probe", "--quick",
                     "--store", str(store)]) == 0
        with store.open("a") as handle:
            handle.write('{"fingerprint": "tampered"}\n')
            handle.write('{"half a record')  # torn tail
        capsys.readouterr()
        assert main(["campaign", "verify", "--store", str(store)]) == 1
        captured = capsys.readouterr()
        assert "ISSUE:" in captured.out
        assert "issue(s) found" in captured.err

    def test_verify_missing_store(self, capsys, tmp_path):
        assert main(["campaign", "verify", "--store",
                     str(tmp_path / "none.jsonl")]) == 2
        assert "no result store" in capsys.readouterr().err

    def test_verify_needs_name_or_store(self, capsys):
        assert main(["campaign", "verify"]) == 2
        assert "needs a campaign name or --store" in capsys.readouterr().err

    def test_verify_json_out(self, capsys, tmp_path, cli_campaign):
        store = tmp_path / "store.jsonl"
        assert main(["campaign", "run", "cli_probe", "--quick",
                     "--store", str(store)]) == 0
        capsys.readouterr()
        out_file = tmp_path / "verify.json"
        assert main(["campaign", "verify", "cli_probe", "--quick",
                     "--store", str(store), "--out", str(out_file)]) == 0
        payload = json.loads(out_file.read_text())
        assert payload["records"] == 1
        assert payload["issues"] == []
        assert payload["missing"] == 0


class TestCampaignFailureReporting:
    def test_run_prints_failures_and_resume_hint(self, capsys, tmp_path,
                                                 cli_campaign, monkeypatch):
        from repro.campaign.runner import FAULT_ENV

        monkeypatch.setenv(FAULT_ENV, "fig6_chain:raise")
        store = tmp_path / "store.jsonl"
        assert main(["campaign", "run", "cli_probe", "--quick",
                     "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "FAILED" in out
        assert "RuntimeError" in out
        assert "--resume" in out           # the re-run hint

    def test_run_abort_exit_code(self, capsys, tmp_path, cli_campaign,
                                 monkeypatch):
        from repro.campaign.runner import FAULT_ENV

        monkeypatch.setenv(FAULT_ENV, "fig6_chain:raise")
        store = tmp_path / "store.jsonl"
        assert main(["campaign", "run", "cli_probe", "--quick",
                     "--store", str(store), "--max-failures", "0"]) == 3
        out = capsys.readouterr().out
        assert "aborted" in out

    def test_run_retry_flags_pass_through(self, capsys, tmp_path,
                                          cli_campaign, monkeypatch):
        from repro.campaign.runner import FAULT_ENV

        monkeypatch.setenv(FAULT_ENV, "fig6_chain:flaky:2")
        store = tmp_path / "store.jsonl"
        assert main(["campaign", "run", "cli_probe", "--quick",
                     "--store", str(store), "--max-attempts", "2",
                     "--timeout", "60", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["executed"] == 1
        assert payload["failed"] == 0


class TestTraceCommand:
    def test_trace_writes_spans_and_chrome(self, capsys, tmp_path):
        spans_path = tmp_path / "spans.jsonl"
        chrome_path = tmp_path / "trace.json"
        assert main(["trace", "fig6_chain", "--quick",
                     "--out", str(spans_path),
                     "--chrome", str(chrome_path)]) == 0
        out = capsys.readouterr().out
        assert "Packet trace" in out
        from repro.obs.trace import read_spans, spans_from_chrome

        spans = read_spans(str(spans_path))
        assert spans
        doc = json.loads(chrome_path.read_text())
        restored = spans_from_chrome(doc)
        canon = lambda rows: sorted(
            json.dumps(dict(sorted(r.items())), sort_keys=True)
            for r in rows)
        assert canon(restored) == canon(spans)

    def test_trace_json_summary(self, capsys, tmp_path):
        spans_path = tmp_path / "spans.jsonl"
        assert main(["trace", "fig6_chain", "--quick", "--variant", "FIFO",
                     "--out", str(spans_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["variant"] == "FIFO"
        assert payload["spans"] > 0

    def test_trace_unknown_scenario(self, capsys):
        assert main(["trace", "bogus"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_trace_unknown_variant(self, capsys, tmp_path):
        assert main(["trace", "fig6_chain", "--variant", "NOPE",
                     "--out", str(tmp_path / "s.jsonl")]) == 2
        assert "unknown variant" in capsys.readouterr().err


class TestCampaignStatusCommand:
    def test_status_of_finished_store(self, capsys, tmp_path, cli_campaign):
        store = tmp_path / "store.jsonl"
        assert main(["campaign", "run", "cli_probe", "--quick",
                     "--store", str(store)]) == 0
        capsys.readouterr()
        assert main(["campaign", "status", str(store), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mode"] == "store"
        assert payload["state"] == "done"
        assert payload["done"] == payload["total"] == 1
        # The sidecar's counters converge with the store's records.
        assert payload["store_records"] == 1
        assert payload["store_ok"] == 1

    def test_status_human_rendering(self, capsys, tmp_path, cli_campaign):
        store = tmp_path / "store.jsonl"
        assert main(["campaign", "run", "cli_probe", "--quick",
                     "--store", str(store)]) == 0
        capsys.readouterr()
        assert main(["campaign", "status", str(store)]) == 0
        out = capsys.readouterr().out
        assert "Campaign status" in out
        assert "done" in out

    def test_status_missing_target(self, capsys, tmp_path):
        assert main(["campaign", "status",
                     str(tmp_path / "missing.jsonl")]) == 2
        assert "no progress sidecar" in capsys.readouterr().err

    def test_status_store_without_sidecar_falls_back_to_counts(
            self, capsys, tmp_path, cli_campaign):
        import os

        store = tmp_path / "store.jsonl"
        assert main(["campaign", "run", "cli_probe", "--quick",
                     "--store", str(store)]) == 0
        os.remove(str(store) + ".progress")
        capsys.readouterr()
        assert main(["campaign", "status", str(store), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["state"] == "no-progress-file"
        assert payload["store_records"] == 1
