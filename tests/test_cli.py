"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_speedup_options(self):
        args = build_parser().parse_args(["speedup", "--app", "tir",
                                          "--gigabytes", "2"])
        assert args.app == "tir"
        assert args.gigabytes == 2.0

    def test_cache_defaults(self):
        args = build_parser().parse_args(["cache"])
        assert args.distribution == "zipf"
        assert args.threshold == 0.10

    def test_demo_rejects_bad_app(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["demo", "--app", "nope"])


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "32 channels" in out
        assert "55 W" in out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        for name in ("reid", "mir", "estp", "tir", "textqa"):
            assert name in out

    def test_breakdown(self, capsys):
        assert main(["breakdown"]) == 0
        assert "SSD read %" in capsys.readouterr().out

    def test_speedup_single_app(self, capsys):
        assert main(["speedup", "--app", "textqa", "--gigabytes", "1"]) == 0
        out = capsys.readouterr().out
        assert "textqa" in out
        assert "x" in out

    def test_dse(self, capsys):
        assert main(["dse"]) == 0
        out = capsys.readouterr().out
        assert "32768" in out

    def test_cache(self, capsys):
        assert main([
            "cache", "--entries", "64", "--queries", "200",
            "--intents", "200", "--distribution", "uniform",
        ]) == 0
        out = capsys.readouterr().out
        assert "miss rate" in out

    def test_demo(self, capsys):
        assert main([
            "demo", "--app", "textqa", "--features", "2000", "--seed", "0",
        ]) == 0
        out = capsys.readouterr().out
        assert "recall of planted neighbors" in out

    def test_plan(self, capsys):
        assert main([
            "plan", "--app", "tir", "--features", "1000000", "--qps", "0.5",
        ]) == 0
        out = capsys.readouterr().out
        assert "[OK]" in out

    def test_plan_infeasible_capacity(self, capsys):
        assert main([
            "plan", "--app", "reid", "--features", "2000000000",
            "--qps", "1.0",
        ]) == 1
        assert "infeasible" in capsys.readouterr().out

    def test_scorecard(self, capsys):
        assert main(["scorecard", "--gigabytes", "1"]) == 0
        out = capsys.readouterr().out
        assert "Reproduction scorecard" in out
        assert "structural claims" in out

    def test_scorecard_json(self, capsys):
        import json

        assert main(["scorecard", "--gigabytes", "1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"]["mismatch"] == 0

    def test_faults(self, capsys):
        assert main([
            "faults", "--features", "5000", "--queries", "2",
            "--max-pages", "16",
        ]) == 0
        assert "Reliability report" in capsys.readouterr().out

    def test_faults_json(self, capsys):
        import json

        assert main([
            "faults", "--features", "5000", "--queries", "2",
            "--max-pages", "16", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["queries"] == 2
        assert payload["slowdown"] >= 1.0


class TestObservabilityCommands:
    def test_trace_writes_chrome_json(self, capsys, tmp_path):
        import json

        out = tmp_path / "trace.json"
        assert main([
            "trace", "--app", "tir", "--features", "5000",
            "--max-pages", "16", "--out", str(out),
        ]) == 0
        text = capsys.readouterr().out
        assert "Per-query latency breakdown" in text
        assert "Utilization" in text
        with open(out, encoding="utf-8") as fh:
            doc = json.load(fh)
        assert doc["traceEvents"]

    def test_trace_json(self, capsys, tmp_path):
        import json

        out = tmp_path / "trace.json"
        assert main([
            "trace", "--features", "5000", "--max-pages", "16",
            "--out", str(out), "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["trace_file"] == str(out)
        assert payload["spans"] > 0
        assert payload["sim_events"] > 0
        breakdown = payload["breakdown"]
        assert breakdown["total_seconds"] > 0
        assert payload["metrics"]["engine.queries"] == 1

    def test_profile(self, capsys):
        assert main([
            "profile", "--features", "5000", "--max-pages", "16",
            "--top", "4",
        ]) == 0
        assert "Busiest resources" in capsys.readouterr().out

    def test_profile_json(self, capsys):
        import json

        assert main([
            "profile", "--features", "5000", "--max-pages", "16",
            "--top", "4", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["resources"]) == 4
        for usage in payload["resources"]:
            assert 0.0 <= usage["utilization"] <= 1.0

    def test_trace_rejects_bad_app(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "--app", "nope"])


class TestServe:
    SMALL = ["serve", "--features", "50000", "--queries", "40"]

    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.app == "tir"
        assert args.features == 400_000
        assert args.queue_bound == 32
        assert args.policy == "reject"
        assert not args.scorecard

    def test_parser_rejects_bad_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--policy", "yolo"])

    def test_sweep_prints_curve_and_knee(self, capsys):
        assert main(self.SMALL) == 0
        out = capsys.readouterr().out
        assert "offered" in out
        assert "p99" in out
        assert "queue depth" in out
        assert "saturation" in out

    def test_sweep_deterministic(self, capsys):
        assert main(self.SMALL + ["--seed", "3"]) == 0
        first = capsys.readouterr().out
        assert main(self.SMALL + ["--seed", "3"]) == 0
        assert capsys.readouterr().out == first

    def test_json_curve(self, capsys):
        import json

        assert main(self.SMALL + ["--qps", "5", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["app"] == "tir"
        points = payload["curve"]["points"]
        assert len(points) == 1
        assert points[0]["arrived"] == 40
        assert payload["metrics"]["serving.arrived"] == 40

    def test_single_qps_point(self, capsys):
        assert main(self.SMALL + ["--qps", "2"]) == 0
        assert "no saturation" in capsys.readouterr().out

    def test_deadline_policy_flags(self, capsys):
        assert main(self.SMALL + [
            "--policy", "deadline", "--deadline-ms", "200",
        ]) == 0
        assert "offered" in capsys.readouterr().out

    def test_fail_accels_flag(self, capsys):
        import json

        assert main(self.SMALL + [
            "--fail-accels", "0,1", "--qps", "1", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["failed_accels"] == [0, 1]


class TestClusterCommand:
    SMALL = ["cluster", "--features", "600", "--queries", "2", "--k", "4"]

    def test_parse_fail_shards(self):
        from repro.cli import _parse_fail_shards

        assert _parse_fail_shards("") == ()
        assert _parse_fail_shards("0,3:1") == (0, (3, 1))
        assert _parse_fail_shards(" 2 , 1:0 ") == (2, (1, 0))

    def test_parser_defaults(self):
        args = build_parser().parse_args(["cluster"])
        assert args.shards == 4
        assert args.replicas == 1
        assert args.placement == "range"
        assert not args.scorecard

    def test_parser_rejects_bad_placement(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cluster", "--placement", "nope"])

    def test_human_output(self, capsys):
        assert main(self.SMALL + ["--shards", "3"]) == 0
        out = capsys.readouterr().out
        assert "3 shard(s)" in out
        assert "recall" in out

    def test_json_output(self, capsys):
        import json

        assert main(self.SMALL + ["--shards", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["shards"] == 2
        assert len(payload["queries"]) == 2
        assert len(payload["queries"][0]["feature_ids"]) == 4
        assert payload["metrics"]["cluster.scatters"] == 2
        assert sum(payload["shard_sizes"]) == 600

    def test_json_deterministic(self, capsys):
        cmd = self.SMALL + ["--shards", "2", "--replicas", "2",
                            "--fail-shards", "1", "--json"]
        assert main(cmd) == 0
        first = capsys.readouterr().out
        assert main(cmd) == 0
        assert capsys.readouterr().out == first

    def test_fail_shards_reported(self, capsys):
        import json

        assert main(self.SMALL + ["--shards", "2", "--replicas", "2",
                                  "--fail-shards", "0:0", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["dead_replicas"] == [[0, 0]]
        assert payload["queries"][0]["failovers"] == 1

    def test_dead_shard_serves_partial_topk(self, capsys):
        # one of two shards fully dead: the query now resolves as a
        # flagged partial answer instead of failing the whole command
        assert main(self.SMALL + ["--shards", "2",
                                  "--fail-shards", "0"]) == 0
        out = capsys.readouterr().out
        assert "PARTIAL (1 shard(s) unavailable)" in out

    def test_unservable_cluster_fails_cleanly(self, capsys):
        # every replica of every shard dead: nothing can answer
        assert main(self.SMALL + ["--shards", "2",
                                  "--fail-shards", "0,1"]) == 1
        assert "error" in capsys.readouterr().err

    def test_scorecard_mode(self, capsys):
        import json

        assert main(["cluster", "--scorecard"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [row["shards"] for row in payload["scaling"]] == [1, 2, 4, 8]
        assert payload["failover"]["failovers"] >= 1
        assert payload["hedged"]["hedges_launched"] > 0


class TestIngestCommand:
    SMALL = ["ingest", "--base", "512", "--rounds", "2", "--queries", "4"]

    def test_parser_defaults(self):
        args = build_parser().parse_args(["ingest"])
        assert args.app == "textqa"
        assert args.base == 1024
        assert args.rounds == 3
        assert not args.scorecard

    def test_parser_rejects_bad_app(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["ingest", "--app", "nope"])

    def test_human_output(self, capsys):
        assert main(self.SMALL) == 0
        out = capsys.readouterr().out
        assert "staleness" in out
        assert "compaction" in out
        assert "write path" in out
        assert "interference" in out

    def test_json_output(self, capsys):
        import json

        assert main(self.SMALL + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["base"] == 512
        assert payload["staleness"]["final_recall"] \
            < payload["staleness"]["initial_recall"]
        assert payload["writepath"]["write_amplification"] >= 1.0
        assert payload["metrics"]["ingest.inserts"] > 0

    def test_json_deterministic(self, capsys):
        cmd = self.SMALL + ["--json", "--seed", "5"]
        assert main(cmd) == 0
        first = capsys.readouterr().out
        assert main(cmd) == 0
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize("flag", ["--queries", "--k", "--base"])
    def test_zero_count_is_one_error_line(self, capsys, flag):
        assert main(["ingest", flag, "0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_scorecard_mode(self, capsys):
        import json

        assert main(["ingest", "--scorecard"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["meta"]["app"] == "textqa"
        assert payload["compaction"]["post_recall"] == pytest.approx(
            payload["compaction"]["baseline_recall"], abs=0.01
        )
        assert set(payload["interference"]) == {
            "slowdown_at_0", "slowdown_at_0.25",
            "slowdown_at_0.5", "slowdown_at_0.75",
        }


class TestChaosCommand:
    SMALL = ["chaos", "--crashes", "1", "--kills", "1", "--queries", "6"]

    def test_parser_defaults(self):
        args = build_parser().parse_args(["chaos"])
        assert args.seed == 0
        assert args.duration == 1.0
        assert args.track == "both"
        assert not args.scorecard

    def test_parser_rejects_bad_track(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["chaos", "--track", "meteor"])

    def test_human_output_covers_both_tracks(self, capsys):
        assert main(self.SMALL) == 0
        out = capsys.readouterr().out
        assert "durability" in out
        assert "bit-equal" in out
        assert "availability" in out
        assert "MTTR" in out

    def test_single_track_runs_only_that_track(self, capsys):
        assert main(self.SMALL + ["--track", "durability"]) == 0
        out = capsys.readouterr().out
        assert "durability" in out
        assert "availability" not in out

    def test_json_deterministic(self, capsys):
        import json

        cmd = self.SMALL + ["--json", "--seed", "5"]
        assert main(cmd) == 0
        first = capsys.readouterr().out
        assert main(cmd) == 0
        assert capsys.readouterr().out == first
        payload = json.loads(first)
        assert payload["durability"]["bit_equal"] == 1
        assert 0.0 < payload["availability"]["availability"] <= 1.0

    def test_scorecard_mode_matches_perf_gate_leg(self, capsys):
        import json

        from repro.recovery.scorecard import build_recovery_scorecard

        assert main(["chaos", "--scorecard"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == build_recovery_scorecard()

    def test_bad_config_fails_cleanly(self, capsys):
        assert main(["chaos", "--duration", "0"]) == 1
        assert "error" in capsys.readouterr().err


class TestExplainCommand:
    SMALL = ["explain", "--features", "600", "--queries", "4"]

    def test_parser_defaults(self):
        args = build_parser().parse_args(["explain"])
        assert args.query_id == 0
        assert args.app == "tir"
        assert args.shards == 3
        assert args.replicas == 2
        assert args.hedge == 0.3
        assert args.fail_shards == "1:0"
        assert not args.json

    def test_human_output_is_bit_exact(self, capsys):
        assert main(self.SMALL + ["2"]) == 0
        out = capsys.readouterr().out
        assert "end-to-end" in out
        assert "bit-exact" in out
        assert "NOT bit-exact" not in out
        assert "fleet p99 dominant segment" in out

    def test_json_schema(self, capsys):
        import json

        assert main(self.SMALL + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {
            "query_id", "seconds", "bit_exact", "critical_path",
            "fleet", "trace",
        }
        assert payload["bit_exact"] is True
        segments = payload["critical_path"]["segments"]
        assert segments and all(
            set(s) == {"name", "kind", "seconds"} for s in segments
        )
        assert payload["fleet"]["exact_fraction"] == 1.0
        assert payload["trace"]["traces"] == 4
        assert payload["trace"]["spans"] > 0

    def test_query_id_out_of_range(self, capsys):
        assert main(self.SMALL + ["99"]) == 1
        assert "out of range" in capsys.readouterr().err

    def test_out_writes_chrome_trace(self, capsys, tmp_path):
        import json

        out = tmp_path / "dtrace.json"
        assert main(self.SMALL + ["--out", str(out)]) == 0
        trace = json.loads(out.read_text())
        events = trace["traceEvents"]
        assert any(e["ph"] == "X" for e in events)
        assert any(e["ph"] == "s" for e in events)


class TestSloCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["slo"])
        assert args.seed == 0
        assert args.duration == 1.0
        assert args.kills == 4
        assert args.queries == 24
        assert not args.json

    def test_human_output_detects_the_chaos_day(self, capsys):
        assert main(["slo"]) == 0
        out = capsys.readouterr().out
        assert "availability: target" in out
        assert "alerts fired:" in out
        # the kill storm must be *detected*, not just survived
        assert "detection in" in out

    def test_scorecard_schema_and_determinism(self, capsys):
        import json

        assert main(["slo", "--json"]) == 0
        first = capsys.readouterr().out
        payload = json.loads(first)
        assert set(payload) == {
            "seed", "duration_s", "availability", "served", "queries",
            "first_fault_s", "first_alert_s", "alert_latency_s", "slo",
        }
        assert payload["alert_latency_s"] is not None
        assert payload["alert_latency_s"] >= 0.0
        assert set(payload["slo"]["slos"]) == {"availability", "latency"}
        assert main(["slo", "--json"]) == 0
        assert capsys.readouterr().out == first

    def test_bad_config_fails_cleanly(self, capsys):
        assert main(["slo", "--duration", "0"]) == 1
        assert "error" in capsys.readouterr().err


class TestTenantsCommand:
    SMALL = ["tenants", "--day", "4000", "--features", "2000000"]

    def test_parser_defaults(self):
        args = build_parser().parse_args(["tenants"])
        assert args.seed == 0
        assert args.day == 86_400.0
        assert args.features == 32_000_000
        assert not args.trace
        assert not args.no_isolation
        assert not args.scorecard
        assert not args.json

    def test_trace_summary(self, capsys):
        assert main(self.SMALL + ["--trace"]) == 0
        out = capsys.readouterr().out
        assert "arrivals over" in out
        assert "search:" in out
        assert "burst)" in out
        # ingest tenant really carries writes
        assert "ingestpipe:" in out

    def test_trace_json_deterministic(self, capsys):
        import json

        cmd = self.SMALL + ["--trace", "--json", "--seed", "9"]
        assert main(cmd) == 0
        first = capsys.readouterr().out
        assert main(cmd) == 0
        assert capsys.readouterr().out == first
        payload = json.loads(first)
        assert set(payload["tenants"]) == {
            "search", "analytics", "ingestpipe",
        }
        assert payload["arrivals"] == sum(
            row["offered"] for row in payload["tenants"].values()
        )

    def test_day_human_output(self, capsys):
        assert main(self.SMALL) == 0
        out = capsys.readouterr().out
        assert "production day: 3 tenants" in out
        assert "SLO attainment" in out
        assert "autoscaler: peak" in out
        assert "rebalance(s)" in out
        assert "isolation (victim p99 with/without search)" in out
        assert "LEDGER IMBALANCE" not in out

    def test_day_json_schema(self, capsys):
        import json

        assert main(self.SMALL + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"day", "aggressor", "isolation_p99_ratio"}
        assert payload["aggressor"] == "search"
        assert payload["day"]["conserved"] == 1
        assert set(payload["isolation_p99_ratio"]) == {
            "analytics", "ingestpipe",
        }

    def test_no_isolation_skips_the_pair(self, capsys):
        import json

        assert main(self.SMALL + ["--json", "--no-isolation"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["aggressor"] == ""
        assert payload["isolation_p99_ratio"] == {}

    def test_bad_config_fails_cleanly(self, capsys):
        assert main(["tenants", "--day", "0"]) == 1
        assert "error" in capsys.readouterr().err


class TestErrorBoundary:
    """A bad value argparse accepts exits 1 with one ``error:`` line."""

    @pytest.mark.parametrize("argv", [
        ["demo", "--features", "3"],
        ["cache", "--entries", "0"],
        ["cache", "--queries", "0"],
        ["speedup", "--gigabytes", "0"],
        ["serve", "--max-batch", "0"],
        ["serve", "--fail-accels", "x"],
        ["cluster", "--features", "0"],
        ["index", "--k", "0"],
        ["trace", "--bins", "0", "--features", "2000"],
        ["trace", "--max-pages", "0", "--features", "2000"],
        ["profile", "--top", "-1", "--features", "2000"],
        ["profile", "--hotspots", "--top", "0", "--features", "2000"],
    ], ids=" ".join)
    def test_one_error_line_no_traceback(self, capsys, tmp_path, argv):
        if argv[0] == "trace":
            argv = argv + ["--out", str(tmp_path / "trace.json")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err


class TestCountFlagsCheckedFirst:
    """``--bins`` / ``--top`` below 1 fail before any output or file."""

    @pytest.mark.parametrize("argv", [
        ["trace", "--bins", "0"],
        ["trace", "--bins", "0", "--json"],
        ["trace", "--top", "0"],
        ["trace", "--top", "-1", "--json"],
    ], ids=" ".join)
    def test_trace(self, capsys, tmp_path, argv):
        out = tmp_path / "t.json"
        assert main(argv + ["--features", "2000", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --")
        assert captured.err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("extra", [[], ["--json"]], ids=["text", "json"])
    def test_serve(self, capsys, extra):
        argv = ["serve", "--features", "50000", "--queries", "40",
                "--bins", "0"] + extra
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --bins must be an integer >= 1, got 0\n"


class TestFailAccelsFlag:
    """``faults`` and ``serve`` parse ``--fail-accels`` the same way."""

    FAULTS = ["faults", "--features", "2000", "--queries", "1"]
    SERVE = ["serve", "--features", "50000", "--queries", "40", "--qps", "1"]

    def test_faults_skips_blank_tokens(self, capsys):
        assert main(self.FAULTS + ["--fail-accels", "0,"]) == 0
        assert "failed accels   [0]" in capsys.readouterr().out

    def test_serve_skips_blank_tokens(self, capsys):
        import json

        assert main(self.SERVE + ["--fail-accels", "0,", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["failed_accels"] == [0]

    @pytest.mark.parametrize("command", ["FAULTS", "SERVE"])
    def test_non_integer_token_is_named(self, capsys, command):
        argv = getattr(self, command) + ["--fail-accels", "0, x"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --fail-accels: 'x' is not an integer\n"


class TestFailShardsFlag:
    """A bad ``--fail-shards`` token is named whole, with the flag."""

    @pytest.mark.parametrize("spec, token", [
        ("x", "x"), ("0:1:2", "0:1:2"), ("0, 1:y", "1:y"),
    ])
    def test_bad_token_is_named(self, capsys, spec, token):
        argv = ["cluster", "--features", "2000", "--fail-shards", spec]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: --fail-shards: {token!r} is not shard or shard:replica\n"
        )


class TestScorecardDispatch:
    """``--scorecard`` prints its command's leg of the registry."""

    @pytest.mark.parametrize("command,leg", [
        ("serve", "serving"),
        ("cluster", "cluster"),
        ("ingest", "ingest"),
        ("index", "index"),
        ("chaos", "recovery"),
        ("tenants", "tenancy"),
    ])
    def test_prints_its_own_leg(self, capsys, monkeypatch, command, leg):
        import json

        from repro.analysis import scorecard

        stubs = {
            name: (lambda name=name: {"leg": name})
            for name in scorecard.scorecard_legs()
        }
        monkeypatch.setattr(scorecard, "scorecard_legs", lambda: stubs)
        assert main([command, "--scorecard"]) == 0
        assert json.loads(capsys.readouterr().out) == {"leg": leg}
