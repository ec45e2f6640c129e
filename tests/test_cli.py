"""Tests for the ``python -m repro`` command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_index(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["select", "--index", "nope"])

    def test_defaults(self):
        args = build_parser().parse_args(["select"])
        assert args.dataset == "nuswide"
        assert args.threshold == 3
        assert args.index == "DHA-Index"


class TestCommands:
    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "t0: 001001010" in out
        assert "t0, t3, t4, t6" in out

    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "DHA-Index" in out
        assert "nuswide -> NUS-WIDE" in out
        assert "serve-bench" in out

    def test_help_lists_serve_bench(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        assert "serve-bench" in capsys.readouterr().out

    def test_select_small(self, capsys):
        assert main(
            ["select", "--n", "300", "--bits", "16", "--threshold", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "matches" in out
        assert "distance computations" in out

    def test_select_every_family(self, capsys):
        for family in ("Nested-Loops", "MH-4", "SHA-Index"):
            assert main(
                ["select", "--n", "200", "--bits", "16",
                 "--index", family]
            ) == 0

    def test_join_small(self, capsys):
        assert main(["join", "--n", "250", "--bits", "16"]) == 0
        assert "pairs in" in capsys.readouterr().out

    def test_knn_small(self, capsys):
        assert main(
            ["knn", "--n", "300", "--bits", "16", "--k", "5"]
        ) == 0
        out = capsys.readouterr().out
        assert out.count("tuple ") >= 5

    def test_mrjoin_small(self, capsys):
        assert main(
            ["mrjoin", "--n", "200", "--bits", "16", "--workers", "4",
             "--option", "B"]
        ) == 0
        out = capsys.readouterr().out
        assert "MRHA-Index-B" in out
        assert "shuffle volume" in out

    def test_mrjoin_auto_resolves(self, capsys):
        assert main(
            ["mrjoin", "--n", "150", "--bits", "16", "--workers", "4"]
        ) == 0
        assert "MRHA-Index-A" in capsys.readouterr().out

    def test_serve_bench_smoke(self, capsys):
        assert main(
            ["serve-bench", "--n", "300", "--bits", "16",
             "--queries", "200", "--workers", "2", "--updates", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "queries/s" in out
        assert "service stats" in out
        assert "hit rate" in out
        assert "0 rejected" in out

    def test_verify_command(self, capsys):
        assert main(["verify", "--n", "200", "--bits", "16"]) == 0
        out = capsys.readouterr().out
        assert out.count("OK") == 7

    def test_trace_command(self, capsys):
        assert main(
            ["trace", "--n", "400", "--bits", "16", "--threshold", "2"]
        ) == 0
        out = capsys.readouterr().out
        # One span tree and one ops verdict per engine.
        assert out.count("h_search.level") >= 2
        assert out.count("total ops:") == 2
        assert out.count("-> OK") == 2
        assert "MISMATCH" not in out

    def test_trace_single_engine(self, capsys):
        assert main(
            ["trace", "--n", "300", "--bits", "16", "--engine", "flat"]
        ) == 0
        out = capsys.readouterr().out
        assert out.count("-> OK") == 1
        assert "engine=flat" in out

    def test_trace_all_planes_includes_native(self, capsys):
        assert main(
            ["trace", "--n", "300", "--bits", "16", "--engine", "all"]
        ) == 0
        out = capsys.readouterr().out
        assert out.count("-> OK") == 3
        assert "engine=native" in out

    def test_bench_kernel_verify_iterates_registry(self, capsys):
        from repro.core.engines import engine_names

        assert main(
            ["bench-kernel", "--n", "200", "--bits", "16",
             "--verify", "--engine", "all"]
        ) == 0
        out = capsys.readouterr().out
        # Every registered engine must appear: a new engine cannot
        # silently skip verification.
        for name in engine_names():
            assert f"kernel equivalence OK: {name} vs node walk" in out
        assert (
            f"OK for all {len(engine_names())} registered engines" in out
        )
        # The native plane is checked on both execution paths.
        assert "numpy fallback" in out

    def test_bench_kernel_verify_native_strict(self, capsys):
        assert main(
            ["bench-kernel", "--n", "200", "--bits", "16",
             "--verify", "--engine", "native"]
        ) == 0
        out = capsys.readouterr().out
        assert "kernel equivalence OK: native vs node walk" in out
        assert "ops" in out and "backend" in out

    def test_bench_kernel_all_requires_verify(self, capsys):
        assert main(
            ["bench-kernel", "--n", "120", "--bits", "16",
             "--engine", "all"]
        ) == 2

    def test_metrics_command_prom(self, capsys):
        from repro.obs import metrics_enabled, registry

        assert main(
            ["metrics", "--n", "300", "--bits", "16", "--queries", "50"]
        ) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_search_total counter" in out
        assert "service_batch_size_bucket" in out
        # Served reads go through the DHA's native view, which reports
        # as the native plane on either backend tier.
        assert 'repro_search_total{engine="native"}' in out
        # The command must clean up the process-wide registry.
        assert not metrics_enabled()
        assert registry().snapshot() == {}

    def test_metrics_command_json(self, capsys):
        import json

        assert main(
            ["metrics", "--n", "300", "--bits", "16",
             "--queries", "50", "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["repro_search_total"]["type"] == "counter"
        assert "service_served" in payload
