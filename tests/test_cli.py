"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import _serving_context, build_parser, main


class TestParser:
    def test_requires_target(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_target(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table99"])

    def test_defaults(self):
        args = build_parser().parse_args(["table6"])
        assert args.tier == "bench" and args.datasets is None

    def test_tier_choices(self):
        args = build_parser().parse_args(["table7", "--tier", "smoke"])
        assert args.tier == "smoke"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table7", "--tier", "gpu"])

    def test_dataset_restriction(self):
        args = build_parser().parse_args(["table9", "--datasets", "bbbp", "bace"])
        assert args.datasets == ["bbbp", "bace"]

    def test_serving_targets_accepted(self):
        args = build_parser().parse_args(["score"])
        assert args.target == "score" and args.specs == 6
        args = build_parser().parse_args(
            ["serve", "--specs", "3", "--size", "80", "--search-epochs", "1"])
        assert args.target == "serve"
        assert (args.specs, args.size, args.search_epochs) == (3, 80, 1)

    def test_route_target_accepted(self):
        args = build_parser().parse_args(["route"])
        assert args.target == "route"
        assert (args.requests, args.max_batch_size, args.max_delay) == (64, 16, 4)
        args = build_parser().parse_args(
            ["route", "--requests", "12", "--max-batch-size", "4",
             "--max-delay", "2"])
        assert (args.requests, args.max_batch_size, args.max_delay) == (12, 4, 2)


class TestExecution:
    def test_space_target(self, capsys):
        assert main(["space"]) == 0
        out = capsys.readouterr().out
        assert "10,206" in out

    def test_table7_smoke_restricted(self, capsys):
        code = main(["table7", "--tier", "smoke", "--datasets", "bbbp"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table VII" in out
        assert "s2pgnn" in out
        assert "bbbp" in out

    def test_table11_smoke_restricted(self, capsys):
        code = main(["table11", "--tier", "smoke", "--datasets", "bbbp"])
        assert code == 0
        out = capsys.readouterr().out
        assert "seconds per epoch" in out

    def test_score_target(self, capsys):
        code = main(["score", "--size", "60", "--specs", "2",
                     "--search-epochs", "1", "--emb-dim", "16"])
        assert code == 0
        out = capsys.readouterr().out
        assert "scored 3 specs" in out
        assert "derived" in out
        assert "cache stats" in out

    def test_float32_serving_casts_a_copy_of_the_supernet(self, capsys):
        args = build_parser().parse_args(
            ["score", "--size", "60", "--search-epochs", "1", "--emb-dim", "16",
             "--dtype", "float32"])
        _, _, result, service = _serving_context(args)
        assert "serving dtype: float32" in capsys.readouterr().out
        assert all(p.data.dtype == np.float64
                   for p in result.supernet.parameters())
        assert all(p.data.dtype == np.float32
                   for p in service.supernet.parameters())

    def test_serve_target_reports_request_throughput(self, capsys):
        code = main(["serve", "--size", "60", "--specs", "1",
                     "--search-epochs", "1", "--emb-dim", "16"])
        assert code == 0
        out = capsys.readouterr().out
        assert "requests/s" in out

    def test_route_target_reports_dynamic_batching(self, capsys):
        code = main(["route", "--size", "60", "--requests", "12",
                     "--search-epochs", "1", "--emb-dim", "16",
                     "--max-batch-size", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "routed 12 single-graph requests" in out
        assert "micro-batches" in out
        assert "dynamic batching speedup" in out
