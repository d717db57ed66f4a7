"""Command-line behavior: subcommands, formats, exit codes, determinism."""

import json

import numpy as np
import pytest

from lexmetric.cli import main
from lexmetric.space import FiniteMetricSpace, save_space, space_from_json, validate

P4_EDGES = "a b\nb c\nc d\n"
K2_JSON = {"points": ["u", "v"], "d": [[0, 1], [1, 0]]}


@pytest.fixture
def p4_edges(tmp_path):
    path = tmp_path / "p4.edges"
    path.write_text(P4_EDGES)
    return str(path)


@pytest.fixture
def k2_json(tmp_path):
    path = tmp_path / "k2.json"
    path.write_text(json.dumps(K2_JSON))
    return str(path)


@pytest.fixture
def discrete4_json(tmp_path):
    table = (np.ones((4, 4)) - np.eye(4)).tolist()
    path = tmp_path / "d4.json"
    path.write_text(json.dumps({"points": ["p1", "p2", "p3", "p4"], "d": table}))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestDim:
    def test_path_dimension_and_basis(self, capsys, p4_edges):
        code, out, _ = run(capsys, ["dim", p4_edges])
        assert code == 0
        assert "dimension: 1" in out
        assert "basis: a" in out

    def test_json_output(self, capsys, p4_edges):
        code, out, _ = run(capsys, ["dim", p4_edges, "--json", "--all-bases"])
        assert code == 0
        doc = json.loads(out)
        assert doc == {"dimension": 1, "basis": ["a"], "all_bases": [["a"], ["d"]]}

    def test_greedy_flag(self, capsys, p4_edges):
        code, out, _ = run(capsys, ["dim", p4_edges, "--greedy", "--json"])
        assert json.loads(out)["greedy"] == ["a"]

    def test_enumeration_guard_exit_code(self, capsys, tmp_path):
        big = FiniteMetricSpace(
            tuple(f"p{i:02d}" for i in range(20)),
            np.ones((20, 20)) - np.eye(20),
        )
        path = tmp_path / "big.json"
        save_space(big, str(path))
        code, _, err = run(capsys, ["dim", str(path), "--all-bases"])
        assert code == 2
        assert "capped" in err


class TestVerify:
    def test_dimension_pass(self, capsys, k2_json):
        code, out, _ = run(capsys, ["verify", k2_json, k2_json, "--theorem", "dimension"])
        assert code == 0
        assert "dimension: PASS (lhs=3, rhs=3)" in out

    def test_all_theorems_json(self, capsys, k2_json):
        code, out, _ = run(capsys, ["verify", k2_json, k2_json, "--json"])
        assert code == 0
        reports = json.loads(out)
        names = [r["theorem"] for r in reports]
        assert names == [
            "dimension",
            "diameter",
            "corollary-twins-free",
            "corollary-small-diameter",
            "squash",
        ]
        assert all(r["pass"] is not False for r in reports)

    def test_skip_is_not_failure(self, capsys, k2_json):
        code, out, _ = run(capsys, ["verify", k2_json, k2_json, "--theorem", "corollaries"])
        assert code == 0
        assert "SKIP" in out

    def test_product_guard_exit_code(self, capsys, tmp_path, k2_json):
        big = FiniteMetricSpace(
            tuple(f"p{i:02d}" for i in range(20)),
            np.ones((20, 20)) - np.eye(20),
        )
        path = tmp_path / "big.json"
        save_space(big, str(path))
        code, _, err = run(capsys, ["verify", str(path), str(path)])
        assert code == 2
        assert "guard" in err and "400" in err


class TestStatsAndValidate:
    def test_stats_discrete(self, capsys, discrete4_json):
        code, out, _ = run(capsys, ["stats", discrete4_json, "--json"])
        assert code == 0
        doc = json.loads(out)
        assert (doc["nearness"], doc["slack"], doc["diameter"]) == (1.0, 1.0, 1.0)

    def test_validate_ok(self, capsys, k2_json):
        code, out, _ = run(capsys, ["validate", k2_json])
        assert code == 0
        assert "ok" in out

    def test_validate_failure_exits_one(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"points": ["a", "b"], "d": [[0, 1], [2, 0]]}))
        code, out, _ = run(capsys, ["validate", str(path)])
        assert code == 1
        assert "symmetry" in out

    def test_validate_edges_input(self, capsys, p4_edges):
        code, _, _ = run(capsys, ["validate", p4_edges])
        assert code == 0


class TestGraphConversion:
    def test_round_trip(self, capsys, p4_edges, tmp_path):
        code, out, _ = run(capsys, ["graph", p4_edges])
        assert code == 0
        space = space_from_json(json.loads(out))
        assert validate(space).ok
        assert space.points == ("a", "b", "c", "d")
        assert space.d("a", "d") == 3.0


class TestTransforms:
    def test_gravitate(self, capsys, p4_edges):
        code, out, _ = run(capsys, ["gravitate", p4_edges, "--t", "1", "--json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["d"][0][3] == 2.0

    def test_squash(self, capsys, p4_edges):
        code, out, _ = run(capsys, ["squash", p4_edges, "--eta", "1", "--json"])
        doc = json.loads(out)
        assert doc["d"][0][1] == 0.5
        assert doc["d"][0][3] == 0.75

    def test_product(self, capsys, k2_json):
        code, out, _ = run(capsys, ["product", k2_json, k2_json, "--json"])
        doc = json.loads(out)
        assert doc["points"] == ["u|u", "u|v", "v|u", "v|v"]
        assert all(x == 1.0 for i, row in enumerate(doc["d"]) for j, x in enumerate(row) if i != j)

    def test_gravitate_requires_t(self, capsys, p4_edges):
        code, _, _ = run(capsys, ["gravitate", p4_edges])
        assert code == 2


class TestTwinsAndSpecial:
    def test_twins_human(self, capsys, p4_edges):
        code, out, _ = run(capsys, ["twins", p4_edges])
        assert code == 0
        assert "twins-free: true" in out

    def test_twins_json(self, capsys, k2_json):
        code, out, _ = run(capsys, ["twins", k2_json, "--json"])
        doc = json.loads(out)
        assert doc["twins_free"] is False
        assert doc["non_singleton"][0]["gap"] == 1.0

    def test_special(self, capsys, k2_json):
        code, out, _ = run(capsys, ["special", k2_json, k2_json, "--json"])
        doc = json.loads(out)
        assert doc["special_classes"] == [["u", "v"]]


class TestCorpus:
    def test_sweep_passes(self, capsys):
        code, out, _ = run(capsys, ["corpus", "--seed", "5", "--count", "3"])
        assert code == 0
        assert "3 pairs" in out
        assert "0 failure(s)" in out

    def test_seeded_output_is_identical(self, capsys):
        argv = ["corpus", "--seed", "9", "--count", "2", "--json"]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second


class TestErrors:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, ["stats", "/nonexistent.json"])
        assert code == 2
        assert "nonexistent" in err

    def test_bad_edge_list_names_line(self, capsys, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("a b\nc\n")
        code, _, err = run(capsys, ["dim", str(path)])
        assert code == 2
        assert "line 2" in err

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_no_arguments(self, capsys):
        assert main([]) == 2

    @pytest.mark.parametrize(
        "command, option", [("squash", "--eta"), ("stats", "--tolerance")]
    )
    def test_infinite_parameter_exit_code(self, capsys, p4_edges, command, option):
        code, out, err = run(capsys, [command, p4_edges, option, "inf"])
        assert code == 2
        assert out == ""
        assert "finite" in err

    def test_format_override(self, capsys, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text(P4_EDGES)
        code, out, _ = run(capsys, ["dim", str(path), "--format", "edges"])
        assert code == 0
        assert "dimension: 1" in out
