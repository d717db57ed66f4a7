"""Command-line behavior: subcommands, formats, exit codes, determinism."""

import functools
import json
import os
import pickle
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import lexmetric
from lexmetric import resolving
from lexmetric.cli import _THEOREMS, _build_parser, main
from lexmetric.space import FiniteMetricSpace, json_text, save_space, space_from_json, validate

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
        doc = json.loads(out)
        assert space_from_json(doc["base"]).points == space_from_json(doc["second"]).points
        reports = doc["reports"]
        names = [r["theorem"] for r in reports]
        assert names == [
            "dimension",
            "diameter",
            "corollary-twins-free",
            "corollary-small-diameter",
            "squash",
        ]
        assert all(r["pass"] is not False for r in reports)
        assert all("skipped" not in r and "base_table" not in r["witnesses"] for r in reports)

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

    def test_small_guard_keeps_products_inside_it(self, capsys):
        argv = ["corpus", "--seed", "1", "--count", "10", "--max-product-points", "8", "--json"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        pairs = json.loads(out)["pairs"]
        assert len(pairs) == 10
        assert all(len(p["base"]["points"]) * len(p["second"]["points"]) <= 8 for p in pairs)

    def test_guard_below_two_by_two_exits_two(self, capsys):
        code, out, err = run(capsys, ["corpus", "--seed", "1", "--max-product-points", "3"])
        assert code == 2
        assert out == ""
        assert "at least 4" in err

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

    @pytest.mark.parametrize(
        "argv, bad",
        [
            (["dim", "{nan}"], "nan.json"),
            (["stats", "{inf}"], "inf.json"),
            (["verify", "{k2}", "{inf}"], "inf.json"),
        ],
        ids=["dim-nan", "stats-inf", "verify-inf"],
    )
    def test_non_finite_table_exit_code(self, capsys, tmp_path, k2_json, argv, bad):
        (tmp_path / "nan.json").write_text('{"points": ["a", "b"], "d": [[0, NaN], [NaN, 0]]}')
        (tmp_path / "inf.json").write_text(
            '{"points": ["a", "b"], "d": [[0, Infinity], [Infinity, 0]]}'
        )
        paths = {"nan": tmp_path / "nan.json", "inf": tmp_path / "inf.json", "k2": k2_json}
        code, out, err = run(capsys, [arg.format(**paths) for arg in argv])
        assert code == 2
        assert out == ""
        assert "non-finite" in err and bad in err

    def test_infinite_edge_weight_exit_code(self, capsys, tmp_path):
        path = tmp_path / "inf.edges"
        path.write_text("a b inf\n")
        code, out, err = run(capsys, ["graph", str(path)])
        assert code == 2
        assert out == ""
        assert err == f"error: {path}: edge ('a', 'b') has non-positive or non-finite weight inf\n"

    def test_validate_reports_non_finite_entries(self, capsys, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text('{"points": ["a", "b"], "d": [[0, NaN], [1, 0]]}')
        code, out, _ = run(capsys, ["validate", str(path)])
        assert code == 1
        assert out.splitlines() == ["invalid: 1 violation(s)", "  finiteness at (a, b): nan vs 0"]

    def test_error_after_some_pairs_prints_nothing(self, capsys, monkeypatch):
        # The first three pairs pass and pair 4 raises.
        import lexmetric.cli as cli

        real_verify_all, pairs = cli.verify_all, []

        def verify_all(base, second, max_product_points):
            pairs.append(base)
            if len(pairs) == 4:
                raise ValueError("pair 4 went wrong")
            return real_verify_all(base, second, max_product_points)

        monkeypatch.setattr(cli, "verify_all", verify_all)
        code, out, err = run(capsys, ["corpus", "--seed", "5", "--count", "30"])
        assert code == 2
        assert out == ""
        assert "pair 4 went wrong" in err
        assert len(pairs) == 4

    @pytest.mark.parametrize(
        "argv",
        [
            ["dim", "{p4}", "--max-product-points", "40"],
            ["special", "{k2}", "{k2}", "--max-product-points", "40"],
            ["special", "{k2}", "{k2}", "--max-enumeration-points", "20"],
            ["verify", "{k2}", "{k2}", "--max-enumeration-points", "20"],
            ["corpus", "--seed", "1", "--max-enumeration-points", "20"],
        ],
        ids=["dim-product", "special-product", "special-enumeration", "verify", "corpus"],
    )
    def test_guard_a_command_does_not_read_is_a_usage_error(
        self, capsys, p4_edges, k2_json, argv
    ):
        code, out, _ = run(capsys, [arg.format(p4=p4_edges, k2=k2_json) for arg in argv])
        assert code == 2
        assert out == ""

    def test_format_override(self, capsys, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text(P4_EDGES)
        code, out, _ = run(capsys, ["dim", str(path), "--format", "edges"])
        assert code == 0
        assert "dimension: 1" in out


# Pinned output of every subcommand, in text and --json mode, with the exit
# codes 1 and 2. Each row runs as its own process (python -m lexmetric.cli),
# one per CPU at a time, and then every row runs twice in one process, from a
# cold memo and then a warm one. Commands run with the working directory set
# to tests/golden, so the relative input paths in argv and in error messages
# stay the same on every machine. A row's stdout is pinned in NAME.out and its
# stderr in NAME.err where one exists; a row that exits 0 or 1 without a
# NAME.err must write nothing to stderr. Argparse's own usage errors have no
# .err file, because their wording differs between Python versions.
# To add a case, add a row (name, argv, exit code) below, put any new input
# file in tests/golden, and write NAME.out (and NAME.err for an error) by
# running the command from tests/golden, for example
#   PYTHONPATH=../../src python -m lexmetric.cli dim c5.edges --json > dim-c5-json.out
GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN = [
    ("validate-k2", "validate k2.json", 0),
    ("validate-k2-json", "validate k2.json --json", 0),
    ("validate-p4", "validate p4.edges", 0),
    ("validate-nonmetric", "validate nonmetric.json", 1),
    ("validate-nonmetric-json", "validate nonmetric.json --json", 1),
    ("validate-broken", "validate broken.json", 1),
    ("validate-broken-json", "validate broken.json --json", 1),
    ("validate-nonfinite-json", "validate nonfinite.json --json", 1),
    ("stats-w3", "stats w3.json", 0),
    ("stats-w3-json", "stats w3.json --json", 0),
    ("stats-labels-json", "stats labels.json --json", 0),
    ("stats-c5", "stats c5.edges", 0),
    ("stats-p4-tolerance", "stats p4.edges --tolerance 0.5", 0),
    ("graph-p4", "graph p4.edges", 0),
    ("graph-k4-json", "graph k4.edges --json --tolerance 0.001", 0),
    ("graph-weighted-path-json", "graph weighted-path.edges --json", 0),
    ("gravitate-p4", "gravitate p4.edges --t 1", 0),
    ("gravitate-p4-json", "gravitate p4.edges --t 1 --json", 0),
    ("squash-w3", "squash w3.json --eta 1", 0),
    ("squash-w3-json", "squash w3.json --eta 1 --json", 0),
    ("product-k2-w3", "product k2.json w3.json", 0),
    ("product-k2-w3-json", "product k2.json w3.json --json", 0),
    ("product-nonmetric-k2", "product nonmetric.json k2.json", 2),
    ("dim-p4", "dim p4.edges", 0),
    ("dim-c5", "dim c5.edges --greedy --all-bases", 0),
    ("dim-c5-json", "dim c5.edges --greedy --all-bases --json", 0),
    ("dim-k4-json", "dim k4.edges --all-bases --json", 0),
    ("dim-w3-format", "dim w3.json --format json --greedy", 0),
    ("dim-grid-8x9-json", "dim grid-8x9.edges --greedy --json", 0),
    ("twins-k2", "twins k2.json", 0),
    ("twins-k2-json", "twins k2.json --json", 0),
    ("twins-k4", "twins k4.edges", 0),
    ("twins-p4-json", "twins p4.edges --json", 0),
    ("special-k2-k2", "special k2.json k2.json", 0),
    ("special-k2-k2-json", "special k2.json k2.json --json", 0),
    ("special-k4-w3", "special k4.edges w3.json", 0),
    ("special-k4-w3-json", "special k4.edges w3.json --json", 0),
    ("verify-k2-k2", "verify k2.json k2.json", 0),
    ("verify-k2-k2-json", "verify k2.json k2.json --json", 0),
    ("verify-p4-k2", "verify p4.edges k2.json", 0),
    ("verify-k4-w3-json", "verify k4.edges w3.json --json", 0),
    ("verify-k4-paw-json", "verify k4.edges paw.edges --json", 0),
    ("verify-p4-c5-dimension", "verify p4.edges c5.edges --theorem dimension", 0),
    ("verify-k2-w3-diameter", "verify k2.json w3.json --theorem diameter", 0),
    ("verify-c5-k2-squash", "verify c5.edges k2.json --theorem squash --json", 0),
    ("verify-k4-k2-corollaries", "verify k4.edges k2.json --theorem corollaries", 0),
    ("verify-nonmetric-k2", "verify nonmetric.json k2.json", 2),
    ("verify-nonmetric-k2-json", "verify nonmetric.json k2.json --json", 2),
    ("verify-far-w3", "verify far.json w3.json", 0),
    ("verify-k2-far-path", "verify k2.json far-path.json", 0),
    # Each distance is within the tolerance of the next, the first and last are not, and
    # the squash merges those two.
    ("verify-k2-merge-chain", "verify k2.json merge-chain.json", 0),
    # The diameter is within the tolerance of the nearness, so the small-diameter corollary
    # does not apply.
    ("verify-k2-just-below", "verify k2.json just-below.json", 0),
    # Its path sums are not exact in binary: only a symmetric table passes at tolerance 0.
    ("verify-weighted-path-k2-tol0", "verify weighted-path.edges k2.json --tolerance 0", 0),
    # chain.json has no twin partition at its tolerance: only the reports that read one fail.
    ("verify-chain-k2-diameter", "verify chain.json k2.json --theorem diameter", 0),
    ("verify-chain-k2-squash", "verify chain.json k2.json --theorem squash", 0),
    ("error-verify-chain-k2", "verify chain.json k2.json --theorem all", 2),
    # The factors' tolerances differ. At the product's, 0.1, the distances 1 and 1.05 are
    # one, so each fiber has dimension 2, not the 1 it has at the second factor's own 1e-9.
    ("verify-loose-pair-near-tie", "verify loose-pair.json near-tie.json", 0),
    ("error-twins-chain", "twins chain.json", 2),
    ("corpus-5", "corpus --seed 5 --count 30", 0),
    ("corpus-9-json", "corpus --seed 9 --count 3 --json", 0),
    ("error-missing-file", "stats missing.json", 2),
    ("error-bad-edges", "dim bad.edges", 2),
    ("error-graph-reads-edges", "graph k2.json", 2),
    ("error-size-guard", "verify k4.edges c5.edges --max-product-points 10", 2),
    (
        "error-size-guard-diameter",
        "verify w3.json w3.json --theorem diameter --max-product-points 4",
        2,
    ),
    ("error-corpus-count-negative", "corpus --seed 1 --count -3", 2),
    ("error-corpus-seed-negative", "corpus --seed -1", 2),
    ("error-enumeration-cap", "dim c5.edges --all-bases --max-enumeration-points 4", 2),
    ("error-eta-inf", "squash p4.edges --eta inf", 2),
    ("error-squash-pole", "squash negative.json --eta 1", 2),
    # Just above the pole: eta*d overflows and the image eta/(eta/d + 1) is -inf.
    ("error-squash-overflow", "squash near-pole.json --eta 1e300", 2),
    ("error-verify-k2-negative", "verify k2.json negative.json", 2),
    # Every --theorem refuses factors that form no product, whether or not it builds one.
    (
        "error-verify-zero-near-corollaries",
        "verify zero-near.json k2.json --theorem corollaries",
        2,
    ),
    ("error-verify-k2-nonmetric-squash", "verify k2.json nonmetric.json --theorem squash", 2),
    ("error-gravitate-t-inf", "gravitate p4.edges --t inf", 2),
    ("error-tolerance-inf", "stats p4.edges --tolerance inf", 2),
    ("error-tolerance-null", "stats tolerance-null.json", 2),
    ("error-tolerance-huge", "stats tolerance-huge.json", 2),
    ("error-table-huge", "stats table-huge.json", 2),
    ("error-table-bool", "stats table-bool.json", 2),
    ("error-table-string", "stats table-string.json", 2),
    ("error-points-bool", "stats points-bool.json", 2),
    ("error-unknown-command", "frobnicate", 2),
    ("error-no-arguments", "", 2),
    ("error-gravitate-needs-t", "gravitate p4.edges", 2),
    ("error-special-nonmetric-k2", "special nonmetric.json k2.json", 2),
    ("error-special-k2-nonmetric", "special k2.json nonmetric.json", 2),
]


# Where lexmetric was imported from, absolute: a relative PYTHONPATH such as
# src does not hold under the golden working directory.
_SRC_DIR = str(Path(lexmetric.__file__).resolve().parent.parent)


def _assert_golden(name, code, got_code, out, err):
    assert (got_code, out) == (code, (GOLDEN_DIR / f"{name}.out").read_text()), name
    err_file = GOLDEN_DIR / f"{name}.err"
    if err_file.exists():
        assert err == err_file.read_text(), name
    elif code in (0, 1):
        assert err == "", name


@functools.cache
def _golden_processes() -> dict:
    """Every row's process, queued in row order on one pool of a worker per CPU, by name."""
    pool = ThreadPoolExecutor(os.cpu_count() or 1)
    env = {**os.environ, "PYTHONPATH": _SRC_DIR}
    runs = {
        name: pool.submit(
            subprocess.run,
            [sys.executable, "-m", "lexmetric.cli", *command.split()],
            cwd=GOLDEN_DIR,
            env=env,
            capture_output=True,
            text=True,
        )
        for name, command, _ in GOLDEN
    }
    pool.shutdown(wait=False)
    return runs


@pytest.mark.parametrize("name, command, code", GOLDEN, ids=[case[0] for case in GOLDEN])
def test_golden_output(name, command, code):
    done = _golden_processes()[name].result()
    _assert_golden(name, code, done.returncode, done.stdout, done.stderr)


def test_golden_output_is_the_same_on_a_warm_memo(capsys, monkeypatch):
    """Every golden case run twice in one process: the second round finds each family
    and hitting-set component the first round stored."""
    monkeypatch.chdir(GOLDEN_DIR)
    for warm in (False, True):
        assert any(type(pickle.loads(key)) is list for key in resolving._TABLES) == warm
        for name, command, code in GOLDEN:
            _assert_golden(name, code, *run(capsys, command.split()))


# Every verify and corpus row that prints a document.
PAIR_DOCUMENTS = [
    (name, command)
    for name, command, code in GOLDEN
    if command.startswith(("verify ", "corpus ")) and "--json" in command and code != 2
]


@pytest.mark.parametrize("name, command", PAIR_DOCUMENTS, ids=[name for name, _ in PAIR_DOCUMENTS])
def test_json_golden_replays_from_its_inputs(name, command):
    """Each pair rebuilt from its document's "base" and "second" and checked again
    under the row's options gives the document's reports back."""
    doc = json.loads((GOLDEN_DIR / f"{name}.out").read_text())
    args = _build_parser().parse_args(command.split())
    checks = _THEOREMS["all" if args.command == "corpus" else args.theorem]
    for pair in doc["pairs"] if args.command == "corpus" else [doc]:
        base, second = space_from_json(pair["base"]), space_from_json(pair["second"])
        reports = [r.to_json_dict() for r in checks(args, base, second)]
        assert json.loads(json_text(reports)) == pair["reports"], name
