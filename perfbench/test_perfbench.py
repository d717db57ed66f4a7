"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

import run
import tracer
from workloads import WORKLOADS

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def last_json_line(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_workloads_match_benchmark_json():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_timed_run_reports_every_end_to_end_metric(name, capsys):
    assert run.main(["--workload", name, "--seed", "0", "--seconds", "0.2", "--trace", "0"]) == 0
    result = last_json_line(capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_traced_run_reports_every_per_layer_metric(name, capsys):
    assert run.main(["--workload", name, "--seed", "0", "--seconds", "0.2", "--trace", "1"]) == 0
    result = last_json_line(capsys)
    assert result["correct"] is True
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["metrics"]["resolving.metric_dimension.calls"]["value"] >= 2


def test_corrupted_basis_counts_as_failed():
    lx = run.import_lexmetric()
    workload = WORKLOADS["dim-products"]
    instance = next(workload.inputs(lx, 0, 1))
    dimension, basis = workload.run(lx, instance)
    good = run.Record(instance, 0.1, (dimension, basis), None, False)
    bad = run.Record(instance, 0.1, (dimension, basis[1:]), None, False)
    assert run.gate(workload, lx, [good]) == (0, True)
    assert run.gate(workload, lx, [bad]) == (1, False)


def test_failed_report_and_failed_corpus_count_as_failed():
    lx = run.import_lexmetric()
    graphs = WORKLOADS["verify-graphs"]
    pair = next(graphs.inputs(lx, 0, 1))
    reports = graphs.run(lx, pair)
    wrong = [reports[0].__class__(reports[0].theorem, 1, 2, False, {})] + reports[1:]
    assert run.gate(graphs, lx, [run.Record(pair, 0.1, reports, None, False)]) == (0, True)
    assert run.gate(graphs, lx, [run.Record(pair, 0.1, wrong, None, False)]) == (1, False)

    corpus = WORKLOADS["corpus-cli"]
    doc = json.dumps({"pairs": [{}] * corpus.pairs_per_call, "checks": 1, "failures": 1})
    assert run.gate(corpus, lx, [run.Record(5, 0.1, (1, doc), None, False)]) == (1, False)


def test_capped_operation_is_failed_but_not_incorrect():
    class Spin:
        def run(self, lx, item):
            end = time.perf_counter() + 5
            while time.perf_counter() < end:
                pass

    with run.TimeCap() as cap:
        record = run.run_op(cap, 0.05, Spin(), None, None)
    assert record.capped and record.seconds < 1
    assert run.gate(Spin(), None, [record]) == (1, True)


def test_renamed_private_function_is_reported_absent(monkeypatch):
    lx = run.import_lexmetric()
    monkeypatch.setitem(tracer.TRACED, "resolving.renamed", ("resolving", "_no_such_name"))
    spans = tracer.Tracer()
    with spans:
        lx.resolving.metric_dimension(lx.construct.discrete_metric(3))
    assert spans.absent == ["resolving.renamed"]
    metrics = spans.layer_metrics(1.0)
    assert metrics["resolving.renamed.calls"] == 0
    assert metrics["resolving.metric_dimension.calls"] == 1
    assert lx.resolving.metric_dimension is not None
    assert not hasattr(lx.resolving.metric_dimension, "__wrapped__")


def test_wrappers_reach_names_imported_by_other_modules():
    lx = run.import_lexmetric()
    spans = tracer.Tracer()
    with spans:
        assert hasattr(lx.theory.metric_dimension, "__wrapped__")
        assert hasattr(lx.twins.metric_dimension, "__wrapped__")
        assert hasattr(lx.cli.verify_all, "__wrapped__")
    assert not hasattr(lx.cli.verify_all, "__wrapped__")


def test_tail_leaves_ten_samples_beyond():
    assert run.tail([float(i) for i in range(1, 21)]) == (10.0, 50.0)
    assert run.tail([3.0, 1.0]) == (3.0, 100.0)
