"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import graphgen  # noqa: E402
import run  # noqa: E402
from geometer.graph_store import make_graph  # noqa: E402
from tracer import EXACT_COUNTS, LAYER_METRICS  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("shape", [graphgen.CORA_ML, graphgen.MANYCLASS])
def test_generator_hits_the_stated_shape(shape):
    features, edges, labels = graphgen.make_cora_like(shape, seed=3)
    g = make_graph(features, edges, labels)
    assert g.node_count == shape.nodes
    assert g.edge_count == shape.edges          # distinct, no self-loops
    assert g.feature_dim == shape.features
    assert sorted(np.bincount(labels).tolist(), reverse=True) == list(shape.class_sizes)
    assert set(np.unique(features).tolist()) == {0.0, 1.0}
    assert np.count_nonzero(features) / features.size < graphgen.SPARSE_DENSITY_LIMIT
    assert g.features_sparse() is not None      # the CSR layer-0 path is taken
    same_class = np.mean(labels[edges[:, 0]] == labels[edges[:, 1]])
    assert same_class > 0.6


def test_generator_is_deterministic_under_its_seed():
    a = graphgen.make_cora_like(graphgen.MANYCLASS, seed=5)
    b = graphgen.make_cora_like(graphgen.MANYCLASS, seed=5)
    c = graphgen.make_cora_like(graphgen.MANYCLASS, seed=6)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not np.array_equal(a[1], c[1])


def test_benchmark_json_names_every_metric():
    assert {m["name"] for m in BENCHMARK["end_to_end"]} == set(run.E2E_UNITS)
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == {
        name: w.why for name, w in run.WORKLOADS.items()}
    layer_names = [name for name, _, _ in LAYER_METRICS] + ["trace_overhead_frac"]
    assert [m["name"] for m in BENCHMARK["per_layer"]] == layer_names
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
    assert all(units[name] == unit for name, unit in run.E2E_UNITS.items())
    assert all(units[name] == unit for name, unit, _ in LAYER_METRICS)


@pytest.fixture()
def tiny(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    monkeypatch.setattr(run, "OUT", tmp_path / "out")
    config = dict(base_class_count=2, novel_per_session=1, num_sessions=2, k_shot=5,
                  hidden_dim=16, embedding_dim=8, class_attention_heads=2,
                  k_max=8, k_qry=10, episodes_pretrain=30, episodes_finetune=10)
    monkeypatch.setitem(run.WORKLOADS, "tiny", run.Workload(
        why="test", config=config, shape=None, nominal_rep_s=1.0))
    return config


def test_untraced_smoke_run_emits_every_end_to_end_metric(tiny):
    record = run.measure("tiny", seed=0, seconds=2, trace=False)
    assert record["failed"] == 0 and record["attempted"] > 0
    assert set(record["metrics"]) == set(run.E2E_UNITS)
    assert all(np.isfinite(m["value"]) and m["value"] > 0 for m in record["metrics"].values())


def test_traced_smoke_run_emits_every_layer_metric(tiny):
    record = run.measure("tiny", seed=0, seconds=4, trace=True)
    assert record["failed"] == 0, record["problems"]
    metrics = {k: m["value"] for k, m in record["metrics"].items()}
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(metrics)
    assert metrics["graph_store.load_calls"] == 3
    assert metrics["graph_store.stream_build_calls"] == 3
    assert metrics["episodes.sample_calls"] == 30 + 2 * 10
    assert metrics["optim.step_calls"] == metrics["diffmath.backward_calls"] == 30 + 2 * 10
    assert 0 < metrics["backbone.useful_row_frac"] <= 1
    assert all(metrics[key] > 0 for key in EXACT_COUNTS)
    assert (run.OUT / "tiny-seed0-spans.jsonl").is_file()


def test_failed_command_is_counted(tiny):
    tiny["num_sessions"] = 9                     # more novel classes than the data has
    record = run.measure("tiny", seed=0, seconds=2, trace=False)
    assert record["failed"] > 0
    assert any("CliError" in p for p in record["problems"])


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "demo_stream",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
