"""Tests of the benchmark itself: small runs of every workload, checked
against the sequential oracle, and the output check's failure path.

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pyarrow as pa
import pytest

from perfbench import checks, inputs, trace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SMALL = 240


def _bench_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def _run(workload: str, trace_flag: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "37", "--seconds", "1", "--trace", str(trace_flag),
         "--files", str(SMALL)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload,trace_flag", [
    ("file_distinct", 1), ("block_dup", 1), ("file_resume", 1),
    ("file_distinct", 0),
])
def test_small_run_matches_oracle(workload, trace_flag):
    """Every call's partition equals the sequential oracle's (small
    corpora take their expected digest from the oracle)."""
    out = _run(workload, trace_flag)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    spec = _bench_spec()
    names = [m["name"] for m in
             spec["per_layer" if trace_flag else "end_to_end"]]
    assert list(out["metrics"]) == names
    for name, unit in zip(names, (m["unit"] for m in spec[
            "per_layer" if trace_flag else "end_to_end"])):
        assert out["metrics"][name]["unit"] == unit
    if trace_flag and workload == "file_resume":
        m = out["metrics"]
        assert m["checkpoint.shards_cached"]["value"] == 6
        assert m["checkpoint.shards_computed"]["value"] == 2


def test_benchmark_json_lists_trace_metrics():
    spec = _bench_spec()
    assert [m["name"] for m in spec["per_layer"]] == list(trace.LAYER_METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(inputs.SHAPES)


def _shard_bytes(inp: inputs.Inputs) -> bytes:
    out = b""
    for path in inp.shards:
        with open(path, "rb") as f:
            out += f.read()
    return out


def test_generator_is_seeded(tmp_path):
    a = inputs.generate("block_dup", 3, str(tmp_path / "a"), SMALL)
    b = inputs.generate("block_dup", 3 + inputs.VARIANTS,
                        str(tmp_path / "b"), SMALL)
    c = inputs.generate("block_dup", 4, str(tmp_path / "c"), SMALL)
    assert _shard_bytes(a) == _shard_bytes(b)
    assert _shard_bytes(a) != _shard_bytes(c)
    assert a.dup_pairs == b.dup_pairs and a.dup_pairs


def test_pins_cover_every_variant():
    pins = checks.load_pins()
    for workload in inputs.SHAPES:
        assert sorted(pins[workload], key=int) == [
            str(v) for v in range(inputs.VARIANTS)]


def _oracle_tables(files: pa.Table) -> tuple[pa.Table, pa.Table]:
    """Cluster and high-tier edge tables in the pipeline's layout, from
    the oracle."""
    from clonebas_ray.config import PipelineConfig
    from clonebas_ray.oracle import run_oracle

    res = run_oracle(files.to_pylist())
    shas, cids = [], []
    for cid, members in enumerate(res.clusters["high"]):
        member_shas = sorted({res.fingerprints[i].sha for i in members})
        if len(member_shas) > 1:
            shas += member_shas
            cids += [cid] * len(member_shas)
    clusters = pa.table({"sha": shas, "cluster_id": pa.array(cids, pa.int64()),
                         "tier": pa.array([1] * len(shas), pa.int8())})
    fps = res.fingerprints
    high = [(fps[i].sha, fps[j].sha) for i, j, d in res.edges
            if d <= PipelineConfig().t_high]
    edges = pa.table({"sha_a": [a for a, _ in high],
                      "sha_b": [b for _, b in high]})
    return clusters, edges


def test_perturbed_output_fails(tmp_path):
    inp = inputs.generate("file_distinct", 5, str(tmp_path), SMALL)
    expected = checks.oracle_digest(inp.files, block_mode=False)
    clusters, edges = _oracle_tables(inp.files)
    assert checks.check_result(clusters, edges, inp.dup_pairs, expected)[0]

    # move one clustered sha into a cluster of its own
    a = clusters["sha"][0].as_py()
    cids = clusters["cluster_id"].to_pylist()
    moved = [c if s != a else max(cids) + 1
             for s, c in zip(clusters["sha"].to_pylist(), cids)]
    perturbed = clusters.set_column(
        1, "cluster_id", pa.array(moved, pa.int64()))
    ok, detail = checks.check_result(perturbed, edges, inp.dup_pairs,
                                     expected)
    assert not ok and detail["digest"] != expected

    # same partition, renumbered: still passes
    renumbered = clusters.set_column(
        1, "cluster_id", pa.array([c + 7 for c in cids], pa.int64()))
    assert checks.check_result(renumbered, edges, inp.dup_pairs, expected)[0]

    # edges missing the planted pairs: recall fails
    ok, detail = checks.check_result(clusters, edges.slice(0, 0),
                                     inp.dup_pairs, expected)
    assert not ok and detail["recall"] == 0.0
