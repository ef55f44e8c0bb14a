"""Shared numpy kernels (``functions/kernels.py``) — pure numpy, no Ray."""

import random

import numpy as np
import pyarrow as pa

from clonebas_ray.functions.kernels import (
    fib_bucket,
    sorted_runs,
    splitmix64,
    stream_min_labels,
    union_find,
)

KEYS = np.array(
    [0, 1, 2, 3, 0x9E3779B97F4A7C15, 2**63, 2**64 - 1,
     12345678901234567890, 0xDEADBEEFCAFEF00D],
    dtype=np.uint64,
)


def test_splitmix64_pinned_vectors():
    # splitmix64(0) is the well-known first output of a zero-seeded
    # splitmix64 generator
    want = [
        0xE220A8397B1DCDAF, 0x910A2DEC89025CC1, 0x975835DE1C9756CE,
        0x1D0B14E4DB018FED, 0x6E789E6AA1B965F4, 0x481EC0A212A9F3DB,
        0xE4D971771B652C20, 0xF959D46356AFD6E8, 0x901D4F652FB472CB,
    ]
    got = splitmix64(KEYS)
    assert got.dtype == np.uint64
    assert [int(v) for v in got] == want


def test_fib_bucket_pinned_vectors():
    want = {
        1: [0, 0, 0, 0, 0, 0, 0, 0, 0],
        7: [0, 4, 0, 5, 2, 4, 3, 5, 2],
        64: [0, 35, 6, 42, 52, 0, 28, 1, 35],
        1000: [0, 531, 966, 498, 572, 48, 564, 49, 507],
    }
    for n, buckets in want.items():
        got = fib_bucket(KEYS, n)
        assert got.dtype == np.int32
        assert got.tolist() == buckets
    # int64 keys bucket as their two's-complement uint64 view
    signed = KEYS.astype(np.int64)
    assert fib_bucket(signed, 7).tolist() == want[7]


def test_sorted_runs_ties():
    h = np.array([5, 3, 5, 3, 9, 5], dtype=np.uint64)
    d = np.array([7, 2, 1, 2, 4, 1], dtype=np.int64)
    order, starts, counts = sorted_runs(h, d)
    assert list(zip(h[order], d[order])) == [
        (3, 2), (3, 2), (5, 1), (5, 1), (5, 7), (9, 4)]
    # ties keep input order (stable)
    assert order.tolist() == [1, 3, 2, 5, 0, 4]
    assert starts.tolist() == [0, 2, 4, 5]
    assert counts.tolist() == [2, 2, 1, 1]
    # runs on the primary key only: each run's first row is its min d
    order, starts, counts = sorted_runs(h, d, run_keys=1)
    assert starts.tolist() == [0, 2, 5]
    assert counts.tolist() == [2, 3, 1]
    assert d[order][starts].tolist() == [2, 1, 4]


def test_sorted_runs_single_run_and_empty():
    order, starts, counts = sorted_runs(np.array([4, 4, 4]))
    assert order.tolist() == [0, 1, 2]
    assert starts.tolist() == [0]
    assert counts.tolist() == [3]
    for keys in [(np.empty(0, np.uint64),),
                 (np.empty(0, np.uint64), np.empty(0, np.int64))]:
        order, starts, counts = sorted_runs(*keys)
        assert len(order) == len(starts) == len(counts) == 0


def _components(roots: dict) -> set:
    groups: dict = {}
    for node, root in roots.items():
        groups.setdefault(root, set()).add(node)
    return {frozenset(g) for g in groups.values()}


def test_union_find_labels_independent_of_edge_order():
    int_edges = [(9, 4), (4, 7), (1, 2), (12, 30), (30, 11), (2, 5),
                 (7, 9), (40, 41)]
    str_edges = [(f"s{a:02d}", f"s{b:02d}") for a, b in int_edges]
    for edges in (int_edges, str_edges):
        want = None
        rng = random.Random(3)
        for _ in range(8):
            perm = edges[:]
            rng.shuffle(perm)
            perm = [(b, a) if rng.random() < 0.5 else (a, b)
                    for a, b in perm]
            # fed in several batches, like the streamed consumers
            cut = rng.randrange(len(perm) + 1)
            batches = [
                ([a for a, _ in part], [b for _, b in part])
                for part in (perm[:cut], perm[cut:])
            ]
            roots = union_find(batches)
            labels = {n: roots[n] for n in sorted(roots)}
            if want is None:
                want = labels
            assert labels == want
        # every root is the smallest member of its component
        for comp in _components(want):
            assert {want[n] for n in comp} == {min(comp)}
    assert _components(union_find([([9, 4, 1], [4, 7, 2])])) == {
        frozenset({4, 7, 9}), frozenset({1, 2})}


def test_union_find_empty_and_streamed_none():
    empty = pa.table({"sha_a": pa.array([], pa.string()),
                      "sha_b": pa.array([], pa.string())})
    assert union_find([]) == {}
    assert union_find(
        [(empty["sha_a"].to_pylist(), empty["sha_b"].to_pylist())]) == {}

    class Edges:
        """Stand-in for an edge Dataset's ``iter_batches``."""

        def __init__(self, table):
            self.table = table

        def iter_batches(self, batch_format, batch_size):
            assert batch_format == "pyarrow"
            for off in range(0, self.table.num_rows, batch_size):
                yield self.table.slice(off, batch_size)

    edges = pa.table({"doc_a": pa.array([5, 1, 8], pa.int64()),
                      "doc_b": pa.array([3, 2, 5], pa.int64())})
    out = stream_min_labels([None, Edges(edges), None])
    assert out["doc_id"].to_pylist() == [1, 2, 3, 5, 8]
    assert out["cluster_id"].to_pylist() == [1, 1, 3, 3, 3]
    empty_out = stream_min_labels([None])
    assert empty_out.num_rows == 0
    assert empty_out.schema.names == ["doc_id", "cluster_id"]
