"""Numpy primitives shared by every stage and op — the one home for
each of them.

* ``splitmix64`` — the splitmix64 finalizer, a bit mixer that makes
  modulo partitioning uniform on structured keys;
* ``fib_bucket`` — Fibonacci-hash bucket of a uint64 key (top 12 bits
  of ``h * 2^64/phi``, folded into ``n`` partitions);
* ``sorted_runs`` / ``run_starts`` — lexicographic sort plus the
  boundaries of equal-key runs, the shape every bucket-pairing and
  group-collapse kernel is built on;
* ``union_find`` — connected components with union by min key and
  path compression (``CloneSet.cpp:22-84``), fed edge batch by batch;
  ``stream_min_labels`` streams it from edge Datasets.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np
import pyarrow as pa

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def splitmix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer over a uint64 array (wrapping arithmetic)."""
    z = (x + _GOLDEN).astype(np.uint64)
    z ^= z >> np.uint64(30)
    z = (z * np.uint64(0xBF58476D1CE4E5B9)).astype(np.uint64)
    z ^= z >> np.uint64(27)
    z = (z * np.uint64(0x94D049BB133111EB)).astype(np.uint64)
    z ^= z >> np.uint64(31)
    return z


def fib_bucket(h: np.ndarray, n: int) -> np.ndarray:
    """Partition id in ``[0, n)`` of each uint64 key, as int32."""
    h = h.astype(np.uint64, copy=False)
    return (((h * _GOLDEN) >> np.uint64(52)) % np.uint64(n)).astype(
        np.int32)


def run_starts(*sorted_keys: np.ndarray) -> np.ndarray:
    """Start index of every run of equal rows in parallel arrays that
    are already sorted (a new run begins where ANY key changes)."""
    n = len(sorted_keys[0])
    new = np.zeros(n, dtype=bool)
    if n:
        new[0] = True
        for k in sorted_keys:
            new[1:] |= k[1:] != k[:-1]
    return np.flatnonzero(new)


def sorted_runs(
    *keys: np.ndarray, run_keys: int | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stable lexicographic sort by ``keys`` (PRIMARY key first — the
    reverse of ``np.lexsort``'s argument order) split into runs.

    Returns ``(order, starts, counts)``: ``order`` sorts the rows,
    ``starts`` indexes the sorted rows where each run begins and
    ``counts`` holds the run lengths.  Runs compare the leading
    ``run_keys`` keys (all of them by default), so ``sorted_runs(h,
    doc)`` groups rows by ``(h, doc)`` while ``sorted_runs(h, doc,
    run_keys=1)`` groups by ``h`` with each run's first row holding its
    smallest ``doc``."""
    if len(keys) == 1:
        order = np.argsort(keys[0], kind="stable")
    else:
        order = np.lexsort(keys[::-1])
    starts = run_starts(*(k[order] for k in keys[:run_keys]))
    counts = np.diff(np.append(starts, len(order)))
    return order, starts, counts


def union_find(
    edge_batches: Iterable[tuple[Sequence, Sequence]],
) -> dict:
    """Connected components over edges given batch by batch as
    ``(a_keys, b_keys)`` pairs of equal-length sequences.

    Returns ``{node: root}`` for every node on an edge, in first-seen
    order, where ``root`` is the smallest node of its component: union
    by min key keeps every root canonical, so the labels do not depend
    on edge order.  Keys may be any mutually ordered type (``str``
    shas, ``int`` ids).  Memory is O(nodes), never O(edges)."""
    parent: dict = {}

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:  # path compression
            parent[x], x = root, parent[x]
        return root

    for a_col, b_col in edge_batches:
        for a, b in zip(a_col, b_col):
            if a not in parent:
                parent[a] = a
            if b not in parent:
                parent[b] = b
            ra, rb = find(a), find(b)
            if ra != rb:
                if rb < ra:
                    ra, rb = rb, ra
                parent[rb] = ra
    return {x: find(x) for x in parent}


def stream_min_labels(
    edge_datasets: Iterable, cols: tuple[str, str] = ("doc_a", "doc_b"),
) -> pa.Table:
    """Streamed driver union-find over int-keyed edge Datasets
    (``None`` entries are skipped): ``iter_batches`` feeds edges
    straight into :func:`union_find`, so driver memory is O(nodes),
    not O(pairs).  Returns ``(doc_id, cluster_id)`` sorted by
    ``doc_id``, with ``cluster_id`` the smallest member id — the
    canonical label a SQL recursive-CTE min-label closure reproduces."""

    def batches():
        for ds in edge_datasets:
            if ds is None:
                continue
            for b in ds.iter_batches(
                batch_format="pyarrow", batch_size=65536
            ):
                yield b[cols[0]].to_pylist(), b[cols[1]].to_pylist()

    roots = union_find(batches())
    ids = sorted(roots)
    return pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "cluster_id": pa.array([roots[i] for i in ids], pa.int64()),
    })
