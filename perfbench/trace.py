"""Traced run: spans around each layer's entry points, plus a separate
ingest pass and an in-process kernel pass.

The program is not edited.  ``instrument`` swaps the module attributes
that ``run_dedup_pipeline`` looks up at call time for wrappers that
open a span, call the original, and materialise a returned
``Dataset`` so the span covers the layer's lazy work.  Ingest
(``read_files`` + ``prepare_stage``) is left unwrapped: the program
streams it fused into the parse, so the ``fingerprint`` span covers
read, prepare and parse together, as ``stage.fingerprint_s`` does.
``ingest_pass`` times ingest on its own, outside the traced call.
Spans are kept in memory and written out by the caller when the run
ends.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import statistics
import threading
import time
from dataclasses import asdict, dataclass

import numpy as np

#: per-layer metrics, in ``BENCHMARK.json`` order
LAYER_METRICS = {
    "ingest.busy_s": "s", "ingest.rows_out": "count",
    "fingerprint.busy_s": "s", "fingerprint.rows_in": "count",
    "fingerprint.units_out": "count", "fingerprint.files_per_s": "1/s",
    "words.busy_s": "s", "words.files_per_s": "1/s",
    "words.words_out": "count",
    "simhash.fold_rows_per_s": "1/s", "simhash.verify_pairs_per_s": "1/s",
    "candidates.sig_groups_s": "s", "candidates.distinct_sigs": "count",
    "candidates.edges_s": "s", "candidates.band_rows": "count",
    "candidates.pairs_examined": "count", "candidates.near_edges": "count",
    "candidates.verify_yield": "ratio", "candidates.max_bucket": "count",
    "candidates.max_partition_rows": "count",
    "candidates.membership_s": "s", "candidates.membership_edges": "count",
    "cluster.edge_pull_s": "s", "cluster.union_find_s": "s",
    "cluster.union_find_edges": "count", "cluster.refine_s": "s",
    "cluster.components": "count", "cluster.max_component": "count",
    "cluster.block_refine_s": "s", "cluster.clusters_out": "count",
    "stats.busy_s": "s",
    "checkpoint.shards_cached": "count",
    "checkpoint.shards_computed": "count", "checkpoint.shard_s": "s",
    "checkpoint.bytes_written": "B", "checkpoint.bytes_read": "B",
    "stage.fingerprint_s": "s", "stage.edges_s": "s",
    "stage.cluster_s": "s", "stage.stats_s": "s",
    "trace.overhead_s": "s", "trace.coverage": "ratio",
}


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str


class Tracer:
    """In-memory span recorder; spans nest per thread."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self.shard_walls: list[float] = []
        #: input shards the checkpoint plan left to compute
        self.todo_shards: list[str] = []
        #: materialised ``sig_groups`` output of the traced call
        self.sig_groups = None
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(
                    Span(sid, name, start, end, parent, self.run_id)
                )

    def add(self, key: str, value: float) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + value

    def self_times(self) -> dict[str, float]:
        """Span name → summed self time (duration minus the part of
        its interval that child spans cover)."""
        kids: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                kids.setdefault(s.parent, []).append(s)
        out: dict[str, float] = {}
        for s in self.spans:
            covered = _union_length(
                [(c.start, c.end) for c in kids.get(s.id, ())]
            )
            out[s.name] = out.get(s.name, 0.0) + (s.end - s.start) - covered
        return out

    def total(self, name: str) -> float:
        return sum(s.end - s.start for s in self.spans if s.name == name)

    def coverage(self, start: float, end: float) -> float:
        """Share of ``[start, end]`` covered by top-level spans."""
        tops = [(max(s.start, start), min(s.end, end))
                for s in self.spans if s.parent is None]
        return _union_length([iv for iv in tops if iv[1] > iv[0]]) / (end - start)

    def dump(self) -> list[dict]:
        return [asdict(s) for s in sorted(self.spans, key=lambda s: s.start)]


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap the layer entry points ``run_dedup_pipeline`` calls for the
    duration of the block; the originals are restored on exit."""
    import clonebas_ray.pipelines.dedup as dedup
    import clonebas_ray.stages.cluster as cluster
    import clonebas_ray.state.checkpoint as checkpoint

    patches = []

    def patch(owner, attr: str, name: str, materialize: bool = False,
              observe=None) -> None:
        fn = getattr(owner, attr, None)
        if fn is None:  # renamed upstream: the span is just missing
            return

        def wrapper(*args, **kwargs):
            with tracer.span(name):
                out = fn(*args, **kwargs)
                if materialize:
                    out = out.materialize()
            if observe:
                observe(args, out)
            return out

        patches.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def count(key: str):
        return lambda args, out: tracer.add(key, out.count())

    def sig_groups(args, out):
        tracer.add("candidates.distinct_sigs", out.count())
        tracer.sig_groups = out

    def union_find(args, out):
        tracer.add("cluster.union_find_edges", args[0].num_rows)
        sizes = np.bincount(np.fromiter(out.values(), np.int64, len(out)))
        tracer.add("cluster.components", int(np.count_nonzero(sizes)))
        tracer.counts["cluster.max_component"] = max(
            tracer.counts.get("cluster.max_component", 0),
            int(sizes.max(initial=0)))

    def record(args, out):  # (self, shard_path, rows, wall_s)
        with tracer._lock:
            tracer.shard_walls.append(args[3])

    def plan(args, out):  # (self, shards, ...) -> (cached dirs, todo)
        cached, todo = out
        tracer.todo_shards.extend(todo)
        # what the resume reads back: the manifest and every cached
        # shard's parquet files
        tracer.add("checkpoint.bytes_read",
                   _file_bytes(args[0].manifest_path)
                   + sum(_tree_bytes(d) for d in cached))

    patch(dedup, "fingerprint_stage", "fingerprint", True,
          count("fingerprint.units_out"))
    patch(dedup, "sig_groups", "candidates.sig_groups", True, sig_groups)
    patch(dedup, "candidate_edges", "candidates.edges", True,
          count("candidates.near_edges"))
    patch(dedup, "membership_edges", "candidates.membership", True,
          count("candidates.membership_edges"))
    patch(dedup, "union_find_clusters", "cluster.union_find",
          observe=union_find)
    patch(cluster, "refine_complete_linkage", "cluster.refine")
    # private helpers: wrapped so the top-level spans cover the wall
    patch(dedup, "_refine_assignment", "cluster.refine_meta")
    patch(dedup, "_apply_block_edge_filters", "cluster.edge_filter")
    patch(dedup, "_refine_block_assignments", "cluster.block_refine")
    patch(dedup, "_cluster_stats", "stats")
    patch(dedup, "checkpointed", "checkpoint.stage")
    patch(checkpoint, "write_parquet_empty_safe", "checkpoint.write")
    patch(checkpoint.ShardedCheckpoint, "plan", "checkpoint.plan",
          observe=plan)
    patch(checkpoint.ShardedCheckpoint, "record", "checkpoint.record",
          observe=record)
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


def _file_bytes(path: str) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _tree_bytes(path: str) -> int:
    return sum(_file_bytes(os.path.join(root, f))
               for root, _, files in os.walk(path) for f in files)


def ingest_pass(shards: list[str]) -> dict:
    """The ingest layer alone: ``read_files`` + ``prepare_stage`` over
    the shards the traced call fingerprinted, materialised."""
    from clonebas_ray.stages.ingest import (
        prepare_stage, read_files, read_split_blocks,
    )

    t0 = time.perf_counter()
    ds = prepare_stage(
        read_files(shards, override_num_blocks=read_split_blocks())
    ).materialize()
    busy = time.perf_counter() - t0
    return {"ingest.busy_s": busy, "ingest.rows_out": ds.count()}


def layer_busy(tracer: Tracer) -> dict[str, float]:
    """Layer (span-name prefix) → summed self time."""
    out: dict[str, float] = {}
    for name, t in tracer.self_times().items():
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + t
    return out


def band_census(sig_ds, config) -> dict:
    """Bucket shape of the LSH band join, from the ``sig_groups``
    output: band rows, pairs examined (sum of C(n,2) over buckets),
    largest bucket and the largest pairing partition, plus the
    bucket-pair index arrays for the in-process verify pass."""
    from clonebas_ray.functions.simhash import band_keys
    from clonebas_ray.stages.candidates import expand_bands

    sigs = sig_ds.select_columns(["sig_hi", "sig_lo"]).to_pandas()
    hi = sigs["sig_hi"].to_numpy(np.uint64)
    lo = sigs["sig_lo"].to_numpy(np.uint64)
    keys = band_keys(hi, lo, config.n_bands)
    pair_a, pair_b, sizes = [], [], []
    for b in range(config.n_bands):
        order = np.argsort(keys[:, b], kind="stable")
        k = keys[order, b]
        starts = np.flatnonzero(np.r_[True, k[1:] != k[:-1]])
        ends = np.r_[starts[1:], len(k)]
        for s, e in zip(starts, ends):
            if e - s > 1:
                sizes.append(e - s)
                ii, jj = np.triu_indices(e - s, 1)
                pair_a.append(order[s + ii])
                pair_b.append(order[s + jj])
    parts = expand_bands(sig_ds, config).select_columns(["band_part"])
    part_rows = np.bincount(parts.to_pandas()["band_part"].to_numpy())
    return {
        "hi": hi, "lo": lo,
        "pair_a": np.concatenate(pair_a) if pair_a else np.zeros(0, np.int64),
        "pair_b": np.concatenate(pair_b) if pair_b else np.zeros(0, np.int64),
        "band_rows": len(hi) * config.n_bands,
        "pairs_examined": int(sum(s * (s - 1) // 2 for s in sizes)),
        "max_bucket": int(max(sizes, default=1)),
        "max_partition_rows": int(part_rows.max()),
    }


def kernel_pass(files, config, census: dict) -> dict:
    """In-process (no Ray) word extraction, SimHash fold and Hamming
    verify over the workload's distinct ``(content, lang)`` inputs."""
    from clonebas_ray.functions.simhash import (
        WordVectorCache, fold_counts, hamming_pairs, pack_signature,
    )
    from clonebas_ray.functions.words import ExtractorRegistry

    distinct = sorted(set(zip(files["content"].to_pylist(),
                              files["lang"].to_pylist())))
    registry = ExtractorRegistry(ast_opt=config.ast_opt)
    rows: list[list[str]] = []
    n_words = 0
    t0 = time.perf_counter()
    for content, lang in distinct:
        ex = registry.get(lang)
        if config.block_mode:
            for blk in ex.extract_blocks(content):
                n_words += len(blk["words"])
                if blk["end"] - blk["begin"] > config.char_boundary:
                    rows.append(blk["words"])
        else:
            words = ex.extract(content)
            n_words += len(words)
            rows.append(words)
    words_s = time.perf_counter() - t0

    cache = WordVectorCache(config.weight_table(), config.seed,
                            config.word_hash)
    t0 = time.perf_counter()
    for i in range(0, len(rows), 2048):
        ids = [cache.ids(w) for w in rows[i:i + 2048]]
        vocab = len(cache.vocab)
        lens = np.fromiter((len(a) for a in ids), np.int64, len(ids))
        row_idx = np.repeat(np.arange(len(ids)), lens)
        flat = np.concatenate(ids) if lens.sum() else np.zeros(0, np.int64)
        counts = np.bincount(row_idx * vocab + flat,
                             minlength=len(ids) * vocab).reshape(len(ids), vocab)
        pack_signature(fold_counts(counts, cache.matrix, config.fold_threshold))
    fold_s = time.perf_counter() - t0

    hi, lo, a, b = census["hi"], census["lo"], census["pair_a"], census["pair_b"]
    t0 = time.perf_counter()
    d = hamming_pairs(hi[a], lo[a], hi[b], lo[b])
    np.count_nonzero(d <= max(config.t_high, config.t_normal))
    verify_s = time.perf_counter() - t0
    return {
        "words.busy_s": words_s,
        "words.files_per_s": len(distinct) / words_s,
        "words.words_out": n_words,
        "simhash.fold_rows_per_s": len(rows) / fold_s,
        "simhash.verify_pairs_per_s": len(a) / verify_s if len(a) else 0.0,
    }


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0
