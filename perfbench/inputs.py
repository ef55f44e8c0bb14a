"""Seeded input generator: sharded parquet plus each workload's planted
truth.

Runs in one process on one thread: Arrow's CPU pool is pinned to a
single thread while a corpus is built and written, so the bytes depend
on the seed alone.  The program under test only ever sees the parquet
shards written here.

The workload seed picks one of ``VARIANTS`` corpus variants
(``seed % VARIANTS``).  Every variant's expected cluster partition is
pinned in ``digests.json`` (regenerate with ``perfbench/pin.py``), so
the output check of every timed run compares against a pinned digest
whatever seed it is given.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

#: number of distinct corpus variants; seed n runs variant n % VARIANTS
VARIANTS = 32


@dataclass(frozen=True)
class Shape:
    """Corpus shape of one workload."""

    #: ``file_distinct`` uses ``generate_corpus`` families (~90%
    #: distinct contents); the others use ``generate_bench_corpus``
    #: (~4.8x content reuse)
    corpus: str
    files: int
    shards: int
    block_mode: bool
    #: checkpointed run (CLI default) instead of one-shot
    checkpoint: bool
    #: shards a seed run checkpoints during set-up (resume workloads)
    seed_shards: int = 0


SHAPES = {
    # parse-bound: ~90% distinct contents, so the per-actor sha memo
    # cannot hide word extraction; file-mode complete-linkage refine
    "file_distinct": Shape("families", 8000, 8, False, False),
    # block mode (the reference's default path): every file parsed with
    # extract_blocks, several units per file through candidates, the J4
    # edge filter and the block replay
    "block_dup": Shape("bench", 8000, 8, True, False),
    # checkpointed resume: 6 of 8 shards cached by the set-up seed run,
    # 2 computed; per-shard pipeline start-up and checkpoint I/O
    "file_resume": Shape("bench", 8000, 8, False, True, seed_shards=6),
}


@dataclass
class Inputs:
    workload: str
    variant: int
    input_dir: str
    shards: list[str]
    files: pa.Table
    #: planted expect_dup pairs ``(sha_a, sha_b)``, distinct shas
    dup_pairs: list[tuple[str, str]]

    @property
    def n_files(self) -> int:
        return self.files.num_rows


def _families(n_files: int, variant: int):
    from clonebas_ray.corpus import generate_corpus

    # 4 files per family (base + 3 variants, a quarter of the variants
    # exact copies) and as many negatives as family files
    return generate_corpus(
        n_base=max(4, n_files // 8), clones_per_base=3,
        n_negatives=max(4, n_files // 2), seed=variant,
    )


def _bench(n_files: int, variant: int):
    from clonebas_ray.corpus import generate_bench_corpus, generate_corpus

    files = generate_bench_corpus(n_files, seed=variant)
    # generate_bench_corpus replicates this base corpus under fresh
    # keys; its truth pairs therefore carry over to the bench corpus
    base = generate_corpus(
        n_base=max(50, n_files // 40), clones_per_base=3,
        n_negatives=max(50, n_files // 8), seed=variant,
    )
    if not set(files["content"].to_pylist()) <= set(
        base.files["content"].to_pylist()
    ):
        raise RuntimeError(
            "generate_bench_corpus no longer replicates its base corpus; "
            "the planted truth cannot be carried over"
        )
    return files, base


def _dup_pairs(truth_pairs: pa.Table) -> list[tuple[str, str]]:
    """Planted ``expect_dup`` pairs of distinct content."""
    pairs = set()
    for a, b, dup in zip(truth_pairs["sha_a"].to_pylist(),
                         truth_pairs["sha_b"].to_pylist(),
                         truth_pairs["expect_dup"].to_pylist()):
        if dup and a != b:
            pairs.add((min(a, b), max(a, b)))
    return sorted(pairs)


def generate(workload: str, seed: int, out_dir: str,
             n_files: int | None = None) -> Inputs:
    """Write ``out_dir/in/part-NNN.parquet`` for ``workload`` and return
    the inputs with their planted truth.  ``n_files`` overrides the
    workload's size (small runs for tests)."""
    shape = SHAPES[workload]
    variant = seed % VARIANTS
    n = n_files or shape.files
    threads = pa.cpu_count()
    pa.set_cpu_count(1)
    try:
        if shape.corpus == "families":
            tables = _families(n, variant)
            files = tables.files
        else:
            files, tables = _bench(n, variant)
        files = files.take(
            pa.array(np.random.default_rng(variant).permutation(files.num_rows))
        )
        in_dir = os.path.join(out_dir, "in")
        os.makedirs(in_dir)
        step = -(-files.num_rows // shape.shards)
        shards = []
        for i in range(shape.shards):
            path = os.path.join(in_dir, f"part-{i:03d}.parquet")
            pq.write_table(files.slice(i * step, step), path)
            shards.append(path)
    finally:
        pa.set_cpu_count(threads)
    return Inputs(workload, variant, in_dir, shards, files,
                  _dup_pairs(tables.truth_pairs))

