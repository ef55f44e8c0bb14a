"""Fingerprint stage: parse + shingle + SimHash as one actor-pool
``map_batches`` (SURVEY §2.2 M1-M7 fused).

The reference's per-TU Clang pass (``Main.cpp:441-454``) becomes a
callable-class actor: per-language extractors and the word→±weight
vector cache are built ONCE per actor in ``__init__`` (SURVEY §2.3
T1/T2) and reused across batches; the SimHash fold is one
``counts @ weighted_bits`` matmul per batch (``EigenWord.cpp:46-74``
semantics, bit-exact — see ``clonebas_ray.functions.simhash``).

Output schema (the ``fingerprints`` Dataset, FIXTURES.md §2):
``sha:string, file_key:string, repo/path/commit/lang:string,
token_num:int32, sig_hi:uint64, sig_lo:uint64, n_words:int32,
gen_fp:bool`` — ``content`` is consumed here and dropped, so nothing
downstream ever shuffles file bodies.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data

from clonebas_ray.config import PipelineConfig, DEFAULT_CONFIG
from clonebas_ray.functions.simhash import (
    WordVectorCache,
    fold_counts,
    pack_signature,
)
from clonebas_ray.functions.words import ExtractorRegistry

FINGERPRINT_SCHEMA = pa.schema(
    [
        ("sha", pa.string()),
        ("file_key", pa.string()),
        ("repo", pa.string()),
        ("path", pa.string()),
        ("commit", pa.string()),
        ("lang", pa.string()),
        ("token_num", pa.int32()),
        ("sig_hi", pa.uint64()),
        ("sig_lo", pa.uint64()),
        ("n_words", pa.int32()),
        ("gen_fp", pa.bool_()),
    ]
)

#: block-mode output layout (``FingerprintActor._call_blocks``); used
#: as the empty-shard fallback when every block in a shard falls below
#: the span gate and the stage emits zero rows
BLOCK_FINGERPRINT_SCHEMA = pa.schema(
    [
        ("sha", pa.string()),
        ("file_sha", pa.string()),
        ("file_key", pa.string()),
        ("lang", pa.string()),
        ("block_id", pa.int32()),
        ("fp_type", pa.int8()),
        ("token_num", pa.int32()),
        ("sig_hi", pa.uint64()),
        ("sig_lo", pa.uint64()),
        ("ancestors", pa.list_(pa.int32())),
        ("walk_pos", pa.int32()),
        ("gen_fp", pa.bool_()),
    ]
)


class FingerprintActor:
    """Stateful parse+fingerprint worker.

    ``__init__`` runs once per actor (extractors, weight-vector cache);
    ``__call__`` runs per Arrow batch and is fully vectorized after the
    per-row word extraction (the regex lexer is the irreducible
    per-row parser loop — the reference's Clang parse, ~10^3 tokens/file).
    """

    def __init__(self, config: PipelineConfig = DEFAULT_CONFIG):
        self.config = config
        self.registry = ExtractorRegistry(ast_opt=config.ast_opt)
        self.cache = WordVectorCache(
            config.weight_table(), config.seed, config.word_hash
        )
        #: per-actor exact-dup fast path: sha → word-id array.  Real
        #: corpora are duplicate-heavy; identical content parses once
        #: per actor.  Bounded FIFO so a pathological all-distinct
        #: stream can't grow the heap.  GRAFT_DISABLE_SHA_MEMO=1 turns
        #: it off — scaling benchmarks must, because hit rate rises as
        #: the pool shrinks (each actor sees more of the corpus), which
        #: biases small-pool throughput upward.
        import os

        self._sha_memo: dict[str, np.ndarray] = {}
        self._sha_memo_cap = (
            0 if os.environ.get("GRAFT_DISABLE_SHA_MEMO") == "1" else 50_000
        )

    #: above this vocabulary size the dense (batch x vocab) counts
    #: matrix is replaced by a scatter-add over word rows — text-mode
    #: vocabularies (one entry per distinct natural-language token) are
    #: unbounded and would OOM the matmul path
    _DENSE_VOCAB_LIMIT = 4096

    #: text-mode vocabularies grow without bound; past this size the
    #: word-vector cache (and the sha memo whose id arrays reference
    #: it) is rebuilt after the current batch — bounded actor heap at
    #: the cost of re-hashing words on later batches
    _VOCAB_RESET_LIMIT = 500_000

    def _maybe_reset_cache(self) -> None:
        if len(self.cache.vocab) > self._VOCAB_RESET_LIMIT:
            self.cache = WordVectorCache(
                self.config.weight_table(), self.config.seed,
                self.config.word_hash,
            )
            self._sha_memo.clear()

    def _fold(self, id_arrays: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        n = len(id_arrays)
        vocab_size = len(self.cache.vocab)
        if not (vocab_size and n):
            return (np.zeros(n, dtype=np.uint64), np.zeros(n, dtype=np.uint64))
        lens = np.fromiter((len(a) for a in id_arrays), dtype=np.int64, count=n)
        row_idx = np.repeat(np.arange(n, dtype=np.int64), lens)
        flat = (
            np.concatenate(id_arrays) if lens.sum() else np.empty(0, np.int64)
        )
        if vocab_size <= self._DENSE_VOCAB_LIMIT:
            counts = np.bincount(
                row_idx * vocab_size + flat, minlength=n * vocab_size
            ).reshape(n, vocab_size)
            bits = fold_counts(
                counts, self.cache.matrix, self.config.fold_threshold
            )
        else:
            sums = np.zeros((n, 128), dtype=np.int64)
            np.add.at(sums, row_idx, self.cache.matrix[flat])
            bits = sums > self.config.fold_threshold
        return pack_signature(bits)

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.config.block_mode:
            return self._call_blocks(batch)
        n = batch.num_rows
        contents = batch["content"].to_pylist()
        langs = batch["lang"].to_pylist()
        shas = batch["sha"].to_pylist()

        memo = self._sha_memo
        memo_cap = self._sha_memo_cap
        id_arrays: list[np.ndarray] = []
        for i in range(n):
            # key on (sha, lang): identical bytes lex differently
            # under another language profile
            key = (shas[i], langs[i])
            ids = memo.get(key)
            if ids is None:
                ids = self.cache.ids(
                    self.registry.get(langs[i]).extract(contents[i])
                )
                if memo_cap:
                    if len(memo) >= memo_cap:
                        memo.pop(next(iter(memo)))
                    memo[key] = ids
            id_arrays.append(ids)
        hi, lo = self._fold(id_arrays)
        self._maybe_reset_cache()
        lens = np.fromiter((len(a) for a in id_arrays), dtype=np.int32, count=n)

        token_num = batch["token_num"].to_numpy().astype(np.int32)
        out = pa.table(
            {
                "sha": batch["sha"],
                "file_key": batch["file_key"],
                "repo": batch["repo"],
                "path": batch["path"],
                "commit": batch["commit"],
                "lang": batch["lang"],
                "token_num": pa.array(token_num, pa.int32()),
                "sig_hi": pa.array(hi, pa.uint64()),
                "sig_lo": pa.array(lo, pa.uint64()),
                "n_words": pa.array(lens, pa.int32()),
                # emission gate: char span must EXCEED the boundary
                # (EigenWordGenerate.cpp:94; 200 per token_boundary_config)
                "gen_fp": pa.array(token_num > self.config.char_boundary),
            }
        )
        return out

    def _call_blocks(self, batch: pa.Table) -> pa.Table:
        """Block mode (reference default path): one output row per
        span-gated block; the ``sha`` column carries the unit key
        ``<file_sha>:<block_id>`` so every downstream stage (signature
        grouping, LSH pairing, clustering) works unchanged on block
        units.  Ancestor block ids ride along for the J4 edge filter.
        """
        contents = batch["content"].to_pylist()
        langs = batch["lang"].to_pylist()
        shas = batch["sha"].to_pylist()
        fkeys = batch["file_key"].to_pylist()

        id_arrays: list[np.ndarray] = []
        cols: dict[str, list] = {
            "sha": [], "file_sha": [], "file_key": [], "lang": [],
            "block_id": [], "fp_type": [], "token_num": [], "ancestors": [],
            "walk_pos": [],
        }
        boundary = self.config.char_boundary
        for i, content in enumerate(contents):
            blocks = self.registry.get(langs[i]).extract_blocks(content)
            parent_of = {b["block_id"]: b["parent_id"] for b in blocks}
            walk_pos = 0
            for b in blocks:
                span = b["end"] - b["begin"]
                if span <= boundary:
                    continue
                ancestors = []
                p = b["parent_id"]
                while p != -1:
                    ancestors.append(p)
                    p = parent_of.get(p, -1)
                id_arrays.append(self.cache.ids(b["words"]))
                cols["sha"].append(f"{shas[i]}:{b['block_id']}")
                cols["file_sha"].append(shas[i])
                cols["file_key"].append(fkeys[i])
                cols["lang"].append(langs[i])
                cols["block_id"].append(b["block_id"])
                cols["fp_type"].append(b["fp_type"])
                cols["token_num"].append(span)
                cols["ancestors"].append(ancestors)
                # emission order among this file's GATED blocks — the
                # reference's append order (post-order), which the
                # block-mode complete-linkage replay must reproduce
                cols["walk_pos"].append(walk_pos)
                walk_pos += 1
        hi, lo = self._fold(id_arrays)
        self._maybe_reset_cache()
        n = len(id_arrays)
        return pa.table(
            {
                "sha": pa.array(cols["sha"], pa.string()),
                "file_sha": pa.array(cols["file_sha"], pa.string()),
                "file_key": pa.array(cols["file_key"], pa.string()),
                "lang": pa.array(cols["lang"], pa.string()),
                "block_id": pa.array(cols["block_id"], pa.int32()),
                "fp_type": pa.array(cols["fp_type"], pa.int8()),
                "token_num": pa.array(cols["token_num"], pa.int32()),
                "sig_hi": pa.array(hi, pa.uint64()),
                "sig_lo": pa.array(lo, pa.uint64()),
                "ancestors": pa.array(cols["ancestors"], pa.list_(pa.int32())),
                "walk_pos": pa.array(cols["walk_pos"], pa.int32()),
                "gen_fp": pa.array([True] * n, pa.bool_()),
            }
        )


def fingerprint_stage(
    ds: ray.data.Dataset,
    config: PipelineConfig = DEFAULT_CONFIG,
    concurrency: int | tuple[int, int] | None = None,
    batch_size: int = 2048,
) -> ray.data.Dataset:
    """files (prepared) → fingerprints.  ``concurrency=None`` pins the
    actor pool to (cluster CPUs - 2): a fixed pool starts every actor
    immediately instead of autoscale-ramping, and the two spare CPUs
    keep the upstream read/key tasks schedulable — a pool reserving
    every CPU starves its own input and stalls the pipeline.  Pass an
    int/(min,max) to override."""
    if concurrency is None:
        import ray

        total = int(ray.cluster_resources().get("CPU", 4))
        if total < 2:
            # a 1-cpu session cannot run an actor-pool pipeline at all:
            # the single actor would hold the only CPU and the upstream
            # 1-cpu read task could never schedule — fail loud instead
            # of deadlocking silently
            raise ValueError(
                "fingerprint_stage needs a Ray session with >= 2 CPUs "
                f"(got {total}): the parse actor pool must leave at "
                "least one CPU free for its upstream read tasks"
            )
        # never let the pool take EVERY cpu — on a 2-3 cpu session a
        # 2-actor pool owns the whole cluster and the upstream read
        # task can never schedule (observed deadlock at num_cpus=2)
        concurrency = max(1, total - 2)
    return ds.map_batches(
        FingerprintActor,
        fn_constructor_kwargs={"config": config},
        batch_format="pyarrow",
        batch_size=batch_size,
        num_cpus=1,
        concurrency=concurrency,
        # the pool replaces failed actors itself; in-place actor
        # restart would need the ctor args kept alive in the object
        # store (core-worker warns about exactly that), so disable it
        max_restarts=0,
    )

