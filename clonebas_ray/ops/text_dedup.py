"""Deduplication family over document tables (doc_id, text, ...).

Five operators, each streaming Ray Data pipelines:

* exact dedup        — content-hash groupby, keep min doc_id;
* SimHash near-dup   — the flagship clone pipeline in ``text`` word
                       mode (tokens as eigen words), reusing the LSH
                       candidate join + Hamming verify + union-find;
* MinHash + LSH      — shingle → one-permutation 128-slot minhash →
                       banded buckets → groupby → candidate pairs →
                       exact Jaccard verify → union-find clusters;
* winnowing substring — K-gram window-min fingerprints (suffix-array
                       common-substring modality, sampled);
* n-gram Jaccard     — the verify kernel, exposed standalone;
* embedding cosine   — see ``clonebas_ray.ops.similarity``.

All per-batch kernels are vectorized numpy; per-actor state
(token-id caches) is built once in ``__init__``.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data

from clonebas_ray.bootstrap import ensure_worker_importable

from clonebas_ray.functions.kernels import (
    fib_bucket, sorted_runs, splitmix64, stream_min_labels,
)
from clonebas_ray.functions.murmur3 import hash128, md5_low64


def add_content_hash(
    ds: ray.data.Dataset, text_col: str = "text", algo: str = "md5"
) -> ray.data.Dataset:
    """Append ``content_hash`` (hex digest of the text column)."""

    def per_batch(batch: pa.Table) -> pa.Table:
        h = [
            getattr(hashlib, algo)(t.encode("utf-8", "surrogatepass")).hexdigest()
            for t in batch[text_col].to_pylist()
        ]
        return batch.append_column("content_hash", pa.array(h, pa.string()))

    return ds.map_batches(per_batch, batch_format="pyarrow")


def exact_dedup_docs(
    ds: ray.data.Dataset, id_col: str = "doc_id", text_col: str = "text"
) -> ray.data.Dataset:
    """doc table → (content_hash, rep_id, n_dups): one row per distinct
    content, keeping the smallest id as representative.

    Pattern: hash in ``map_batches`` → per-batch partial (min id,
    count) → hash-BUCKETED merge (a vectorized pandas groupby per
    bucket, not one ``map_groups`` call per distinct hash — at 10⁶
    distinct contents the per-group path paid ~990k Python calls and
    dominated the 1M smoke at 71 s; bucketed it's 2.5 s).  Full rows
    never shuffle.
    """
    ensure_worker_importable()
    from clonebas_ray.ops.relational import auto_partitions

    P = auto_partitions()
    hashed = add_content_hash(ds, text_col)

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.select(["content_hash", id_col]).to_pandas()
        g = (
            df.groupby("content_hash", sort=False)[id_col]
            .agg(["min", "size"])
            .reset_index()
        )
        g.columns = ["content_hash", "rep_id", "n_dups"]
        kh = pd.util.hash_pandas_object(
            g["content_hash"], index=False
        ).to_numpy()
        g["__bucket"] = (kh % np.uint64(P)).astype(np.int32)
        return pa.Table.from_pandas(
            g, preserve_index=False
        ).replace_schema_metadata(None)

    def merge_bucket(g: pd.DataFrame) -> pd.DataFrame:
        out = (
            g.groupby("content_hash", sort=False)
            .agg(rep_id=("rep_id", "min"), n_dups=("n_dups", "sum"))
            .reset_index()
        )
        out["rep_id"] = out["rep_id"].astype(g["rep_id"].dtype)
        out["n_dups"] = out["n_dups"].astype("int64")
        return out

    return (
        hashed.map_batches(partial, batch_format="pyarrow")
        .groupby("__bucket")
        .map_groups(merge_bucket, batch_format="pandas")
    )


def dedup_report(
    ds: ray.data.Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    source_col: str = "source",
    chars_col: str = "n_chars",
) -> ray.data.Dataset:
    """Per-source exact-duplicate mass report: for each source, how
    many docs it contributes, how many distinct contents appear in it,
    and how many of its docs (and chars) are duplicates of a GLOBAL
    keeper (min ``id_col`` per content hash, across all sources).  The
    standard post-dedup accounting table (what fraction of each crawl
    / dump survives exact dedup — cf. RefinedWeb Table 2's removal
    rates).

    Exchange is byte-bound like `exact_dedup_docs`: one partial row
    per distinct ``(content_hash, source)`` per block — ``(hash, src,
    n, chars, argmin id, argmin chars)`` — bucketed by hash so each
    bucket resolves its keepers locally; text never shuffles.  The
    final groupby(source) output is O(#sources) rows.

    Returns ``(source, n_docs, n_contents, n_dup_docs, dup_chars)``
    where ``n_dup_docs`` counts rows whose id is not the global keeper
    of their content and ``dup_chars`` sums their ``chars_col``.
    """
    ensure_worker_importable()
    from clonebas_ray.ops.relational import auto_partitions

    P = auto_partitions()
    hashed = add_content_hash(
        ds.select_columns([id_col, text_col, source_col, chars_col]),
        text_col,
    )

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.select(
            ["content_hash", id_col, source_col, chars_col]
        ).to_pandas()
        # argmin rows first: after sorting by id, first() per group is
        # the block-local keeper candidate (and its char count)
        df = df.sort_values(id_col, kind="stable")
        g = (
            df.groupby(["content_hash", source_col], sort=False)
            .agg(
                n=(id_col, "size"),
                chars=(chars_col, "sum"),
                min_id=(id_col, "first"),
                min_chars=(chars_col, "first"),
            )
            .reset_index()
        )
        kh = pd.util.hash_pandas_object(
            g["content_hash"], index=False
        ).to_numpy()
        g["__bucket"] = (kh % np.uint64(P)).astype(np.int32)
        return pa.Table.from_pandas(
            g, preserve_index=False
        ).replace_schema_metadata(None)

    def merge_bucket(g: pd.DataFrame) -> pd.DataFrame:
        # global per-(hash, source) rows for this bucket
        g = g.sort_values("min_id", kind="stable")
        hs = (
            g.groupby(["content_hash", source_col], sort=False)
            .agg(
                n=("n", "sum"),
                chars=("chars", "sum"),
                min_id=("min_id", "first"),
                min_chars=("min_chars", "first"),
            )
            .reset_index()
        )
        # the keeper row of each hash is the (hash, source) row holding
        # the globally smallest id — hs is min_id-sorted, so first()
        hs = hs.sort_values("min_id", kind="stable")
        keep = hs.groupby("content_hash", sort=False).head(1)
        is_keep = hs.index.isin(keep.index)
        out = pd.DataFrame(
            {
                source_col: hs[source_col],
                "n_docs": hs["n"].astype("int64"),
                "n_contents": np.int64(1),
                "n_dup_docs": (hs["n"] - is_keep).astype("int64"),
                "dup_chars": (
                    hs["chars"] - np.where(is_keep, hs["min_chars"], 0)
                ).astype("int64"),
            }
        )
        return out

    def src_sum(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                source_col: [g[source_col].iloc[0]],
                "n_docs": [int(g["n_docs"].sum())],
                "n_contents": [int(g["n_contents"].sum())],
                "n_dup_docs": [int(g["n_dup_docs"].sum())],
                "dup_chars": [int(g["dup_chars"].sum())],
            }
        )

    return (
        hashed.map_batches(partial, batch_format="pyarrow")
        .groupby("__bucket")
        .map_groups(merge_bucket, batch_format="pandas")
        .groupby(source_col)
        .map_groups(src_sum, batch_format="pandas")
    )


#: max total candidate-doc text bytes shared as one plasma lookup in
#: the MinHash verify; above it the verify falls back to bucketed
#: text hash-joins (per-task memory stays bucket-bound).  Sized so a
#: worker node comfortably mmaps the lookup once.  The env override
#: exists for fallback-path smokes/A-Bs (forcing 0 routes every
#: consumer — MinHash verify, token_bag verify + expansion — through
#: its bucketed-join branch on any corpus size).
_VERIFY_LOOKUP_BUDGET = int(os.environ.get(
    "CLONEBAS_VERIFY_LOOKUP_BUDGET", 4 << 30))


@ray.remote
def _tab_nbytes(t: pa.Table) -> int:
    return t.nbytes


@ray.remote
def _concat_sorted_by_id(*tabs: pa.Table) -> pa.Table:
    """One object-store lookup table (doc_id-sorted) from per-block
    candidate-doc tables — built worker-side so the driver never
    holds the text."""
    import pyarrow.compute as _pc

    live = [t for t in tabs if t.num_rows]
    if not live:
        return pa.table({
            "doc_id": pa.array([], pa.int64()),
            "text": pa.array([], pa.string()),
        })
    t = pa.concat_tables(live, promote_options="default")
    return t.take(_pc.sort_indices(t, sort_keys=[("doc_id", "ascending")]))


def _shingle_hashes(tokens: list[int], k: int) -> np.ndarray:
    """k-token shingle hashes from per-token 64-bit hashes via a
    rolling polynomial (vectorized)."""
    arr = np.asarray(tokens, dtype=np.uint64)
    n = len(arr)
    if n < k:
        # token-less docs have NO shingles (an empty set, matching
        # shingle_set('') == set() and the SQL oracle's empty list —
        # a sentinel hash here would band-collide every empty doc)
        return arr[:1] if n else np.empty(0, dtype=np.uint64)
    # polynomial combine: sum token_hash * B^pos over window
    B = np.uint64(0x100000001B3)  # FNV prime as the mix base
    acc = np.zeros(n - k + 1, dtype=np.uint64)
    for off in range(k):
        acc = acc * B + arr[off : n - k + 1 + off]
    return np.unique(acc)


class MinHasher:
    """Stateful minhash worker (token-id cache lives per actor):
    emits banded bucket keys per doc via one-permutation hashing.
    ``seed`` is kept for API stability; OPH derives everything from
    the shingle hashes themselves.
    """

    def __init__(self, num_perm: int = 128, shingle_k: int = 5,
                 n_bands: int = 32, seed: int = 7,
                 emit_set_key: bool = False):
        self.num_perm = num_perm
        self.k = shingle_k
        self.n_bands = n_bands
        self.rows_per_band = num_perm // n_bands
        self.emit_set_key = emit_set_key
        self._token_cache: dict[str, int] = {}

    def _token_ids(self, text: str) -> list[int]:
        cache = self._token_cache
        out = []
        for t in text.split():
            h = cache.get(t)
            if h is None:
                h = hash128(t, 0x1234)[0]
                cache[t] = h
            out.append(h)
        return out

    #: rotation-densification step offset (any odd constant; keeps a
    #: value borrowed across k empty bins distinct from the same value
    #: borrowed across a different distance)
    _DENSE_C = np.uint64(0x9E3779B97F4A7C15)

    def signature(self, text: str) -> np.ndarray:
        return self._signatures_batch([text])[0]

    def _signatures_batch(self, texts: list[str]) -> np.ndarray:
        return self._signatures_batch_masked(texts)[0]

    def set_key(self, text: str) -> int:
        toks = self._token_ids(text)
        return int(self._shingle_set_key(toks, _shingle_hashes(toks, self.k)))

    def _shingle_set_key(self, toks: list[int], sh: np.ndarray) -> np.uint64:
        """64-bit key with the invariant: equal key ⟺ (w.h.p.) equal
        exact-Jaccard shingle set, i.e. ``shingle_set(a) ==
        shingle_set(b)`` ⇒ Jaccard exactly 1 ⇒ any threshold passes.
        For >= k tokens, ``sh`` (sorted unique shingle hashes) IS the
        set, so a commutative multiset hash of it is canonical.  A
        < k-token doc's single shingle is the WHOLE joined token
        sequence (``shingle_set``), but ``sh`` only carries the first
        token's hash — key on the full ordered token-hash sequence
        instead (position-salted, domain-tagged so short and long docs
        never collide)."""
        if len(toks) < self.k:
            v = np.asarray(toks, dtype=np.uint64)
            v = v + np.arange(len(v), dtype=np.uint64) * np.uint64(
                0xA5A5A5A5A5A5A5A5
            )
            tag = np.uint64(0xDEADBEEFCAFEF00D)
        else:
            v = sh
            tag = np.uint64(0)
        acc = splitmix64(v).sum(dtype=np.uint64) if len(v) else np.uint64(0)
        return splitmix64(
            np.array([acc ^ tag ^ np.uint64(len(v))], dtype=np.uint64)
        )[0]

    def _signatures_batch_masked(
        self, texts: list[str], want_keys: bool = False
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """One-permutation hashing (Li et al., NIPS 2012) with rotation
        densification (Shrivastava & Li, ICML 2014): each shingle is
        hashed ONCE; its top bits pick one of ``num_perm`` bins and
        the per-bin minimum is the signature slot; empty bins borrow
        cyclically from the next filled bin with a per-step offset.
        O(shingles) per doc instead of O(shingles * num_perm) — the
        classic k-permutation scheme spent ~100x more CPU in the
        (shingles, 128) multiply-mod matrix for the same LSH quality
        (pairs are still verified by EXACT Jaccard downstream)."""
        P = self.num_perm
        shift = np.uint64(64 - int(P).bit_length() + 1)  # top log2(P) bits
        n = len(texts)
        MAX = np.uint64(0xFFFFFFFFFFFFFFFF)
        sigs = np.full((n, P), MAX, dtype=np.uint64)
        nonempty = np.ones(n, dtype=bool)
        set_keys = np.zeros(n, dtype=np.uint64) if want_keys else None
        for i, t in enumerate(texts):
            toks = self._token_ids(t)
            sh = _shingle_hashes(toks, self.k)
            if not len(sh):
                nonempty[i] = False
                sigs[i] = 0
                continue
            if want_keys:
                set_keys[i] = self._shingle_set_key(toks, sh)
            bins = (sh >> shift).astype(np.int64)
            np.minimum.at(sigs[i], bins, sh)
        # densify empty bins (vectorized per doc; P is tiny)
        for i in range(n):
            if not nonempty[i]:
                continue
            row = sigs[i]
            empty = row == MAX
            if not empty.any():
                continue
            filled = np.flatnonzero(~empty)
            ej = np.flatnonzero(empty)
            # next filled bin to the right, cyclic
            pos = np.searchsorted(filled, ej)
            src = filled[pos % len(filled)]
            steps = (src - ej) % P
            row[ej] = row[src] + steps.astype(np.uint64) * self._DENSE_C
        return sigs, nonempty, set_keys

    def __call__(self, batch: pa.Table) -> pa.Table:
        all_ids = batch["doc_id"].to_pylist()
        texts = batch["text"].to_pylist()
        sigs, nonempty, set_keys = self._signatures_batch_masked(
            texts, want_keys=self.emit_set_key
        )
        # shingle-less docs emit NO bands: they have no Jaccard
        # evidence, and the SQL oracle's shingle self-join can never
        # pair them — a shared sentinel signature would band-collide
        # every empty doc and emit pairs the oracle cannot
        ids = [d for d, ok in zip(all_ids, nonempty) if ok]
        sigs = sigs[nonempty]
        if self.emit_set_key:
            set_keys = set_keys[nonempty]
        if not ids:
            cols = {"band_key": pa.array([], pa.uint64()),
                    "doc_id": pa.array([], pa.int64())}
            if self.emit_set_key:
                cols["set_key"] = pa.array([], pa.uint64())
            return pa.table(cols)
        # band hash: fold each band's rows into one uint64
        r = self.rows_per_band
        bands = sigs.reshape(len(ids), self.n_bands, r)
        folded = np.zeros((len(ids), self.n_bands), dtype=np.uint64)
        for i in range(r):
            folded = folded * np.uint64(0x100000001B3) + bands[:, :, i]
        band_idx = np.tile(np.arange(self.n_bands, dtype=np.uint64), len(ids))
        doc_rep = np.repeat(np.asarray(ids, dtype=np.int64), self.n_bands)
        cols = {
            "band_key": pa.array(
                (band_idx << np.uint64(56))
                ^ (folded.reshape(-1) & np.uint64((1 << 56) - 1)),
                pa.uint64(),
            ),
            "doc_id": pa.array(doc_rep, pa.int64()),
        }
        if self.emit_set_key:
            cols["set_key"] = pa.array(
                np.repeat(set_keys, self.n_bands), pa.uint64()
            )
        return pa.table(cols)


def jaccard(tokens_a: set, tokens_b: set) -> float:
    """n-gram Jaccard similarity (exposed standalone as the verify
    kernel)."""
    if not tokens_a and not tokens_b:
        return 1.0
    inter = len(tokens_a & tokens_b)
    return inter / (len(tokens_a) + len(tokens_b) - inter)


def shingle_set(text: str, k: int = 5) -> set:
    toks = text.split()
    if len(toks) < k:
        return {" ".join(toks)} if toks else set()
    return {" ".join(toks[i : i + k]) for i in range(len(toks) - k + 1)}


def minhash_lsh_pairs(
    docs: ray.data.Dataset,
    num_perm: int = 128,
    shingle_k: int = 5,
    n_bands: int = 32,
    threshold: float = 0.8,
    concurrency: int | tuple[int, int] | None = None,
    max_pairs_per_task: int | None = None,
) -> ray.data.Dataset:
    """documents → verified near-dup pairs (doc_a, doc_b, jaccard).

    Shuffle layout mirrors the flagship: banded keys → groupby → bucket
    candidate pairs; verification (exact Jaccard on shingle sets)
    re-reads only candidate docs via two bucketed hash joins of the
    candidate-pair table against the doc table keyed by doc_id — the
    doc table is never materialized on the driver or broadcast, so the
    path holds at 100 TB (candidate volume, not corpus volume, is what
    moves).

    Scale note: PAIR enumeration is inherently quadratic within a
    duplicate family (a 10^4-copy boilerplate doc defines ~10^8 valid
    pairs — the SQL definition emits them too, so this operator's
    output is pinned to that shape).  For corpus-scale dedup consume
    ``minhash_dedup_clusters`` / ``dedup_filter`` instead: they
    collapse identical shingle sets to one banded representative (the
    flagship ``sig_groups`` pattern) and stay linear in duplicate
    family size.  ``max_pairs_per_task`` is the fail-fast memory
    guard: raise instead of OOM when one pairing task would
    materialize more than that many candidate pairs.
    """
    pairs, _ = _minhash_pipeline(
        docs, num_perm=num_perm, shingle_k=shingle_k, n_bands=n_bands,
        threshold=threshold, concurrency=concurrency, collapse=False,
        max_pairs_per_task=max_pairs_per_task,
    )
    return pairs


def _distinct_pairs(a: np.ndarray, b: np.ndarray) -> pa.Table:
    """Sorted distinct ``(doc_a, doc_b)`` rows of two id arrays."""
    order, starts, _ = sorted_runs(a, b)
    keep = order[starts]
    return pa.table({
        "doc_a": pa.array(a[keep], pa.int64()),
        "doc_b": pa.array(b[keep], pa.int64()),
    })


def _minhash_pipeline(
    docs: ray.data.Dataset,
    num_perm: int,
    shingle_k: int,
    n_bands: int,
    threshold: float,
    concurrency: int | tuple[int, int],
    collapse: bool,
    max_pairs_per_task: int | None,
) -> tuple[ray.data.Dataset, ray.data.Dataset | None]:
    """Shared banded-LSH pipeline.  ``collapse=True`` is the 100-TB
    path: docs with an identical exact-Jaccard shingle set (equal
    ``set_key``) band ONLY their representative (min doc_id), so a
    10^4-copy boilerplate family costs one bucket row per band instead
    of ~10^8 candidate pairs; the members come back as a second
    dataset of (rep, member) edges whose Jaccard is exactly 1 by
    construction — connected components over (rep pairs ∪ member
    edges) equal those of the full enumeration, because every
    cross-family pair has the same Jaccard as its rep pair."""
    ensure_worker_importable()
    from clonebas_ray.ops.relational import auto_partitions

    P = auto_partitions()  # pairing partitions (~4/core; amortizes tiny buckets)

    # MinHasher as a task-pool callable INSTANCE by default: the
    # per-actor token memo doesn't pay for the (1, 8) pool's autoscale
    # ramp + 8-actor cap (8.7 s -> 2.4 s on the 200k code smoke, the
    # round-4 fork-smoke lesson).  An explicit ``concurrency`` keeps
    # the actor-pool form for memory-constrained tuning.
    mh_kwargs = {
        "num_perm": num_perm, "shingle_k": shingle_k,
        "n_bands": n_bands, "emit_set_key": collapse,
    }
    src = docs.select_columns(["doc_id", "text"])
    if concurrency is None:
        keyed = src.map_batches(
            MinHasher(**mh_kwargs), batch_format="pyarrow")
    else:
        keyed = src.map_batches(
            MinHasher,
            fn_constructor_kwargs=mh_kwargs,
            batch_format="pyarrow",
            concurrency=concurrency,
            max_restarts=0,  # pool replaces failed actors
        )

    def add_part(batch: pa.Table) -> pa.Table:
        part = fib_bucket(batch["band_key"].to_numpy(), P)
        return batch.append_column(
            "band_part", pa.array(part, pa.int32()))

    keyed = keyed.map_batches(add_part, batch_format="pyarrow")
    if collapse:
        # consumed twice (pairing + member edges) — materialize once
        keyed = keyed.materialize()

    _EMPTY_PAIRS = pa.table({
        "doc_a": pa.array([], pa.int64()),
        "doc_b": pa.array([], pa.int64()),
    })

    def partition_pairs(part: pa.Table) -> pa.Table:
        # one lexsort + run-boundary masks instead of a pandas groupby
        # per band bucket: a partition holds ~10^5-10^6 TINY buckets
        # and per-bucket pandas calls dominated the whole pipeline
        # (19.4 s -> 0.9 s on the 200k code smoke, identical output)
        bk = part["band_key"].to_numpy(zero_copy_only=False).astype(
            np.uint64)
        di = part["doc_id"].to_numpy(zero_copy_only=False)
        if not len(bk):
            return _EMPTY_PAIRS
        if collapse:
            # one banded row per shingle-set family: the family's
            # global min doc_id is in EVERY one of its band buckets
            # (identical signature ⇒ identical band keys), so the
            # within-bucket min per set_key is the global
            # representative
            sk = part["set_key"].to_numpy(zero_copy_only=False).astype(
                np.uint64)
            order, first, _ = sorted_runs(bk, sk, di, run_keys=2)
        else:
            order, first, _ = sorted_runs(bk, di)
        # per-bucket distinct members
        rb, rd = bk[order][first], di[order][first]
        _, starts, counts = sorted_runs(rb)
        out_a, out_b = [], []
        budget = max_pairs_per_task
        for s, c in zip(starts[counts >= 2], counts[counts >= 2]):
            ids = np.unique(rd[s:s + c])
            if len(ids) < 2:
                continue
            if budget is not None:
                budget -= len(ids) * (len(ids) - 1) // 2
                if budget < 0:
                    raise RuntimeError(
                        f"minhash pairing task exceeded max_pairs_per_task="
                        f"{max_pairs_per_task} (bucket of {len(ids)} docs); "
                        "route corpus-scale dedup through "
                        "minhash_dedup_clusters (identical-set collapse) "
                        "or raise the guard"
                    )
            a, b = np.triu_indices(len(ids), k=1)
            out_a.append(ids[a])
            out_b.append(ids[b])
        if not out_a:
            return _EMPTY_PAIRS
        return _distinct_pairs(np.concatenate(out_a), np.concatenate(out_b))

    candidates = keyed.groupby("band_part").map_groups(
        partition_pairs, batch_format="pyarrow"
    )

    member_edges: ray.data.Dataset | None = None
    if collapse:
        def band0_rows(batch: pa.Table) -> pa.Table:
            k = batch["band_key"].to_numpy().astype(np.uint64)
            t = batch.filter(pa.array((k >> np.uint64(56)) == 0))
            return t.select(["set_key", "doc_id"])

        def add_set_part(batch: pa.Table) -> pa.Table:
            sk = batch["set_key"].to_numpy().astype(np.uint64)
            part = (splitmix64(sk) % np.uint64(P)).astype(np.int32)
            return batch.append_column("set_part", pa.array(part, pa.int32()))

        def members_partition(g: pa.Table) -> pa.Table:
            # fully vectorized star edges (rep -> member) per family:
            # lexsort + run boundaries, no per-family pandas groupby
            sk = g["set_key"].to_numpy(zero_copy_only=False).astype(
                np.uint64)
            di = g["doc_id"].to_numpy(zero_copy_only=False)
            if not len(sk):
                return _EMPTY_PAIRS
            order, first, _ = sorted_runs(sk, di)
            # distinct, di asc per family
            sk, di = sk[order][first], di[order][first]
            _, starts, counts = sorted_runs(sk)
            reps = np.repeat(di[starts], counts - 1)
            member_mask = np.ones(len(di), dtype=bool)
            member_mask[starts] = False
            return pa.table({
                "doc_a": pa.array(reps, pa.int64()),
                "doc_b": pa.array(di[member_mask], pa.int64()),
            })

        member_edges = (
            keyed.map_batches(band0_rows, batch_format="pyarrow")
            .map_batches(add_set_part, batch_format="pyarrow")
            .groupby("set_part")
            .map_groups(members_partition, batch_format="pyarrow")
        )

    from clonebas_ray.ops.relational import hash_join

    # semi-join pushdown: only CANDIDATE docs enter the text verify.
    # Unfiltered, both joins re-bucket the ENTIRE corpus text twice —
    # 46 s of the 58 s cluster stage on the 200k code smoke (13.2 +
    # 32.5 s) for 100k pairs touching ~2% of docs.  The distinct-id
    # collection is block-distinct and byte-bound (ids only, unique'd
    # per block before the driver sees them), and the driver already
    # holds the candidate node set in the union-find downstream.
    candidates = candidates.materialize()

    def _block_ids(b: pa.Table) -> pa.Table:
        ids = np.unique(np.concatenate([
            b["doc_a"].to_numpy(zero_copy_only=False),
            b["doc_b"].to_numpy(zero_copy_only=False),
        ])) if b.num_rows else np.empty(0, np.int64)
        return pa.table({"id": pa.array(ids, pa.int64())})

    id_parts = [
        b["id"].to_numpy(zero_copy_only=False)
        for b in candidates.map_batches(
            _block_ids, batch_format="pyarrow", batch_size=None
        ).iter_batches(batch_format="pyarrow", batch_size=None)
        if b.num_rows
    ]
    cand_ids = (
        np.unique(np.concatenate(id_parts))
        if id_parts else np.empty(0, np.int64)
    )
    cand_ids_ref = ray.put(cand_ids)

    def only_candidates(batch: pa.Table) -> pa.Table:
        ids = ray.get(cand_ids_ref)
        if not len(ids):
            return batch.slice(0, 0)
        v = batch["doc_id"].to_numpy(zero_copy_only=False)
        pos = np.searchsorted(ids, v)
        pos[pos == len(ids)] = len(ids) - 1
        return batch.filter(pa.array(ids[pos] == v))

    doc_text = docs.select_columns(["doc_id", "text"]).map_batches(
        only_candidates, batch_format="pyarrow", batch_size=None
    )
    # global pair dedup FIRST (one id-only exchange): the same pair
    # surfaces from bands living in different partitions — 100,550
    # candidate rows were 10,884 distinct pairs on the 200k code
    # smoke — so dedup before verify also cuts verify work ~9x.
    def add_pair_part(batch: pa.Table) -> pa.Table:
        a = batch["doc_a"].to_numpy(zero_copy_only=False).astype(
            np.uint64)
        b = batch["doc_b"].to_numpy(zero_copy_only=False).astype(
            np.uint64)
        part = (
            splitmix64(a * np.uint64(3) + b) % np.uint64(P)
        ).astype(np.int32)
        return batch.append_column(
            "pair_part", pa.array(part, pa.int32()))

    def dedup_pairs(g: pa.Table) -> pa.Table:
        return _distinct_pairs(
            g["doc_a"].to_numpy(zero_copy_only=False),
            g["doc_b"].to_numpy(zero_copy_only=False),
        )

    distinct_pairs = (
        candidates.map_batches(
            add_pair_part, batch_format="pyarrow", batch_size=None)
        .groupby("pair_part")
        .map_groups(dedup_pairs, batch_format="pyarrow")
    )

    k = shingle_k
    thr = threshold

    def _verify_table(
        batch: pa.Table, ta_list: list, tb_list: list
    ) -> pa.Table:
        oa, ob, oj = [], [], []
        # per-pair-batch shingle cache: a doc in many candidate pairs
        # repeats within a batch — don't re-shingle it per pair
        cache: dict[int, set] = {}

        def sh(doc: int, text: str) -> set:
            s = cache.get(doc)
            if s is None:
                s = shingle_set(text, k)
                cache[doc] = s
            return s

        for x, y, ta, tb in zip(
            batch["doc_a"].to_pylist(), batch["doc_b"].to_pylist(),
            ta_list, tb_list,
        ):
            j = jaccard(sh(x, ta), sh(y, tb))
            if j >= thr:
                oa.append(x)
                ob.append(y)
                # raw (un-rounded) int/int ratio — bit-identical to the
                # DuckDB oracle's division
                oj.append(j)
        return pa.table(
            {
                "doc_a": pa.array(oa, pa.int64()),
                "doc_b": pa.array(ob, pa.int64()),
                "jaccard": pa.array(oj, pa.float64()),
            }
        )

    # streaming verify against a plasma-shared candidate-text lookup:
    # one object-store table of ONLY candidate docs' (doc_id, text),
    # read zero-copy by every verify task (one mmap per node, never a
    # per-task copy) — no text payload ever enters a shuffle.  The
    # bucketed hash-join exchange this replaces cost 46 s of the 58 s
    # cluster stage on the 200k code smoke (two sort shuffles of text
    # payloads) for 10k verified pairs.  Guard: past
    # _VERIFY_LOOKUP_BUDGET bytes of candidate text, fall back to the
    # join exchange — per-task memory stays bucket-bound there, at
    # the cost of re-bucketing text payloads.
    doc_refs = doc_text.materialize().to_arrow_refs()
    sizes = ray.get([_tab_nbytes.remote(r) for r in doc_refs])

    if sum(sizes) <= _VERIFY_LOOKUP_BUDGET:
        lookup_ref = _concat_sorted_by_id.remote(*doc_refs)

        def verify_lookup(batch: pa.Table) -> pa.Table:
            if not batch.num_rows:
                return _verify_table(batch, [], [])
            lut = ray.get(lookup_ref)
            ids = lut["doc_id"].to_numpy(zero_copy_only=False)
            a = batch["doc_a"].to_numpy(zero_copy_only=False)
            b = batch["doc_b"].to_numpy(zero_copy_only=False)
            ta = lut["text"].take(
                pa.array(np.searchsorted(ids, a), pa.int64())
            ).to_pylist()
            tb = lut["text"].take(
                pa.array(np.searchsorted(ids, b), pa.int64())
            ).to_pylist()
            return _verify_table(batch, ta, tb)

        return distinct_pairs.map_batches(
            verify_lookup, batch_format="pyarrow", batch_size=None
        ), member_edges

    with_a = hash_join(
        distinct_pairs, doc_text, "doc_a", "doc_id",
        left_cols=["doc_a", "doc_b"], right_cols=["doc_id", "text"],
        left_dtypes={"doc_a": "int64", "doc_b": "int64"},
        right_dtypes={"doc_id": "int64"},
    ).map_batches(
        lambda t: t.drop_columns(["doc_id"]).rename_columns(
            ["doc_a", "doc_b", "text_a"]
        ),
        batch_format="pyarrow",
    )
    with_b = hash_join(
        with_a, doc_text, "doc_b", "doc_id",
        left_cols=["doc_a", "doc_b", "text_a"],
        right_cols=["doc_id", "text"],
        left_dtypes={"doc_a": "int64", "doc_b": "int64"},
        right_dtypes={"doc_id": "int64"},
    ).map_batches(
        lambda t: t.drop_columns(["doc_id"]).rename_columns(
            ["doc_a", "doc_b", "text_a", "text_b"]
        ),
        batch_format="pyarrow",
    )

    def verify_joined(batch: pa.Table) -> pa.Table:
        return _verify_table(
            batch,
            batch["text_a"].to_pylist(), batch["text_b"].to_pylist(),
        )

    return with_b.map_batches(
        verify_joined, batch_format="pyarrow"), member_edges


def minhash_dedup_clusters(
    docs: ray.data.Dataset,
    num_perm: int = 128,
    shingle_k: int = 5,
    n_bands: int = 32,
    threshold: float = 0.8,
    concurrency: int | tuple[int, int] | None = None,
    max_pairs_per_task: int | None = None,
) -> pa.Table:
    """Full MinHash-LSH dedup: (doc_id, cluster_id) assignments with
    ``cluster_id`` the smallest member doc_id.

    The 100-TB path: identical shingle sets collapse to one banded
    representative (``_minhash_pipeline(collapse=True)``), so pair
    volume is quadratic only in DISTINCT near-dup content; members
    rejoin as Jaccard-1 edges and the streamed union-find keeps driver
    memory O(near-dup docs).  Output is identical to union-find over
    the full ``minhash_lsh_pairs`` enumeration (every cross-family
    pair shares its rep pair's Jaccard)."""
    ensure_worker_importable()

    pairs, member_edges = _minhash_pipeline(
        docs, num_perm=num_perm, shingle_k=shingle_k, n_bands=n_bands,
        threshold=threshold, concurrency=concurrency, collapse=True,
        max_pairs_per_task=max_pairs_per_task,
    )
    return stream_min_labels([pairs, member_edges])


class WinnowFingerprints:
    """Stateful winnowing worker (Schleimer et al., SIGMOD 2003 — the
    public MOSS fingerprinting scheme): per doc, hash every K-char
    gram (md5 low-64, DuckDB ``md5_number_lower`` convention) and keep
    the MINIMUM hash of each W-gram window.  Guarantee: two documents
    sharing any substring of length >= K + W - 1 share at least one
    selected fingerprint — the sampled stand-in for a suffix-array
    common-substring scan, at O(n) per doc instead of global sort.
    """

    def __init__(self, k: int = 30, w: int = 8, hash_mode: str = "md5"):
        if hash_mode not in ("md5", "poly"):
            raise ValueError(f"hash_mode must be 'md5' or 'poly', got {hash_mode!r}")
        self.k = k
        self.w = w
        self.hash_mode = hash_mode

    def _gram_hashes(self, text: str, n_grams: int) -> np.ndarray:
        """One 64-bit hash per K-char gram.  ``md5`` is the
        DuckDB-verifiable convention (one hashlib call per position —
        the oracle recomputes it with ``md5_number_lower``); ``poly``
        is the production kernel for non-oracled runs: a vectorized
        polynomial rolling hash over char codes (O(k) numpy vector
        ops total, no per-position Python), splitmix64-finalized so
        window minima are uniform.  Same winnowing guarantee — any
        shared substring of length >= K + W - 1 still shares a
        selected fingerprint — just a different hash family."""
        if self.hash_mode == "md5":
            from clonebas_ray.functions.murmur3 import md5_low64

            k = self.k
            return np.fromiter(
                (
                    md5_low64(text[p:p + k].encode("utf-8", "surrogatepass"))
                    for p in range(n_grams)
                ),
                dtype=np.uint64,
                count=n_grams,
            )
        codes = np.frombuffer(
            text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32
        ).astype(np.uint64)
        B = np.uint64(0x100000001B3)
        acc = np.zeros(n_grams, dtype=np.uint64)
        for off in range(self.k):
            acc = acc * B + codes[off : n_grams + off]
        return splitmix64(acc)

    def _fingerprints(self, text: str) -> np.ndarray:
        w = self.w
        n_grams = len(text) - self.k + 1
        if n_grams <= 0:
            return np.empty(0, dtype=np.uint64)
        h = self._gram_hashes(text, n_grams)
        if n_grams <= w:
            return np.unique(h.min(keepdims=True))
        wins = np.lib.stride_tricks.sliding_window_view(h, w).min(axis=1)
        return np.unique(wins)

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        out_h: list[np.ndarray] = []
        out_d: list[np.ndarray] = []
        for d, t in zip(ids, batch["text"].to_pylist()):
            fps = self._fingerprints(t)
            out_h.append(fps)
            out_d.append(np.full(len(fps), d, dtype=np.int64))
        if not out_h:
            return pa.table(
                {"h": pa.array([], pa.uint64()),
                 "doc_id": pa.array([], pa.int64())}
            )
        return pa.table(
            {
                "h": pa.array(np.concatenate(out_h), pa.uint64()),
                "doc_id": pa.array(np.concatenate(out_d), pa.int64()),
            }
        )


def substring_dup_pairs(
    docs: ray.data.Dataset,
    k: int = 30,
    w: int = 8,
    max_df: int = 64,
    concurrency: int | tuple[int, int] | None = None,
    hash_mode: str = "md5",
) -> pa.Table:
    """Substring-duplicate pairs: documents sharing >= 1 winnowed
    K-gram fingerprint (⇒ any common substring of length
    >= K + W - 1 is caught) → (doc_a, doc_b, n_shared) with
    n_shared = count of distinct shared fingerprints.

    Shuffle layout: fingerprints hash-partition by hash value, pairs
    form within each partition (a fingerprint's doc list is co-located
    by construction), then a second small shuffle sums per-pair
    counts.  ``max_df`` drops boilerplate fingerprints present in more
    than that many docs — the skew guard that keeps a corpus-wide
    common header from exploding quadratically (mirrored by the SQL
    oracle's HAVING clause).  ``hash_mode='poly'`` swaps the
    oracle-pinned per-gram md5 for a vectorized rolling polynomial
    hash (~an order of magnitude cheaper; use for production runs
    where SQL parity isn't needed)."""
    ensure_worker_importable()
    from clonebas_ray.ops.relational import auto_partitions

    P = auto_partitions()

    src = docs.select_columns(["doc_id", "text"])
    if concurrency is None:
        # task-pool callable instance (no amortizable state; the
        # (1, 8) actor pool paid ~3x in ramp — round-4 A/B)
        fps = src.map_batches(
            WinnowFingerprints(k=k, w=w, hash_mode=hash_mode),
            batch_format="pyarrow",
        )
    else:
        fps = src.map_batches(
            WinnowFingerprints,
            fn_constructor_kwargs={
                "k": k, "w": w, "hash_mode": hash_mode},
            batch_format="pyarrow",
            concurrency=concurrency,
            max_restarts=0,
        )

    def add_part(batch: pa.Table) -> pa.Table:
        part = fib_bucket(batch["h"].to_numpy(), P)
        return batch.append_column("hp", pa.array(part, pa.int32()))

    def pair_partition(g: pd.DataFrame) -> pd.DataFrame:
        out_a, out_b = [], []
        # lexsort + run boundaries (buckets are overwhelmingly tiny —
        # the per-bucket pandas groupby tax measured 20x on the
        # minhash pairing twin of this stage)
        h = g["h"].to_numpy()
        di = g["doc_id"].to_numpy()
        if len(h):
            order, first, _ = sorted_runs(h, di)
            # distinct, di asc per hash
            hh, dd = h[order][first], di[order][first]
            _, starts, counts = sorted_runs(hh)
            ok = (counts >= 2) & (counts <= max_df)
            for s, c in zip(starts[ok], counts[ok]):
                ids = dd[s:s + c]
                a, b = np.triu_indices(len(ids), k=1)
                out_a.append(ids[a])
                out_b.append(ids[b])
        if not out_a:
            return pd.DataFrame(
                {"doc_a": pd.Series(dtype="int64"),
                 "doc_b": pd.Series(dtype="int64"),
                 "n_shared": pd.Series(dtype="int64")}
            )
        df = pd.DataFrame(
            {"doc_a": np.concatenate(out_a), "doc_b": np.concatenate(out_b)}
        )
        # partial count: one row per (pair, h) collapsed within the
        # partition; distinct hashes never split across partitions
        return (
            df.groupby(["doc_a", "doc_b"], sort=False)
            .size()
            .rename("n_shared")
            .reset_index()
        )

    partial = (
        fps.map_batches(add_part, batch_format="pyarrow")
        .groupby("hp")
        .map_groups(pair_partition, batch_format="pandas")
    )

    def add_pp(batch: pa.Table) -> pa.Table:
        part = fib_bucket(batch["doc_a"].to_numpy(), P)
        return batch.append_column("pp", pa.array(part, pa.int32()))

    def merge_pairs(g: pd.DataFrame) -> pd.DataFrame:
        return (
            g.groupby(["doc_a", "doc_b"], sort=False)["n_shared"]
            .sum()
            .reset_index()
            .astype({"doc_a": "int64", "doc_b": "int64",
                     "n_shared": "int64"})
        )

    out = (
        partial.map_batches(add_pp, batch_format="pyarrow")
        .groupby("pp")
        .map_groups(merge_pairs, batch_format="pandas")
        .to_pandas()
    )
    out = out.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)
    return pa.Table.from_pandas(out, preserve_index=False)


def dedup_filter(
    docs: ray.data.Dataset, clusters: pa.Table,
    id_col: str = "doc_id", cluster_col: str = "cluster_id",
) -> ray.data.Dataset:
    """The dedup ACTION: given (doc_id, cluster_id) near-dup
    assignments, keep every unclustered doc plus one representative
    (the min doc_id = the canonical cluster label) per cluster.

    The drop-set (clustered non-representatives) is near-dup-sized —
    tiny relative to the corpus — so it broadcasts via ``ray.put`` and
    the filter is a stateless ``map_batches`` scan; the corpus itself
    never shuffles."""
    ensure_worker_importable()
    import ray as ray_api

    import pyarrow.compute as pc

    cdf = clusters.to_pandas()
    drop = pa.array(
        cdf.loc[cdf[id_col] != cdf[cluster_col], id_col].to_numpy()
    )
    drop_ref = ray_api.put(drop)

    def keep(batch: pa.Table) -> pa.Table:
        d = ray_api.get(drop_ref)
        mask = pc.invert(pc.is_in(batch[id_col], value_set=d))
        return batch.filter(mask)

    return docs.map_batches(keep, batch_format="pyarrow")


def dedup_filter_best(
    docs: ray.data.Dataset, clusters: pa.Table,
    score_col: str = "n_chars",
    id_col: str = "doc_id", cluster_col: str = "cluster_id",
) -> ray.data.Dataset:
    """Quality-aware dedup ACTION: keep the BEST member per near-dup
    cluster instead of the smallest id — winner = argmax(``score_col``,
    ties to the smallest id), the "keep the longest/highest-quality
    duplicate" convention production pipelines actually use.

    Scale shape mirrors :func:`dedup_filter`: the cluster table is
    near-dup-sized, so winner selection is driver-side pandas over it;
    the only corpus-scale work is two stateless broadcast-filter scans
    (grab scores for clustered ids, then drop non-winners), and the
    corpus never shuffles."""
    ensure_worker_importable()
    import ray as ray_api

    import pyarrow.compute as pc

    cdf = clusters.to_pandas()
    id_set = pa.array(cdf[id_col].to_numpy())
    id_ref = ray_api.put(id_set)

    def grab(batch: pa.Table) -> pa.Table:
        m = pc.is_in(batch[id_col], value_set=ray_api.get(id_ref))
        return batch.filter(m).select([id_col, score_col])

    scores = (
        docs.select_columns([id_col, score_col])
        .map_batches(grab, batch_format="pyarrow", batch_size=None)
        .to_pandas()
    )
    cdf = cdf.merge(scores, on=id_col)
    cdf = cdf.sort_values(
        [cluster_col, score_col, id_col],
        ascending=[True, False, True],
    )
    winners = cdf.groupby(cluster_col, sort=False).head(1)[id_col]
    drop = pa.array(
        cdf.loc[~cdf[id_col].isin(winners), id_col].to_numpy()
    )
    drop_ref = ray_api.put(drop)

    def keep(batch: pa.Table) -> pa.Table:
        d = ray_api.get(drop_ref)
        mask = pc.invert(pc.is_in(batch[id_col], value_set=d))
        return batch.filter(mask)

    return docs.map_batches(keep, batch_format="pyarrow",
                            batch_size=None)


def cdc_chunks(
    docs: ray.data.Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    window: int = 4,
    boundary_bits: int = 4,
) -> ray.data.Dataset:
    """Content-defined chunking (the LBFS/rsync/restic technique, over
    TOKENS): a chunk boundary falls after token ``e`` wherever the
    rolling hash of the ``window`` tokens ending at ``e`` has its low
    ``boundary_bits`` bits zero — so boundaries move WITH the content,
    and an insertion near the top of a document only re-chunks its
    own neighborhood instead of shifting every downstream fixed-size
    block (the property that makes sub-document dedup robust to
    edits; expected chunk length ≈ 2^boundary_bits tokens).

    Pinned, SQL-recomputable conventions: tokens = whitespace split;
    rolling hash = the repo's mod-2^64 polynomial (base 0x100000001B3)
    over ``md5_low64`` token hashes — the same kernel as
    :func:`ngram_decontaminate`; chunk digest = ``md5_low64(tokens
    joined by one space) % 2^63``.  No min/max-length clamps: the cut
    set is exactly the boundary-hash predicate, so the oracle is pure
    relational algebra (a stateful min/max walk is the documented
    production knob this query variant omits).

    One stateless ``map_batches`` pass; rows explode ~1 per
    2^boundary_bits tokens.  Output: ``(id_col, chunk_idx, start_tok,
    n_tokens, digest)``; zero-token documents emit nothing.
    """
    ensure_worker_importable()
    mask = np.uint64((1 << boundary_bits) - 1)
    zero = np.uint64(0)
    mod63 = (1 << 63) - 1

    class _Chunker(_GramHashes):
        def __call__(self, batch: pa.Table) -> pa.Table:
            ids_out, idx_out, start_out, n_out, dig_out = \
                [], [], [], [], []
            md5 = self._md5
            for i, t in zip(
                batch[id_col].to_pylist(),
                batch[text_col].to_pylist(),
            ):
                toks = (t or "").split()
                m = len(toks)
                if not m:
                    continue
                th = self._tok_hashes(t or "")
                gh = _gram_position_hashes(th, self.n)
                # gram at 0-based pos p ends at token e = p + w - 1;
                # cut after e (split index e + 1)
                cuts = (
                    np.flatnonzero((gh & mask) == zero) + self.n
                    if len(gh) else np.empty(0, dtype=np.int64)
                )
                bounds = np.concatenate(
                    [[0], cuts[cuts < m], [m]]
                ).astype(np.int64)
                bounds = np.unique(bounds)
                for ci in range(len(bounds) - 1):
                    lo, hi = int(bounds[ci]), int(bounds[ci + 1])
                    chunk = " ".join(toks[lo:hi])
                    ids_out.append(i)
                    idx_out.append(ci)
                    start_out.append(lo + 1)
                    n_out.append(hi - lo)
                    dig_out.append(
                        md5(chunk.encode("utf-8", "surrogatepass"))
                        & mod63
                    )
            return pa.table({
                id_col: pa.array(ids_out, batch[id_col].type),
                "chunk_idx": pa.array(idx_out, pa.int64()),
                "start_tok": pa.array(start_out, pa.int64()),
                "n_tokens": pa.array(n_out, pa.int64()),
                "digest": pa.array(dig_out, pa.int64()),
            })

    return docs.select_columns([id_col, text_col]).map_batches(
        _Chunker(window, text_col), batch_format="pyarrow",
        batch_size=None,
    )


def cdc_shared_chunks(
    chunks: ray.data.Dataset, id_col: str = "doc_id",
) -> ray.data.Dataset:
    """Cross-document shared-content discovery over CDC chunks:
    reduce the chunk stream to per-digest ``(n_occurrences, n_docs,
    n_tokens)`` and keep digests occurring more than once — the
    boilerplate/quotation blobs a sub-document deduplicator would
    collapse.

    Scale shape: per-block partials first collapse each block to
    distinct ``(digest, doc_id)`` rows with occurrence counts (the
    pre-aggregation that bounds the exchange by distinct pairs, not
    chunk occurrences), then ONE hash-bucketed merge groups whole
    digests inside ``pair_partitions`` pandas tasks — never one
    ``map_groups`` call per digest (4.7M tiny groups measured ~2 min
    at 1M docs; the bucketed merge is seconds).  The exchange ships
    digest rows (a few ints per ~2^b tokens of corpus), never text."""
    ensure_worker_importable()
    from clonebas_ray.ops.relational import auto_partitions

    P = auto_partitions()

    def partial(b: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "digest": b["digest"].to_numpy(zero_copy_only=False),
            id_col: b[id_col].to_numpy(zero_copy_only=False),
            "n_tokens": b["n_tokens"].to_numpy(zero_copy_only=False),
        })
        g = df.groupby(["digest", id_col], sort=False).agg(
            n_occ=("n_tokens", "size"), n_tokens=("n_tokens", "first")
        ).reset_index()
        g["__bucket"] = (
            g["digest"].to_numpy().astype(np.uint64) % np.uint64(P)
        ).astype(np.int32)
        return pa.Table.from_pandas(g, preserve_index=False)

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("digest", sort=False).agg(
            n_occurrences=("n_occ", "sum"),
            n_docs=(id_col, "nunique"),
            n_tokens=("n_tokens", "first"),
        ).reset_index()
        out = out[out["n_occurrences"] >= 2]
        for c in ("digest", "n_occurrences", "n_docs", "n_tokens"):
            out[c] = out[c].astype("int64")
        return out

    return (
        chunks.map_batches(partial, batch_format="pyarrow",
                           batch_size=None)
        .groupby("__bucket")
        .map_groups(merge, batch_format="pandas")
    )


def docs_as_files(docs: ray.data.Dataset) -> ray.data.Dataset:
    """Adapt (doc_id, text, ...) to the flagship file-table shape with
    ``lang='text'`` so the clone pipeline's token-shingle mode applies."""

    def adapt(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        ids = batch["doc_id"].to_pylist()
        repo = (
            batch["source"]
            if "source" in batch.column_names
            else pa.array(["docs"] * n, pa.string())
        )
        return pa.table(
            {
                "repo": repo,
                "path": pa.array([f"doc/{i}" for i in ids], pa.string()),
                "commit": pa.array([""] * n, pa.string()),
                "lang": pa.array(["text"] * n, pa.string()),
                "content": batch["text"],
            }
        )

    return docs.map_batches(adapt, batch_format="pyarrow")


def simhash_text_dedup(
    docs: ray.data.Dataset, config=None,
    concurrency: int | tuple[int, int] | None = None,
) -> pa.Table:
    """SimHash near-dup clusters over documents via the flagship stages
    (no checkpointing — in-memory variant for tables already loaded):
    returns (sha, cluster_id, tier)."""
    ensure_worker_importable()
    from clonebas_ray.config import DEFAULT_CONFIG
    from clonebas_ray.stages.ingest import prepare_stage
    from clonebas_ray.stages.fingerprint import fingerprint_stage
    from clonebas_ray.stages.candidates import (
        sig_groups, candidate_edges, membership_edges,
    )
    from clonebas_ray.stages.cluster import union_find_clusters, clusters_table

    cfg = config or DEFAULT_CONFIG
    files = docs_as_files(docs)
    fp = fingerprint_stage(prepare_stage(files), cfg, concurrency=concurrency)
    sigs = sig_groups(fp, cfg).materialize()
    edges = candidate_edges(sigs, cfg).union(membership_edges(sigs, cfg))
    high = edges.filter(expr=f"hamming <= {cfg.t_high}")
    edge_t = pa.Table.from_pandas(
        high.select_columns(["sha_a", "sha_b"]).to_pandas()
    )
    return clusters_table(union_find_clusters(edge_t), tier=1)


# ---------------------------------------------------------------------------
# benchmark decontamination (n-gram overlap vs a held-out corpus)
# ---------------------------------------------------------------------------


def _gram_position_hashes(tok_hashes: np.ndarray, n: int) -> np.ndarray:
    """Per-POSITION n-gram hashes (rolling polynomial over per-token
    64-bit hashes) — the non-deduplicated sibling of
    :func:`_shingle_hashes`, needed where gram *occurrences* count."""
    arr = np.asarray(tok_hashes, dtype=np.uint64)
    m = len(arr)
    if m < n:
        return np.empty(0, dtype=np.uint64)
    B = np.uint64(0x100000001B3)
    acc = np.zeros(m - n + 1, dtype=np.uint64)
    for off in range(n):
        acc = acc * B + arr[off : m - n + 1 + off]
    return acc


class _GramHashes:
    """Whitespace-token n-gram hashes with a per-actor token cache.

    Token hash = ``md5_low64`` (the repo's pinned SQL-verifiable
    convention); gram hash = rolling polynomial over the token hashes.
    Gram identity equals joined-string identity (tokens cannot contain
    whitespace), so the DuckDB oracle can join raw gram STRINGS and
    match these hashed results exactly — up to 64-bit collisions,
    which at contamination scale only ever ADD a false-positive flag
    (the standard accepted failure mode of hash-based decontamination;
    ~m^2/2^65 expected collisions for m distinct grams)."""

    def __init__(self, n: int, text_col: str = "text"):
        self.n = n
        self.text_col = text_col
        self._md5 = md5_low64
        self._cache: dict[str, np.uint64] = {}

    def _tok_hashes(self, text: str) -> np.ndarray:
        cache, md5 = self._cache, self._md5
        out = []
        for w in text.split():
            h = cache.get(w)
            if h is None:
                h = np.uint64(md5(w.encode("utf-8", "surrogatepass")))
                cache[w] = h
            out.append(h)
        return np.array(out, dtype=np.uint64)

    def doc_grams(self, text: str) -> np.ndarray:
        return _gram_position_hashes(self._tok_hashes(text), self.n)


def benchmark_gram_hashes(
    bench: ray.data.Dataset, text_col: str = "text", n: int = 13,
) -> np.ndarray:
    """Sorted distinct n-gram hash array of a benchmark corpus.

    The benchmark side of decontamination is the SMALL side by
    construction (held-out eval sets, not the crawl): per-batch
    distinct extraction runs distributed, and only the hash column
    comes back to the driver (8 bytes/gram — 10^7 distinct grams is
    80 MB).  The array is meant to be ``ray.put`` once and shared by
    every scan task.  Plain task pool (no actor ramp): the per-block
    DISTINCT reduction is the pre-aggregation that keeps the driver
    union bounded by distinct-gram count, not corpus size."""
    ensure_worker_importable()

    def extract(batch: pa.Table) -> pa.Table:
        gh = _GramHashes(n, text_col)
        grams = [gh.doc_grams(t) for t in batch[text_col].to_pylist()]
        uniq = (
            np.unique(np.concatenate(grams))
            if grams else np.empty(0, dtype=np.uint64)
        )
        return pa.table({"gram_hash": pa.array(uniq, pa.uint64())})

    parts = bench.map_batches(
        extract, batch_format="pyarrow", batch_size=None,
    )
    hashes = np.concatenate(
        [
            b["gram_hash"].to_numpy(zero_copy_only=False)
            for b in parts.iter_batches(batch_format="pyarrow", batch_size=None)
        ]
        or [np.empty(0, dtype=np.uint64)]
    )
    return np.unique(hashes)


class _DecontaminateScan(_GramHashes):
    """Scan kernel (plain task, one call per block): ``ray.get`` of
    the broadcast gram set resolves zero-copy from the node-local
    object store, then one vectorized ``searchsorted`` membership test
    covers all docs in the block at once."""

    def __init__(self, grams_ref, n: int, text_col: str):
        super().__init__(n, text_col)
        self.grams_ref = grams_ref

    def __call__(self, batch: pa.Table) -> pa.Table:
        grams = self.grams_ref
        if not isinstance(grams, np.ndarray):
            grams = ray.get(grams)
        texts = batch[self.text_col].to_pylist()
        seqs = [self.doc_grams(t) for t in texts]
        counts = np.array([len(s) for s in seqs], dtype=np.int64)
        if counts.sum():
            allg = np.concatenate([s for s in seqs if len(s)])
            g = grams
            if len(g):
                idx = np.searchsorted(g, allg)
                idx[idx == len(g)] = len(g) - 1
                hit = g[idx] == allg
            else:
                hit = np.zeros(len(allg), dtype=bool)
            cum = np.concatenate([[0], np.cumsum(hit)])
            ends = np.cumsum(counts)
            starts = ends - counts
            n_hits = cum[ends] - cum[starts]
        else:
            n_hits = np.zeros(len(texts), dtype=np.int64)
        batch = batch.append_column("n_grams", pa.array(counts, pa.int64()))
        batch = batch.append_column(
            "n_hits", pa.array(n_hits.astype(np.int64), pa.int64())
        )
        return batch.append_column(
            "contaminated", pa.array(n_hits > 0, pa.bool_())
        )


def ngram_decontaminate(
    docs: ray.data.Dataset,
    bench: ray.data.Dataset | None = None,
    *,
    gram_hashes: np.ndarray | None = None,
    text_col: str = "text",
    n: int = 13,
    concurrency: int | tuple[int, int] | None = None,
) -> ray.data.Dataset:
    """Benchmark decontamination: flag every document sharing at least
    one n-token gram with a held-out benchmark corpus (the published
    GPT-3/Llama 13-gram-overlap recipe; ``n`` defaults to 13, tests
    pass smaller n for the short synthetic docs).

    Appends ``n_grams`` (the doc's gram-position count), ``n_hits``
    (positions whose gram appears in the benchmark set) and
    ``contaminated`` (``n_hits > 0``).  Scale shape: the benchmark
    gram set is collected ONCE (distinct hashes only), ``ray.put``
    once, and each scan task resolves it zero-copy from its node's
    object store — the 100-TB side streams through one shuffle-free
    task pool (no actor ramp; the kernel holds no state worth an
    actor).  ``batch_size=None`` (one call per block) per the repo's
    broadcast-scan rule."""
    ensure_worker_importable()
    if gram_hashes is None:
        if bench is None:
            raise ValueError("pass either bench dataset or gram_hashes")
        gram_hashes = benchmark_gram_hashes(bench, text_col=text_col, n=n)
    ref = ray.put(np.ascontiguousarray(gram_hashes, dtype=np.uint64))
    kw = {"concurrency": concurrency} if concurrency else {}
    return docs.map_batches(
        _DecontaminateScan(ref, n, text_col),
        batch_format="pyarrow", batch_size=None, **kw,
    )



def bloom_bits_from_hashes(
    gram_hashes: np.ndarray, m_bits: int, k: int
) -> np.ndarray:
    """Bloom bit array over 64-bit gram hashes with double hashing:
    ``pos_i = (g % m + i * (1 + g % (m-1))) % m`` for ``i < k`` — pure
    integer arithmetic so a DuckDB oracle recomputes the EXACT same
    bit positions (false positives included) on HUGEINTs."""
    bits = np.zeros(m_bits, dtype=bool)
    if len(gram_hashes):
        g = np.asarray(gram_hashes, dtype=np.uint64)
        m = np.uint64(m_bits)
        m1 = np.uint64(m_bits - 1)
        h1 = g % m
        h2 = np.uint64(1) + g % m1
        for i in range(k):
            bits[((h1 + np.uint64(i) * h2) % m).astype(np.int64)] = True
    return bits


class _BloomScan(_GramHashes):
    """Per-block scan against a broadcast Bloom bit array: a gram hits
    iff ALL ``k`` of its bit positions are set."""

    def __init__(self, bits_ref, n: int, m_bits: int, k: int,
                 text_col: str):
        super().__init__(n, text_col)
        self.bits_ref = bits_ref
        self.m_bits = m_bits
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        bits = self.bits_ref
        if not isinstance(bits, np.ndarray):
            bits = ray.get(bits)
        texts = batch[self.text_col].to_pylist()
        seqs = [self.doc_grams(t) for t in texts]
        counts = np.array([len(s) for s in seqs], dtype=np.int64)
        if counts.sum():
            g = np.concatenate([s for s in seqs if len(s)])
            m = np.uint64(self.m_bits)
            m1 = np.uint64(self.m_bits - 1)
            h1 = g % m
            h2 = np.uint64(1) + g % m1
            hit = np.ones(len(g), dtype=bool)
            for i in range(self.k):
                hit &= bits[
                    ((h1 + np.uint64(i) * h2) % m).astype(np.int64)
                ]
            cum = np.concatenate([[0], np.cumsum(hit)])
            ends = np.cumsum(counts)
            n_hits = cum[ends] - cum[ends - counts]
        else:
            n_hits = np.zeros(len(texts), dtype=np.int64)
        batch = batch.append_column("n_grams", pa.array(counts, pa.int64()))
        batch = batch.append_column(
            "n_bloom_hits", pa.array(n_hits.astype(np.int64), pa.int64())
        )
        return batch.append_column(
            "contaminated_bloom", pa.array(n_hits > 0, pa.bool_())
        )


def bloom_decontaminate(
    docs: ray.data.Dataset,
    bench: ray.data.Dataset | None = None,
    *,
    gram_hashes: np.ndarray | None = None,
    text_col: str = "text",
    n: int = 13,
    m_bits: int = 1 << 20,
    k: int = 3,
    concurrency: int | tuple[int, int] | None = None,
) -> ray.data.Dataset:
    """Bloom-filter benchmark decontamination — the fixed-memory scale
    path of :func:`ngram_decontaminate`.  The exact variant broadcasts
    the full sorted gram-hash array (8 bytes/distinct gram: a 10^9-gram
    benchmark union is an 8 GB broadcast); this one compresses the set
    into an ``m_bits`` Bloom bit array (2^30 bits = 128 MB regardless
    of gram count) at a documented false-positive rate of roughly
    ``(1 - exp(-k * n_grams / m_bits)) ** k`` — false positives only
    ever OVER-flag, the accepted direction for decontamination.

    Determinism/SQL-parity pin: gram hash = the repo's rolling
    mod-2^64 polynomial over ``md5_low64`` token hashes (base
    0x100000001B3); bit positions = double hashing ``(g % m + i * (1 +
    g % (m-1))) % m``.  All integer math, so the DuckDB oracle
    reproduces the EXACT flag set, false positives included.

    Appends ``n_grams``, ``n_bloom_hits``, ``contaminated_bloom``.
    Same broadcast-scan discipline as the exact variant:
    ``batch_size=None``, plain task pool, one ``ray.put`` bit array.
    """
    ensure_worker_importable()
    if gram_hashes is None:
        if bench is None:
            raise ValueError("pass either bench dataset or gram_hashes")
        gram_hashes = benchmark_gram_hashes(bench, text_col=text_col, n=n)
    bits = bloom_bits_from_hashes(gram_hashes, m_bits, k)
    ref = ray.put(bits)
    kw = {"concurrency": concurrency} if concurrency else {}
    return docs.map_batches(
        _BloomScan(ref, n, m_bits, k, text_col),
        batch_format="pyarrow", batch_size=None, **kw,
    )


# ---------------------------------------------------------------------------
# fuzzy (near-duplicate) benchmark decontamination
# ---------------------------------------------------------------------------


def benchmark_shingle_index(
    bench: ray.data.Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    shingle_k: int = 5,
) -> tuple[dict, np.ndarray, np.ndarray, np.ndarray]:
    """Inverted shingle index of a benchmark corpus:
    ``(shingle -> (start, len) into the flat postings array,
    flat postings (bench slot per entry), set size per slot,
    bench doc_id per slot)``.

    Raw shingle STRINGS key the index (not 64-bit hashes) so the
    Jaccard the scan computes is exactly the string-set Jaccard the
    SQL oracle computes — no collision caveat.  The benchmark side of
    decontamination is the SMALL side by construction (held-out eval
    sets, not the crawl): per-doc shingle sets are extracted
    distributed and only (bench_id, shingle) rows come back to the
    driver, bounded by benchmark volume."""
    ensure_worker_importable()

    def extract(batch: pa.Table) -> pa.Table:
        ids, shs = [], []
        texts = batch[text_col].to_pylist()
        bids = batch[id_col].to_pylist()
        for bid, t in zip(bids, texts):
            for s in shingle_set(t or "", shingle_k):
                ids.append(bid)
                shs.append(s)
        return pa.table({
            "bench_id": pa.array(ids, pa.int64()),
            "shingle": pa.array(shs, pa.string()),
        })

    parts = [
        ray.get(r) for r in
        bench.select_columns([id_col, text_col])
        .map_batches(extract, batch_format="pyarrow", batch_size=None)
        .to_arrow_refs()
    ]
    parts = [p for p in parts if p.num_rows]
    if not parts:
        return ({}, np.empty(0, np.int64), np.empty(0, np.int64),
                np.empty(0, np.int64))
    tab = pa.concat_tables(parts)
    bid = tab["bench_id"].to_numpy()
    bench_ids, slot_of = np.unique(bid, return_inverse=True)
    sizes = np.bincount(slot_of, minlength=len(bench_ids)).astype(np.int64)
    # postings laid out as ONE flat slot array + (start, len) per
    # shingle: the scan concatenates raw views and counts with
    # np.unique — C-speed even when a template shingle shared by
    # thousands of benchmark docs (the "Question:/Answer:" case)
    # fans a long posting list out to most probing docs
    shingles = tab["shingle"].to_pylist()
    order = sorted(range(len(shingles)), key=lambda i: shingles[i])
    flat = slot_of[order].astype(np.int64)
    index: dict[str, tuple[int, int]] = {}
    i = 0
    while i < len(order):
        s = shingles[order[i]]
        j = i
        while j < len(order) and shingles[order[j]] == s:
            j += 1
        index[s] = (i, j - i)
        i = j
    return index, flat, sizes, bench_ids.astype(np.int64)


class _FuzzyDecontScan:
    """Scan kernel (plain task, one call per block): resolve the
    broadcast index zero-copy from the node-local object store, then
    per doc accumulate shared-shingle counts per candidate bench slot
    and take the exact max Jaccard (ties -> smallest bench doc_id)."""

    def __init__(self, index_ref, shingle_k: int, threshold: float,
                 text_col: str):
        self.index_ref = index_ref
        self.shingle_k = shingle_k
        self.threshold = threshold
        self.text_col = text_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        payload = self.index_ref
        if not isinstance(payload, tuple):
            payload = ray.get(payload)
        index, flat, sizes, bench_ids = payload
        texts = batch[self.text_col].to_pylist()
        max_j = np.zeros(len(texts), dtype=np.float64)
        best = np.full(len(texts), -1, dtype=np.int64)
        for r, t in enumerate(texts):
            sh = shingle_set(t or "", self.shingle_k)
            if not sh or not index:
                continue
            segs = []
            for s in sh:
                loc = index.get(s)
                if loc is not None:
                    segs.append(flat[loc[0]:loc[0] + loc[1]])
            if not segs:
                continue
            # slots ascending from np.unique, so the FIRST max below
            # is the smallest bench doc_id among Jaccard ties
            slots, cnt = np.unique(np.concatenate(segs),
                                   return_counts=True)
            n_doc = len(sh)
            j = cnt / (n_doc + sizes[slots] - cnt)
            k = int(np.argmax(j))
            max_j[r], best[r] = float(j[k]), int(bench_ids[slots[k]])
        batch = batch.append_column(
            "max_jaccard", pa.array(max_j, pa.float64()))
        batch = batch.append_column("bench_id", pa.array(best, pa.int64()))
        return batch.append_column(
            "contaminated", pa.array(max_j >= self.threshold, pa.bool_()))


def fuzzy_decontaminate(
    docs: ray.data.Dataset,
    bench: ray.data.Dataset,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    shingle_k: int = 5,
    threshold: float = 0.8,
    concurrency: int | tuple[int, int] | None = None,
) -> ray.data.Dataset:
    """Near-duplicate benchmark decontamination: for every training
    doc, the EXACT maximum shingle-set Jaccard against any benchmark
    doc sharing at least one shingle (else 0.0), the arg-max
    benchmark doc_id (ties -> smallest id; -1 when none shares a
    shingle), and ``contaminated = max_jaccard >= threshold``.

    Complements ``ngram_decontaminate`` (the GPT-3/Llama verbatim
    13-gram recipe): reworded or lightly edited benchmark leaks share
    few verbatim 13-grams but keep high shingle Jaccard — the overlap
    definition used for fuzzy train/test leakage audits (e.g. the
    Jaccard-based dedup/contamination analyses of Lee et al. 2022).

    Scale shape: the benchmark inverted index is built once
    (distributed extraction, driver merge bounded by benchmark
    volume), ``ray.put`` once, and the 100-TB train side streams
    through one shuffle-free task pool at ``batch_size=None``.
    Unlike an LSH prefilter this probes ALL shared-shingle candidates
    — exact by construction (no band-miss probability), at the cost
    that a shingle common to many benchmark docs fans its posting
    list out to every probing doc; benchmarks are small and curated,
    so posting lists stay short in practice."""
    ensure_worker_importable()
    ref = ray.put(
        benchmark_shingle_index(bench, id_col, text_col, shingle_k)
    )
    kw = {"concurrency": concurrency} if concurrency else {}
    return docs.map_batches(
        _FuzzyDecontScan(ref, shingle_k, threshold, text_col),
        batch_format="pyarrow", batch_size=None, **kw,
    )


# ---------------------------------------------------------------------------
# exact duplicate-substring spans (suffix-array-equivalent window method)
# ---------------------------------------------------------------------------


def _char_window_hashes(text: str, L: int) -> np.ndarray:
    """One 64-bit rolling-polynomial hash per L-char window
    (``H(i) = Σ_t c[i+t]·B^(L-1-t) mod 2⁶⁴``), splitmix64 finalized.
    Hash equality stands in for window-string equality — collisions
    can only ADD a false duplicate flag (~m²/2⁶⁵ for m distinct
    windows; the standard accepted failure mode of the hash-based
    variant of suffix-array dedup).

    Two mathematically identical evaluation paths: L fused vector ops
    for short windows, and for large L an O(len) prefix form —
    ``H(i) = B^(L-1+i)·(S(i+L) − S(i))`` with
    ``S(k) = Σ_{j<k} c[j]·B^(−j)`` (B is odd, so B⁻¹ mod 2⁶⁴ exists;
    numpy uint64 wraps give exact mod-2⁶⁴ arithmetic) — so a 500-char
    dedup window costs the same ~6 vector passes as a 50-char one."""
    n = len(text) - L + 1
    if n <= 0:
        return np.empty(0, dtype=np.uint64)
    codes = np.frombuffer(
        text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32
    ).astype(np.uint64)
    B = np.uint64(0x100000001B3)
    if L <= 32:
        acc = np.zeros(n, dtype=np.uint64)
        for off in range(L):
            acc = acc * B + codes[off : n + off]
        return splitmix64(acc)
    m = len(codes)
    binv = np.uint64(pow(0x100000001B3, -1, 1 << 64))
    invpow = np.ones(m, dtype=np.uint64)
    np.cumprod(np.full(m - 1, binv, dtype=np.uint64), out=invpow[1:])
    s = np.zeros(m + 1, dtype=np.uint64)
    np.cumsum(codes * invpow, out=s[1:])
    bpow = np.ones(n, dtype=np.uint64)
    if n > 1:
        np.cumprod(np.full(n - 1, B, dtype=np.uint64), out=bpow[1:])
    scale = np.uint64(pow(0x100000001B3, L - 1, 1 << 64))
    acc = (s[L : L + n] - s[:n]) * (bpow * scale)
    return splitmix64(acc)


def _dup_window_broadcast(src: ray.data.Dataset, min_len: int,
                          text_col: str):
    """Sorted array of globally duplicated ``min_len``-char window
    hashes, broadcast once via ``ray.put`` — the shared pass 1 of
    :func:`exact_dup_spans` and :func:`cut_dup_spans`."""
    from clonebas_ray.ops.relational import auto_partitions

    P = auto_partitions()

    def partial_blobs(batch: pa.Table) -> pa.Table:
        # One row per (block, partition), NOT one row per distinct
        # hash: Ray's sort-based groupby exchange pays per ROW (arrow
        # sort/take on the key column), so shipping ~300M distinct
        # window hashes as individual rows made the shuffle — not the
        # hash kernel — ~94% of the 1M-doc smoke's wall time.  Packing
        # each block's per-partition hash set into a binary blob moves
        # the same bytes through ~n_blocks×P rows instead, making the
        # exchange byte-bound.  ``ones`` carries hashes with local
        # count == 1 (global dup iff seen in >= 2 blocks of this
        # partition), ``mult`` hashes already duplicated inside the
        # block (global dup unconditionally).
        hs = [
            _char_window_hashes(t, min_len)
            for t in batch[text_col].to_pylist()
        ]
        allh = (
            np.concatenate(hs) if hs else np.empty(0, dtype=np.uint64)
        )
        h, c = np.unique(allh, return_counts=True)
        hp = fib_bucket(h, P)
        order, starts, counts = sorted_runs(hp)
        h_s, c_s = h[order], c[order]
        ones, mult = [], []
        for s0, e0 in zip(starts, starts + counts):
            single = c_s[s0:e0] == 1
            seg = h_s[s0:e0]
            ones.append(seg[single].tobytes())
            mult.append(seg[~single].tobytes())
        return pa.table(
            {
                "hp": pa.array(hp[order][starts], pa.int32()),
                "ones": pa.array(ones, pa.large_binary()),
                "mult": pa.array(mult, pa.large_binary()),
            }
        )

    def dup_in_partition(g: pa.Table) -> pa.Table:
        # equal hashes never split across partitions -> global count
        # >= 2 iff duplicated inside one block (mult) or present in
        # >= 2 blocks' singleton sets (equal sorted neighbors).
        # pyarrow format: the pandas conversion of the blob columns
        # alone cost ~25 s at the 1M-doc scale
        ones = np.sort(
            np.concatenate(
                [np.frombuffer(b.as_py(), dtype=np.uint64)
                 for b in g["ones"]]
            )
        )
        rep = ones[1:][ones[1:] == ones[:-1]] if len(ones) else ones
        mult = np.concatenate(
            [np.frombuffer(b.as_py(), dtype=np.uint64)
             for b in g["mult"]]
        )
        return pa.table(
            {"h": pa.array(np.unique(np.concatenate([rep, mult])),
                           pa.uint64())}
        )

    dup = (
        # batch_size=None: one partial per BLOCK, so the np.unique
        # pre-aggregation sees the whole block's windows — repeated
        # boilerplate collapses before the shuffle instead of after
        src.map_batches(
            partial_blobs, batch_format="pyarrow", batch_size=None
        )
        .groupby("hp")
        .map_groups(dup_in_partition, batch_format="pyarrow")
    )
    dup_h = np.sort(
        np.concatenate(
            [
                b["h"].to_numpy(zero_copy_only=False)
                for b in dup.iter_batches(batch_format="pyarrow",
                                          batch_size=None)
            ]
            or [np.empty(0, dtype=np.uint64)]
        )
    )
    return ray.put(np.ascontiguousarray(dup_h))


def _dup_positions(d: np.ndarray, t: str, min_len: int) -> np.ndarray:
    """Sorted positions p in ``t`` whose window [p, p+min_len) is a
    globally duplicated window (``d`` = the broadcast sorted dup-hash
    array)."""
    h = _char_window_hashes(t, min_len)
    if not len(h) or not len(d):
        return np.empty(0, dtype=np.int64)
    idx = np.searchsorted(d, h)
    idx[idx == len(d)] = len(d) - 1
    return np.nonzero(d[idx] == h)[0].astype(np.int64)


def exact_dup_spans(
    docs: ray.data.Dataset,
    min_len: int = 50,
    text_col: str = "text",
    id_col: str = "doc_id",
    materialize_input: bool = False,
    carry_cols: tuple[str, ...] = (),
) -> ray.data.Dataset:
    """Exact duplicated-substring spans >= ``min_len`` chars — the
    window-hash equivalent of suffix-array substring deduplication
    (Lee et al. 2022, "Deduplicating Training Data Makes Language
    Models Better"): any substring of length >= L duplicated anywhere
    in the corpus (cross-doc OR within-doc repeats both count)
    contains a duplicated L-char window, so marking duplicated windows
    and unioning their [p, p+L) intervals per doc yields exactly the
    duplicated-coverage spans.  Emits one row per maximal span:
    ``(id_col, span_start, span_len)`` (0-based char offsets;
    touching intervals merge — coverage-union semantics, pinned and
    mirrored by the SQL oracle's gaps-and-islands).

    Scale shape (contrast with the winnowing sampler above, which
    trades exactness for O(n/w) selected fingerprints): two streaming
    passes over content + one shuffle of per-batch-DISTINCT window
    hashes.  Pass 1 pre-aggregates per block, packs each block's
    per-partition distinct-hash sets into binary blobs (one row per
    block×partition — the exchange is byte-bound, not row-bound), and
    keeps only hashes with a global count >= 2; the
    dup-hash set (bounded by DISTINCT duplicated windows, not corpus
    size) broadcasts once via ``ray.put``; pass 2 rescans content with
    one vectorized ``searchsorted`` per doc and merges hit positions
    into spans.  No content ever shuffles.

    The input graph executes twice (both passes need content).  For
    the normal read→project input that means two streaming reads —
    strictly cheaper at corpus scale than materializing content into
    the object store; pass ``materialize_input=True`` only when the
    upstream is nondeterministic or expensive to recompute.

    ``carry_cols`` names extra input columns copied verbatim onto each
    emitted span row (e.g. ``("repo", "path")`` for a code corpus) —
    carried through pass 2 per batch, never joined or shuffled; pass 1
    still scans only ``(id_col, text_col)``."""
    ensure_worker_importable()
    pass1 = docs.select_columns([id_col, text_col])
    src = (
        docs.select_columns([id_col, *carry_cols, text_col])
        if carry_cols else pass1
    )
    if materialize_input:
        src = src.materialize()
        pass1 = src.select_columns([id_col, text_col])
    dup_ref = _dup_window_broadcast(pass1, min_len, text_col)

    def emit_spans(batch: pa.Table) -> pa.Table:
        d = ray.get(dup_ref)
        out_row, out_s, out_l = [], [], []
        for ridx, t in enumerate(batch[text_col].to_pylist()):
            pos = _dup_positions(d, t, min_len)
            if not len(pos):
                continue
            # union the [p, p+L) intervals: break where the gap > L
            brk = np.nonzero(np.diff(pos) > min_len)[0]
            starts = np.concatenate([[0], brk + 1])
            ends = np.concatenate([brk, [len(pos) - 1]])
            for s_i, e_i in zip(starts, ends):
                out_row.append(ridx)
                out_s.append(int(pos[s_i]))
                out_l.append(int(pos[e_i]) + min_len - int(pos[s_i]))
        idx = pa.array(out_row, pa.int64())
        cols = {id_col: batch[id_col].take(idx)}
        for c in carry_cols:
            cols[c] = batch[c].take(idx)
        cols["span_start"] = pa.array(out_s, pa.int64())
        cols["span_len"] = pa.array(out_l, pa.int64())
        return pa.table(cols)

    return src.map_batches(
        emit_spans, batch_format="pyarrow", batch_size=None,
    )


def cut_dup_spans(
    docs: ray.data.Dataset,
    min_len: int = 50,
    text_col: str = "text",
    id_col: str = "doc_id",
    materialize_input: bool = False,
) -> ray.data.Dataset:
    """The REMOVAL action over :func:`exact_dup_spans`' coverage: per
    doc, splice out every character inside a duplicated span (the
    strict all-occurrences variant of Lee et al. 2022's substring
    dedup — no survivor copy; pipelines wanting one canonical copy
    compose with :func:`exact_dedup_docs` / :func:`segment_dedup`
    upstream).  Emits one row per input doc ``(id_col, text, n_cut)``
    where ``text`` is the concatenation of the non-duplicated
    segments and ``n_cut`` the removed char count; a fully-duplicated
    doc keeps an empty string.

    Same two-pass shape and shared pass 1
    (:func:`_dup_window_broadcast`) as exact_dup_spans; pass 2 splices
    instead of emitting spans.  No content ever shuffles."""
    ensure_worker_importable()
    src = docs.select_columns([id_col, text_col])
    if materialize_input:
        src = src.materialize()
    dup_ref = _dup_window_broadcast(src, min_len, text_col)

    def splice(batch: pa.Table) -> pa.Table:
        d = ray.get(dup_ref)
        out_id, out_t, out_c = [], [], []
        ids = batch[id_col].to_pylist()
        for did, t in zip(ids, batch[text_col].to_pylist()):
            pos = _dup_positions(d, t, min_len)
            out_id.append(did)
            if not len(pos):
                out_t.append(t)
                out_c.append(0)
                continue
            # merge [p, p+L) coverage exactly like emit_spans
            brk = np.nonzero(np.diff(pos) > min_len)[0]
            starts = pos[np.concatenate([[0], brk + 1])]
            ends = pos[np.concatenate([brk, [len(pos) - 1]])] + min_len
            kept = []
            prev = 0
            for a, b in zip(starts, ends):
                kept.append(t[prev:a])
                prev = b
            kept.append(t[prev:])
            cut = int((ends - starts).sum())
            out_t.append("".join(kept))
            out_c.append(cut)
        return pa.table(
            {
                id_col: pa.array(out_id, batch[id_col].type),
                "text": pa.array(out_t, pa.string()),
                "n_cut": pa.array(out_c, pa.int64()),
            }
        )

    return src.map_batches(
        splice, batch_format="pyarrow", batch_size=None,
    )


def segment_dedup(
    docs: ray.data.Dataset,
    seg_tokens: int = 10,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> ray.data.Dataset:
    """Paragraph-grain exact dedup with document reconstruction — the
    corpus-level paragraph dedup of RefinedWeb / Dolma, adapted to the
    single-line synthetic corpus by pinning the paragraph boundary to
    every ``seg_tokens`` whitespace tokens (a real corpus would split
    on blank lines upstream and pass the paragraphs through the same
    machinery; identity is exact string equality either way).

    Pinned semantics (mirrored by the SQL oracle): tokens are the
    non-empty whitespace splits; segment ``idx`` (1-based) covers
    tokens ``[(idx-1)*S, idx*S)`` with a short final segment kept; a
    segment occurrence is KEPT iff it is the global first occurrence
    of its exact text, ordered by ``(doc_id, idx)`` — later repeats
    drop whether cross-doc or within-doc.  Emits one row per input
    doc: ``(id_col, n_segs, n_kept, text)`` where ``text`` re-joins
    the kept segments with single spaces ('' when everything dropped).

    Scale shape: segments are ~10²-10³× coarser than char windows, so
    unlike :func:`exact_dup_spans` the exchange ships one row per
    block-DISTINCT segment hash carrying the block-local min
    ``(doc_id, idx)`` and count; the per-partition merge keeps only
    globally duplicated hashes, whose winner table (bounded by
    DISTINCT duplicated segments, not corpus size) broadcasts once via
    ``ray.put``; pass 2 rescans content and rebuilds docs with one
    ``searchsorted`` per doc.  Content never shuffles; the input graph
    executes twice (both passes need it), like exact_dup_spans."""
    ensure_worker_importable()
    from clonebas_ray.ops.relational import (
        dup_winner_broadcast, dup_winner_keep,
    )

    src = docs.select_columns([id_col, text_col])
    id_type = pa.int64()

    def _doc_segments(text: str) -> list[str]:
        toks = text.split()
        return [
            " ".join(toks[j * seg_tokens:(j + 1) * seg_tokens])
            for j in range((len(toks) + seg_tokens - 1) // seg_tokens)
        ]

    def _seg_hashes(segs: list[str]) -> np.ndarray:
        return np.fromiter(
            (md5_low64(s.encode()) for s in segs),
            dtype=np.uint64, count=len(segs),
        )

    def occurrences(batch: pa.Table) -> tuple[np.ndarray, ...]:
        # one (hash, doc_id, idx) occurrence per segment
        segs = [_doc_segments(t) for t in batch[text_col].to_pylist()]
        n = np.fromiter(map(len, segs), np.int64, len(segs))
        flat = [s for doc in segs for s in doc]
        idx = np.arange(1, len(flat) + 1) - np.repeat(np.cumsum(n) - n, n)
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        return _seg_hashes(flat), np.repeat(ids, n).astype(np.int64), idx

    # winners tie-break on (doc_id, idx): the global first occurrence
    win_ref = dup_winner_broadcast(src, occurrences, n_ties=2)

    def rebuild(batch: pa.Table) -> pa.Table:
        win = ray.get(win_ref)
        out_id, out_n, out_k, out_t = [], [], [], []
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        for did, t in zip(ids, batch[text_col].to_pylist()):
            segs = _doc_segments(t)
            n = len(segs)
            keep = dup_winner_keep(
                win, _seg_hashes(segs), did,
                np.arange(1, n + 1, dtype=np.int64),
            )
            kept = [s for s, k in zip(segs, keep) if k]
            out_id.append(did)
            out_n.append(n)
            out_k.append(len(kept))
            out_t.append(" ".join(kept))
        return pa.table(
            {
                id_col: pa.array(out_id, id_type),
                "n_segs": pa.array(out_n, pa.int64()),
                "n_kept": pa.array(out_k, pa.int64()),
                "text": pa.array(out_t, pa.string()),
            }
        )

    return src.map_batches(
        rebuild, batch_format="pyarrow", batch_size=None,
    )


def cross_source_overlap(
    ds: ray.data.Dataset,
    text_col: str = "text",
    group_col: str = "source",
    n: int = 3,
    num_buckets: int | None = None,
) -> pd.DataFrame:
    """Cross-source n-gram contamination matrix: for every unordered
    pair of corpus sources, the number of distinct word ``n``-grams
    they share, each side's distinct-gram count, and the gram-set
    Jaccard — the train/test overlap audit of the GPT-3 appendix /
    Dolma decontamination reports, generalized to all source pairs
    (which split is leaking into which).

    Layout (never ships gram strings, never materializes the corpus):

    1. one ``map_batches`` pass per block extracts each source's
       DISTINCT gram hashes (:class:`_GramHashes` — md5 token hashes,
       rolling polynomial gram hash, the repo's SQL-verifiable
       convention) and packs them into per-``(bucket, source)``
       binary blobs, bucketed by a splitmix64 mix of the gram hash so
       every bucket is an independent partition of gram space;
    2. ``groupby(bucket).map_groups`` unions each source's blobs
       (``np.unique`` over ``np.frombuffer``) and emits per-bucket
       partial rows: one distinct-count row per source plus one
       intersection-count row per source pair (``np.intersect1d`` on
       sorted arrays);
    3. the driver sums the tiny partial table (``buckets x
       (sources + pairs)`` rows) and assembles the matrix.

    The exchange is byte-bound: 8 bytes per block-distinct gram, the
    same budget as :func:`ngram_decontaminate`'s benchmark side, and
    per-bucket task memory is ``total_distinct_grams / num_buckets *
    8 B`` — size ``num_buckets`` up (4096+) for a 100-TB corpus.
    Counts are exact up to 64-bit gram-hash collisions
    (``~m^2/2^65`` expected — the accepted failure mode documented on
    :class:`_GramHashes`); the DuckDB oracle counts distinct gram
    STRINGS, identical barring such a collision.

    Returns a pandas DataFrame (the matrix is ``O(sources^2)`` rows —
    driver-small by construction): ``source_a < source_b``,
    ``shared_grams``, ``grams_a``, ``grams_b``, ``jaccard`` (int/int
    division, bit-identical to the oracle's), sorted by the pair.
    """
    ensure_worker_importable()
    from clonebas_ray.ops.relational import auto_partitions

    P = int(num_buckets) if num_buckets else auto_partitions(mult=2, lo=32)
    nn = int(n)

    def partial(batch: pa.Table) -> pa.Table:
        gh = _GramHashes(nn, text_col)
        per_src: dict[str, list[np.ndarray]] = {}
        for s, t in zip(
            batch[group_col].to_pylist(), batch[text_col].to_pylist()
        ):
            g = gh.doc_grams(t)
            if len(g):
                per_src.setdefault(s, []).append(g)
        buckets: list[int] = []
        srcs: list[str] = []
        blobs: list[bytes] = []
        for s, arrs in per_src.items():
            u = np.unique(np.concatenate(arrs))
            bk = (splitmix64(u) % np.uint64(P)).astype(np.int32)
            for b in np.unique(bk):
                buckets.append(int(b))
                srcs.append(s)
                blobs.append(u[bk == b].tobytes())
        return pa.table(
            {
                "bucket": pa.array(buckets, pa.int32()),
                "grp": pa.array(srcs, pa.string()),
                "blob": pa.array(blobs, pa.binary()),
            }
        )

    def merge_bucket(g: pd.DataFrame) -> pd.DataFrame:
        per: dict[str, list[np.ndarray]] = {}
        for s, blob in zip(g["grp"], g["blob"]):
            per.setdefault(s, []).append(np.frombuffer(blob, np.uint64))
        sets = {s: np.unique(np.concatenate(a)) for s, a in per.items()}
        names = sorted(sets)
        kind, col_a, col_b, cnt = [], [], [], []
        for s in names:
            kind.append("tot")
            col_a.append(s)
            col_b.append("")
            cnt.append(int(sets[s].size))
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                kind.append("pair")
                col_a.append(a)
                col_b.append(b)
                cnt.append(
                    int(
                        np.intersect1d(
                            sets[a], sets[b], assume_unique=True
                        ).size
                    )
                )
        return pd.DataFrame(
            {
                "kind": kind,
                "source_a": col_a,
                "source_b": col_b,
                "cnt": np.array(cnt, np.int64),
            }
        )

    empty = pd.DataFrame(
        {
            "source_a": pd.Series([], dtype="object"),
            "source_b": pd.Series([], dtype="object"),
            "shared_grams": pd.Series([], dtype="int64"),
            "grams_a": pd.Series([], dtype="int64"),
            "grams_b": pd.Series([], dtype="int64"),
            "jaccard": pd.Series([], dtype="float64"),
        }
    )

    parts = ds.map_batches(
        partial, batch_format="pyarrow", batch_size=None
    ).materialize()
    if parts.count() == 0:
        return empty
    partials = (
        parts.groupby("bucket")
        .map_groups(merge_bucket, batch_format="pandas")
        .to_pandas()
    )
    tot = (
        partials[partials["kind"] == "tot"]
        .groupby("source_a")["cnt"]
        .sum()
        .sort_index()
    )
    pair_sum = (
        partials[partials["kind"] == "pair"]
        .groupby(["source_a", "source_b"])["cnt"]
        .sum()
    )
    names = list(tot.index)
    rows = []
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            s = int(pair_sum.get((a, b), 0))
            na, nb = int(tot[a]), int(tot[b])
            rows.append(
                (a, b, s, na, nb, s / float(na + nb - s))
            )
    if not rows:
        return empty
    return pd.DataFrame(
        rows,
        columns=[
            "source_a", "source_b", "shared_grams",
            "grams_a", "grams_b", "jaccard",
        ],
    ).astype(
        {
            "shared_grams": "int64",
            "grams_a": "int64",
            "grams_b": "int64",
            "jaccard": "float64",
        }
    )


# ---------------------------------------------------------------------------
# corpus-frequent ("boilerplate") line removal
# ---------------------------------------------------------------------------


def strip_boilerplate(
    docs: ray.data.Dataset,
    min_df: int = 3,
    unit: str = "line",
    seg_tokens: int = 10,
    id_col: str = "doc_id",
    text_col: str = "text",
    max_hot: int = 2_000_000,
) -> ray.data.Dataset:
    """Remove every occurrence of spans that appear in ``>= min_df``
    distinct documents — the C4 / RefinedWeb / MassiveText boilerplate
    rule (cookie banners, nav bars, license headers).  Unlike
    :func:`segment_dedup` (which KEEPS the first occurrence), a
    corpus-frequent span is dropped from every carrier, first included.
    Span grain: ``unit="line"`` splits on newlines; ``unit="tokens"``
    uses the non-overlapping ``seg_tokens``-token windows that
    :func:`segment_dedup` pins (the fixture corpus is single-line, so
    token windows are the grain that actually fires there).
    Output: ``(id_col, clean_text, n_removed)`` for every input doc
    (a doc whose every span is hot keeps an empty ``clean_text``).

    Two streaming passes:

    1. line-DF census — per block, each doc's DISTINCT line hashes
       (``md5_low64``, the repo's SQL-parity convention; the oracle
       groups by ``md5_number_lower(line)`` so both sides share the
       same keys by construction) emit ``(hash, df_partial)`` rows; a
       hash-BUCKETED merge (the ``exact_dedup_docs`` pattern — never
       one task per distinct line) sums DF and keeps ``df >= min_df``
       survivors only.  The exchange is byte-bound (hash + count, no
       line content); a doc never spans blocks, so per-block
       distinct-doc counts sum to the global DF exactly.
    2. filter — survivors are by construction the SMALL side
       (boilerplate, not the corpus); they broadcast ONCE as a sorted
       uint64 array via ``ray.put`` and each block drops member lines
       with one ``np.searchsorted`` over the block's flattened line
       hashes (``batch_size=None`` — one call per block).

    ``max_hot`` guards the driver: if the census yields more
    survivors than this, raise instead of silently collecting a
    corpus-sized set (at that point ``min_df`` is mis-set for the
    corpus, not boilerplate-shaped).
    """
    ensure_worker_importable()
    from clonebas_ray.ops.relational import auto_partitions

    P = auto_partitions()
    md = int(min_df)
    if unit == "line":
        joiner = "\n"

        def split(t: str) -> list[str]:
            return (t or "").split("\n")
    elif unit == "tokens":
        joiner = " "
        k = int(seg_tokens)

        def split(t: str) -> list[str]:
            w = (t or "").split(" ")
            return [" ".join(w[i:i + k]) for i in range(0, len(w), k)]
    else:
        raise ValueError(f"unit must be 'line' or 'tokens', got {unit!r}")

    def census_partial(batch: pa.Table) -> pa.Table:
        counts: dict[int, int] = {}
        for t in batch[text_col].to_pylist():
            for h in {md5_low64(ln.encode("utf-8", "surrogatepass"))
                      for ln in split(t)}:
                counts[h] = counts.get(h, 0) + 1
        hs = np.fromiter(counts.keys(), np.uint64, len(counts))
        dfs = np.fromiter(counts.values(), np.int64, len(counts))
        return pa.table({
            "lh": pa.array(hs, pa.uint64()),
            "df": pa.array(dfs, pa.int64()),
            "__bucket": pa.array(
                (hs % np.uint64(P)).astype(np.int32), pa.int32()),
        })

    def merge_bucket(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("lh", sort=False)["df"].sum().reset_index()
        out = out[out["df"] >= md][["lh"]]
        out["lh"] = out["lh"].astype("uint64")
        return out

    hot_parts = [
        ray.get(r) for r in (
            docs.select_columns([text_col])
            .map_batches(census_partial, batch_format="pyarrow",
                         batch_size=None)
            .groupby("__bucket")
            .map_groups(merge_bucket, batch_format="pandas")
            .to_arrow_refs()
        )
    ]
    hot_parts = [p for p in hot_parts if p.num_rows]
    hot = (
        np.sort(pa.concat_tables(hot_parts)["lh"].to_numpy(
            zero_copy_only=False).astype(np.uint64))
        if hot_parts else np.empty(0, np.uint64)
    )
    if len(hot) > max_hot:
        raise ValueError(
            f"boilerplate census found {len(hot)} hot spans "
            f"(> max_hot={max_hot}); min_df={md} is not selecting "
            "boilerplate on this corpus — raise min_df or max_hot"
        )
    hot_ref = ray.put(hot)

    def strip(batch: pa.Table) -> pa.Table:
        hv = hot_ref
        if not isinstance(hv, np.ndarray):
            hv = ray.get(hv)
        texts = batch[text_col].to_pylist()
        spans_per_doc = [split(t) for t in texts]
        flat = [ln for spans in spans_per_doc for ln in spans]
        fh = np.fromiter(
            (md5_low64(ln.encode("utf-8", "surrogatepass"))
             for ln in flat),
            np.uint64, len(flat),
        )
        if len(hv) and len(fh):
            idx = np.searchsorted(hv, fh)
            idx[idx >= len(hv)] = 0
            is_hot = hv[idx] == fh
        else:
            is_hot = np.zeros(len(fh), bool)
        out_txt, out_rm = [], []
        pos = 0
        for spans in spans_per_doc:
            n = len(spans)
            mask = is_hot[pos:pos + n]
            pos += n
            out_txt.append(
                joiner.join(ln for ln, h in zip(spans, mask) if not h))
            out_rm.append(int(mask.sum()))
        return pa.table({
            id_col: batch[id_col],
            "clean_text": pa.array(out_txt, pa.string()),
            "n_removed": pa.array(out_rm, pa.int64()),
        })

    return docs.select_columns([id_col, text_col]).map_batches(
        strip, batch_format="pyarrow", batch_size=None
    )
