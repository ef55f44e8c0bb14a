"""Cross-run incremental NEAR-duplicate dedup against a persistent
MinHash signature store — the fuzzy sibling of
:mod:`clonebas_ray.state.hashstore` (which only catches byte-exact
bodies).  New crawl snapshots must also be screened against paraphrase
/ boilerplate-variant duplicates of everything already accepted,
without re-reading the accepted corpus's text.

Design — two sharded sub-stores under one directory (both append-only
parquet with the hashstore's atomic content-named part files):

* ``bands/shard-SSSSS/part-*.parquet`` ``(band_key uint64, doc_id)``
  — each accepted doc's ``n_bands`` LSH bucket keys (the same
  one-permutation-hashing :class:`~clonebas_ray.ops.text_dedup.
  MinHasher` the in-corpus MinHash ops use); a row's shard is
  ``band_key % n_shards``, so candidate lookup for a new batch reads
  ``1/n_shards`` of the band store per task.
* ``shingles/shard-SSSSS/part-*.parquet`` ``(doc_id, sh binary)`` —
  each accepted doc's sorted-unique shingle-hash set packed as one
  uint64 blob, sharded by ``doc_id % n_shards``; candidate pairs are
  verified by EXACT Jaccard on these sets (hash-set Jaccard equals
  string-set Jaccard w.h.p.: >= k-token docs key each distinct
  k-shingle by the rolling polynomial over token hashes, < k-token
  docs key their single whole-sequence shingle by the domain-tagged
  sequence hash, so short and long docs can never spuriously
  intersect).  The blob store is the price of exactness (~8 bytes per
  distinct shingle); it is what lets verification run store-side
  without the accepted corpus's text.

:func:`incremental_neardup` flags each new doc that has an accepted
doc with Jaccard >= threshold (store-only semantics: docs within the
new snapshot do not interact — compose with ``exact_dedup_docs`` /
``minhash_dedup_clusters`` for in-snapshot dedup), and with
``update=True`` appends the UNFLAGGED docs' bands + shingle blobs so
the next snapshot screens against this one.  ABOVE-threshold families
contribute at most one member to the store (later arrivals are
flagged), but SUB-threshold shared runs (cookie banners, license
headers) accumulate legitimately and can pin whole bands — the
``max_bucket`` cap in :func:`incremental_neardup` is what keeps those
hot band values from cross-pairing every carrier (measured: >10^7 raw
candidates from one 30-token run at 1M docs before the cap).

Scale shape: the new snapshot's text is read twice (band pass +
candidate-blob pass) and never shuffled; exchanges carry band keys,
candidate id pairs, and candidate blobs only; the driver holds the
flagged-id set (bounded by near-dup volume).  Re-running the same
snapshot after ``update=True`` flags everything (it is now accepted)
— the same idempotent-by-semantics behavior as the exact store.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

import ray
import ray.data

from clonebas_ray.bootstrap import ensure_worker_importable
from clonebas_ray.functions.kernels import sorted_runs
from clonebas_ray.ops.text_dedup import MinHasher, _shingle_hashes


def _manifest_path(store_dir: str) -> str:
    return os.path.join(store_dir, "manifest.json")


def init_sig_store(
    store_dir: str,
    n_shards: int = 64,
    num_perm: int = 128,
    shingle_k: int = 5,
    n_bands: int = 32,
) -> None:
    """Create an empty store (idempotent; the existing manifest wins
    so signature conventions can never silently change under data)."""
    os.makedirs(store_dir, exist_ok=True)
    if os.path.exists(_manifest_path(store_dir)):
        return
    tmp = _manifest_path(store_dir) + ".tmp"
    with open(tmp, "w") as f:
        json.dump(
            {
                "n_shards": int(n_shards),
                "num_perm": int(num_perm),
                "shingle_k": int(shingle_k),
                "n_bands": int(n_bands),
                "hash": "oph_poly_shingle",
            },
            f,
        )
    os.replace(tmp, _manifest_path(store_dir))


def _params(store_dir: str) -> dict:
    with open(_manifest_path(store_dir)) as f:
        return json.load(f)


def _shard_dir(store_dir: str, sub: str, shard: int) -> str:
    return os.path.join(store_dir, sub, f"shard-{shard:05d}")


def _append_part(store_dir: str, sub: str, shard: int,
                 table: pa.Table) -> str | None:
    """Atomic, idempotent append (hashstore convention): the part file
    is named by the hash of its content, so a re-run of the same
    contribution lands on the same name instead of growing the
    store.  Returns the part path (None for an empty contribution)."""
    if table.num_rows == 0:
        return None
    # canonical row order: a shuffle delivers group rows in
    # nondeterministic order, and the idempotent part name hashes raw
    # buffers — sort so the same logical contribution always lands on
    # the same file name
    table = table.sort_by(
        [(name, "ascending") for name in table.column_names]
    ).combine_chunks()
    d = _shard_dir(store_dir, sub, shard)
    os.makedirs(d, exist_ok=True)
    dig = hashlib.md5()
    for col in table.itercolumns():
        for chunk in col.chunks:
            for buf in chunk.buffers():
                if buf is not None:
                    dig.update(buf)
    dst = os.path.join(d, f"part-{dig.hexdigest()[:16]}.parquet")
    if os.path.exists(dst):
        return dst
    tmp = dst + f".tmp-{os.getpid()}"
    pq.write_table(table, tmp)
    os.replace(tmp, dst)
    return dst


def _read_shard(store_dir: str, sub: str, shard: int,
                columns: list[str]) -> pa.Table:
    d = _shard_dir(store_dir, sub, shard)
    if not os.path.isdir(d):
        return pa.table(
            {c: pa.array([], pa.uint64() if c == "band_key"
                         else pa.large_binary() if c == "sh"
                         else pa.int64())
             for c in columns}
        )
    parts = sorted(
        os.path.join(d, f) for f in os.listdir(d) if f.endswith(".parquet")
    )
    return pa.concat_tables([pq.read_table(p, columns=columns)
                             for p in parts])


def _doc_shingle_blob(mh: MinHasher, text: str) -> bytes | None:
    """Sorted-unique shingle-hash set as a uint64 blob; None for
    shingle-less (token-less) docs.  Conventions match the MinHasher:
    >= k tokens → the rolling-polynomial hashes (one per distinct
    shingle string w.h.p.); < k tokens → the single domain-tagged
    whole-sequence key from ``_shingle_set_key`` (a short doc's one
    shingle is the whole joined sequence, and the tag keeps it from
    ever colliding with a genuine k-gram hash)."""
    toks = mh._token_ids(text)
    if not toks:
        return None
    sh = _shingle_hashes(toks, mh.k)
    if len(toks) < mh.k:
        sh = np.array([mh._shingle_set_key(toks, sh)], dtype=np.uint64)
    return sh.tobytes()


def _blob_jaccard(a: bytes, b: bytes) -> float:
    ha = np.frombuffer(a, dtype=np.uint64)
    hb = np.frombuffer(b, dtype=np.uint64)
    inter = len(np.intersect1d(ha, hb, assume_unique=True))
    union = len(ha) + len(hb) - inter
    return inter / union if union else 1.0


def _band_rows(docs: ray.data.Dataset, p: dict, id_col: str,
               text_col: str, concurrency) -> ray.data.Dataset:
    """(band_key, doc_id, s) rows for every shingle-bearing doc."""
    n = p["n_shards"]

    def rename(b: pa.Table) -> pa.Table:
        return pa.table({"doc_id": b[id_col], "text": b[text_col]})

    banded = docs.select_columns([id_col, text_col]).map_batches(
        rename, batch_format="pyarrow"
    )
    mh_kwargs = {
        "num_perm": p["num_perm"], "shingle_k": p["shingle_k"],
        "n_bands": p["n_bands"],
    }
    if concurrency is None:
        # task-pool callable instance (the (1, 8) actor pool paid ~3x
        # in autoscale ramp at 200k files — round-4 A/B)
        banded = banded.map_batches(
            MinHasher(**mh_kwargs), batch_format="pyarrow")
    else:
        banded = banded.map_batches(
            MinHasher,
            fn_constructor_kwargs=mh_kwargs,
            batch_format="pyarrow",
            concurrency=concurrency,
            max_restarts=0,
        )

    def add_shard(b: pa.Table) -> pa.Table:
        k = b["band_key"].to_numpy().astype(np.uint64)
        return b.append_column(
            "s", pa.array((k % np.uint64(n)).astype(np.int64), pa.int64())
        )

    return banded.map_batches(add_shard, batch_format="pyarrow")


def _blob_rows(docs: ray.data.Dataset, p: dict, id_col: str,
               text_col: str) -> ray.data.Dataset:
    """(doc_id, sh, s) shingle-blob rows, sharded by doc id."""
    n = p["n_shards"]
    num_perm, k, n_bands = p["num_perm"], p["shingle_k"], p["n_bands"]

    def blobs(b: pa.Table) -> pa.Table:
        mh = MinHasher(num_perm=num_perm, shingle_k=k, n_bands=n_bands)
        ids, out = [], []
        for did, t in zip(b[id_col].to_pylist(), b[text_col].to_pylist()):
            blob = _doc_shingle_blob(mh, t)
            if blob is not None:
                ids.append(did)
                out.append(blob)
        ids = np.asarray(ids, dtype=np.int64)
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "sh": pa.array(out, pa.large_binary()),
                "s": pa.array(ids % n, pa.int64()),
            }
        )

    return docs.select_columns([id_col, text_col]).map_batches(
        blobs, batch_format="pyarrow"
    )


def build_sig_store(
    docs: ray.data.Dataset,
    store_dir: str,
    id_col: str = "doc_id",
    text_col: str = "text",
    n_shards: int = 64,
    num_perm: int = 128,
    shingle_k: int = 5,
    n_bands: int = 32,
    concurrency: int | tuple[int, int] | None = None,
) -> None:
    """Seed a store with every doc in ``ds``: one shuffle of band keys
    into the band shards, one shuffle of shingle blobs into the blob
    shards (per-shard groups write their own files)."""
    ensure_worker_importable()
    init_sig_store(store_dir, n_shards, num_perm, shingle_k, n_bands)
    p = _params(store_dir)
    docs = docs.select_columns([id_col, text_col]).materialize()

    def write_bands(g: pa.Table) -> pa.Table:
        shard = g["s"][0].as_py()
        _append_part(
            store_dir, "bands", shard,
            g.select(["band_key", "doc_id"]).combine_chunks(),
        )
        return pa.table({"s": pa.array([shard], pa.int64())})

    (
        _band_rows(docs, p, id_col, text_col, concurrency)
        .groupby("s")
        .map_groups(write_bands, batch_format="pyarrow")
        .materialize()
    )

    def write_blobs(g: pa.Table) -> pa.Table:
        shard = g["s"][0].as_py()
        _append_part(
            store_dir, "shingles", shard,
            g.select(["doc_id", "sh"]).combine_chunks(),
        )
        return pa.table({"s": pa.array([shard], pa.int64())})

    (
        _blob_rows(docs, p, id_col, text_col)
        .groupby("s")
        .map_groups(write_blobs, batch_format="pyarrow")
        .materialize()
    )


def incremental_neardup(
    docs: ray.data.Dataset,
    store_dir: str,
    threshold: float = 0.5,
    id_col: str = "doc_id",
    text_col: str = "text",
    update: bool = False,
    concurrency: int | tuple[int, int] | None = None,
    max_bucket: int = 128,
) -> ray.data.Dataset:
    """Flag each new doc with an accepted near-duplicate: returns one
    row per input doc ``(id_col, near_dup bool)`` where ``near_dup``
    iff some STORED doc has exact shingle-set Jaccard >= threshold
    (candidates from shared LSH band buckets, verified on the stored
    blobs — the same band/verify split as ``minhash_lsh_pairs``).

    ``threshold`` gates an EXACT Jaccard verify, but candidates are
    probabilistic: with the store's 32 bands x 4 rows, a pair at
    exactly J = threshold = 0.5 shares at least one band with
    probability ``1 - (1 - 0.5^4)^32 ~= 0.87`` — i.e. ~13% of
    borderline pairs are never proposed, and ``max_bucket`` skips add
    to that on boilerplate-pinned bands.  Parity with the exact-SQL
    EXISTS oracle is therefore guaranteed only when dup families sit
    comfortably ABOVE threshold (at J=0.8 the miss rate is ~5e-6; the
    sf fixtures plant near-exact copies).  If this query ever
    hash-mismatches, check the fixture's borderline-J pairs before
    suspecting the store: a band miss is expected behavior, not a
    bug.

    ``max_bucket`` is the boilerplate guard: a band value matching
    more than this many STORE docs is skipped for candidate
    generation.  SUB-threshold shared runs (cookie banners, license
    headers — legitimately kept, so they accumulate in the store
    across snapshots) occasionally pin a whole band's slots, and each
    such band value pairs every carrier of the run on both sides —
    measured 1M-doc smoke: >10^7 raw candidates from one 30-token run
    carried by 10% of docs, vs ~10^4 true near-dups.  An ABOVE-
    threshold pair shares ~``n_bands * threshold^rows_per_band`` band
    values in expectation, overwhelmingly minhashed from doc-SPECIFIC
    shingles, so skipping the hot values costs recall only for pairs
    whose every shared band is boilerplate-pinned — the standard LSH
    bucket-size cap trade.  Verification-scale oracle parity is
    unaffected (store buckets at sf scale are family-sized, far under
    the cap).

    ``update=True`` appends the unflagged docs' bands + blobs AFTER
    the flag pass completes (the decision never sees its own run's
    writes), so consecutive snapshots chain.

    Oracle (ANSI SQL): EXISTS over an exact shingle-Jaccard join
    between the new and accepted halves — see ``__ray_entry__``'s
    ``incremental_neardup`` entry."""
    ensure_worker_importable()
    from clonebas_ray.ops.relational import auto_partitions

    p = _params(store_dir)
    n = p["n_shards"]
    docs = docs.select_columns([id_col, text_col]).materialize()

    # 1. candidates: new band keys vs the band store, per band shard
    def match_shard(g: pa.Table) -> pa.Table:
        shard = g["s"][0].as_py()
        store = _read_shard(store_dir, "bands", shard,
                            ["band_key", "doc_id"])
        if store.num_rows == 0 or g.num_rows == 0:
            return pa.table(
                {"nid": pa.array([], pa.int64()),
                 "sid": pa.array([], pa.int64())}
            )
        sk = store["band_key"].to_numpy().astype(np.uint64)
        sid = store["doc_id"].to_numpy(zero_copy_only=False)
        order = np.argsort(sk, kind="stable")
        sk, sid = sk[order], sid[order]
        nk = g["band_key"].to_numpy().astype(np.uint64)
        nid = g["doc_id"].to_numpy(zero_copy_only=False)
        lo = np.searchsorted(sk, nk, side="left")
        hi = np.searchsorted(sk, nk, side="right")
        cnt = hi - lo
        rows = np.nonzero((cnt > 0) & (cnt <= max_bucket))[0]
        if not len(rows):
            return pa.table(
                {"nid": pa.array([], pa.int64()),
                 "sid": pa.array([], pa.int64())}
            )
        out_n = np.repeat(nid[rows], cnt[rows])
        out_s = sid[
            np.concatenate([np.arange(lo[r], hi[r]) for r in rows])
        ]
        uniq = pd.DataFrame({"nid": out_n, "sid": out_s}).drop_duplicates()
        return pa.table(
            {"nid": pa.array(uniq["nid"].to_numpy(), pa.int64()),
             "sid": pa.array(uniq["sid"].to_numpy(), pa.int64())}
        )

    cands = (
        _band_rows(docs, p, id_col, text_col, concurrency)
        .groupby("s")
        .map_groups(match_shard, batch_format="pyarrow")
    ).materialize()

    # the verify exchange must be CANDIDATE-bound, not corpus-bound:
    # only docs with at least one band match need their own blob in
    # the verify shuffle (shipping every new doc's shingle set would
    # re-shuffle the whole snapshot each run)
    nid_parts = [
        b["nid"].to_numpy(zero_copy_only=False)
        for b in cands.iter_batches(batch_format="pyarrow",
                                    batch_size=None)
    ]
    cand_ids = (
        np.unique(np.concatenate(nid_parts))
        if nid_parts else np.empty(0, np.int64)
    )
    cand_ref = ray.put(np.ascontiguousarray(cand_ids))

    def cand_only(b: pa.Table) -> pa.Table:
        c = ray.get(cand_ref)
        if not len(c):
            return b.slice(0, 0)
        ids = b[id_col].to_numpy(zero_copy_only=False)
        pos = np.searchsorted(c, ids)
        pos[pos == len(c)] = len(c) - 1
        return b.filter(pa.array(c[pos] == ids))

    # 2. attach stored shingle blobs, per blob shard
    def add_sshard(b: pa.Table) -> pa.Table:
        sid = b["sid"].to_numpy(zero_copy_only=False)
        return b.append_column("ss", pa.array(sid % n, pa.int64()))

    def attach_seen(g: pa.Table) -> pa.Table:
        shard = g["ss"][0].as_py()
        store = _read_shard(store_dir, "shingles", shard, ["doc_id", "sh"])
        lut = dict(zip(store["doc_id"].to_pylist(),
                       store["sh"].to_pylist()))
        blobs = [lut.get(s) for s in g["sid"].to_pylist()]
        keep = pa.array([b is not None for b in blobs])
        return pa.table(
            {"nid": g["nid"], "sid": g["sid"],
             "blob": pa.array(blobs, pa.large_binary())}
        ).filter(keep)

    seen_blobs = (
        cands.map_batches(add_sshard, batch_format="pyarrow")
        .groupby("ss")
        .map_groups(attach_seen, batch_format="pyarrow")
    )

    # 3. verify: bucket candidate rows with the new docs' own blobs
    # (recomputed for candidate docs only) and Jaccard-check each pair
    P = auto_partitions()

    def a_rows(b: pa.Table) -> pa.Table:
        nid = b["nid"].to_numpy(zero_copy_only=False)
        return pa.table(
            {"nid": pa.array(nid, pa.int64()),
             "sid": b["sid"],
             "blob": b["blob"],
             "nb": pa.array(nid % P, pa.int64())}
        )

    def b_rows(b: pa.Table) -> pa.Table:
        nid = b["doc_id"].to_numpy(zero_copy_only=False)
        return pa.table(
            {"nid": pa.array(nid, pa.int64()),
             "sid": pa.array(np.full(len(nid), -1), pa.int64()),
             "blob": b["sh"],
             "nb": pa.array(nid % P, pa.int64())}
        )

    new_blobs = _blob_rows(
        docs.map_batches(cand_only, batch_format="pyarrow",
                         batch_size=None),
        p, id_col, text_col,
    ).map_batches(b_rows, batch_format="pyarrow")

    def verify(g: pa.Table) -> pa.Table:
        # the same (nid, sid) pair reaches here once per shared band
        # SHARD — drop duplicates before paying a blob Jaccard each
        sid = g["sid"].to_numpy(zero_copy_only=False)
        nid = g["nid"].to_numpy(zero_copy_only=False)
        order, starts, _ = sorted_runs(nid, sid)
        keep_rows = order[starts]
        blobs = g["blob"].to_pylist()
        own = {
            nid[r]: blobs[r] for r in keep_rows if sid[r] == -1
        }
        flagged = set()
        for r in keep_rows:
            i, s = nid[r], sid[r]
            if s == -1 or i in flagged:
                continue
            mine = own.get(i)
            if mine is not None and _blob_jaccard(mine, blobs[r]) >= threshold:
                flagged.add(i)
        out = np.fromiter(flagged, dtype=np.int64, count=len(flagged))
        return pa.table({"nid": pa.array(np.sort(out), pa.int64())})

    flagged_parts = [
        b["nid"].to_numpy(zero_copy_only=False)
        for b in seen_blobs.map_batches(a_rows, batch_format="pyarrow")
        .union(new_blobs)
        .map_batches(lambda t: t, batch_format="pyarrow", batch_size=None)
        .groupby("nb")
        .map_groups(verify, batch_format="pyarrow")
        .iter_batches(batch_format="pyarrow", batch_size=None)
    ]
    flagged = (
        np.sort(np.concatenate(flagged_parts))
        if flagged_parts else np.empty(0, np.int64)
    )
    flag_ref = ray.put(np.ascontiguousarray(flagged))

    # 4. update AFTER the flag set is fixed: append kept docs' rows
    if update:
        def kept_only(b: pa.Table) -> pa.Table:
            f = ray.get(flag_ref)
            ids = b[id_col].to_numpy(zero_copy_only=False)
            pos = np.searchsorted(f, ids)
            pos[pos == len(f)] = max(len(f) - 1, 0)
            hit = f[pos] == ids if len(f) else np.zeros(len(ids), bool)
            return b.filter(pa.array(~hit))

        kept = docs.map_batches(
            kept_only, batch_format="pyarrow", batch_size=None
        ).materialize()

        def write_bands(g: pa.Table) -> pa.Table:
            shard = g["s"][0].as_py()
            _append_part(store_dir, "bands", shard,
                         g.select(["band_key", "doc_id"]).combine_chunks())
            return pa.table({"s": pa.array([shard], pa.int64())})

        (
            _band_rows(kept, p, id_col, text_col, concurrency)
            .groupby("s").map_groups(write_bands, batch_format="pyarrow")
            .materialize()
        )

        def write_blobs(g: pa.Table) -> pa.Table:
            shard = g["s"][0].as_py()
            _append_part(store_dir, "shingles", shard,
                         g.select(["doc_id", "sh"]).combine_chunks())
            return pa.table({"s": pa.array([shard], pa.int64())})

        (
            _blob_rows(kept, p, id_col, text_col)
            .groupby("s").map_groups(write_blobs, batch_format="pyarrow")
            .materialize()
        )

    # 5. one row per input doc
    def emit(b: pa.Table) -> pa.Table:
        f = ray.get(flag_ref)
        ids = b[id_col].to_numpy(zero_copy_only=False)
        if len(f):
            pos = np.searchsorted(f, ids)
            pos[pos == len(f)] = len(f) - 1
            hit = f[pos] == ids
        else:
            hit = np.zeros(len(ids), dtype=bool)
        return pa.table(
            {id_col: pa.array(ids, pa.int64()),
             "near_dup": pa.array(hit, pa.bool_())}
        )

    return docs.map_batches(emit, batch_format="pyarrow", batch_size=None)


def compact_sig_store(store_dir: str) -> dict:
    """Merge each (sub, shard)'s accumulated part files into ONE
    canonical content-named part — the between-snapshots maintenance
    pass (the hashstore :func:`~clonebas_ray.state.hashstore
    .compact_store` twin).  Rows are distinct-collapsed: band rows
    ``(band_key, doc_id)`` and shingle rows ``(doc_id, sh)`` are SETS,
    so duplicates from overlapping appends (or from the crash-safe
    write-merged-then-delete ordering) never change semantics — at
    worst a transiently duplicated row costs a duplicate candidate
    that verifies to the same answer.  One Ray task per (sub, shard).
    """
    n = _params(store_dir)["n_shards"]
    res = ray.get([
        _compact_sig_shard.remote(store_dir, sub, s)
        for sub in ("bands", "shingles")
        for s in range(n)
    ])
    return {
        "shards": 2 * n,
        "parts_before": sum(r[0] for r in res),
        "parts_after": sum(r[1] for r in res),
        "rows": sum(r[2] for r in res),
    }


@ray.remote
def _compact_sig_shard(store_dir: str, sub: str, shard: int):
    ensure_worker_importable()
    d = _shard_dir(store_dir, sub, shard)
    if not os.path.isdir(d):
        return (0, 0, 0)
    parts = sorted(
        os.path.join(d, f) for f in os.listdir(d)
        if f.endswith(".parquet")
    )
    if len(parts) <= 1:
        n = len(pq.read_table(parts[0])) if parts else 0
        return (len(parts), len(parts), n)
    tab = pa.concat_tables([pq.read_table(p) for p in parts])
    # distinct rows via pandas (binary cells hash fine as bytes)
    df = tab.to_pandas().drop_duplicates()
    merged = pa.Table.from_pandas(df, schema=tab.schema,
                                  preserve_index=False)
    keep = _append_part(store_dir, sub, shard, merged)
    for p in parts:
        if keep is None or os.path.abspath(p) != os.path.abspath(keep):
            os.remove(p)
    return (len(parts), 1 if keep else 0, merged.num_rows)
