"""Cross-run incremental SEMANTIC near-dup against a persistent
embedding store — the third member of the incremental-dedup family
(:mod:`hashstore` exact bytes, :mod:`sigstore` MinHash shingle sets,
this module embedding cosine): new snapshots are screened against the
accepted corpus's embeddings without re-reading it.

Design — a cluster-sharded vector store:

* the CODEBOOK is pinned at init and stored with the manifest: the
  ``n_lists`` smallest-id vectors of the seed snapshot
  (``codebook='anchors'``, SQL-verifiable like
  :func:`~clonebas_ray.ops.similarity.semantic_dedup`) or k-means
  centroids (``'kmeans'``, production).  Every later snapshot assigns
  with the SAME stored codebook, so list membership is stable across
  runs;
* ``lists/shard-SSSSS/part-*.parquet`` holds ``(list_id, vec_id,
  emb binary)`` rows (raw float32 payload), sharded by ``list_id %
  n_shards`` with the sigstore's atomic content-named appends —
  screening a new batch reads ``1/n_shards`` of the store per task.
  NOTE: inputs are QUANTIZED to float32 at ingest (`_assigned_rows`),
  and both the round6-argmax list assignment and the >=threshold
  cosine check run on the float32-then-float64 values.  DuckDB
  ``DOUBLE[]`` oracle parity is therefore pinned only for sources
  whose embeddings are already float32 (the sf fixtures store
  ``list<float32>``, so the quantization is lossless there); a
  float64 source can diverge in the 7th digit near an assignment tie
  or the threshold boundary — store float64 blobs instead if that
  ever matters;
* a new vector is flagged iff some STORED vector in its OWN list has
  cosine >= threshold — the same cluster-scoped exists rule as
  ``semantic_dedup`` (cross-list near-dups are the documented
  SemDeDup recall trade), which keeps the whole pipeline
  DuckDB-oracle-verifiable in anchors mode;
* ``update=True`` appends the unflagged vectors after the flag pass
  completes, so snapshots chain; re-screening the same snapshot then
  flags everything (it is now accepted).

Scale shape: one broadcast (the codebook), one shuffle of (list,
vec, embedding) rows grouped by list shard; per-task work is a tiled
matmul of the group's new vectors against the shard's stored lists;
the driver holds only the flagged-id set.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray
import ray.data

from clonebas_ray.bootstrap import ensure_worker_importable
from clonebas_ray.functions.kernels import sorted_runs
from clonebas_ray.ops.similarity import (
    _batch_embeddings, _lowest_id_vectors, _normalize, train_codebook,
)

_COS_TILE = 2048


def _manifest_path(store_dir: str) -> str:
    return os.path.join(store_dir, "manifest.json")


def _codebook_path(store_dir: str) -> str:
    return os.path.join(store_dir, "codebook.parquet")


def _params(store_dir: str) -> dict:
    with open(_manifest_path(store_dir)) as f:
        return json.load(f)


def _load_codebook(store_dir: str) -> np.ndarray:
    t = pq.read_table(_codebook_path(store_dir))
    dim = _params(store_dir)["dim"]
    return np.frombuffer(
        b"".join(t["c"].to_pylist()), dtype=np.float64
    ).reshape(-1, dim)


def init_vec_store(
    vectors: ray.data.Dataset,
    store_dir: str,
    n_shards: int = 64,
    n_lists: int = 16,
    codebook: str = "anchors",
    id_col: str = "vec_id",
    emb_col: str = "embedding",
) -> None:
    """Pin the codebook from the seed snapshot and write the manifest
    (idempotent: an existing manifest + codebook win)."""
    os.makedirs(store_dir, exist_ok=True)
    if os.path.exists(_manifest_path(store_dir)):
        return
    if codebook == "anchors":
        cents = _lowest_id_vectors(vectors, n_lists, id_col, emb_col)
    elif codebook == "kmeans":
        cents = train_codebook(
            vectors.materialize(), n_lists=n_lists,
            sample_rows=max(4096, 8 * n_lists), emb_col=emb_col,
        )
    else:
        raise ValueError(f"unknown codebook {codebook!r}")
    tmp = _codebook_path(store_dir) + ".tmp"
    pq.write_table(
        pa.table({"c": pa.array(
            [row.astype(np.float64).tobytes() for row in cents],
            pa.large_binary())}),
        tmp,
    )
    os.replace(tmp, _codebook_path(store_dir))
    mtmp = _manifest_path(store_dir) + ".tmp"
    with open(mtmp, "w") as f:
        json.dump(
            {"n_shards": int(n_shards), "n_lists": int(len(cents)),
             "dim": int(cents.shape[1]), "codebook": codebook},
            f,
        )
    os.replace(mtmp, _manifest_path(store_dir))


def _shard_dir(store_dir: str, shard: int) -> str:
    return os.path.join(store_dir, "lists", f"shard-{shard:05d}")


def _append_part(store_dir: str, shard: int,
                 table: pa.Table) -> str | None:
    if table.num_rows == 0:
        return None
    table = table.sort_by(
        [("list_id", "ascending"), ("vec_id", "ascending")]
    ).combine_chunks()
    d = _shard_dir(store_dir, shard)
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


def _read_shard(store_dir: str, shard: int) -> pa.Table:
    d = _shard_dir(store_dir, shard)
    if not os.path.isdir(d):
        return pa.table(
            {"list_id": pa.array([], pa.int64()),
             "vec_id": pa.array([], pa.int64()),
             "emb": pa.array([], pa.large_binary())}
        )
    parts = sorted(
        os.path.join(d, f) for f in os.listdir(d) if f.endswith(".parquet")
    )
    return pa.concat_tables([pq.read_table(p) for p in parts])


def _assigned_rows(vectors: ray.data.Dataset, store_dir: str,
                   id_col: str, emb_col: str) -> ray.data.Dataset:
    """(list_id, vec_id, emb blob, s) rows under the STORED codebook
    — float32 payload, assignment on the round6 argmax convention
    shared with semantic_dedup."""
    p = _params(store_dir)
    n = p["n_shards"]
    cents = _load_codebook(store_dir)
    c_ref = ray.put(cents)

    def assign(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table(
                {"list_id": pa.array([], pa.int64()),
                 "vec_id": pa.array([], pa.int64()),
                 "emb": pa.array([], pa.large_binary()),
                 "s": pa.array([], pa.int64())}
            )
        c = ray.get(c_ref)
        emb32 = _batch_embeddings(b, emb_col).astype(np.float32)
        emb = _normalize(emb32.astype(np.float64))
        lists = np.argmax(np.round(emb @ c.T, 6), axis=1).astype(np.int64)
        ids = b[id_col].to_numpy(zero_copy_only=False)
        return pa.table(
            {"list_id": pa.array(lists, pa.int64()),
             "vec_id": pa.array(ids, pa.int64()),
             "emb": pa.array([row.tobytes() for row in emb32],
                             pa.large_binary()),
             "s": pa.array(lists % n, pa.int64())}
        )

    return vectors.select_columns([id_col, emb_col]).map_batches(
        assign, batch_format="pyarrow"
    )


def build_vec_store(
    vectors: ray.data.Dataset,
    store_dir: str,
    n_shards: int = 64,
    n_lists: int = 16,
    codebook: str = "anchors",
    id_col: str = "vec_id",
    emb_col: str = "embedding",
) -> None:
    """Seed the store with every vector in ``vectors`` (codebook
    pinned from this snapshot if the store is new)."""
    ensure_worker_importable()
    vectors = vectors.materialize()
    init_vec_store(vectors, store_dir, n_shards, n_lists, codebook,
                   id_col, emb_col)

    def write(g: pa.Table) -> pa.Table:
        shard = g["s"][0].as_py()
        _append_part(store_dir, shard,
                     g.select(["list_id", "vec_id", "emb"])
                      .combine_chunks())
        return pa.table({"s": pa.array([shard], pa.int64())})

    (
        _assigned_rows(vectors, store_dir, id_col, emb_col)
        .groupby("s")
        .map_groups(write, batch_format="pyarrow")
        .materialize()
    )


def incremental_semantic_dedup(
    vectors: ray.data.Dataset,
    store_dir: str,
    threshold: float = 0.3,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
    update: bool = False,
) -> ray.data.Dataset:
    """One row per input vector ``(id_col, list_id, near_dup bool)``:
    flagged iff some STORED vector in the same list (stored codebook)
    has cosine >= threshold.  ``update=True`` appends the unflagged
    vectors after the flag pass.  Oracle (anchors codebook): an exact
    cosine EXISTS join between the halves restricted to equal anchor
    assignment — see ``__ray_entry__``'s ``incremental_semdedup``."""
    ensure_worker_importable()
    p = _params(store_dir)
    dim = p["dim"]
    vectors = vectors.select_columns([id_col, emb_col]).materialize()

    def flag_shard(g: pa.Table) -> pa.Table:
        shard = g["s"][0].as_py()
        store = _read_shard(store_dir, shard)
        nl = g["list_id"].to_numpy(zero_copy_only=False)
        nid = g["vec_id"].to_numpy(zero_copy_only=False)
        if store.num_rows == 0:
            return pa.table(
                {"vec_id": pa.array(nid, pa.int64()),
                 "list_id": pa.array(nl, pa.int64()),
                 "near_dup": pa.array(
                     np.zeros(len(nid), dtype=bool), pa.bool_())}
            )
        ne = _normalize(np.frombuffer(
            b"".join(g["emb"].to_pylist()), dtype=np.float32
        ).reshape(len(nid), dim).astype(np.float64))
        sl = store["list_id"].to_numpy(zero_copy_only=False)
        se = _normalize(np.frombuffer(
            b"".join(store["emb"].to_pylist()), dtype=np.float32
        ).reshape(store.num_rows, dim).astype(np.float64))
        flagged = np.zeros(len(nid), dtype=bool)
        for lst in np.unique(nl):
            rows = np.nonzero(nl == lst)[0]
            cols = np.nonzero(sl == lst)[0]
            if not len(cols):
                continue
            for s0 in range(0, len(rows), _COS_TILE):
                r = rows[s0:s0 + _COS_TILE]
                hit = np.zeros(len(r), dtype=bool)
                for t0 in range(0, len(cols), _COS_TILE):
                    c = cols[t0:t0 + _COS_TILE]
                    hit |= (ne[r] @ se[c].T >= threshold).any(axis=1)
                flagged[r] |= hit
        return pa.table(
            {"vec_id": pa.array(nid, pa.int64()),
             "list_id": pa.array(nl, pa.int64()),
             "near_dup": pa.array(flagged, pa.bool_())}
        )

    out = (
        _assigned_rows(vectors, store_dir, id_col, emb_col)
        .groupby("s")
        .map_groups(flag_shard, batch_format="pyarrow")
        .materialize()
    )

    if update:
        flagged_parts = [
            b["vec_id"].to_numpy(zero_copy_only=False)[
                b["near_dup"].to_numpy(zero_copy_only=False)
            ]
            for b in out.iter_batches(batch_format="pyarrow",
                                      batch_size=None)
        ]
        flagged = (
            np.sort(np.concatenate(flagged_parts))
            if flagged_parts else np.empty(0, np.int64)
        )
        f_ref = ray.put(np.ascontiguousarray(flagged))

        def kept_only(b: pa.Table) -> pa.Table:
            f = ray.get(f_ref)
            ids = b[id_col].to_numpy(zero_copy_only=False)
            if len(f):
                pos = np.searchsorted(f, ids)
                pos[pos == len(f)] = len(f) - 1
                hit = f[pos] == ids
            else:
                hit = np.zeros(len(ids), dtype=bool)
            return b.filter(pa.array(~hit))

        kept = vectors.map_batches(
            kept_only, batch_format="pyarrow", batch_size=None
        ).materialize()

        def write(g: pa.Table) -> pa.Table:
            shard = g["s"][0].as_py()
            _append_part(store_dir, shard,
                         g.select(["list_id", "vec_id", "emb"])
                          .combine_chunks())
            return pa.table({"s": pa.array([shard], pa.int64())})

        (
            _assigned_rows(kept, store_dir, id_col, emb_col)
            .groupby("s")
            .map_groups(write, batch_format="pyarrow")
            .materialize()
        )

    return out


def compact_vec_store(store_dir: str) -> dict:
    """Merge each shard's accumulated part files into ONE canonical
    content-named part (the hashstore/sigstore maintenance twin).
    Rows collapse to distinct ``(list_id, vec_id)`` — a vec_id's
    embedding bytes are a function of the vector, so keep-first is
    exact — and transient duplication from the crash-safe ordering
    only re-tests the same stored vector.  One Ray task per shard."""
    n = _params(store_dir)["n_shards"]
    res = ray.get([
        _compact_vec_shard.remote(store_dir, s) for s in range(n)
    ])
    return {
        "shards": n,
        "parts_before": sum(r[0] for r in res),
        "parts_after": sum(r[1] for r in res),
        "rows": sum(r[2] for r in res),
    }


@ray.remote
def _compact_vec_shard(store_dir: str, shard: int):
    ensure_worker_importable()
    d = _shard_dir(store_dir, shard)
    if not os.path.isdir(d):
        return (0, 0, 0)
    parts = sorted(
        os.path.join(d, f) for f in os.listdir(d)
        if f.endswith(".parquet")
    )
    if len(parts) <= 1:
        n = len(pq.read_table(parts[0])) if parts else 0
        return (len(parts), len(parts), n)
    tab = _read_shard(store_dir, shard)
    lid = tab["list_id"].to_numpy(zero_copy_only=False)
    vid = tab["vec_id"].to_numpy(zero_copy_only=False)
    order, starts, _ = sorted_runs(lid, vid)
    merged = tab.take(pa.array(order[starts], pa.int64()))
    keep = _append_part(store_dir, shard, merged)
    for p in parts:
        if keep is None or os.path.abspath(p) != os.path.abspath(keep):
            os.remove(p)
    return (len(parts), 1 if keep else 0, merged.num_rows)
