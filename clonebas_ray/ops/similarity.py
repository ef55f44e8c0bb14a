"""Similarity search over an embedding column (``list<float>``).

* ``knn_brute`` — exact cosine top-k: the query matrix is broadcast
  once (``ray.put``), every batch computes one matmul against it and
  emits only its LOCAL top-k rows per query (a combiner), so the
  driver-side merge sees ``num_batches * k`` rows, not N.
* ``ivf_knn`` — the scale path: a small k-means codebook (trained on a
  driver-side sample) partitions vectors into lists; queries probe
  only the ``n_probe`` nearest lists.  Recall < 1 by design; the
  codebook rides along as broadcast state in the assignment actor.

Ties are broken by ``(round(cos, 6) desc, vec_id asc)`` so results are
reproducible and comparable against a DuckDB oracle using
``list_cosine_similarity``.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from clonebas_ray.bootstrap import ensure_worker_importable
from clonebas_ray.functions.kernels import sorted_runs


def _batch_embeddings(batch: pa.Table, col: str) -> np.ndarray:
    """list<float> column → (n, dim) float64 matrix.  float64 so the
    cosine math matches a DuckDB oracle computing on DOUBLE[] casts to
    within ~1 ulp (float32 kernels diverge in the 7th digit, which
    round(,6) can expose)."""
    arr = batch[col].combine_chunks()
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.chunk(0)
    flat = arr.values.to_numpy(zero_copy_only=False).astype(np.float64)
    dim = len(flat) // len(arr)
    return flat.reshape(len(arr), dim)


def _normalize(m: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(m, axis=1, keepdims=True)
    n[n == 0] = 1.0
    return m / n


def _topk_rows_mask(
    cos: np.ndarray, k: int, exclude: np.ndarray | None = None
) -> np.ndarray:
    """Row-wise form of :func:`_topk_with_ties`: boolean mask (same
    shape as ``cos``) selecting each row's rounded top-k tie class,
    with ``exclude`` entries (e.g. self matches) never selected and
    never counted — excluded cells are sunk to -2, below any cosine,
    so the per-row k-th-largest is computed over the real entries
    exactly as the masked 1-D version would."""
    r = np.round(cos, 6)
    if exclude is not None:
        r = np.where(exclude, -2.0, r)
    n = r.shape[1]
    if n <= k:
        keep = np.ones_like(r, dtype=bool)
    else:
        kth = np.partition(r, n - k, axis=1)[:, n - k]
        keep = r >= kth[:, None]
    if exclude is not None:
        keep &= ~exclude
    return keep


def _topk_with_ties(cos: np.ndarray, k: int) -> np.ndarray:
    """Indices of every row whose 6-decimal-rounded cosine reaches the
    local k-th rounded value — a variable-size combiner.  The global
    merge breaks rounding ties by vec_id, so a fixed slack could cut a
    row the oracle ranks inside top-k; keeping the whole tie class
    cannot (ties are rare, so the emitted set stays ~k)."""
    n = len(cos)
    if n <= k:
        return np.arange(n)
    r = np.round(cos, 6)
    kth = np.partition(r, n - k)[n - k]  # k-th largest rounded value
    return np.flatnonzero(r >= kth)


#: query-set kNN entries merge partials on the driver below this many
#: queries (volume ~ batches * Q * k) and route through
#: :func:`_merge_topk_distributed` above it — the partial pull, not
#: the final Q*k result, is what outgrows the driver first.
_DISTRIBUTED_MERGE_MIN_Q = 1024


def _finish_query_topk(
    partials: ray.data.Dataset,
    k: int,
    q_count: int,
    query_ids: np.ndarray | None = None,
) -> pa.Table:
    """Merge per-batch (query_id, vec_id, cosine) top-k partials into
    the final ranked table, picking driver vs distributed merge by
    query count.  Both paths share the pinned tie conventions
    (round-6 cosine desc, candidate id asc), so the output is
    identical either way (large-Q pytest-pinned)."""
    if q_count > _DISTRIBUTED_MERGE_MIN_Q:
        renamed = partials.map_batches(
            lambda t: t.rename_columns(
                ["vec_id", "neighbor_id", "cosine"]),
            batch_format="pyarrow", batch_size=None,
        )
        df = _merge_topk_distributed(renamed, k).to_pandas()
        df = df.sort_values(["vec_id", "rank"]).reset_index(drop=True)
        qpos = df["vec_id"].to_numpy().astype(np.int64)
        qid = qpos if query_ids is None else np.asarray(
            query_ids, np.int64)[qpos]
        return pa.table({
            "query_id": pa.array(qid, pa.int64()),
            "rank": pa.array(
                df["rank"].to_numpy().astype(np.int64), pa.int64()),
            "vec_id": pa.array(
                df["neighbor_id"].to_numpy().astype(np.int64),
                pa.int64()),
            "cosine": pa.array(
                df["cosine"].to_numpy().astype(np.float64),
                pa.float64()),
        })
    df = partials.to_pandas()
    df["cosine_r"] = df["cosine"].round(6)
    df = df.sort_values(
        ["query_id", "cosine_r", "vec_id"],
        ascending=[True, False, True],
    )
    df = df.groupby("query_id", sort=True).head(k).reset_index(
        drop=True)
    df["rank"] = df.groupby("query_id").cumcount() + 1
    qpos = df["query_id"].to_numpy().astype(np.int64)
    qid = qpos if query_ids is None else np.asarray(
        query_ids, np.int64)[qpos]
    return pa.table({
        "query_id": pa.array(qid, pa.int64()),
        "rank": pa.array(df["rank"], pa.int64()),
        "vec_id": pa.array(df["vec_id"], pa.int64()),
        "cosine": pa.array(df["cosine_r"], pa.float64()),
    })


def knn_brute(
    vectors: ray.data.Dataset,
    queries: np.ndarray,
    k: int = 10,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
    query_ids: np.ndarray | None = None,
) -> pa.Table:
    """→ (query_id, rank, vec_id, cosine) for the top-k per query."""
    ensure_worker_importable()
    qn = _normalize(np.asarray(queries, dtype=np.float64))
    q_ref = ray.put(qn)
    if query_ids is None:
        query_ids = np.arange(len(qn), dtype=np.int64)

    def local_topk(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(
                {
                    "query_id": pa.array([], pa.int64()),
                    "vec_id": pa.array([], pa.int64()),
                    "cosine": pa.array([], pa.float64()),
                }
            )
        q = ray.get(q_ref)
        emb = _normalize(_batch_embeddings(batch, emb_col))
        ids = batch[id_col].to_numpy()
        cos = emb @ q.T  # (n, Q)
        out_q, out_i, out_c = [], [], []
        for qi in range(q.shape[0]):
            sel = _topk_with_ties(cos[:, qi], k)
            out_q.append(np.full(len(sel), qi, dtype=np.int64))
            out_i.append(ids[sel])
            out_c.append(cos[sel, qi].astype(np.float64))
        return pa.table(
            {
                "query_id": pa.array(np.concatenate(out_q), pa.int64()),
                "vec_id": pa.array(np.concatenate(out_i), pa.int64()),
                "cosine": pa.array(np.concatenate(out_c), pa.float64()),
            }
        )

    partials = vectors.select_columns([id_col, emb_col]).map_batches(
        local_topk, batch_format="pyarrow"
    )
    return _finish_query_topk(partials, k, len(qn), query_ids)


def train_codebook(
    vectors: ray.data.Dataset,
    n_lists: int = 16,
    sample_rows: int = 4096,
    iters: int = 10,
    emb_col: str = "embedding",
    seed: int = 11,
) -> np.ndarray:
    """Tiny k-means (driver-side, on a sample) — the IVF codebook."""
    sample = vectors.select_columns([emb_col]).limit(sample_rows)
    mats = [
        _batch_embeddings(b, emb_col)
        for b in sample.iter_batches(batch_size=1024, batch_format="pyarrow")
    ]
    x = _normalize(np.vstack(mats))
    rng = np.random.default_rng(seed)
    centroids = x[rng.choice(len(x), size=min(n_lists, len(x)), replace=False)]
    for _ in range(iters):
        assign = (x @ centroids.T).argmax(axis=1)
        for c in range(len(centroids)):
            mask = assign == c
            if mask.any():
                centroids[c] = x[mask].mean(axis=0)
        centroids = _normalize(centroids)
    return centroids


def ivf_knn(
    vectors: ray.data.Dataset,
    queries: np.ndarray,
    k: int = 10,
    n_lists: int | None = None,
    n_probe: int = 4,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
) -> pa.Table:
    """Approximate top-k: probe only the ``n_probe`` nearest inverted
    lists per query.  Same output schema as ``knn_brute``.

    ``n_lists=None`` scales the codebook ~sqrt(N) (clamped) so mean
    list size stays ~sqrt(N) as the corpus grows — a fixed list count
    would make every list O(N) and probing pointless at scale."""
    ensure_worker_importable()
    # pin blocks: the dataset is consumed by count + codebook sample +
    # the scan; a lazy graph would re-execute per consumer
    vectors = vectors.materialize()
    if n_lists is None:
        n = vectors.count()
        n_lists = int(np.clip(np.sqrt(max(n, 1)), 16, 65536))
    centroids = train_codebook(
        vectors, n_lists=n_lists,
        sample_rows=max(4096, 8 * n_lists), emb_col=emb_col,
    )
    c_ref = ray.put(centroids)
    qn = _normalize(np.asarray(queries, dtype=np.float64))
    probes = np.argsort(-(qn @ centroids.T), axis=1)[:, :n_probe]  # (Q, p)
    probe_sets = [set(row) for row in probes]
    q_ref = ray.put((qn, probe_sets))

    def local_topk(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(
                {
                    "query_id": pa.array([], pa.int64()),
                    "vec_id": pa.array([], pa.int64()),
                    "cosine": pa.array([], pa.float64()),
                }
            )
        cents = ray.get(c_ref)
        q, psets = ray.get(q_ref)
        emb = _normalize(_batch_embeddings(batch, emb_col))
        ids = batch[id_col].to_numpy()
        lists = (emb @ cents.T).argmax(axis=1)  # list id per vector
        cos = emb @ q.T
        out_q, out_i, out_c = [], [], []
        for qi in range(q.shape[0]):
            mask = np.isin(lists, list(psets[qi]))
            if not mask.any():
                continue
            c = cos[mask, qi]
            vid = ids[mask]
            sel = _topk_with_ties(c, k)
            out_q.append(np.full(len(sel), qi, dtype=np.int64))
            out_i.append(vid[sel])
            out_c.append(c[sel].astype(np.float64))
        if not out_q:
            return pa.table(
                {
                    "query_id": pa.array([], pa.int64()),
                    "vec_id": pa.array([], pa.int64()),
                    "cosine": pa.array([], pa.float64()),
                }
            )
        return pa.table(
            {
                "query_id": pa.array(np.concatenate(out_q), pa.int64()),
                "vec_id": pa.array(np.concatenate(out_i), pa.int64()),
                "cosine": pa.array(np.concatenate(out_c), pa.float64()),
            }
        )

    partials = vectors.select_columns([id_col, emb_col]).map_batches(
        local_topk, batch_format="pyarrow"
    )
    return _finish_query_topk(partials, k, len(qn))


_EMPTY_PAIRS = pa.table(
    {
        "vec_a": pa.array([], pa.int64()),
        "vec_b": pa.array([], pa.int64()),
        "cosine": pa.array([], pa.float64()),
    }
)

#: matmul tile edge for block-pair tasks — bounds the (tile, tile)
#: cosine matrix a task holds at once (~32 MB of float64 at 2048)
_COS_TILE = 2048


def _empty_pairs(id_type: pa.DataType) -> pa.Table:
    return pa.table(
        {
            "vec_a": pa.array([], id_type),
            "vec_b": pa.array([], id_type),
            "cosine": pa.array([], pa.float64()),
        }
    )


@ray.remote
def _pair_block_task(
    ta: pa.Table, tb: pa.Table, same: bool, threshold: float,
    id_col: str, emb_col: str,
) -> pa.Table:
    """Exact cosine-threshold join between two vector blocks, tiled so
    per-task memory stays bounded regardless of block size.  The id
    column may be any orderable Arrow type (ints for doc tables,
    strings for clone units)."""
    id_type = ta.schema.field(id_col).type
    ia = ta[id_col].to_numpy(zero_copy_only=False)
    ib = tb[id_col].to_numpy(zero_copy_only=False)
    ea = _normalize(_batch_embeddings(ta, emb_col))
    eb = ea if same else _normalize(_batch_embeddings(tb, emb_col))
    if same:
        ib = ia
    out_a, out_b, out_c = [], [], []
    for i0 in range(0, len(ia), _COS_TILE):
        i1 = min(i0 + _COS_TILE, len(ia))
        j_start = i0 if same else 0
        for j0 in range(j_start, len(ib), _COS_TILE):
            j1 = min(j0 + _COS_TILE, len(ib))
            cos = ea[i0:i1] @ eb[j0:j1].T
            ii, jj = np.nonzero(cos >= threshold)
            if same:
                keep = (ii + i0) < (jj + j0)  # strict upper triangle
                ii, jj = ii[keep], jj[keep]
            if not len(ii):
                continue
            a, b = ia[ii + i0], ib[jj + j0]
            swap = a > b
            out_a.append(np.where(swap, b, a))
            out_b.append(np.where(swap, a, b))
            out_c.append(np.round(cos[ii, jj].astype(np.float64), 6))
    if not out_a:
        return _empty_pairs(id_type)
    return pa.table(
        {
            "vec_a": pa.array(np.concatenate(out_a), id_type),
            "vec_b": pa.array(np.concatenate(out_b), id_type),
            "cosine": pa.array(np.concatenate(out_c), pa.float64()),
        }
    )


@ray.remote
def _split_hot_block(tab: pa.Table, clusters: np.ndarray):
    """One-pass split of an ``assigned`` block into per-hot-cluster
    sub-tables (+ a row-count vector as the last return, the only
    thing the driver reads).  Replaces the r3 shape of re-filtering
    the WHOLE assigned dataset once per hot cluster."""
    lid = tab["list_id"].to_numpy(zero_copy_only=False)
    counts = np.zeros(len(clusters), dtype=np.int64)
    outs = []
    for i, h in enumerate(clusters):
        m = lid == h
        c = int(m.sum())
        counts[i] = c
        outs.append(tab.filter(pa.array(m)) if c else None)
    return (*outs, counts)


@ray.remote
def _concat_blocks(*tabs: pa.Table) -> pa.Table:
    return pa.concat_tables(tabs)


@ray.remote
def _hot_keep_task(
    tab: pa.Table, h: int, dropped: np.ndarray, id_col: str
) -> pa.Table:
    ids = tab[id_col].to_numpy(zero_copy_only=False)
    keep = ~np.isin(ids, dropped)
    return pa.table(
        {
            id_col: pa.array(ids.astype(np.int64), pa.int64()),
            "list_id": pa.array(
                np.full(len(ids), h, np.int64), pa.int64()
            ),
            "keep": pa.array(keep, pa.bool_()),
        }
    )


@ray.remote
def _flag_earlier_neighbor_task(
    ta: pa.Table, tb: pa.Table, same: bool, threshold: float,
    id_col: str, emb_col: str,
) -> np.ndarray:
    """Ids (from either block) that have a LOWER-id neighbor with
    cosine >= threshold on the other block (or within the block when
    ``same``) — the decomposed form of semantic_dedup's exists-earlier
    rule: OR-ing these flags over all block pairs of a cluster equals
    the single-task per-cluster scan exactly."""
    ia = ta[id_col].to_numpy(zero_copy_only=False)
    ib = tb[id_col].to_numpy(zero_copy_only=False)
    ea = _normalize(_batch_embeddings(ta, emb_col))
    eb = ea if same else _normalize(_batch_embeddings(tb, emb_col))
    if same:
        ib = ia
    flagged = []
    for i0 in range(0, len(ia), _COS_TILE):
        i1 = min(i0 + _COS_TILE, len(ia))
        for j0 in range(0, len(ib), _COS_TILE):
            j1 = min(j0 + _COS_TILE, len(ib))
            if same and j0 > i0:
                break  # (i,j) and (j,i) tiles are symmetric here
            cos = ea[i0:i1] @ eb[j0:j1].T
            hit = cos >= threshold
            if same and i0 == j0:
                np.fill_diagonal(hit, False)
            earlier_j = ib[j0:j1][None, :] < ia[i0:i1][:, None]
            a_flag = (hit & earlier_j).any(axis=1)
            if a_flag.any():
                flagged.append(ia[i0:i1][a_flag])
            b_flag = (hit & ~earlier_j).any(axis=0)
            if b_flag.any():
                flagged.append(ib[j0:j1][b_flag])
    if not flagged:
        return np.empty(0, dtype=np.int64)
    return np.unique(np.concatenate(flagged))


def embedding_near_dup_pairs(
    vectors: ray.data.Dataset,
    threshold: float = 0.95,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
    block_rows: int = 8192,
) -> ray.data.Dataset:
    """EXACT embedding-cosine near-duplicate pairs as a distributed
    block-pair cross join: the vector table is split into fixed-size
    blocks and one Ray task per block pair (i <= j) computes the tiled
    cosine-threshold join — complete (no LSH recall loss), per-task
    memory bounded by the tile size, parallelism (B choose 2).

    A cosine-threshold join is inherently all-pairs in the worst case;
    total flops are O(N^2 * dim / cluster) no matter the framework.
    For corpora where that is too hot, `embedding_near_dup_pairs_lsh`
    trades recall for near-linear cost.  Raw Ray tasks are used
    because Ray Data has no cross-join primitive (the documented
    escape hatch); results come back as a Dataset via
    ``from_arrow_refs`` so pair volume never lands on the driver.
    """
    ensure_worker_importable()
    mat = vectors.select_columns([id_col, emb_col]).materialize()
    n = mat.count()
    n_blocks = max(1, -(-n // block_rows))
    n_pairs = n_blocks * (n_blocks + 1) // 2
    if n_pairs > 250_000:
        raise ValueError(
            f"exact cosine-threshold join would launch {n_pairs} block-"
            f"pair tasks for {n} vectors — the all-pairs cost is "
            "inherent to exactness at this size; use "
            "embedding_near_dup_pairs_lsh (near-linear, recall<1) or "
            "raise block_rows"
        )
    refs = mat.repartition(n_blocks).materialize().to_arrow_refs()
    tasks = []
    for i in range(len(refs)):
        for j in range(i, len(refs)):
            tasks.append(
                _pair_block_task.remote(
                    refs[i], refs[j], i == j, threshold, id_col, emb_col
                )
            )
    if not tasks:
        return ray.data.from_arrow(
            _empty_pairs(mat.schema().field(id_col).type)
        )
    return ray.data.from_arrow_refs(tasks)


def embedding_near_dup_clusters(
    vectors: ray.data.Dataset,
    threshold: float = 0.95,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
    **kwargs,
) -> pa.Table:
    """Exact near-dup pairs → connected components →
    (vec_id, cluster_id) with the min member id as the canonical
    cluster label (matches a SQL recursive-CTE closure oracle).

    The pair dataset streams into the driver union-find via
    ``iter_batches`` (O(nodes) driver memory — near-dup-bounded),
    never a full pair-table ``to_pandas``."""
    ensure_worker_importable()
    from clonebas_ray.functions.kernels import stream_min_labels

    pairs = embedding_near_dup_pairs(
        vectors, threshold=threshold, id_col=id_col, emb_col=emb_col,
        **kwargs,
    )
    out = stream_min_labels([pairs], cols=("vec_a", "vec_b"))
    return out.rename_columns([id_col, "cluster_id"])


def _collapse_identical_vectors(
    vectors: ray.data.Dataset, id_col: str, emb_col: str
) -> tuple[ray.data.Dataset, ray.data.Dataset]:
    """Exactly-equal-embedding rep-collapse (the MinHash ``sig_groups``
    pattern): hash each embedding's float64 bytes, group by hash, and
    for every family of >= 2 identical vectors keep only the lowest-id
    representative in the pairing input, emitting (rep, member,
    cosine=1.0) edges for the rest.  A 10^4-copy boilerplate embedding
    then costs one LSH participant + 10^4-1 edges instead of ~10^8
    within-bucket pairs.  Zero-norm vectors are exempt (their pinned
    normalized cosine is 0, not 1).  Returns ``(survivors, member
    edges)``; hash collisions are a non-issue because members are
    never re-verified — md5/64 collisions (~N^2/2^64) are accepted the
    same way the MinHash set-key collapse accepts them.

    Both outputs stay Datasets: family detection shuffles only
    ``(hash, id)`` pairs, the drop set (dup-bounded) is broadcast back
    via ``ray.put`` + ``pc.is_in`` per block (CLAUDE.md pattern)."""
    from clonebas_ray.ops.relational import auto_partitions

    P = auto_partitions()

    def hash_rows(b: pa.Table) -> pa.Table:
        emb = _batch_embeddings(b, emb_col)
        ids = b[id_col].to_numpy(zero_copy_only=False)
        nonzero = np.linalg.norm(emb, axis=1) > 0
        blobs = pd.Series([row.tobytes() for row in emb[nonzero]])
        h = pd.util.hash_pandas_object(blobs, index=False).to_numpy()
        return pa.table(
            {
                "vhash": pa.array(h.astype(np.uint64), pa.uint64()),
                "vid": pa.array(ids[nonzero].astype(np.int64),
                                pa.int64()),
                "vpart": pa.array(
                    (h % np.uint64(P)).astype(np.int32), pa.int32()
                ),
            }
        )

    def family_edges(g: pd.DataFrame) -> pd.DataFrame:
        # lexsort + run boundaries for the star edges — no pandas
        # groupby object per (overwhelmingly singleton) hash family
        vh = g["vhash"].to_numpy()
        vid = g["vid"].to_numpy()
        if not len(vh):
            return pd.DataFrame(
                {"vec_a": pd.Series(dtype="int64"),
                 "vec_b": pd.Series(dtype="int64"),
                 "cosine": pd.Series(dtype="float64")}
            )
        order, first, _ = sorted_runs(vh, vid)
        # distinct, vid asc per family
        vh, vid = vh[order][first], vid[order][first]
        _, starts, counts = sorted_runs(vh)
        a = np.repeat(vid[starts], counts - 1)
        member_mask = np.ones(len(vid), dtype=bool)
        member_mask[starts] = False
        b = vid[member_mask]
        return pd.DataFrame(
            {"vec_a": a.astype(np.int64), "vec_b": b.astype(np.int64),
             "cosine": np.ones(len(a), dtype=np.float64)}
        )

    member_edges = (
        vectors.map_batches(hash_rows, batch_format="pyarrow",
                            batch_size=None)
        .groupby("vpart")
        .map_groups(family_edges, batch_format="pandas")
        .materialize()
    )
    drops: list[np.ndarray] = []
    for b in member_edges.select_columns(["vec_b"]).iter_batches(
        batch_format="pyarrow", batch_size=None
    ):
        drops.append(b["vec_b"].to_numpy(zero_copy_only=False))
    drop_arr = pa.array(
        np.unique(np.concatenate(drops)) if drops
        else np.empty(0, np.int64),
        pa.int64(),
    )
    if len(drop_arr) == 0:
        return vectors, member_edges
    drop_ref = ray.put(drop_arr)

    def keep_survivors(b: pa.Table) -> pa.Table:
        d = ray.get(drop_ref)
        return b.filter(
            pc.invert(pc.is_in(b[id_col], value_set=d))
        )

    survivors = vectors.map_batches(
        keep_survivors, batch_format="pyarrow", batch_size=None
    )
    return survivors, member_edges


def embedding_near_dup_pairs_lsh(
    vectors: ray.data.Dataset,
    threshold: float = 0.95,
    n_lists: int | None = None,
    max_group: int = 8192,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
    seed: int = 23,
    collapse: bool = True,
) -> ray.data.Dataset:
    """Approximate near-dup pairs — the 100-TB path: vectors are
    bucketed by nearest IVF centroid (``n_lists`` scales ~sqrt(N) so
    mean list size stays ~sqrt(N)), and any list still larger than
    ``max_group`` is sub-bucketed by deterministic random-hyperplane
    signs before the within-bucket all-pairs cosine.  Pairs split
    across bucket boundaries are missed (recall < 1 by design —
    that is the cost knob vs `embedding_near_dup_pairs`).

    Returns a Dataset ``(vec_a, vec_b, cosine)``, ``vec_a < vec_b`` —
    the r3 version pulled the full pair table to the driver (pandas
    dedup/sort), which a boilerplate embedding family turns into ~10^8
    driver rows.  Round 4: ``collapse=True`` first reduces every
    exactly-equal family to its lowest-id representative
    (:func:`_collapse_identical_vectors`; members connect through
    (rep, member, 1.0) edges, so connected components are identical —
    member-to-outside pairs are represented through the rep), and the
    within-bucket pairing canonicalizes in-task.  Each survivor lives
    in exactly ONE (list, sub-bucket), so a pair can surface only
    once — no global dedup shuffle is needed at all."""
    ensure_worker_importable()
    vectors = (
        vectors.select_columns([id_col, emb_col]).materialize()
    )  # consumed by collapse + count + codebook + scan
    member_edges = None
    if collapse:
        survivors, member_edges = _collapse_identical_vectors(
            vectors, id_col, emb_col
        )
        vectors = survivors.materialize()
    n = vectors.count()
    if n_lists is None:
        n_lists = int(np.clip(np.sqrt(max(n, 1)), 16, 65536))
    centroids = train_codebook(vectors, n_lists=n_lists, emb_col=emb_col)
    c_ref = ray.put(centroids)

    def assign(batch: pa.Table) -> pa.Table:
        cents = ray.get(c_ref)
        emb = _normalize(_batch_embeddings(batch, emb_col))
        lists = (emb @ cents.T).argmax(axis=1).astype(np.int32)
        return pa.table(
            {
                "list_id": pa.array(lists, pa.int32()),
                id_col: batch[id_col],
                emb_col: batch[emb_col],
            }
        )

    assigned = vectors.select_columns([id_col, emb_col]).map_batches(
        assign, batch_format="pyarrow"
    )

    def pair_list(g: pd.DataFrame) -> pd.DataFrame:
        ids = g[id_col].to_numpy()
        emb = _normalize(np.vstack(g[emb_col].to_numpy()))
        # oversize cap: split by random-hyperplane sign bits until each
        # sub-bucket fits; one (cap, cap) matrix is the memory ceiling
        n_sub_bits = max(0, int(np.ceil(np.log2(max(len(ids), 1) / max_group))))
        if n_sub_bits:
            rng = np.random.default_rng(seed)
            planes = rng.standard_normal((emb.shape[1], n_sub_bits))
            sub = ((emb @ planes) >= 0) @ (1 << np.arange(n_sub_bits))
        else:
            sub = np.zeros(len(ids), dtype=np.int64)
        frames = []
        for key in np.unique(sub):
            m = sub == key
            e, i = emb[m], ids[m]
            cos = e @ e.T
            a, b = np.nonzero(np.triu(cos >= threshold, k=1))
            if not len(a):
                continue
            x, y = i[a], i[b]
            swap = x > y
            frames.append(
                pd.DataFrame(
                    {
                        "vec_a": np.where(swap, y, x),
                        "vec_b": np.where(swap, x, y),
                        "cosine": np.round(cos[a, b].astype(np.float64), 6),
                    }
                )
            )
        return pd.concat(frames, ignore_index=True) if frames else pd.DataFrame(
            {"vec_a": pd.Series(dtype="int64"),
             "vec_b": pd.Series(dtype="int64"),
             "cosine": pd.Series(dtype="float64")}
        )

    pairs = assigned.groupby("list_id").map_groups(
        pair_list, batch_format="pandas"
    )
    if member_edges is not None:
        pairs = pairs.union(member_edges)
    # normalize unioned pandas/arrow blocks to one arrow schema
    # (mixed block formats break downstream groupbys — CLAUDE.md)
    return pairs.map_batches(
        lambda b: b, batch_format="pyarrow", batch_size=None
    )


def _lowest_id_vectors(
    vectors: ray.data.Dataset, k: int, id_col: str, emb_col: str
) -> np.ndarray:
    """Normalized embeddings of the ``k`` smallest ids — each block
    emits only its local k smallest (a combiner), the driver merges
    ``num_blocks * k`` rows, never the dataset."""

    def local_min(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch
        idx = np.argsort(
            batch[id_col].to_numpy(zero_copy_only=False)
        )[:k]
        return batch.take(pa.array(idx, pa.int64()))

    parts = vectors.select_columns([id_col, emb_col]).map_batches(
        local_min, batch_format="pyarrow", batch_size=None
    )
    tabs = [
        b for b in parts.iter_batches(batch_format="pyarrow",
                                      batch_size=None)
        if b.num_rows
    ]
    if not tabs:
        raise ValueError(
            "cannot build an anchor codebook from an empty dataset"
        )
    merged = pa.concat_tables(tabs)
    idx = np.argsort(merged[id_col].to_numpy(zero_copy_only=False))[:k]
    merged = merged.take(pa.array(idx, pa.int64()))
    return _normalize(_batch_embeddings(merged, emb_col))


def semantic_dedup(
    vectors: ray.data.Dataset,
    threshold: float = 0.3,
    n_lists: int = 16,
    codebook: str = "anchors",
    id_col: str = "vec_id",
    emb_col: str = "embedding",
    tile: int = 2048,
    max_group: int = 16384,
) -> ray.data.Dataset:
    """SemDeDup-style cluster-scoped semantic dedup (Abbas et al.
    2023, "SemDeDup: Data-efficient learning at web-scale through
    semantic deduplication"): partition the embedding space into
    ``n_lists`` clusters, then mark every vector that has a LOWER-id
    neighbor in the SAME cluster with cosine >= ``threshold`` as a
    semantic duplicate (``keep = false``).  The keep rule is the
    order-independent "exists earlier" variant (the paper's greedy
    kept-set walk is order-dependent and unparallelizable; with the
    exists-earlier rule every cluster resolves in one pass and the
    kept set is a superset of any greedy walk's).

    ``codebook='anchors'`` pins the cluster centers to the ``n_lists``
    smallest-id vectors — fully SQL-expressible, so the whole pipeline
    (assignment argmax incl. the ``(round(cos,6) desc, anchor asc)``
    tiebreak, and the keep rule on raw cosine) is DuckDB-oracle-
    verifiable.  ``codebook='kmeans'`` reuses the IVF codebook
    (:func:`train_codebook`) — the production path, same shape, not
    SQL-pinnable.  Cross-cluster near-dups are missed by design
    (that's SemDeDup's accuracy/cost trade; raise ``n_lists`` slower
    than N so mean cluster size grows and recall rises).

    Scale shape: one broadcast (centroids), one shuffle (embeddings
    hash-partitioned by cluster id — exactly SemDeDup's layout), and a
    per-cluster tiled lower-triangle matmul (``tile`` rows vs all
    earlier rows, peak ``tile * cluster_size`` floats per task).
    Clusters larger than ``max_group`` (skewed codebooks put the
    corpus's boilerplate mass in a few cells) skip the one-task-per-
    group shuffle and run the DECOMPOSED form instead: the
    exists-earlier rule is order-independent, so it equals an OR of
    per-block-pair flags — one bounded Ray task per block pair of the
    cluster (:func:`_flag_earlier_neighbor_task`), dropped ids
    (dup-bounded) broadcast back over the cluster's blocks.  Identical
    output, wall time scales with (cluster/blocks)^2 tasks instead of
    one O(m^2) straggler.  Returns a Dataset
    ``(id_col, list_id, keep)``."""
    ensure_worker_importable()
    vectors = vectors.materialize()
    if codebook == "anchors":
        cents = _lowest_id_vectors(vectors, n_lists, id_col, emb_col)
    elif codebook == "kmeans":
        cents = train_codebook(
            vectors, n_lists=n_lists,
            sample_rows=max(4096, 8 * n_lists), emb_col=emb_col,
        )
    else:
        raise ValueError(f"unknown codebook {codebook!r}")
    c_ref = ray.put(cents)

    def assign(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch.append_column(
                "list_id", pa.array([], pa.int64())
            )
        c = ray.get(c_ref)
        emb = _normalize(_batch_embeddings(batch, emb_col))
        # argmax on (round(cos,6) desc, anchor asc): the rounded
        # tiebreak is the knn precedent that hash-matches DuckDB
        cos = np.round(emb @ c.T, 6)
        lists = np.argmax(cos, axis=1)  # np.argmax takes the FIRST max
        return batch.append_column(
            "list_id", pa.array(lists.astype(np.int64), pa.int64())
        )

    assigned = vectors.select_columns([id_col, emb_col]).map_batches(
        assign, batch_format="pyarrow", batch_size=None
    ).materialize()

    # route hot clusters to the decomposed block-pair path: map_groups
    # hands a whole cluster to ONE task, so a skewed cluster would run
    # O(m^2) single-threaded there.  The exists-earlier rule is
    # order-independent, hence an OR over block-pair flags — exact.
    # Cluster sizes come from a distributed count (n_lists rows pulled,
    # never the N list_id rows the r3 version streamed to the driver).
    counts_df = assigned.groupby("list_id").count().to_pandas()
    sizes = dict(
        zip(counts_df["list_id"].astype(int), counts_df["count()"])
    )
    hot = sorted(int(k) for k, v in sizes.items() if v > max_group)

    def dedup_list(g: pa.Table) -> pa.Table:
        ids = g[id_col].to_numpy(zero_copy_only=False)
        order = np.argsort(ids)
        g = g.take(pa.array(order, pa.int64()))
        ids = ids[order]
        emb = _normalize(_batch_embeddings(g, emb_col))
        m = len(ids)
        keep = np.ones(m, dtype=bool)
        for s in range(0, m, tile):
            e = min(s + tile, m)
            sims = emb[s:e] @ emb[:e].T  # rows s..e vs all ids <= them
            lower = (
                np.arange(s, e)[:, None] > np.arange(e)[None, :]
            )
            keep[s:e] = ~((sims >= threshold) & lower).any(axis=1)
        return pa.table(
            {
                id_col: pa.array(ids, pa.int64()),
                "list_id": pa.array(
                    g["list_id"].to_numpy(zero_copy_only=False),
                    pa.int64(),
                ),
                "keep": pa.array(keep, pa.bool_()),
            }
        )

    if not hot:
        return assigned.groupby("list_id").map_groups(
            dedup_list, batch_format="pyarrow"
        )

    hot_arr = np.array(hot, dtype=np.int64)

    # ONE split pass over the assigned blocks: each block is cut into
    # its per-hot-cluster sub-tables in the object store; the driver
    # sees only the count vectors (r3 re-scanned the full dataset once
    # per hot cluster).
    refs = assigned.to_arrow_refs()
    split = [
        _split_hot_block.options(num_returns=len(hot) + 1).remote(
            r, hot_arr
        )
        for r in refs
    ]
    counts = ray.get([s[-1] for s in split])

    # coalesce each cluster's block fragments into ~max_group-row
    # chunks: a hot cluster smeared over B near-empty blocks would
    # otherwise launch B(B+1)/2 flag tasks (the brute-knn fan-out
    # lesson, commit 0761096)
    chunks_per_hot: list[list] = []
    for i in range(len(hot)):
        chunks, cur, cur_rows = [], [], 0
        for j in range(len(split)):
            c = int(counts[j][i])
            if c == 0:
                continue
            cur.append(split[j][i])
            cur_rows += c
            if cur_rows >= max_group:
                chunks.append(
                    cur[0] if len(cur) == 1 else _concat_blocks.remote(*cur)
                )
                cur, cur_rows = [], 0
        if cur:
            chunks.append(
                cur[0] if len(cur) == 1 else _concat_blocks.remote(*cur)
            )
        chunks_per_hot.append(chunks)

    # all clusters' flag tasks dispatched together (one wave, one get)
    flag_tasks, owners = [], []
    for i, chunks in enumerate(chunks_per_hot):
        for a in range(len(chunks)):
            for b in range(a + 1):
                flag_tasks.append(
                    _flag_earlier_neighbor_task.remote(
                        chunks[a], chunks[b], a == b, threshold,
                        id_col, emb_col,
                    )
                )
                owners.append(i)
    flags = ray.get(flag_tasks)  # dropped ids only — dup-bounded
    dropped_per_hot = [np.empty(0, np.int64)] * len(hot)
    for i in range(len(hot)):
        mine = [f for f, o in zip(flags, owners) if o == i and len(f)]
        if mine:
            dropped_per_hot[i] = np.unique(np.concatenate(mine))

    hot_refs = [
        _hot_keep_task.remote(
            chunk, hot[i], ray.put(dropped_per_hot[i]), id_col
        )
        for i, chunks in enumerate(chunks_per_hot)
        for chunk in chunks
    ]
    hot_out = ray.data.from_arrow_refs(hot_refs)

    if len(hot) == len(sizes):
        # every cluster is hot — no cold groupby over an empty dataset
        return hot_out.map_batches(
            lambda b: b, batch_format="pyarrow", batch_size=None
        )

    def _drop_hot(b: pa.Table) -> pa.Table:
        m = np.isin(
            b["list_id"].to_numpy(zero_copy_only=False), hot_arr
        )
        return b.filter(pa.array(~m))

    cold_out = (
        assigned.map_batches(
            _drop_hot, batch_format="pyarrow", batch_size=None
        )
        .groupby("list_id")
        .map_groups(dedup_list, batch_format="pyarrow")
    )
    # normalize the unioned blocks to one arrow schema (mixed block
    # formats after union break downstream groupbys — CLAUDE.md)
    return cold_out.union(hot_out).map_batches(
        lambda b: b, batch_format="pyarrow", batch_size=None
    )


@ray.remote
def _knn_block_task(
    ta: pa.Table, tb: pa.Table, same: bool, k: int,
    id_col: str, emb_col: str,
) -> pa.Table:
    """Per-row LOCAL top-k (with rounding-tie classes) of block A's
    rows against block B's rows and vice versa — the partials of a
    distributed kNN self-join; the global merge sees ~k rows per
    (vector, block) instead of N."""
    ia = ta[id_col].to_numpy(zero_copy_only=False)
    ea = _normalize(_batch_embeddings(ta, emb_col))
    if same:
        ib, eb = ia, ea
    else:
        ib = tb[id_col].to_numpy(zero_copy_only=False)
        eb = _normalize(_batch_embeddings(tb, emb_col))
    out_v, out_n, out_c = [], [], []

    def emit(ids_q, cos_rows, ids_d):
        excl = ids_d[None, :] == ids_q[:, None]
        keep = _topk_rows_mask(cos_rows, k, excl)
        ii, jj = np.nonzero(keep)
        out_v.append(ids_q[ii].astype(np.int64))
        out_n.append(ids_d[jj].astype(np.int64))
        out_c.append(cos_rows[ii, jj].astype(np.float64))

    for i0 in range(0, len(ia), _COS_TILE):
        i1 = min(i0 + _COS_TILE, len(ia))
        cos = ea[i0:i1] @ eb.T
        emit(ia[i0:i1], cos, ib)
    if not same:
        for j0 in range(0, len(ib), _COS_TILE):
            j1 = min(j0 + _COS_TILE, len(ib))
            cos = eb[j0:j1] @ ea.T
            emit(ib[j0:j1], cos, ia)
    return pa.table(
        {
            "vec_id": pa.array(
                np.concatenate(out_v) if out_v else
                np.empty(0, np.int64), pa.int64()),
            "neighbor_id": pa.array(
                np.concatenate(out_n) if out_n else
                np.empty(0, np.int64), pa.int64()),
            "cosine": pa.array(
                np.concatenate(out_c) if out_c else
                np.empty(0, np.float64), pa.float64()),
        }
    )


def _merge_topk_df(df: pd.DataFrame, k: int) -> pd.DataFrame:
    """Top-k merge with the repo's pinned tie conventions (round6
    desc, neighbor id asc).  Complete per vec_id: every partial row of
    a vec_id must be in ``df`` (the distributed form hash-partitions
    by vec_id to guarantee that).  Dtypes pinned so empty inputs keep
    a stable schema."""
    df = df.copy()
    df["cosine_r"] = df["cosine"].round(6)
    df = df.drop_duplicates(["vec_id", "neighbor_id"])
    df = df.sort_values(
        ["vec_id", "cosine_r", "neighbor_id"],
        ascending=[True, False, True],
    )
    df = df.groupby("vec_id", sort=True).head(k).reset_index(drop=True)
    return pd.DataFrame(
        {
            "vec_id": df["vec_id"].astype("int64"),
            "rank": (df.groupby("vec_id").cumcount() + 1).astype("int64"),
            "neighbor_id": df["neighbor_id"].astype("int64"),
            "cosine": df["cosine_r"].astype("float64"),
        }
    )


def _merge_topk_distributed(
    parts: ray.data.Dataset, k: int
) -> ray.data.Dataset:
    """Distributed global top-k: hash-partition the (vec_id,
    neighbor_id, cosine) partials by vec_id and run the merge per
    partition — every partial row of a vec_id lands in one bucket, so
    each bucket merge is complete and the driver never holds per-
    vector rows (the r3 scale-killer: ~N*blocks*k partial rows pulled
    to the driver)."""
    from clonebas_ray.ops.relational import auto_partitions

    P = auto_partitions()

    def bucket(b: pa.Table) -> pa.Table:
        vid = b["vec_id"].to_numpy(zero_copy_only=False)
        return b.append_column(
            "__bucket",
            pa.array((vid % P).astype(np.int32), pa.int32()),
        )

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        return _merge_topk_df(g.drop(columns="__bucket"), k)

    return (
        parts.map_batches(bucket, batch_format="pyarrow",
                          batch_size=None)
        .groupby("__bucket")
        .map_groups(merge, batch_format="pandas")
    )


def _merge_topk(df: pd.DataFrame, k: int) -> pa.Table:
    """Driver-side merge for the QUERY-set paths (knn_brute/ivf_knn:
    partial volume ~ num_batches * Q * k, Q small)."""
    out = _merge_topk_df(df, k)
    return pa.table(
        {
            "vec_id": pa.array(out["vec_id"], pa.int64()),
            "rank": pa.array(out["rank"], pa.int64()),
            "neighbor_id": pa.array(out["neighbor_id"], pa.int64()),
            "cosine": pa.array(out["cosine"], pa.float64()),
        }
    )


def knn_join(
    vectors: ray.data.Dataset,
    k: int = 10,
    method: str = "brute",
    n_lists: int | None = None,
    n_probe: int = 4,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
    block_rows: int = 8192,
) -> ray.data.Dataset:
    """Self kNN-join: top-k cosine neighbors (excluding self) for
    EVERY vector — a Dataset ``(vec_id, rank, neighbor_id, cosine)``,
    the all-rows generalization of ``knn_brute``'s query-set top-k.

    ``method='brute'`` is exact: one Ray task per unordered block
    pair emits per-row local top-k partials (tiled, ties kept).
    O(N^2) flops are inherent to exactness — the same 250k-block-pair
    guard as ``embedding_near_dup_pairs`` routes corpora past it to
    ``method='ivf'``: each vector lives in its argmax list as DATA
    and fans out to its ``n_probe`` nearest lists as QUERY; one
    shuffle groups each list's members with its probers, local top-k
    runs per list (recall < 1 by design — pytest bounds it like
    ``ivf_knn``).  BOTH methods merge their partials distributedly
    (hash-partitioned by vec_id, :func:`_merge_topk_distributed`) and
    return a lazily-consumable Dataset — the output is N*k rows, so a
    driver pull would OOM exactly when the input is large enough to
    care; write it or aggregate it instead."""
    ensure_worker_importable()
    mat = vectors.select_columns([id_col, emb_col]).materialize()
    if method == "brute":
        n = mat.count()
        n_blocks = max(1, -(-n // block_rows))
        n_pairs = n_blocks * (n_blocks + 1) // 2
        if n_pairs > 250_000:
            raise ValueError(
                f"brute kNN join would launch {n_pairs} block-pair "
                "tasks; use method='ivf'"
            )
        # actual block layout follows the FILES read, not block_rows
        # (one parquet file = one block) — repartition so tasks see
        # the sizes the guard reasoned about
        refs = mat.repartition(n_blocks).materialize().to_arrow_refs()
        tasks = [
            _knn_block_task.remote(
                refs[i], refs[j], i == j, k, id_col, emb_col
            )
            for i in range(len(refs))
            for j in range(i + 1)
        ]
        return _merge_topk_distributed(
            ray.data.from_arrow_refs(tasks), k
        )
    if method != "ivf":
        raise ValueError(f"unknown method {method!r}")

    if n_lists is None:
        n = mat.count()
        n_lists = int(np.clip(np.sqrt(max(n, 1)), 16, 65536))
    cents = train_codebook(
        mat, n_lists=n_lists,
        sample_rows=max(4096, 8 * n_lists), emb_col=emb_col,
    )
    c_ref = ray.put(cents)

    def fan_out(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table(
                {"lst": pa.array([], pa.int64()),
                 "vid": pa.array([], pa.int64()),
                 "q": pa.array([], pa.bool_()),
                 "emb": pa.array([], pa.large_binary())}
            )
        c = ray.get(c_ref)
        emb = _normalize(_batch_embeddings(b, emb_col))
        ids = b[id_col].to_numpy(zero_copy_only=False)
        cos = emb @ c.T
        order = np.argsort(-cos, axis=1)[:, :n_probe]
        n = len(ids)
        blobs = pa.array([row.tobytes() for row in emb],
                         pa.large_binary())
        # one data row (argmax list) + n_probe query rows per vector,
        # built columnar: row r of emb fans out via a take on indices
        src = np.concatenate(
            [np.arange(n), np.repeat(np.arange(n), n_probe)]
        )
        lst = np.concatenate([order[:, 0], order.ravel()])
        q = np.concatenate(
            [np.zeros(n, dtype=bool), np.ones(n * n_probe, dtype=bool)]
        )
        return pa.table(
            {"lst": pa.array(lst.astype(np.int64), pa.int64()),
             "vid": pa.array(ids[src].astype(np.int64), pa.int64()),
             "q": pa.array(q, pa.bool_()),
             "emb": blobs.take(pa.array(src, pa.int64()))}
        )

    dim = len(_batch_embeddings(
        next(iter(mat.iter_batches(batch_format="pyarrow",
                                   batch_size=1))),
        emb_col,
    )[0])

    def local_topk(g: pa.Table) -> pa.Table:
        isq = g["q"].to_numpy(zero_copy_only=False)
        vid = g["vid"].to_numpy(zero_copy_only=False)
        emb = np.frombuffer(
            b"".join(g["emb"].to_pylist()), dtype=np.float64
        ).reshape(g.num_rows, dim)
        d_rows = np.nonzero(~isq)[0]
        q_rows = np.nonzero(isq)[0]
        if not len(d_rows) or not len(q_rows):
            return pa.table(
                {"vec_id": pa.array([], pa.int64()),
                 "neighbor_id": pa.array([], pa.int64()),
                 "cosine": pa.array([], pa.float64())}
            )
        out_v, out_n, out_c = [], [], []
        dids = vid[d_rows]
        de = emb[d_rows]
        for s0 in range(0, len(q_rows), _COS_TILE):
            rows = q_rows[s0:s0 + _COS_TILE]
            cos = emb[rows] @ de.T
            qids = vid[rows]
            excl = dids[None, :] == qids[:, None]
            keep = _topk_rows_mask(cos, k, excl)
            ii, jj = np.nonzero(keep)
            out_v.append(qids[ii].astype(np.int64))
            out_n.append(dids[jj].astype(np.int64))
            out_c.append(cos[ii, jj].astype(np.float64))
        return pa.table(
            {"vec_id": pa.array(np.concatenate(out_v), pa.int64()),
             "neighbor_id": pa.array(np.concatenate(out_n), pa.int64()),
             "cosine": pa.array(np.concatenate(out_c), pa.float64())}
        )

    parts = (
        mat.map_batches(fan_out, batch_format="pyarrow")
        .groupby("lst")
        .map_groups(local_topk, batch_format="pyarrow")
    )
    return _merge_topk_distributed(parts, k)


def topic_assign(
    vectors: ray.data.Dataset,
    n_topics: int = 8,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
) -> ray.data.Dataset:
    """Semantic domain labeling: assign every vector to the nearest of
    ``n_topics`` anchor centroids (the ``n_topics`` smallest-id
    vectors — the :func:`semantic_dedup` ``codebook='anchors'``
    convention, argmax on ``(round(cos, 6) desc, anchor asc)``, so the
    labels are DuckDB-oracle-verifiable).  One broadcast, one
    map_batches — no shuffle.  Returns ``(id_col, topic)``."""
    ensure_worker_importable()
    cents = _lowest_id_vectors(vectors, n_topics, id_col, emb_col)
    c_ref = ray.put(cents)

    def assign(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({
                id_col: pa.array([], pa.int64()),
                "topic": pa.array([], pa.int64()),
            })
        c = ray.get(c_ref)
        emb = _normalize(_batch_embeddings(batch, emb_col))
        cos = np.round(emb @ c.T, 6)
        topic = np.argmax(cos, axis=1).astype(np.int64)
        return pa.table({
            id_col: batch[id_col],
            "topic": pa.array(topic, pa.int64()),
        })

    return vectors.select_columns([id_col, emb_col]).map_batches(
        assign, batch_format="pyarrow"
    )


def topic_budget_mix(
    docs: ray.data.Dataset,
    vectors: ray.data.Dataset,
    budgets: dict[int, int],
    n_topics: int = 8,
    doc_id_col: str = "doc_id",
    vec_id_col: str = "vec_id",
    emb_col: str = "embedding",
    tokens_col: str = "ws_tokens",
) -> ray.data.Dataset:
    """Semantic-domain mixture sampling — the embedding-space variant
    of the Pile/Dolma source mixing step: label every document with
    its nearest-anchor TOPIC (:func:`topic_assign` over the document
    embeddings), then keep each topic's documents in id order until
    the topic's token budget is spent (``ops.relational.budget_mix``
    with the topic as the source key).  Curation recipes state "x
    billion tokens per domain"; when documents carry no source label,
    the domain IS the embedding cluster.

    ``docs`` must carry ``(doc_id_col, tokens_col)``; ``vectors``
    carries ``(vec_id_col, emb_col)`` with ids joinable to the docs.
    Topics absent from ``budgets`` drop entirely.  Output:
    ``(doc_id_col, topic, tokens_col, cum_tokens)``.

    Scale shape: anchor broadcast + assignment map_batches (no
    shuffle), one explicit bucketed hash join (token counts x topic
    labels — both sides large, so no broadcast), then budget_mix's
    single sort + two pinned-block passes.  Per-topic running sums
    ship per (block, topic-run) — never per doc."""
    ensure_worker_importable()
    from clonebas_ray.ops.relational import budget_mix, hash_join

    labeled = topic_assign(
        vectors, n_topics, id_col=vec_id_col, emb_col=emb_col
    )
    joined = hash_join(
        docs.select_columns([doc_id_col, tokens_col]),
        labeled,
        left_key=doc_id_col,
        right_key=vec_id_col,
        left_cols=[doc_id_col, tokens_col],
        right_cols=[vec_id_col, "topic"],
        left_dtypes={doc_id_col: "int64", tokens_col: "int64"},
        right_dtypes={vec_id_col: "int64", "topic": "int64"},
    )

    def project(b: pa.Table) -> pa.Table:
        return pa.table({
            doc_id_col: b[doc_id_col].cast(pa.int64()),
            "topic": b["topic"].cast(pa.int64()),
            tokens_col: b[tokens_col].cast(pa.int64()),
        })

    slim = joined.map_batches(project, batch_format="pyarrow")
    return budget_mix(
        slim, budgets,
        source_col="topic", id_col=doc_id_col, tokens_col=tokens_col,
    )


def label_centroids(
    ds: ray.data.Dataset,
    label_col: str = "label",
    id_col: str = "vec_id",
    emb_col: str = "embedding",
) -> ray.data.Dataset:
    """Per-label embedding centroids in LONG form ``(label, dim,
    n_vecs, centroid)`` — the vector-aggregate primitive behind data
    maps, IVF codebook seeding and per-domain drift monitors.

    Float-parity pin: the per-dimension sum is a STRICT sequential
    left fold over the label's vectors in ``id_col`` order
    (``np.cumsum`` along axis 0 — numpy's accumulate IS the sequential
    fold; the oracle mirrors it with ``list_reduce(list_prepend(0.0,
    list(v ORDER BY vec_id)))`` per (label, dim)), then one division
    by the int count.  float32 inputs upcast to float64 exactly, so a
    ``CAST(embedding AS DOUBLE[])`` oracle is bit-identical.

    Scale shape: one shuffle groups by label; each group is ONE task
    doing a single (n_label × dim) cumsum — cheap compute, but a
    mega-label is a straggler by construction because the bit-pinned
    sequential fold cannot be split into per-block partials (float
    adds don't reassociate).  For production (no oracle pin), per-block
    partial sums + a tiny merge drop the straggler at the cost of a
    last-ulp different centroid.
    """

    def centroid(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(id_col)
        tab = pa.Table.from_pandas(g[[emb_col]], preserve_index=False)
        m = _batch_embeddings(tab, emb_col)
        n, dim = m.shape
        s = np.cumsum(m, axis=0)[-1]
        return pd.DataFrame({
            label_col: np.repeat(np.int64(g[label_col].iloc[0]), dim),
            "dim": np.arange(1, dim + 1, dtype=np.int64),
            "n_vecs": np.repeat(np.int64(n), dim),
            "centroid": s / n,
        })

    return (
        ds.select_columns([label_col, id_col, emb_col])
        .groupby(label_col)
        .map_groups(centroid, batch_format="pandas")
    )


def kmeans_lloyd(
    vectors: ray.data.Dataset,
    k: int = 8,
    n_iter: int = 2,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
) -> ray.data.Dataset:
    """Distributed Lloyd k-means on cosine distance — the iterative
    primitive behind SemDeDup codebooks, IVF list training and
    data-map clustering, run for a FIXED ``n_iter`` refinements so
    the result is deterministic and DuckDB-verifiable (the oracle
    unrolls the iterations).

    Conventions (all pinned elsewhere in this module):

    - init: the ``k`` smallest-id vectors (:func:`_lowest_id_vectors`,
      the ``codebook='anchors'`` convention); cluster id = anchor
      index.
    - assignment: argmax on ``(round(cos, 6) desc, cluster asc)`` —
      the knn/semantic_dedup rounding-tie precedent.
    - update: per-cluster mean with :func:`label_centroids`' strict
      sequential left fold in ``id_col`` order (bit-identical to the
      oracle's ``list_reduce(list_prepend(0.0, list(v ORDER BY
      id)))``); a cluster that loses every member drops out and its
      id is never reassigned.

    Scale shape: per iteration one broadcast (``ray.put`` of the
    ``k x dim`` centroid matrix) + one assignment ``map_batches`` (no
    shuffle) + one ``groupby(cluster)`` shuffle for the update.  The
    oracle-pinned sequential fold makes each cluster ONE update task
    (a mega-cluster is a straggler by construction — the same
    documented trade as :func:`label_centroids`); production mode
    without the bit-parity pin would use per-block partial sums and a
    tiny merge.  Driver traffic per iteration is ``k`` centroid rows,
    never vectors.  Returns the FINAL assignment ``(id_col,
    cluster)`` computed from the last refined centroids."""
    ensure_worker_importable()
    vecs = vectors.select_columns([id_col, emb_col]).materialize()
    cur = _lowest_id_vectors(vecs, k, id_col, emb_col)  # normalized
    cur_ids = np.arange(len(cur), dtype=np.int64)

    def make_assign(c_ref, ids_ref, keep_emb: bool):
        def assign(batch: pa.Table) -> pa.Table:
            if batch.num_rows == 0:
                out = batch.append_column(
                    "cluster", pa.array([], pa.int64()))
                return out if keep_emb else out.select(
                    [id_col, "cluster"])
            c, ids = c_ref, ids_ref
            if not isinstance(c, np.ndarray):
                c = ray.get(c)
            if not isinstance(ids, np.ndarray):
                ids = ray.get(ids)
            emb = _normalize(_batch_embeddings(batch, emb_col))
            cos = np.round(emb @ c.T, 6)
            # np.argmax takes the FIRST max; rows of c are sorted by
            # cluster id, so ties resolve to the lowest id
            lab = ids[np.argmax(cos, axis=1)]
            out = batch.append_column(
                "cluster", pa.array(lab, pa.int64()))
            return out if keep_emb else out.select([id_col, "cluster"])
        return assign

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(id_col)
        tab = pa.Table.from_pandas(g[[emb_col]], preserve_index=False)
        m = _batch_embeddings(tab, emb_col)
        s = np.cumsum(m, axis=0)[-1]
        return pd.DataFrame({
            "cluster": [np.int64(g["cluster"].iloc[0])],
            "centroid": [(s / len(g)).tolist()],
        })

    for _ in range(int(n_iter)):
        assigned = vecs.map_batches(
            make_assign(ray.put(cur), ray.put(cur_ids), True),
            batch_format="pyarrow", batch_size=None,
        )
        stats = (
            assigned.groupby("cluster")
            .map_groups(fold, batch_format="pandas")
            .to_pandas()
            .sort_values("cluster")
        )
        cur_ids = stats["cluster"].to_numpy(dtype=np.int64)
        cur = _normalize(np.stack(
            [np.asarray(v, dtype=np.float64) for v in stats["centroid"]]
        ))

    return vecs.map_batches(
        make_assign(ray.put(cur), ray.put(cur_ids), False),
        batch_format="pyarrow", batch_size=None,
    )
