"""Graph analytics over event streams — distributed power iteration.

Web-crawl pipelines weight documents by host/link centrality (the
Common-Crawl host-PageRank signal used by CCNet/RefinedWeb-style
quality filters).  The fixture has no link column, so the graph is
DERIVED deterministically from the events table: a bipartite
user<->item graph where clicks point ``user -> item`` and views point
``item -> user`` (the item key is the integer ``k`` field of the JSON
``props`` payload, extracted with the pinned RE2 convention of
``relational.props_field_stats``).

Arithmetic is FIXED-POINT (int64 micro-units, ``scale=10^12``): every
per-node contribution sum is a sum of integers and therefore
order-independent, so the Ray exchange and the DuckDB oracle agree
bit-for-bit with no fold-order pinning (a float PageRank would need
the ``list_reduce(... ORDER BY src)`` fold-order convention — and
``np.add.reduceat`` would be OFF LIMITS; on int64 it is exact).
Rank update per iteration::

    r'(v) = ((den-num)*scale//den)//N  +  num * S(v) // den
    S(v)  = sum over in-edges (u,v) of  r(u) // out_deg(u)

(dangling-node mass leaks — the simple textbook variant, documented;
``num/den`` default 85/100.)

Scale shape (the parts that move at 10M+ events — measured 156 s ->
~30 s on the 10M-event smoke vs the row-typed groupby form):

- distinct-edge collapse: per-block ``drop_duplicates`` partials are
  BLOB-PACKED per (block, partition) — one binary row per pair, the
  byte-bound exchange pinned in CLAUDE.md — and each partition task
  unions its blobs with one structured ``np.unique``;
- the deduped edge blocks then live in plasma ONCE
  (``to_arrow_refs``) and every pass over them is raw Ray tasks on
  those refs — per-block edge INDEXES (src positions, dst run
  boundaries) are built once and reused by all ``n_iter`` iterations,
  each of which is just a gather + integer ``reduceat`` + a two-level
  dense-vector reduce (node-sized, never edge-sized);
- the driver holds only node vectors (rank, degree), the broadcast
  bound every lookup in this repo shares (10^8 nodes ~ 1.6 GB); past
  ``max_driver_nodes`` the op automatically switches to the SHARDED
  path (:func:`_pagerank_sharded`): node ids/rank/degree vectors are
  hash-sharded across plasma objects, each iteration runs per
  (edge-block x src-shard) piece tasks that read ONLY their shard's
  rank vector and emit sparse per-dst-shard partials, and the result
  comes back as a ``ray.data.Dataset`` — the driver never holds a
  node-sized array.  Identical fixed-point arithmetic, so the two
  paths agree bit-for-bit (pytest-pinned).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from clonebas_ray.bootstrap import ensure_worker_importable
from clonebas_ray.functions.kernels import sorted_runs

ITEM_BASE = 1_000_000_000  # disjoints item ids from user ids

_MIX = np.uint64(0x9E3779B97F4A7C15)


def _edge_pack(batch: pa.Table, n_parts: int) -> pa.Table:
    """Per-block distinct (src, dst) pairs from click/view events,
    blob-packed per partition: rows are ``(part, blob)`` where blob is
    the int64-interleaved pair bytes — the exchange carries bytes, not
    per-edge rows."""
    ex = pc.extract_regex(batch["props"], '"k": (?P<v>\\d+)')
    v = pc.struct_field(ex, "v")
    # TRY_CAST semantics (the oracle's): an out-of-int64-range digit
    # string becomes NULL and the row drops, instead of raising.
    # Equal-length digit strings compare numerically, so after
    # stripping leading zeros a 19-digit value fits iff it is
    # lexicographically <= str(2^63 - 1); longer never fits.
    vt = pc.utf8_ltrim(v, "0")
    ln = pc.utf8_length(vt)
    fits = pc.or_(
        pc.less(ln, 19),
        pc.and_(pc.equal(ln, 19),
                pc.less_equal(vt, "9223372036854775807")))
    k = pc.cast(pc.if_else(pc.coalesce(fits, False), v, None), pa.int64())
    umax = pc.max(batch["user_id"]).as_py()
    if umax is not None and umax >= ITEM_BASE:
        raise ValueError(
            f"user_id {umax} >= ITEM_BASE ({ITEM_BASE}): user and item "
            "node ids would collide — raise ITEM_BASE for this corpus")
    # stay arrow/numpy int64 end-to-end: a pandas detour turns the
    # nullable int column into float64 (LOSSY above 2^53 — the
    # CLAUDE.md union null-pad trap in miniature)
    tab = pa.table({
        "et": batch["event_type"], "u": batch["user_id"], "k": k,
    }).filter(pc.and_(pc.is_valid(k), pc.is_valid(batch["user_id"])))
    tc = tab.filter(pc.equal(tab["et"], "click"))
    tv = tab.filter(pc.equal(tab["et"], "view"))
    u_c = tc["u"].to_numpy(zero_copy_only=False).astype(np.int64)
    k_c = tc["k"].to_numpy(zero_copy_only=False).astype(np.int64)
    u_v = tv["u"].to_numpy(zero_copy_only=False).astype(np.int64)
    k_v = tv["k"].to_numpy(zero_copy_only=False).astype(np.int64)
    src = np.concatenate([u_c, k_v + ITEM_BASE])
    dst = np.concatenate([k_c + ITEM_BASE, u_v])
    pairs = np.unique(
        np.column_stack([src, dst]).view([("a", "<i8"), ("b", "<i8")])
    )
    part = (
        (pairs["a"].astype(np.uint64) * _MIX
         + pairs["b"].astype(np.uint64)) >> np.uint64(33)
    ) % np.uint64(n_parts)
    parts, blobs = [], []
    order, starts, counts = sorted_runs(part)
    for s, c in zip(starts, counts):
        parts.append(int(part[order[s]]))
        blobs.append(pairs[order[s:s + c]].tobytes())
    return pa.table({
        "part": pa.array(parts, pa.int64()),
        "blob": pa.array(blobs, pa.binary()),
    })


def _edge_merge(batch: pa.Table) -> pa.Table:
    """Union one partition's blobs into its distinct edge rows."""
    raw = b"".join(batch["blob"].to_pylist())
    pairs = np.unique(
        np.frombuffer(raw, np.int64).reshape(-1, 2)
        .view([("a", "<i8"), ("b", "<i8")]).ravel()
    )
    return pa.table({
        "src": pa.array(pairs["a"], pa.int64()),
        "dst": pa.array(pairs["b"], pa.int64()),
    })


@ray.remote
def _block_nodes(tab: pa.Table) -> np.ndarray:
    # empty shuffle partitions surface with the PRE-groupby schema
    # (the tfidf empty-block lesson) — treat them as no edges
    if tab.num_rows == 0 or "src" not in tab.column_names:
        return np.array([], np.int64)
    return np.union1d(
        tab["src"].to_numpy(zero_copy_only=False),
        tab["dst"].to_numpy(zero_copy_only=False),
    )


@ray.remote
def _block_prep(tab: pa.Table, node_ids: np.ndarray, n_nodes: int):
    """One-time per-block index build: src positions sorted by dst
    run, dst run ids + boundaries, and this block's dense out-degree
    partial."""
    if tab.num_rows == 0 or "src" not in tab.column_names:
        empty = np.array([], np.int64)
        return empty, empty, empty, np.zeros(n_nodes, np.int64)
    src = tab["src"].to_numpy(zero_copy_only=False)
    dst = tab["dst"].to_numpy(zero_copy_only=False)
    si = np.searchsorted(node_ids, src).astype(np.int64)
    di = np.searchsorted(node_ids, dst).astype(np.int64)
    order, runs, _ = sorted_runs(di)
    di_sorted = di[order]
    deg = np.bincount(si, minlength=n_nodes).astype(np.int64)
    return si[order], di_sorted[runs], runs, deg


@ray.remote
def _block_contrib(prep, rdd: np.ndarray, n_nodes: int) -> np.ndarray:
    """One iteration's dense contribution partial for one block:
    gather rank//deg per edge, integer reduceat per dst run (exact —
    int64 sums are order-independent), scatter into a node vector."""
    si, dst_ids, starts, _ = prep
    out = np.zeros(n_nodes, np.int64)
    if len(si):
        out[dst_ids] = np.add.reduceat(rdd[si], starts)
    return out


@ray.remote
def _dense_sum(*vecs: np.ndarray) -> np.ndarray:
    acc = vecs[0].copy()
    for v in vecs[1:]:
        acc += v
    return acc


def _reduce_dense(refs: list, group: int = 8) -> np.ndarray:
    """Two-level dense-vector reduce: node-sized partials sum in
    remote groups, the driver adds only ``len(refs)/group`` vectors."""
    if len(refs) > group:
        refs = [
            _dense_sum.remote(*refs[i : i + group])
            for i in range(0, len(refs), group)
        ]
    parts = ray.get(refs)
    acc = parts[0].copy()
    for v in parts[1:]:
        acc += v
    return acc


def pagerank_events(
    events: ray.data.Dataset,
    n_iter: int = 4,
    damping_num: int = 85,
    damping_den: int = 100,
    scale: int = 10 ** 12,
    n_parts: int = 64,
    max_driver_nodes: int | None = 100_000_000,
    n_shards: int = 16,
) -> pa.Table | ray.data.Dataset:
    """Fixed-point PageRank over the derived bipartite click/view
    graph.  Returns one row per node: ``(node_id, kind, rank,
    score)`` with ``rank`` the exact int64 micro-unit value and
    ``score = rank / scale`` (one double division, oracle-identical).
    See the module docstring for the exchange/scale design."""
    ensure_worker_importable()

    edges = (
        events.select_columns(["event_type", "user_id", "props"])
        .filter(expr="event_type == 'click' or event_type == 'view'")
        .map_batches(
            lambda b: _edge_pack(b, n_parts),
            batch_format="pyarrow", batch_size=None,
        )
        .groupby("part")
        .map_groups(_edge_merge, batch_format="pyarrow")
    )
    out = pagerank_edges(
        edges, n_iter=n_iter, damping_num=damping_num,
        damping_den=damping_den, scale=scale, dedup=False,
        max_driver_nodes=max_driver_nodes, n_shards=n_shards,
    )

    def _with_kind(t: pa.Table) -> pa.Table:
        kind = np.where(
            t["node_id"].to_numpy(zero_copy_only=False) >= ITEM_BASE,
            "item", "user")
        return pa.table({
            "node_id": t["node_id"],
            "kind": pa.array(kind, pa.string()),
            "rank": t["rank"],
            "score": t["score"],
        })

    if isinstance(out, ray.data.Dataset):  # sharded fallback engaged
        return out.map_batches(
            _with_kind, batch_format="pyarrow", batch_size=None)
    return _with_kind(out)


def pagerank_edges(
    edges: ray.data.Dataset,
    n_iter: int = 4,
    damping_num: int = 85,
    damping_den: int = 100,
    scale: int = 10 ** 12,
    n_parts: int = 64,
    dedup: bool = True,
    max_driver_nodes: int | None = 100_000_000,
    n_shards: int = 16,
) -> pa.Table | ray.data.Dataset:
    """Fixed-point PageRank over an arbitrary directed edge table —
    the generic entry for user-supplied graphs (host link graphs,
    dependency graphs): a Dataset with int64 ``src``/``dst`` columns.
    ``dedup=True`` (default) runs the blob-packed distinct-edge
    collapse first; pass ``dedup=False`` only when the input is
    already globally distinct.  Returns ``(node_id, rank, score)``
    (exact int64 micro-units + the one-division double), same
    exchange design as the module docstring.

    Scale routing: when the node count can exceed ``max_driver_nodes``
    (judged by the cheap sum of per-block distinct counts — an upper
    bound, so the switch can only be conservative) the computation
    runs sharded (:func:`_pagerank_sharded`) and the result comes
    back as a ``ray.data.Dataset`` with the same three columns in
    shard order — the driver never materializes a node-sized vector.
    Both paths are bit-identical fixed-point. ``max_driver_nodes=None``
    pins the dense path."""
    ensure_worker_importable()

    if dedup:
        def pack(b: pa.Table) -> pa.Table:
            src = b["src"].to_numpy(zero_copy_only=False).astype(
                np.int64)
            dst = b["dst"].to_numpy(zero_copy_only=False).astype(
                np.int64)
            pairs = np.unique(np.column_stack([src, dst]).view(
                [("a", "<i8"), ("b", "<i8")]))
            part = (
                (pairs["a"].astype(np.uint64) * _MIX
                 + pairs["b"].astype(np.uint64)) >> np.uint64(33)
            ) % np.uint64(n_parts)
            order, starts, counts = sorted_runs(part)
            parts, blobs = [], []
            for s, c in zip(starts, counts):
                parts.append(int(part[order[s]]))
                blobs.append(pairs[order[s:s + c]].tobytes())
            return pa.table({
                "part": pa.array(parts, pa.int64()),
                "blob": pa.array(blobs, pa.binary()),
            })

        edges = (
            edges.map_batches(
                pack, batch_format="pyarrow", batch_size=None)
            .groupby("part")
            .map_groups(_edge_merge, batch_format="pyarrow")
        )
    edges = edges.materialize()
    refs = edges.to_arrow_refs()

    if max_driver_nodes is not None:
        ub = sum(ray.get([_block_node_count.remote(r) for r in refs]))
        if ub > max_driver_nodes:
            return _pagerank_sharded(
                refs, n_iter, damping_num, damping_den, scale,
                n_shards)

    node_ids = np.array([], np.int64)
    for arr in ray.get([_block_nodes.remote(r) for r in refs]):
        node_ids = np.union1d(node_ids, arr)
    n_nodes = len(node_ids)
    if n_nodes == 0:
        return pa.table({
            "node_id": pa.array([], pa.int64()),
            "rank": pa.array([], pa.int64()),
            "score": pa.array([], pa.float64()),
        })
    ids_ref = ray.put(node_ids)

    preps = [_block_prep.remote(r, ids_ref, n_nodes) for r in refs]
    deg = _reduce_dense([_deg_of.remote(p) for p in preps])

    base = ((damping_den - damping_num) * scale
            // damping_den) // n_nodes
    rank = np.full(n_nodes, scale // n_nodes, dtype=np.int64)
    safe_deg = np.maximum(deg, 1)  # dangling rows never gathered

    for _ in range(n_iter):
        rdd_ref = ray.put(rank // safe_deg)
        s = _reduce_dense([
            _block_contrib.remote(p, rdd_ref, n_nodes) for p in preps
        ])
        rank = base + damping_num * s // damping_den

    return pa.table({
        "node_id": pa.array(node_ids, pa.int64()),
        "rank": pa.array(rank, pa.int64()),
        "score": pa.array(rank.astype(np.float64) / float(scale)),
    })


@ray.remote
def _deg_of(prep) -> np.ndarray:
    return prep[3]


# --------------------------------------------------------------------
# Sharded path: node vectors hash-sharded across plasma, driver holds
# only refs — the past-max_driver_nodes fallback.
# --------------------------------------------------------------------

def _shard_of(ids: np.ndarray, n_shards: int) -> np.ndarray:
    return (
        (ids.astype(np.uint64) * _MIX) >> np.uint64(33)
    ) % np.uint64(n_shards)


@ray.remote
def _block_node_count(tab: pa.Table) -> int:
    if tab.num_rows == 0 or "src" not in tab.column_names:
        return 0
    return len(np.union1d(
        tab["src"].to_numpy(zero_copy_only=False),
        tab["dst"].to_numpy(zero_copy_only=False),
    ))


@ray.remote
def _block_node_shards(tab: pa.Table, n_shards: int):
    """One edge block's distinct node ids, split by hash shard."""
    if tab.num_rows == 0 or "src" not in tab.column_names:
        return [np.array([], np.int64)] * n_shards
    nodes = np.union1d(
        tab["src"].to_numpy(zero_copy_only=False),
        tab["dst"].to_numpy(zero_copy_only=False),
    )
    sh = _shard_of(nodes, n_shards)
    return [nodes[sh == k] for k in range(n_shards)]


@ray.remote
def _union_sorted(*arrs: np.ndarray) -> np.ndarray:
    if not arrs:
        return np.array([], np.int64)
    return np.unique(np.concatenate(arrs))


@ray.remote
def _piece_prep(tab: pa.Table, ids_k: np.ndarray, k: int,
                n_shards: int):
    """Per (edge block, src shard) piece index: positions of srcs in
    the shard's sorted id array, dst run boundaries + run node ids,
    and the piece's dense out-degree partial over the shard."""
    nk = len(ids_k)
    if tab.num_rows == 0 or "src" not in tab.column_names:
        e = np.array([], np.int64)
        return e, e, e, np.zeros(nk, np.int64)
    src = tab["src"].to_numpy(zero_copy_only=False)
    dst = tab["dst"].to_numpy(zero_copy_only=False)
    sel = _shard_of(src, n_shards) == np.uint64(k)
    src, dst = src[sel], dst[sel]
    if not len(src):
        e = np.array([], np.int64)
        return e, e, e, np.zeros(nk, np.int64)
    si = np.searchsorted(ids_k, src).astype(np.int64)
    order, runs, _ = sorted_runs(dst)
    dst_sorted = dst[order]
    deg = np.bincount(si, minlength=nk).astype(np.int64)
    return si[order], dst_sorted[runs], runs, deg


@ray.remote
def _shard_rdd(rank: np.ndarray, deg: np.ndarray) -> np.ndarray:
    return rank // np.maximum(deg, 1)


@ray.remote
def _piece_contrib_sharded(prep, rdd_k: np.ndarray, n_shards: int):
    """One piece's iteration partial: integer reduceat per dst run,
    emitted as SPARSE (dst_id, sum) arrays split by dst shard."""
    si, dst_ids, starts, _ = prep
    if not len(si):
        e = np.array([], np.int64)
        return [(e, e)] * n_shards
    sums = np.add.reduceat(rdd_k[si], starts)
    sh = _shard_of(dst_ids, n_shards)
    return [(dst_ids[sh == j], sums[sh == j]) for j in range(n_shards)]


@ray.remote
def _shard_new_rank(ids_j: np.ndarray, base: int, num: int, den: int,
                    *sparse) -> np.ndarray:
    s = np.zeros(len(ids_j), np.int64)
    for dst_ids, sums in sparse:
        if len(dst_ids):
            np.add.at(s, np.searchsorted(ids_j, dst_ids), sums)
    return base + num * s // den


@ray.remote
def _shard_table(ids_j: np.ndarray, rank_j: np.ndarray,
                 scale: int) -> pa.Table:
    return pa.table({
        "node_id": pa.array(ids_j, pa.int64()),
        "rank": pa.array(rank_j, pa.int64()),
        "score": pa.array(rank_j.astype(np.float64) / float(scale)),
    })


def _pagerank_sharded(
    refs: list,
    n_iter: int,
    damping_num: int,
    damping_den: int,
    scale: int,
    n_shards: int,
) -> ray.data.Dataset:
    """Edge-partitioned fixed-point PageRank: node id/rank/degree
    vectors live as ``n_shards`` hash shards in plasma; every
    per-iteration task touches one (edge block, src shard) piece and
    one shard's rank vector.  Bit-identical to the dense path (int64
    partial sums are order-independent).  Returns a Dataset — node
    order is sharded, not globally sorted."""
    K = n_shards
    block_shards = [
        _block_node_shards.options(num_returns=K).remote(r, K)
        for r in refs
    ]
    ids_refs = [
        _union_sorted.remote(*[bs[k] for bs in block_shards])
        for k in range(K)
    ]
    sizes = ray.get([_len_of.remote(i) for i in ids_refs])
    n_nodes = int(sum(sizes))
    if n_nodes == 0:
        return ray.data.from_arrow(pa.table({
            "node_id": pa.array([], pa.int64()),
            "rank": pa.array([], pa.int64()),
            "score": pa.array([], pa.float64()),
        }))

    preps = [
        [_piece_prep.remote(r, ids_refs[k], k, K) for r in refs]
        for k in range(K)
    ]
    deg_refs = [
        _dense_sum.remote(*[_deg_of.remote(p) for p in preps[k]])
        for k in range(K)
    ]
    base = ((damping_den - damping_num) * scale
            // damping_den) // n_nodes
    rank_refs = [
        _full_vec.remote(ids_refs[k], scale // n_nodes)
        for k in range(K)
    ]
    for _ in range(n_iter):
        rdd_refs = [
            _shard_rdd.remote(rank_refs[k], deg_refs[k])
            for k in range(K)
        ]
        piece_outs = [
            [
                _piece_contrib_sharded.options(num_returns=K).remote(
                    p, rdd_refs[k], K)
                for p in preps[k]
            ]
            for k in range(K)
        ]
        rank_refs = [
            _shard_new_rank.remote(
                ids_refs[j], base, damping_num, damping_den,
                *[po[j] for k in range(K) for po in piece_outs[k]],
            )
            for j in range(K)
        ]
    return ray.data.from_arrow_refs([
        _shard_table.remote(ids_refs[k], rank_refs[k], scale)
        for k in range(K)
    ])


@ray.remote
def _len_of(arr: np.ndarray) -> int:
    return len(arr)


@ray.remote
def _full_vec(ids: np.ndarray, value: int) -> np.ndarray:
    return np.full(len(ids), value, dtype=np.int64)
