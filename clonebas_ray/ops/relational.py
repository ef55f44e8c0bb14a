"""Generic relational pipelines over the driver test tables.

These exercise the engine's relational surface — scan+prune, filter,
projection, grouped aggregation (with partial pre-aggregation),
broadcast join, partitioned hash join, sort, top-k, distinct — each as
idiomatic Ray Data, each with an exact DuckDB-SQL twin registered in
``__ray_entry__.oracle_sql`` (column names match the SQL aliases).

Join strategy notes (SURVEY §2.4): every dimension table here
(customer/nation/region/part) is small → broadcast via ``ray.put``
and a pandas merge per batch — no shuffle.  The same pipelines on a
large dimension would switch to the bucketed hash join in
``hash_join`` below, which shuffles both sides on a key-hash column.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data
from ray.data.aggregate import Count, Max, Mean, Min, Sum

from clonebas_ray.bootstrap import ensure_worker_importable
from clonebas_ray.functions.kernels import fib_bucket, sorted_runs
from clonebas_ray.functions.murmur3 import md5_low64


def _read(sf_dir: str, table: str, columns=None) -> ray.data.Dataset:
    return ray.data.read_parquet(f"{sf_dir}/{table}.parquet", columns=columns)


def _cents(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """Exact integer cents via half-up rounding — ``floor(x*100+0.5)``
    matches DuckDB's ``CAST(floor(x*100+0.5) AS BIGINT)`` bit-for-bit
    on identical double inputs (no banker's-rounding divergence)."""
    v = col.to_numpy(zero_copy_only=False).astype(np.float64)
    return np.floor(v * 100.0 + 0.5).astype(np.int64)


def tpch_q1(sf_dir: str) -> pa.Table:
    """TPC-H Q1-shaped pricing summary (no date filter — synthetic
    data), demonstrating grouped aggregation with computed columns.

    Float determinism: all money/rate columns are 2-decimal, so sums
    run over exact integer cents (``floor(x*100+0.5)``) and convert to
    dollars once at the end — the DuckDB oracle mirrors the identical
    integer arithmetic, making result doubles bit-equal."""
    ds = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_linestatus", "l_quantity",
                "l_extendedprice", "l_discount", "l_tax"])

    def widen(t: pa.Table) -> pa.Table:
        q = _cents(t["l_quantity"])
        p = _cents(t["l_extendedprice"])
        d = _cents(t["l_discount"])
        x = _cents(t["l_tax"])
        disc_u = p * (100 - d)            # unit 1e-4 dollars
        charge_u = disc_u * (100 + x)     # unit 1e-6 dollars
        return pa.table(
            {
                "l_returnflag": t["l_returnflag"],
                "l_linestatus": t["l_linestatus"],
                "qty_c": pa.array(q, pa.int64()),
                "price_c": pa.array(p, pa.int64()),
                "disc_c": pa.array(d, pa.int64()),
                "disc_u": pa.array(disc_u, pa.int64()),
                "charge_u": pa.array(charge_u, pa.int64()),
            }
        )

    agg = (
        ds.map_batches(widen, batch_format="pyarrow")
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(
            Sum("qty_c", alias_name="sq"),
            Sum("price_c", alias_name="sp"),
            Sum("disc_u", alias_name="sd"),
            Sum("charge_u", alias_name="sc"),
            Sum("disc_c", alias_name="sdisc"),
            Count(alias_name="count_order"),
        )
        .sort(["l_returnflag", "l_linestatus"])
        .to_pandas()
    )
    n = agg["count_order"]
    out = pd.DataFrame(
        {
            "l_returnflag": agg["l_returnflag"],
            "l_linestatus": agg["l_linestatus"],
            "sum_qty": agg["sq"] / 100.0,
            "sum_base_price": agg["sp"] / 100.0,
            "sum_disc_price": agg["sd"] / 10000.0,
            "sum_charge": agg["sc"] / 1000000.0,
            "avg_qty": (agg["sq"] / 100.0) / n,
            "avg_price": (agg["sp"] / 100.0) / n,
            "avg_disc": (agg["sdisc"] / 100.0) / n,
            "count_order": n,
        }
    )
    return pa.Table.from_pandas(out, preserve_index=False)


def top_customers(sf_dir: str, k: int = 10) -> pa.Table:
    """Revenue top-k: orders aggregated then joined to the (small)
    customer dimension via broadcast — no shuffle join."""
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def widen(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_custkey": t["o_custkey"],
                "tp_c": pa.array(_cents(t["o_totalprice"]), pa.int64()),
            }
        )

    revenue = (
        orders.map_batches(widen, batch_format="pyarrow")
        .groupby("o_custkey")
        .aggregate(
            Sum("tp_c", alias_name="rev_c"),
            Count(alias_name="n_orders"),
        )
    )
    cust = _read(sf_dir, "customer", ["c_custkey", "c_name"]).to_pandas()
    cust_ref = ray.put(cust)

    def attach(batch: pa.Table) -> pa.Table:
        cdf = ray.get(cust_ref)
        df = batch.to_pandas().merge(
            cdf, left_on="o_custkey", right_on="c_custkey", how="inner"
        )
        df["revenue"] = df["rev_c"] / 100.0
        return pa.Table.from_pandas(
            df[["c_custkey", "c_name", "revenue", "n_orders"]],
            preserve_index=False,
        )

    joined = revenue.map_batches(attach, batch_format="pyarrow")
    top = joined.sort(["revenue", "c_custkey"], descending=[True, False]).limit(k)
    return pa.Table.from_pandas(top.to_pandas(), preserve_index=False)


def customers_per_region(sf_dir: str) -> pa.Table:
    """Three-way broadcast join chain: customer → nation → region →
    counts per region name."""
    nation = _read(sf_dir, "nation").to_pandas()
    region = _read(sf_dir, "region").to_pandas()
    dim = nation.merge(
        region, left_on="n_regionkey", right_on="r_regionkey"
    )[["n_nationkey", "r_name"]]
    dim_ref = ray.put(dim)

    def tag(batch: pa.Table) -> pa.Table:
        d = ray.get(dim_ref)
        df = batch.to_pandas().merge(
            d, left_on="c_nationkey", right_on="n_nationkey"
        )
        return pa.Table.from_pandas(df[["r_name"]], preserve_index=False)

    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    out = (
        cust.map_batches(tag, batch_format="pyarrow")
        .groupby("r_name")
        .aggregate(Count(alias_name="n_customers"))
        .sort("r_name")
    )
    return pa.Table.from_pandas(out.to_pandas(), preserve_index=False)


def brand_revenue(sf_dir: str) -> pa.Table:
    """lineitem ⋈ part on partkey (part broadcast; at scale use
    ``hash_join``) → revenue per brand."""
    part = _read(sf_dir, "part", ["p_partkey", "p_brand"]).to_pandas()
    part_ref = ray.put(part)

    def attach(batch: pa.Table) -> pa.Table:
        p = ray.get(part_ref)
        df = batch.to_pandas()
        df["rev_u"] = _cents(batch["l_extendedprice"]) * (
            100 - _cents(batch["l_discount"])
        )
        df = df.merge(p, left_on="l_partkey", right_on="p_partkey",
                      how="inner")
        return pa.Table.from_pandas(
            df[["p_brand", "rev_u"]], preserve_index=False
        )

    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_extendedprice", "l_discount"])
    agg = (
        li.map_batches(attach, batch_format="pyarrow")
        .groupby("p_brand")
        .aggregate(
            Sum("rev_u", alias_name="rev_u_sum"),
            Count(alias_name="n_items"),
        )
        .sort("p_brand")
        .to_pandas()
    )
    agg["revenue"] = agg["rev_u_sum"] / 10000.0
    return pa.Table.from_pandas(
        agg[["p_brand", "revenue", "n_items"]], preserve_index=False
    )


def auto_partitions(mult: int = 4, lo: int = 64, hi: int = 4096) -> int:
    """~``mult`` shuffle partitions per cluster core (clamped): keeps
    per-partition work small and stragglers cheap on any cluster size
    without a per-pipeline knob."""
    try:
        cpus = int(ray.cluster_resources().get("CPU", 16))
    except Exception:  # noqa: BLE001 — no session yet: assume small
        cpus = 16
    return int(min(hi, max(lo, cpus * mult)))


def dup_winner_broadcast(
    ds: ray.data.Dataset, occurrences, n_ties: int = 1
) -> ray.ObjectRef:
    """The dup-winner broadcast behind every keep-first exact dedup.

    ``occurrences(batch) -> (h, *ties)`` maps a pyarrow block to one
    uint64 content hash per occurrence plus ``n_ties`` int64 tie-break
    arrays; the winner of a hash is its occurrence with the smallest
    tie tuple.  Each block collapses to one row per distinct hash (its
    local min tie tuple and count), one ``hp``-bucketed shuffle merges
    the partials — equal hashes never split across partitions, so the
    count sum is global and each run's first row is the global winner
    — and the winners of hashes seen >= 2 times are ``ray.put`` once as
    ``(hashes ascending, *winner ties)``.  The table is bounded by
    DUPLICATED contents, not corpus size, and content never shuffles.
    ``ds`` executes once here; the caller's filter pass reads it
    again, so it should be materialized or checkpoint-backed."""
    P = auto_partitions()
    ties = [f"t{j}" for j in range(n_ties)]

    def partial(batch: pa.Table) -> pa.Table:
        h, *tv = occurrences(batch)
        order, starts, counts = sorted_runs(h, *tv, run_keys=1)
        first = order[starts]
        return pa.table({
            "hp": pa.array(fib_bucket(h[first], P), pa.int32()),
            "h": pa.array(h[first], pa.uint64()),
            **{t: pa.array(v[first], pa.int64()) for t, v in zip(ties, tv)},
            "c": pa.array(counts, pa.int64()),
        })

    def winners(g: pa.Table) -> pa.Table:
        h = g["h"].to_numpy(zero_copy_only=False)
        tv = [g[t].to_numpy(zero_copy_only=False) for t in ties]
        order, starts, _ = sorted_runs(h, *tv, run_keys=1)
        c = g["c"].to_numpy(zero_copy_only=False)[order]
        tot = np.add.reduceat(c, starts) if len(c) else c
        first = order[starts][tot >= 2]
        return pa.table({
            "h": pa.array(h[first], pa.uint64()),
            **{t: pa.array(v[first], pa.int64()) for t, v in zip(ties, tv)},
        })

    won = list(
        ds.map_batches(partial, batch_format="pyarrow", batch_size=None)
        .groupby("hp")
        .map_groups(winners, batch_format="pyarrow")
        .iter_batches(batch_format="pyarrow", batch_size=None)
    )
    cols = [
        np.concatenate(
            [b[name].to_numpy(zero_copy_only=False) for b in won]
            or [np.empty(0, np.uint64 if name == "h" else np.int64)]
        )
        for name in ["h", *ties]
    ]
    order = np.argsort(cols[0])
    return ray.put(tuple(np.ascontiguousarray(c[order]) for c in cols))


def dup_winner_keep(win: tuple, h: np.ndarray, *ties) -> np.ndarray:
    """Keep mask of occurrences ``(h, *ties)`` against a
    :func:`dup_winner_broadcast` table: an occurrence survives unless
    its hash is duplicated and it is not the winner."""
    wh = win[0]
    if not len(wh):
        return np.ones(len(h), dtype=bool)
    pos = np.minimum(np.searchsorted(wh, h), len(wh) - 1)
    keep = wh[pos] != h
    won = np.ones(len(h), dtype=bool)
    for w, t in zip(win[1:], ties):
        won &= w[pos] == t
    return keep | won


def keep_first_occurrence(
    ds: ray.data.Dataset, id_col: str, text_col: str
) -> ray.data.Dataset:
    """Exact dedup of ``ds`` via the dup-winner broadcast: of the rows
    sharing one ``text_col`` content (md5 low-64), keep only the one
    with the smallest ``id_col``.  ``ds`` must be re-consumable
    (materialized or checkpoint-backed): it is read once for the
    partials and once for the filter."""

    def occurrences(batch: pa.Table) -> tuple[np.ndarray, np.ndarray]:
        h = np.fromiter(
            (md5_low64(t.encode("utf-8", "surrogatepass"))
             for t in batch[text_col].to_pylist()),
            dtype=np.uint64, count=batch.num_rows,
        )
        return h, batch[id_col].to_numpy(zero_copy_only=False)

    win_ref = dup_winner_broadcast(ds, occurrences)

    def keep(batch: pa.Table) -> pa.Table:
        win = ray.get(win_ref)
        if not len(win[0]):
            return batch
        return batch.filter(
            pa.array(dup_winner_keep(win, *occurrences(batch))))

    return ds.map_batches(keep, batch_format="pyarrow", batch_size=None)


def hash_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    left_key: str,
    right_key: str,
    num_buckets: int = 0,
    left_cols: list[str] | None = None,
    right_cols: list[str] | None = None,
    left_dtypes: dict[str, str] | None = None,
    right_dtypes: dict[str, str] | None = None,
    left_prep=None,
) -> ray.data.Dataset:
    """Explicit partitioned hash join for two LARGE sides: both sides
    gain a ``__bucket`` = hash(key) % B column, are grouped by it, and
    matching buckets merge pairwise inside ``map_groups``.
    ``num_buckets=0`` auto-sizes to the cluster.  Skewed hot keys
    should be salted into sub-buckets by the caller (documented seam;
    dimension tables here never need it).

    Exchange layout: each input block is split by bucket and shipped
    as ONE Arrow-IPC binary payload row per (block, bucket) with an
    identical 3-column schema on both sides.  The union therefore
    never mixes schemas, so Ray's shuffle never null-pads or falls
    back to a pandas concat — the path that silently coerced int64
    columns to float64 and ROUNDED 63-bit hash ids (lossy above 2^53;
    the minhash verify rejoin dropped every match this way).  Values
    round-trip bit-exactly through IPC, and the exchange is byte-
    bound: one row per block x bucket, not per data row."""
    if not num_buckets:
        num_buckets = auto_partitions(mult=2, lo=32)

    def bucketed(ds: ray.data.Dataset, key: str, side: str) -> ray.data.Dataset:
        def add(batch: pa.Table) -> pa.Table:
            k = batch[key].to_numpy(zero_copy_only=False)
            h = (pd.util.hash_array(np.asarray(k)) % num_buckets).astype(
                np.int64
            )
            order, starts, counts = sorted_runs(h)
            hs = h[order]
            srt = batch.take(pa.array(order, pa.int64()))
            buckets, payloads = [], []
            for s, c in zip(starts, counts):
                sink = pa.BufferOutputStream()
                sub = srt.slice(s, c)
                with pa.ipc.new_stream(sink, sub.schema) as w:
                    w.write_table(sub)
                buckets.append(int(hs[s]))
                payloads.append(sink.getvalue().to_pybytes())
            return pa.table({
                "__bucket": pa.array(buckets, pa.int32()),
                "__side": pa.array([side] * len(buckets), pa.string()),
                "__payload": pa.array(payloads, pa.binary()),
            })

        return ds.map_batches(add, batch_format="pyarrow")

    # capture each side's schema up front.  Callers with a derived
    # (lazy) side pass the names explicitly so schema inference
    # doesn't execute part of the upstream graph.
    if left_cols is None:
        left_cols = left.schema().names
    if right_cols is None:
        right_cols = right.schema().names

    lb = bucketed(left, left_key, "l")
    rb = bucketed(right, right_key, "r")
    both = lb.union(rb)

    def _side_frame(g: pa.Table, side: str, cols: list[str]) -> pd.DataFrame:
        sel = pc.equal(g["__side"], side)
        tabs = [
            pa.ipc.open_stream(p).read_all()
            for p in g.filter(sel)["__payload"].to_pylist()
        ]
        tabs = [t for t in tabs if t.num_rows]
        if not tabs:
            return pd.DataFrame(columns=cols)
        return (
            pa.concat_tables(tabs, promote_options="default")
            .to_pandas().reindex(columns=cols)
        )

    def join_bucket(g: pa.Table) -> pd.DataFrame:
        lg = _side_frame(g, "l", left_cols)
        rg = _side_frame(g, "r", right_cols)
        if lg.empty or rg.empty:
            # typed merge of an untyped empty frame raises; the join
            # result is empty either way — emit it column-complete so
            # downstream projections see a stable schema
            out_cols = list(dict.fromkeys(left_cols + right_cols))
            return pd.DataFrame(columns=out_cols)
        if left_dtypes:
            lg = lg.astype(left_dtypes)
        if right_dtypes:
            rg = rg.astype(right_dtypes)
        if left_prep is not None:
            # e.g. a bucket-local dedup: rows sharing the join key land
            # in the same bucket, so per-bucket prep can be globally
            # exact without its own shuffle
            lg = left_prep(lg)
        return lg.merge(rg, left_on=left_key, right_on=right_key)

    return both.groupby("__bucket").map_groups(
        join_bucket, batch_format="pyarrow"
    )


def asof_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    left_key: str,
    right_key: str,
    left_ts: str,
    right_ts: str,
    num_buckets: int = 0,
    left_cols: list[str] | None = None,
    right_cols: list[str] | None = None,
    left_dtypes: dict[str, str] | None = None,
    right_dtypes: dict[str, str] | None = None,
    right_prep=None,
    direction: str = "backward",
) -> ray.data.Dataset:
    """As-of join — Ray Data has no native one (SURVEY §2.9 custom
    operator): each left row gains the single right row sharing its
    join key whose ``right_ts`` is the greatest <= ``left_ts``
    (``direction='backward'``, inclusive — DuckDB's
    ``ASOF JOIN ... ON l.ts >= r.ts`` semantics; 'forward'/'nearest'
    pass through to the pandas kernel).  Unmatched left rows keep
    null right columns (LEFT semantics).

    Partitioning assumption (documented): both sides hash-co-partition
    on the join key, so a key's FULL history lands in one bucket;
    inside a bucket ``pd.merge_asof`` (C-vectorized, sort + binary
    search) does the per-key time alignment.  Per-key history must fit
    one task — true for any per-user/per-entity stream; a single
    pathological key with ~10^9 rows would need a time-range
    sub-split (same seam class as the hash-join hot key).  The right
    side must be unique per (key, ts) or the picked row is arbitrary —
    pass ``right_prep`` to aggregate duplicates bucket-locally (exact,
    because key rows co-locate).  Column names must be disjoint across
    sides (the union would merge same-named columns)."""
    if not num_buckets:
        num_buckets = auto_partitions(mult=2, lo=32)
    if left_cols is None:
        left_cols = left.schema().names
    if right_cols is None:
        right_cols = right.schema().names
    overlap = set(left_cols) & set(right_cols)
    if overlap:
        raise ValueError(f"asof_join column collision: {sorted(overlap)}")

    def bucketed(ds: ray.data.Dataset, key: str, side: str) -> ray.data.Dataset:
        def add(batch: pa.Table) -> pa.Table:
            k = batch[key].to_numpy(zero_copy_only=False)
            h = pd.util.hash_array(np.asarray(k)) % num_buckets
            t = batch.append_column(
                "__bucket", pa.array(h.astype(np.int32), pa.int32())
            )
            return t.append_column("__side", pa.array([side] * len(k)))

        return ds.map_batches(add, batch_format="pyarrow")

    both = bucketed(left, left_key, "l").union(
        bucketed(right, right_key, "r")
    )

    def join_bucket(g: pd.DataFrame) -> pd.DataFrame:
        lg = g[g["__side"] == "l"].reindex(columns=left_cols)
        rg = g[g["__side"] == "r"].reindex(columns=right_cols)
        if left_dtypes:
            lg = lg.astype(left_dtypes)
        if right_dtypes:
            rg = rg.astype(right_dtypes)
        if right_prep is not None:
            # prep may aggregate/rename value columns; it must keep
            # right_key/right_ts and return a stable layout even on an
            # empty frame (named groupby aggregations do)
            rg = right_prep(rg)
        # stable output layout: left columns + right VALUE columns (the
        # right key/ts are redundant with the left's, and keeping them
        # would flip dtype per bucket — int64 when fully matched,
        # float64 when any row missed)
        value_cols = [
            c for c in rg.columns if c not in (right_key, right_ts)
        ]
        out_cols = left_cols + value_cols
        if lg.empty:
            return lg.reindex(columns=out_cols)
        if rg.empty:
            out = lg.copy()
            for c in value_cols:
                out[c] = np.nan
            return out
        # merge_asof requires both frames globally sorted on the time
        # column; `by=` then aligns within each key
        lg = lg.sort_values(left_ts, kind="mergesort")
        rg = rg.sort_values(right_ts, kind="mergesort")
        return pd.merge_asof(
            lg, rg, left_on=left_ts, right_on=right_ts,
            left_by=left_key, right_by=right_key, direction=direction,
        )[out_cols]

    return both.groupby("__bucket").map_groups(
        join_bucket, batch_format="pandas"
    )


def range_join(
    points: ray.data.Dataset,
    intervals: ray.data.Dataset,
    point_col: str,
    lo_col: str,
    hi_col: str,
    bucket_width_us: int,
    point_cols: list[str] | None = None,
    interval_cols: list[str] | None = None,
    point_dtypes: dict[str, str] | None = None,
    interval_dtypes: dict[str, str] | None = None,
    extra_pred=None,
) -> ray.data.Dataset:
    """Range (interval-containment) join — Ray Data has no native one
    (SURVEY §2.9 custom operator): each point row joins every interval
    row with ``lo <= point <= hi`` (inclusive both ends).

    Strategy — time-bucket binning, the distributed range-join pattern
    for when there is NO equality key to co-partition on: time splits
    into fixed ``bucket_width_us`` buckets; an interval fans out to one
    copy per covered bucket, a point lands in exactly ONE bucket, and
    containment filters vectorized inside each bucket group.  Because
    a point has exactly one bucket and interval copies are distinct
    per bucket, no cross-bucket dedup is needed.

    Partitioning assumptions (documented): interval length /
    bucket_width bounds the fan-out — pick the width near the typical
    interval length; one bucket's points x intervals crossproduct must
    fit a task (the per-task tile bounds memory, but a pathological
    hot bucket still wants a narrower width or a secondary split).
    ``extra_pred(df) -> df`` runs after containment — e.g. an equality
    residual like same-user — so callers can express mixed
    equality+range predicates without a second shuffle.  Column names
    must be disjoint across sides."""
    if point_cols is None:
        point_cols = points.schema().names
    if interval_cols is None:
        interval_cols = intervals.schema().names
    overlap = set(point_cols) & set(interval_cols)
    if overlap:
        raise ValueError(f"range_join column collision: {sorted(overlap)}")
    W = np.int64(bucket_width_us)

    def _us(col: pa.ChunkedArray) -> np.ndarray:
        return pc.cast(col, pa.timestamp("us")).to_numpy(
            zero_copy_only=False
        ).view(np.int64)

    def bucket_points(batch: pa.Table) -> pa.Table:
        b = _us(batch[point_col]) // W
        t = batch.append_column(
            "__bucket", pa.array(b.astype(np.int64), pa.int64())
        )
        return t.append_column("__side", pa.array(["p"] * len(b)))

    def expand_intervals(batch: pa.Table) -> pa.Table:
        lo_b = _us(batch[lo_col]) // W
        hi_b = _us(batch[hi_col]) // W
        n_copies = (hi_b - lo_b + 1).astype(np.int64)
        idx = np.repeat(np.arange(len(lo_b), dtype=np.int64), n_copies)
        # per-copy bucket = lo_b + position within its own run
        pos = np.arange(idx.size, dtype=np.int64) - np.repeat(
            np.concatenate(([0], np.cumsum(n_copies)[:-1])), n_copies
        )
        t = batch.take(pa.array(idx))
        t = t.append_column(
            "__bucket", pa.array(lo_b[idx] + pos, pa.int64())
        )
        return t.append_column("__side", pa.array(["i"] * idx.size))

    both = points.map_batches(
        bucket_points, batch_format="pyarrow"
    ).union(intervals.map_batches(expand_intervals, batch_format="pyarrow"))

    def join_bucket(g: pd.DataFrame) -> pd.DataFrame:
        # dtype restore: the union null-pads the other side's columns
        # (int64 -> float64, datetime -> NaT-bearing) — the
        # caller-supplied maps keep every group's output layout
        # identical, INCLUDING the 0-row frames from single-side
        # buckets (an object-dtyped empty would poison the schema)
        pg = g[g["__side"] == "p"].reindex(columns=point_cols)
        ig = g[g["__side"] == "i"].reindex(columns=interval_cols)
        if point_dtypes:
            pg = pg.astype(point_dtypes)
        if interval_dtypes:
            ig = ig.astype(interval_dtypes)
        if pg.empty or ig.empty:
            return pd.concat(
                [
                    pg.iloc[0:0].reset_index(drop=True),
                    ig.iloc[0:0].reset_index(drop=True),
                ],
                axis=1,
            )
        ts = pg[point_col].to_numpy("datetime64[us]").view(np.int64)
        lo = ig[lo_col].to_numpy("datetime64[us]").view(np.int64)
        hi = ig[hi_col].to_numpy("datetime64[us]").view(np.int64)
        pi_idx: list[np.ndarray] = []
        ii_idx: list[np.ndarray] = []
        TILE = 4096  # bounds the in-bucket crossproduct tile
        for s in range(0, len(ts), TILE):
            e = min(s + TILE, len(ts))
            m = (ts[s:e, None] >= lo[None, :]) & (
                ts[s:e, None] <= hi[None, :]
            )
            a, b = np.nonzero(m)
            pi_idx.append(a + s)
            ii_idx.append(b)
        pi = np.concatenate(pi_idx)
        ii = np.concatenate(ii_idx)
        out = pd.concat(
            [
                pg.iloc[pi].reset_index(drop=True),
                ig.iloc[ii].reset_index(drop=True),
            ],
            axis=1,
        )
        if extra_pred is not None:
            out = extra_pred(out)
        return out

    return both.groupby("__bucket").map_groups(
        join_bucket, batch_format="pandas"
    )


def events_in_sessions(sf_dir: str) -> pa.Table:
    """Mixed equality+range join via :func:`range_join`: each event
    matched to the session interval containing it (same user, ts
    between session bounds) — sessions come from the
    :func:`user_sessions` sessionizer, so each event matches exactly
    its own session and the row count must equal the event count (a
    built-in self-check the SQL oracle shares).  The user equality is
    deliberately expressed as the ``extra_pred`` RESIDUAL, exercising
    the no-equality-key time-binning path; 6-hour buckets sit near
    the typical session length."""
    sessions = user_sessions(sf_dir)
    sess = pa.table(
        {
            "s_user_id": sessions["user_id"],
            "session_start": sessions["session_start"],
            "session_end": sessions["session_end"],
        }
    )
    events = _read(sf_dir, "events", ["event_id", "ts", "user_id"])
    out = range_join(
        events, ray.data.from_arrow(sess),
        "ts", "session_start", "session_end",
        bucket_width_us=6 * 3600 * 1_000_000,
        point_cols=["event_id", "ts", "user_id"],
        interval_cols=["s_user_id", "session_start", "session_end"],
        point_dtypes={
            "event_id": "int64", "user_id": "int64",
            "ts": "datetime64[us]",
        },
        interval_dtypes={
            "s_user_id": "int64",
            "session_start": "datetime64[us]",
            "session_end": "datetime64[us]",
        },
        extra_pred=lambda df: df[df["user_id"] == df["s_user_id"]],
    )
    df = (
        out.to_pandas()
        .drop(columns=["s_user_id"])
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    return pa.Table.from_pandas(df, preserve_index=False)


def events_asof_orders(sf_dir: str) -> pa.Table:
    """Stream-shaped as-of enrichment: each event joined to the SAME
    user's most recent order at-or-before the event time (the
    :func:`asof_join` custom operator; DuckDB's native ``ASOF LEFT
    JOIN`` is the oracle).  Orders pre-aggregate to one row per
    (custkey, orderdate) bucket-locally so the as-of pick is
    deterministic; money follows the integer-cents convention
    (floor(x*100+0.5) per order, then sum)."""
    events = _read(sf_dir, "events", ["event_id", "ts", "user_id"])
    orders = _read(
        sf_dir, "orders",
        ["o_custkey", "o_orderdate", "o_orderkey", "o_totalprice"],
    )

    def agg_orders(rg: pd.DataFrame) -> pd.DataFrame:
        cents = np.floor(
            rg["o_totalprice"].to_numpy(np.float64) * 100.0 + 0.5
        ).astype(np.int64)
        return rg.assign(__cents=cents).groupby(
            ["o_custkey", "o_orderdate"], as_index=False
        ).agg(
            last_orderkey=("o_orderkey", "max"),
            last_total_cents=("__cents", "sum"),
        )

    out = asof_join(
        events, orders, "user_id", "o_custkey", "ts", "o_orderdate",
        left_cols=["event_id", "ts", "user_id"],
        right_cols=["o_custkey", "o_orderdate", "o_orderkey",
                    "o_totalprice"],
        left_dtypes={"event_id": "int64", "user_id": "int64"},
        right_dtypes={"o_custkey": "int64", "o_orderkey": "int64"},
        right_prep=agg_orders,
    )
    df = out.to_pandas().sort_values("event_id").reset_index(drop=True)
    return pa.Table.from_pandas(df, preserve_index=False)


def events_hourly(sf_dir: str) -> pa.Table:
    """Stream-shaped: tumbling 1-hour windows per event_type
    (``floor_temporal`` + grouped agg; SURVEY §2.8 — semantics stay
    batch, ordering from the window key not arrival order)."""
    ev = _read(sf_dir, "events", ["event_type", "ts", "value"])

    def window(t: pa.Table) -> pa.Table:
        hour = pc.floor_temporal(t["ts"], unit="hour")
        return pa.table(
            {
                "event_type": t["event_type"],
                "hour": hour,
                "value": t["value"],
                "value_c": pa.array(_cents(t["value"]), pa.int64()),
            }
        )

    agg = (
        ev.map_batches(window, batch_format="pyarrow")
        .groupby(["event_type", "hour"])
        .aggregate(
            Count(alias_name="n_events"),
            Sum("value_c", alias_name="sum_value_c"),
            Min("value", alias_name="min_value"),
            Max("value", alias_name="max_value"),
        )
        .sort(["event_type", "hour"])
        .to_pandas()
    )
    agg["sum_value"] = agg["sum_value_c"] / 100.0
    # DuckDB returns timestamps at us precision; align so value hashes
    # compare dtype-identically
    agg["hour"] = agg["hour"].astype("datetime64[us]")
    return pa.Table.from_pandas(
        agg[["event_type", "hour", "n_events", "sum_value",
             "min_value", "max_value"]],
        preserve_index=False,
    )


def user_activity(sf_dir: str) -> pa.Table:
    """Per-user session-ish rollup: count, total value, active span."""
    ev = _read(sf_dir, "events", ["user_id", "ts", "value"])

    def widen(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": t["user_id"],
                "ts": t["ts"],
                "value_c": pa.array(_cents(t["value"]), pa.int64()),
            }
        )

    agg = (
        ev.map_batches(widen, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(
            Count(alias_name="n_events"),
            Sum("value_c", alias_name="total_value_c"),
            Min("ts", alias_name="first_ts"),
            Max("ts", alias_name="last_ts"),
        )
        .sort("user_id")
        .to_pandas()
    )
    agg["total_value"] = agg["total_value_c"] / 100.0
    return pa.Table.from_pandas(
        agg[["user_id", "n_events", "total_value", "first_ts", "last_ts"]],
        preserve_index=False,
    )


def docs_lang_stats(sf_dir: str) -> pa.Table:
    """documents per-lang rollup (M11 char accounting analogue)."""
    docs = _read(sf_dir, "documents", ["lang", "n_chars"])
    out = (
        docs.groupby("lang")
        .aggregate(
            Count(alias_name="n_docs"),
            Sum("n_chars", alias_name="total_chars"),
            Mean("n_chars", alias_name="avg_chars"),
        )
        .sort("lang")
    )
    return pa.Table.from_pandas(out.to_pandas(), preserve_index=False)


def distinct_langs(sf_dir: str) -> pa.Table:
    """Set op: distinct values of a column (``ds.unique`` shuffle)."""
    docs = _read(sf_dir, "documents", ["lang"])
    vals = sorted(docs.unique("lang"))
    return pa.table({"lang": pa.array(vals, pa.string())})


def customers_without_orders(sf_dir: str) -> pa.Table:
    """Anti join: broadcast the order-custkey set (a Bloom filter at
    real scale) and filter inside ``map_batches`` — no shuffle."""
    okeys = pa.array(
        _read(sf_dir, "orders", ["o_custkey"]).unique("o_custkey")
    )
    keys_ref = ray.put(okeys)

    def anti(batch: pa.Table) -> pa.Table:
        ks = ray.get(keys_ref)
        mask = pc.invert(pc.is_in(batch["c_custkey"], value_set=ks))
        return batch.filter(mask)

    cust = _read(sf_dir, "customer", ["c_custkey", "c_name", "c_acctbal"])
    out = cust.map_batches(anti, batch_format="pyarrow").sort("c_custkey")
    df = out.to_pandas()
    if df.empty:  # keep the schema even when every customer has orders
        df = pd.DataFrame(
            {
                "c_custkey": pd.Series(dtype="int64"),
                "c_name": pd.Series(dtype="object"),
                "c_acctbal": pd.Series(dtype="float64"),
            }
        )
    return pa.Table.from_pandas(df, preserve_index=False)


def big_spender_segments(sf_dir: str) -> pa.Table:
    """Semi join + grouped agg: customers WITH at least one order over
    200k, counted per market segment."""
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def big(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.greater(batch["o_totalprice"], 200000.0))

    keys = pa.array(
        orders.map_batches(big, batch_format="pyarrow").unique("o_custkey")
    )
    keys_ref = ray.put(keys)

    def semi(batch: pa.Table) -> pa.Table:
        ks = ray.get(keys_ref)
        return batch.filter(pc.is_in(batch["c_custkey"], value_set=ks))

    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    out = (
        cust.map_batches(semi, batch_format="pyarrow")
        .groupby("c_mktsegment")
        .aggregate(Count(alias_name="n_customers"))
        .sort("c_mktsegment")
    )
    return pa.Table.from_pandas(out.to_pandas(), preserve_index=False)


def orders_monthly(sf_dir: str) -> pa.Table:
    """Calendar rollup: orders per month with exact cent sums."""
    ds = _read(sf_dir, "orders", ["o_orderdate", "o_totalprice"])

    def widen(t: pa.Table) -> pa.Table:
        month = pc.floor_temporal(
            pc.cast(t["o_orderdate"], pa.timestamp("us")), unit="month"
        )
        return pa.table(
            {
                "month": month,
                "tp_c": pa.array(_cents(t["o_totalprice"]), pa.int64()),
            }
        )

    agg = (
        ds.map_batches(widen, batch_format="pyarrow")
        .groupby("month")
        .aggregate(
            Count(alias_name="n_orders"),
            Sum("tp_c", alias_name="tp_c_sum"),
        )
        .sort("month")
        .to_pandas()
    )
    agg["total_price"] = agg["tp_c_sum"] / 100.0
    agg["month"] = agg["month"].astype("datetime64[us]")
    return pa.Table.from_pandas(
        agg[["month", "n_orders", "total_price"]], preserve_index=False
    )


def user_sessions(sf_dir: str, gap_minutes: int = 30) -> pa.Table:
    """Sessionization (stream-shaped, SURVEY §2.8): events per user
    split into sessions at >gap_minutes inactivity;
    ``groupby(user).map_groups`` sorts each group by ts and applies the
    gap rule — the partitioning assumption (all of a user's events in
    one group) is exactly what the groupby provides."""
    import pandas as pd

    ev = _read(sf_dir, "events", ["user_id", "ts", "value"])
    gap = pd.Timedelta(minutes=gap_minutes)

    def sessionize(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("ts")
        new_session = g["ts"].diff() > gap
        sid = new_session.cumsum()
        out = (
            g.assign(session=sid)
            .groupby("session")
            .agg(
                user_id=("user_id", "first"),
                session_start=("ts", "min"),
                session_end=("ts", "max"),
                n_events=("ts", "size"),
            )
            .reset_index(drop=True)
        )
        return out

    out = (
        ev.groupby("user_id")
        .map_groups(sessionize, batch_format="pandas")
        .sort(["user_id", "session_start"])
        .to_pandas()
    )
    out["session_start"] = out["session_start"].astype("datetime64[us]")
    out["session_end"] = out["session_end"].astype("datetime64[us]")
    out["n_events"] = out["n_events"].astype("int64")
    return pa.Table.from_pandas(out, preserve_index=False)


def hash_split(
    ds: ray.data.Dataset,
    key_col: str,
    splits: dict[str, float] | None = None,
    out_col: str = "split",
    buckets: int = 10_000,
) -> ray.data.Dataset:
    """Deterministic train/val/test assignment by content-stable key
    hash: bucket = ``md5_low64(str(key)) % buckets``, split = the
    first name whose cumulative share covers the bucket.  The same row
    lands in the same split on every run, every cluster size, every
    shard order — the property random ``ds.split`` lacks and training
    pipelines need (resumable runs must not leak val rows into train).

    Hash = the repo's pinned ``md5_number_lower`` convention, so the
    assignment is reproducible in ANSI SQL (DuckDB:
    ``md5_number_lower(CAST(key AS VARCHAR)) % buckets``).  Stateless
    single ``map_batches``; no shuffle — each split is a later
    ``filter`` on the label (one pass materializes all three)."""
    ensure_worker_importable()
    if splits is None:
        splits = {"train": 0.9, "val": 0.05, "test": 0.05}
    total = sum(splits.values())
    names = list(splits)
    # cumulative integer bucket bounds: split i owns [bound_{i-1}, bound_i)
    bounds = []
    acc = 0.0
    for nm in names:
        acc += splits[nm] / total
        bounds.append(min(buckets, int(round(acc * buckets))))
    bounds[-1] = buckets  # rounding never drops the tail bucket

    from clonebas_ray.functions.murmur3 import md5_low64

    def per_batch(batch: pa.Table) -> pa.Table:
        keys = batch[key_col].to_pylist()
        b = np.array(
            [md5_low64(str(k).encode()) % buckets for k in keys],
            dtype=np.int64,
        )
        lab = np.searchsorted(np.asarray(bounds, dtype=np.int64), b,
                              side="right")
        col = pa.array([names[i] for i in lab], pa.string())
        return batch.append_column(out_col, col)

    return ds.map_batches(per_batch, batch_format="pyarrow")


def group_top_k(
    ds: ray.data.Dataset,
    key_cols: str | list[str],
    order_col: str,
    k: int,
    descending: bool = True,
    tie_cols: list[str] | None = None,
    rank_col: str = "rank",
    num_buckets: int = 0,
) -> ray.data.Dataset:
    """Exact top-``k`` rows per group with ``ROW_NUMBER``-style 1-based
    ranks — the generic window-rank operator (top-N orders per
    customer, per-domain document caps, best-score exemplars).

    Determinism contract: ``(order_col, *tie_cols)`` must totally order
    each group (pass a unique id as the last tie column) — then the
    emitted rank equals SQL ``ROW_NUMBER() OVER (PARTITION BY keys
    ORDER BY order_col [DESC], tie_cols)`` exactly.

    Scale shape: a per-batch partial top-k runs BEFORE the shuffle, so
    the exchange carries at most ``k × groups-per-batch`` rows no
    matter how hot a group is (the classic combiner move — a 10⁸-row
    group ships ``k`` rows per input block, never the group).  The
    final per-bucket pass re-sorts the survivors; groups never split
    across buckets, so the result is exact."""
    ensure_worker_importable()
    keys = [key_cols] if isinstance(key_cols, str) else list(key_cols)
    ties = list(tie_cols or [])
    by = keys + [order_col] + ties
    asc = [True] * len(keys) + [not descending] + [True] * len(ties)
    if num_buckets <= 0:
        num_buckets = auto_partitions(mult=2, lo=32)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        out = df.sort_values(by, ascending=asc, kind="mergesort")
        out = out.groupby(keys, sort=False).head(k)
        kh = pd.util.hash_pandas_object(out[keys], index=False).to_numpy()
        out = out.copy()
        out["__bucket"] = (kh % np.uint64(num_buckets)).astype(np.int32)
        return out

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        out = g.sort_values(by, ascending=asc, kind="mergesort")
        out = out.groupby(keys, sort=False).head(k)
        out[rank_col] = out.groupby(keys, sort=False).cumcount() + 1
        out[rank_col] = out[rank_col].astype("int64")
        return out.drop(columns="__bucket")

    return (
        ds.map_batches(partial, batch_format="pandas")
        .groupby("__bucket")
        .map_groups(finish, batch_format="pandas")
    )


def group_window(
    ds: ray.data.Dataset,
    key_cols: str | list[str],
    order_cols: list[str],
    value_col: str | None = None,
    lag_cols: list[str] | None = None,
    lag_fill: int = -1,
    num_buckets: int = 0,
    rolling_window: int | None = None,
) -> ray.data.Dataset:
    """Per-group ordered running-window columns — the cumulative
    window operator (running account totals, event sequence numbers,
    previous-row deltas) SQL writes as ``... OVER (PARTITION BY keys
    ORDER BY order_cols)``.

    Emits, per input row: ``rn`` = 1-based ROW_NUMBER, ``cum_<value>``
    = running sum of ``value_col`` (pass an INTEGER column — e.g. the
    repo's pinned price-cents convention — so the running sum is exact
    and order-of-addition-free, bit-matching any SQL engine), and
    ``prev_<c>`` = LAG(c) for each lag col (``lag_fill`` replaces the
    first row's null, keeping int64 columns int64 end-to-end instead
    of null-coerced float64 — the union dtype trap).

    Determinism contract: ``order_cols`` must totally order each group
    (include a unique id last).

    Scale shape: running state makes a pre-shuffle combiner impossible
    (every row's output depends on all earlier rows), so the exchange
    ships each row once — the floor for any windowed computation.
    Groups are hash-bucketed (a group never splits; parallelism =
    buckets, not groups) and each bucket sorts only its own rows: no
    global sort, no driver materialization."""
    ensure_worker_importable()
    keys = [key_cols] if isinstance(key_cols, str) else list(key_cols)
    lags = list(lag_cols or [])
    if num_buckets <= 0:
        num_buckets = auto_partitions(mult=2, lo=32)

    def tag(df: pd.DataFrame) -> pd.DataFrame:
        kh = pd.util.hash_pandas_object(df[keys], index=False).to_numpy()
        out = df.copy()
        out["__bucket"] = (kh % np.uint64(num_buckets)).astype(np.int32)
        return out

    def window(bucket: pd.DataFrame) -> pd.DataFrame:
        out = bucket.sort_values(keys + order_cols, kind="mergesort")
        g = out.groupby(keys, sort=False)
        out["rn"] = (g.cumcount() + 1).astype("int64")
        if value_col is not None:
            out[f"cum_{value_col}"] = (
                g[value_col].cumsum().astype("int64")
            )
            if rolling_window:
                # ROWS BETWEEN (W-1) PRECEDING AND CURRENT ROW as a
                # prefix-sum difference — integer-exact, so it
                # bit-matches SQL's windowed SUM regardless of the
                # engine's summation tree
                w = rolling_window
                cum = out[f"cum_{value_col}"]
                prior = g[value_col].cumsum().groupby(
                    [out[k] for k in keys], sort=False
                ).shift(w).fillna(0)
                out[f"w{w}_sum_{value_col}"] = (
                    cum - prior.astype("int64")
                ).astype("int64")
                out[f"w{w}_n"] = np.minimum(out["rn"], w).astype("int64")
        for c in lags:
            prev = g[c].shift(1)
            out[f"prev_{c}"] = prev.fillna(lag_fill).astype(out[c].dtype)
        return out.drop(columns="__bucket")

    return (
        ds.map_batches(tag, batch_format="pandas")
        .groupby("__bucket")
        .map_groups(window, batch_format="pandas")
    )


def stratified_sample(
    ds: ray.data.Dataset,
    strata_col: str,
    key_col: str,
    fractions: dict[str, float],
    default: float = 1.0,
    buckets: int = 10_000,
) -> ray.data.Dataset:
    """Deterministic per-stratum subsampling by content-stable key
    hash — the training-mix operator ("25% of web, 100% of wiki, no
    low-quality tier").  A row keeps iff ``md5_low64(str(key)) %
    buckets < round(frac(stratum) * buckets)``; strata missing from
    ``fractions`` use ``default``.

    Properties a random sampler lacks, all load-bearing for training
    pipelines: the same row gets the same verdict on every run, every
    cluster size, every shard order (resumable runs never double- or
    under-sample); samples are NESTED (the 10% sample is a subset of
    the 20% sample — raising a mixture weight only ADDs rows, so data
    ablations share their common prefix); and the assignment is
    reproducible in ANSI SQL (``md5_number_lower(CAST(key AS VARCHAR))
    % buckets``, the repo's pinned hash convention).  Stateless single
    ``map_batches``; no shuffle."""
    ensure_worker_importable()
    from clonebas_ray.functions.murmur3 import md5_low64

    thr = {s: min(buckets, int(round(f * buckets)))
           for s, f in fractions.items()}
    dthr = min(buckets, int(round(default * buckets)))

    def per_batch(batch: pa.Table) -> pa.Table:
        keys = batch[key_col].to_pylist()
        strata = batch[strata_col].to_pylist()
        keep = pa.array(
            [
                md5_low64(str(k).encode()) % buckets < thr.get(s, dthr)
                for k, s in zip(keys, strata)
            ],
            pa.bool_(),
        )
        return batch.filter(keep)

    return ds.map_batches(per_batch, batch_format="pyarrow")


def props_field_stats(
    events: ray.data.Dataset,
    field: str = "k",
    group_col: str = "event_type",
    props_col: str = "props",
) -> pa.Table:
    """Semi-structured payload aggregation: extract an integer field
    from the JSON-string ``props`` column and roll up count / sum /
    max per group — the "parse the event payload" step every log
    pipeline runs.

    Extraction is pinned to a RE2 regex over the raw string
    (``pyarrow.compute.extract_regex`` — the SAME engine as the DuckDB
    oracle's ``regexp_extract``, the pii_scan precedent), so the whole
    op is vectorized with no per-row ``json.loads`` and no JSON
    extension dependency on the oracle side.  Rows whose payload lacks
    the field count toward ``n_events`` but are skipped by sum/max
    (SQL NULL-skipping); a group with NO matching rows at all yields
    NULL sum/max, matching the oracle's
    ``TRY_CAST(NULLIF(regexp_extract(...), '') AS BIGINT)``.

    Scale shape: per-block partials (one row per group per block)
    before the small groupby merge — the classic pre-aggregation, so
    the shuffle carries groups, not events.  A block-group whose rows
    ALL lack the field emits NULL partials (never NaN→int casts, which
    raised here pre-round-4) and the merge resolves them."""
    ensure_worker_importable()
    pattern = f'"{field}": (?P<v>\\d+)'

    def partial(batch: pa.Table) -> pa.Table:
        ex = pc.extract_regex(batch[props_col], pattern)
        v = pc.cast(pc.struct_field(ex, "v"), pa.int64())
        df = pd.DataFrame({
            "g": batch[group_col].to_pandas(),
            "v": v.to_pandas(),
        })
        agg = df.groupby("g", sort=False)["v"].agg(
            n="size", k="count", s="sum", m="max",
        ).reset_index()
        # k = matching (non-null) rows in this block-group; where k=0
        # sum/max are meaningless (pandas gives s=0.0, m=NaN) — emit
        # NULL so the merge can distinguish "no matches" from "sum 0".
        has = agg["k"].to_numpy() > 0
        s = agg["s"].where(has).astype("Int64")
        m = agg["m"].where(has).astype("Int64")
        return pa.table(
            {
                "g": pa.array(agg["g"], pa.string()),
                "n": pa.array(agg["n"].astype("int64"), pa.int64()),
                "s": pa.array(s, pa.int64()),
                "m": pa.array(m, pa.int64()),
            }
        )

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        has = g["m"].notna()
        return pd.DataFrame(
            {
                group_col: [g["g"].iloc[0]],
                "n_events": [int(g["n"].sum())],
                f"sum_{field}": pd.array(
                    [int(g.loc[has, "s"].sum()) if has.any() else None],
                    dtype="Int64",
                ),
                f"max_{field}": pd.array(
                    [int(g.loc[has, "m"].max()) if has.any() else None],
                    dtype="Int64",
                ),
            }
        )

    out = (
        events.select_columns([group_col, props_col])
        .map_batches(partial, batch_format="pyarrow", batch_size=None)
        .groupby("g")
        .map_groups(merge, batch_format="pandas")
        .to_pandas()
        .sort_values(group_col)
        .reset_index(drop=True)
    )
    return pa.Table.from_pandas(out, preserve_index=False)


def global_rank(
    ds: ray.data.Dataset,
    keys: list[tuple[str, str]],
    id_col: str,
    rank_col: str = "rank",
) -> ray.data.Dataset:
    """Global ``ROW_NUMBER() OVER (ORDER BY keys)`` as a Dataset
    column (SURVEY §2.6 — the one sort shape the repo's top-k /
    group-window operators deliberately avoid; this is the full
    range-partitioned variant for when every row needs its global
    position, e.g. curriculum ordering or score-ranked corpus
    exports).

    ``keys`` are ``(column, "ascending"|"descending")`` and MUST end
    in a unique tiebreaker (``id_col``) so the order — and therefore
    the rank — is total and deterministic.

    Distributed-scan shape (same pattern as
    ``text_analysis.token_stream_index``): ``ds.sort`` range-partitions
    the data (the one unavoidable all-to-all here), MATERIALIZE pins
    the sorted block boundaries, one metadata pass collects per-block
    row counts in dataset order (one tiny row per BLOCK to the
    driver), a driver-side cumsum turns them into block offsets keyed
    by each block's first ``id_col`` value (unique, because the total
    order is), and a second pass adds ``offset + local arange``.  No
    per-row data ever lands on the driver."""
    ensure_worker_importable()
    cols = [c for c, _ in keys]
    desc = [d == "descending" for _, d in keys]
    if cols[-1] != id_col:
        raise ValueError(
            f"keys must end with the unique tiebreaker {id_col!r}"
        )
    src = ds.sort(cols, descending=desc).materialize()

    def block_meta(b: pa.Table) -> pa.Table:
        first = b[id_col][0].as_py() if b.num_rows else -1
        return pa.table({
            "first_id": pa.array([first], pa.int64()),
            "n_rows": pa.array([b.num_rows], pa.int64()),
        })

    # iter_batches preserves dataset (sorted) order on the pinned blocks
    metas = [
        (m["first_id"][0].as_py(), m["n_rows"][0].as_py())
        for m in src.map_batches(
            block_meta, batch_format="pyarrow", batch_size=None
        ).iter_batches(batch_format="pyarrow", batch_size=None)
        if m["n_rows"][0].as_py()
    ]
    offsets: dict[int, int] = {}
    acc = 0
    for first, n in metas:
        offsets[first] = acc
        acc += n
    off_ref = ray.put(offsets)

    def add_rank(b: pa.Table) -> pa.Table:
        if not b.num_rows:
            return b.append_column(
                rank_col, pa.array([], pa.int64()))
        offs = off_ref
        if not isinstance(offs, dict):
            offs = ray.get(offs)
        start = offs[b[id_col][0].as_py()]
        return b.append_column(
            rank_col,
            pa.array(start + 1 + np.arange(b.num_rows), pa.int64()),
        )

    return src.map_batches(
        add_rank, batch_format="pyarrow", batch_size=None
    )


def budget_mix(
    ds: ray.data.Dataset,
    budgets: dict[str, int],
    *,
    source_col: str = "source",
    id_col: str = "doc_id",
    tokens_col: str = "ws_tokens",
) -> ray.data.Dataset:
    """Token-budget mixture sampling (the Pile/Dolma-style mixing
    step): keep each source's docs in ``id_col`` order until the
    source's token budget is spent — a row survives iff its INCLUSIVE
    per-source running token sum is ≤ ``budgets[source]``; sources
    absent from ``budgets`` drop entirely.  Emits ``cum_tokens`` (the
    inclusive running sum) alongside the surviving rows, so the output
    is self-auditing.

    Scale shape: one ``sort`` by (source, id) range-partitions the
    corpus (sources may span MANY blocks — no one-task-per-source
    skew), then the pinned-block offset scan from ``global_rank``:
    pass 1 ships per-(block, source-run) token sums to the driver
    (≤ blocks + sources tiny rows, never docs), a driver accumulator
    turns them into per-source offsets at each block start, pass 2
    adds ``offset + local cumsum`` and filters.  Input must already
    carry ``tokens_col`` (token counting is a separate, reusable
    op)."""
    ensure_worker_importable()
    src = ds.sort([source_col, id_col]).materialize()

    def block_meta(b: pa.Table) -> pa.Table:
        if not b.num_rows:
            return pa.table({
                "first_id": pa.array([], pa.int64()),
                "source": pa.array([], b[source_col].type),
                "tok_sum": pa.array([], pa.int64()),
            })
        srcs = np.asarray(b[source_col].to_pylist(), dtype=object)
        toks = b[tokens_col].to_numpy(zero_copy_only=False)
        # sorted blocks => sources are contiguous runs
        cut = np.flatnonzero(srcs[1:] != srcs[:-1]) + 1
        starts = np.concatenate([[0], cut])
        ends = np.concatenate([cut, [len(srcs)]])
        first = b[id_col][0].as_py()
        return pa.table({
            "first_id": pa.array(
                np.full(len(starts), first), pa.int64()),
            "source": pa.array(list(srcs[starts]), b[source_col].type),
            "tok_sum": pa.array(
                [int(toks[s:e].sum()) for s, e in zip(starts, ends)],
                pa.int64()),
        })

    # iter_batches preserves dataset (sorted) order on pinned blocks:
    # accumulate per-source totals block by block; the value BEFORE a
    # block is that block's per-source starting offset
    offsets: dict[int, dict[str, int]] = {}
    acc: dict[str, int] = {}
    for m in src.map_batches(
        block_meta, batch_format="pyarrow", batch_size=None
    ).iter_batches(batch_format="pyarrow", batch_size=None):
        if not m.num_rows:
            continue
        first = m["first_id"][0].as_py()
        if first not in offsets:
            offsets[first] = {}
        for s, tot in zip(m["source"].to_pylist(),
                          m["tok_sum"].to_pylist()):
            offsets[first].setdefault(s, acc.get(s, 0))
            acc[s] = acc.get(s, 0) + tot
    off_ref = ray.put(offsets)
    bud_ref = ray.put(dict(budgets))

    def trim(b: pa.Table) -> pa.Table:
        if not b.num_rows:
            return b.append_column("cum_tokens",
                                   pa.array([], pa.int64()))
        offs, bud = off_ref, bud_ref
        if not isinstance(offs, dict):
            offs = ray.get(offs)
        if not isinstance(bud, dict):
            bud = ray.get(bud)
        start = offs[b[id_col][0].as_py()]
        srcs = np.asarray(b[source_col].to_pylist(), dtype=object)
        toks = b[tokens_col].to_numpy(zero_copy_only=False).astype(
            np.int64)
        cum = np.cumsum(toks)
        cut = np.flatnonzero(srcs[1:] != srcs[:-1]) + 1
        starts = np.concatenate([[0], cut])
        lens = np.diff(np.concatenate([starts, [len(toks)]]))
        # restart the cumsum per source run, then add the per-source
        # offset at block start (a sorted block holds each source as
        # ONE run, so every run may continue from a previous block)
        run_base = np.array([
            start.get(srcs[i], 0) - (cum[i - 1] if i else 0)
            for i in starts
        ], dtype=np.int64)
        cum_src = cum + np.repeat(run_base, lens)
        limit = np.array(
            [bud.get(s, -1) for s in srcs], dtype=np.int64)
        keep = cum_src <= limit
        b = b.append_column("cum_tokens", pa.array(cum_src, pa.int64()))
        return b.filter(pa.array(keep))

    return src.map_batches(trim, batch_format="pyarrow",
                           batch_size=None)


def seeded_shuffle(
    ds: ray.data.Dataset,
    id_col: str = "doc_id",
    *,
    seed: int = 17,
    n_shards: int = 8,
    pos_col: str = "shuffle_pos",
    shard_col: str = "shard",
) -> ray.data.Dataset:
    """Deterministic seeded global shuffle + round-robin shard
    assignment — the training-data export step (every epoch/restart
    must see the SAME order, so ``random_shuffle`` is out): each row's
    shuffle key is ``md5_low64(f"{seed}:{id}")``, the global order is
    ``(key, id)``, ``pos_col`` is the 1-based position in that order
    and ``shard_col = (pos - 1) % n_shards`` balances rows across
    output shards to within one row.

    Scale shape: one hash pass adds the key (embarrassingly
    parallel), then :func:`global_rank` does the single
    range-partitioning sort plus its block-offset metadata scan — no
    per-row data on the driver, and changing ``seed`` re-ranges the
    whole corpus (a different permutation per epoch).  The key column
    is dropped from the output; the DuckDB oracle recomputes it with
    ``md5_number_lower`` (the repo's pinned SQL-parity hash)."""
    ensure_worker_importable()
    from clonebas_ray.functions.murmur3 import md5_low64

    key = "_shuffle_key"
    s = int(seed)

    def add_key(b: pa.Table) -> pa.Table:
        ids = b[id_col].to_numpy(zero_copy_only=False)
        ks = np.array(
            [md5_low64(f"{s}:{i}".encode()) for i in ids],
            dtype=np.uint64,
        )
        return b.append_column(key, pa.array(ks, pa.uint64()))

    ranked = global_rank(
        ds.map_batches(add_key, batch_format="pyarrow",
                       batch_size=None),
        [(key, "ascending"), (id_col, "ascending")],
        id_col,
        rank_col=pos_col,
    )

    def finish(b: pa.Table) -> pa.Table:
        pos = b[pos_col].to_numpy(zero_copy_only=False)
        b = b.drop_columns([key])
        return b.append_column(
            shard_col,
            pa.array((pos - 1) % np.int64(n_shards), pa.int64()),
        )

    return ranked.map_batches(finish, batch_format="pyarrow",
                              batch_size=None)


def upsample_mix(
    ds: ray.data.Dataset,
    weights: dict[str, float],
    *,
    source_col: str = "source",
    id_col: str = "doc_id",
    copy_col: str = "copy_idx",
) -> ray.data.Dataset:
    """Deterministic mixture re-weighting (the Pile/Dolma "epochs per
    source" step): a doc in source ``s`` with weight ``w`` is emitted
    ``floor(w)`` times, plus one more iff ``md5_low64(f"up:{id}") <
    frac(w) * 2^64`` — so fractional weights up/down-sample an exact
    deterministic hash-fraction of the source with no RNG state, and
    ``w < 1`` is a downsampling filter.  Sources absent from
    ``weights`` drop.  Each copy carries ``copy_col`` (0-based) so
    downstream shuffles can keep copies distinct.

    Weights should be binary-exact fractions (0.5, 0.25, 1.5, ...)
    so the integer threshold ``frac * 2^64`` is exact on both the
    Python and SQL (``md5_number_lower``) sides.

    Scale shape: one embarrassingly-parallel ``map_batches`` — the
    weight map broadcasts once, rows replicate via ``Table.take`` on
    a repeated index (zero-copy for fixed-width columns), and no
    shuffle happens here; the paired :func:`seeded_shuffle` is the
    order-randomizing step."""
    ensure_worker_importable()
    from clonebas_ray.functions.murmur3 import md5_low64

    wmap = {
        s: (int(np.floor(float(w))),
            int((float(w) - np.floor(float(w))) * 2.0 ** 64))
        for s, w in weights.items()
    }
    w_ref = ray.put(wmap)

    def expand(b: pa.Table) -> pa.Table:
        empty = pa.array([], pa.int64())
        if not b.num_rows:
            return b.append_column(copy_col, empty)
        wm = w_ref
        if not isinstance(wm, dict):
            wm = ray.get(wm)
        srcs = b[source_col].to_pylist()
        ids = b[id_col].to_numpy(zero_copy_only=False)
        reps = np.empty(len(ids), np.int64)
        for j, (s, i) in enumerate(zip(srcs, ids)):
            base, thr = wm.get(s, (0, 0))
            reps[j] = base + (
                1 if thr and md5_low64(f"up:{i}".encode()) < thr
                else 0
            )
        idx = np.repeat(np.arange(len(ids), dtype=np.int64), reps)
        out = b.take(pa.array(idx, pa.int64()))
        tot = int(reps.sum())
        copy = (
            np.concatenate(
                [np.arange(r, dtype=np.int64) for r in reps if r]
            ) if tot else np.empty(0, np.int64)
        )
        return out.append_column(copy_col, pa.array(copy, pa.int64()))

    return ds.map_batches(
        expand, batch_format="pyarrow", batch_size=None
    )


def revenue_rollup(sf_dir: str) -> pa.Table:
    """ROLLUP(region, nation) over order revenue: one distributed
    groupby at the FINEST grain (region, nation), then the coarser
    rollup levels derived from that ~|nations|-row aggregate on the
    driver — the scale-correct shape (never re-scan the fact table per
    level).  Customer→nation→region dims broadcast via ``ray.put`` (at
    100-TB orders scale the dim side stays small; were customer itself
    huge, swap the broadcast for :func:`hash_join`).  Revenue in
    integer cents (``floor(x*100+0.5)``, the repo's float-parity
    convention); aggregated-out columns carry the literal ``'ALL'``.
    Output: ``(r_name, n_name, rev_cents, n_orders)`` with nation
    rows + per-region subtotals + one grand total."""
    nation = _read(sf_dir, "nation").to_pandas()
    region = _read(sf_dir, "region").to_pandas()
    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"]).to_pandas()
    dim = (
        cust.merge(nation, left_on="c_nationkey", right_on="n_nationkey")
        .merge(region, left_on="n_regionkey", right_on="r_regionkey")
    )[["c_custkey", "n_name", "r_name"]]
    dim_ref = ray.put(dim)

    def tag(batch: pa.Table) -> pa.Table:
        d = ray.get(dim_ref)
        df = pd.DataFrame({
            "o_custkey": batch["o_custkey"].to_numpy(zero_copy_only=False),
            "cents": _cents(batch["o_totalprice"]),
        })
        df = df.merge(d, left_on="o_custkey", right_on="c_custkey")
        return pa.Table.from_pandas(
            df[["r_name", "n_name", "cents"]], preserve_index=False
        )

    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    fine = (
        orders.map_batches(tag, batch_format="pyarrow")
        .groupby(["r_name", "n_name"])
        .aggregate(
            Sum("cents", alias_name="rev_cents"),
            Count(alias_name="n_orders"),
        )
        .to_pandas()
    )
    fine["rev_cents"] = fine["rev_cents"].astype("int64")
    fine["n_orders"] = fine["n_orders"].astype("int64")
    per_region = (
        fine.groupby("r_name", as_index=False)[["rev_cents", "n_orders"]]
        .sum()
        .assign(n_name="ALL")
    )
    total = pd.DataFrame({
        "r_name": ["ALL"], "n_name": ["ALL"],
        "rev_cents": [fine["rev_cents"].sum()],
        "n_orders": [fine["n_orders"].sum()],
    })
    out = pd.concat([fine, per_region, total], ignore_index=True)[
        ["r_name", "n_name", "rev_cents", "n_orders"]
    ].sort_values(["r_name", "n_name"]).reset_index(drop=True)
    out["rev_cents"] = out["rev_cents"].astype("int64")
    out["n_orders"] = out["n_orders"].astype("int64")
    return pa.Table.from_pandas(out, preserve_index=False)


#: pivot column set for :func:`lang_source_pivot` — the corpus lang
#: tags; anything else lands in ``n_other`` so the schema is stable
#: regardless of data drift
PIVOT_LANGS = ("de", "en", "es", "fr", "zh")


def lang_source_pivot(sf_dir: str) -> pa.Table:
    """Pivot documents to one row per source with per-language doc
    counts as COLUMNS (``n_de .. n_zh`` + ``n_other`` + ``n_docs``).
    One distributed groupby at the (source, lang) grain; the pivot
    itself runs on that tiny aggregate on the driver — a pivot output
    is small by construction (|sources| rows), so this never touches
    corpus-scale data sideways."""
    docs = _read(sf_dir, "documents", ["source", "lang"])
    fine = (
        docs.groupby(["source", "lang"])
        .aggregate(Count(alias_name="n"))
        .to_pandas()
    )
    fine["col"] = np.where(
        fine["lang"].isin(PIVOT_LANGS), "n_" + fine["lang"], "n_other"
    )
    wide = (
        fine.pivot_table(index="source", columns="col", values="n",
                         aggfunc="sum", fill_value=0)
        .reset_index()
    )
    for lang in PIVOT_LANGS:
        if f"n_{lang}" not in wide.columns:
            wide[f"n_{lang}"] = 0
    if "n_other" not in wide.columns:
        wide["n_other"] = 0
    cols = [f"n_{lang}" for lang in PIVOT_LANGS] + ["n_other"]
    for c in cols:
        wide[c] = wide[c].astype("int64")
    wide["n_docs"] = wide[cols].sum(axis=1).astype("int64")
    wide = wide[["source"] + cols + ["n_docs"]].sort_values(
        "source").reset_index(drop=True)
    wide.columns.name = None
    return pa.Table.from_pandas(wide, preserve_index=False)


def event_gaps(sf_dir: str) -> pa.Table:
    """LEAD/LAG window: per-user inter-event gaps.  Events group by
    ``user_id`` (`groupby.map_groups` — at corpus scale users are
    many, so groups spread; within a group the sort is per-user-sized)
    and sort by ``(ts, event_id)`` — the event_id tiebreak makes the
    LAG deterministic under timestamp ties.  Gap = microseconds to the
    previous event.  ``avg_gap_us`` = int-sum / int-count (the exact
    int/int → double division both engines round identically).
    Output: ``(user_id, n_events, n_gaps, max_gap_us, avg_gap_us)``;
    single-event users emit no row (no gaps, like SQL's LAG+WHERE)."""

    def gaps(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["ts", "event_id"])
        t = g["ts"].astype("datetime64[us]").astype("int64").to_numpy()
        d = np.diff(t)
        if not len(d):
            return pd.DataFrame({
                "user_id": pd.Series([], dtype="int64"),
                "n_events": pd.Series([], dtype="int64"),
                "n_gaps": pd.Series([], dtype="int64"),
                "max_gap_us": pd.Series([], dtype="int64"),
                "avg_gap_us": pd.Series([], dtype="float64"),
            })
        return pd.DataFrame({
            "user_id": [int(g["user_id"].iloc[0])],
            "n_events": [len(g)],
            "n_gaps": [len(d)],
            "max_gap_us": [int(d.max())],
            "avg_gap_us": [int(d.sum()) / len(d)],
        })

    ev = _read(sf_dir, "events", ["event_id", "ts", "user_id"])
    out = (
        ev.groupby("user_id")
        .map_groups(gaps, batch_format="pandas")
        .to_pandas()
    )
    for c in ("user_id", "n_events", "n_gaps", "max_gap_us"):
        out[c] = out[c].astype("int64")
    out = out.sort_values("user_id").reset_index(drop=True)
    return pa.Table.from_pandas(out, preserve_index=False)


def global_ntile(
    ds: ray.data.Dataset,
    keys: list[tuple[str, str]],
    id_col: str,
    k: int,
    tile_col: str = "tile",
) -> ray.data.Dataset:
    """``NTILE(k) OVER (ORDER BY keys)`` — quantile bucketing for
    curriculum schedules / quality tiers.  Rides :func:`global_rank`
    (same one-sort distributed-scan shape) plus one count; the
    rank→tile map reproduces SQL NTILE exactly: with ``n`` rows,
    ``size = n // k`` and ``rem = n % k``, the first ``rem`` buckets
    hold ``size + 1`` rows."""
    ranked = global_rank(ds, keys, id_col=id_col)
    n = ranked.count()
    size, rem = divmod(n, k)
    cut = rem * (size + 1)

    def add_tile(b: pa.Table) -> pa.Table:
        r = b["rank"].to_numpy(zero_copy_only=False)
        if size:
            tile = np.where(
                r <= cut,
                (r - 1) // (size + 1) + 1,
                rem + (r - 1 - cut) // size + 1,
            )
        else:
            tile = r
        return b.append_column(
            tile_col, pa.array(tile.astype(np.int64), pa.int64())
        )

    return ranked.map_batches(
        add_tile, batch_format="pyarrow", batch_size=None
    )
