"""Candidate generation + Hamming verification — the wide step.

Replaces the reference's all-pairs O(n^2) loop
(``SimHasher.cpp:149-192``) with a deterministic pigeonhole LSH join
(SURVEY §2.4 J1): the 128-bit signature is split into ``n_bands``
contiguous bit-blocks; any pair at Hamming distance <= n_bands-1
matches exactly on at least one block, so grouping by
``(band_index, block_bits)`` and pairing within buckets finds EVERY
pair within the threshold — recall is structural, not probabilistic.

Shuffle layout: band rows are hash-partitioned into a FIXED number of
partitions (``config.pair_partitions``) keyed by a splitmix64 mix of
the band key — one ``map_groups`` task per partition, which loops the
(complete) buckets inside it with a vectorized pandas/numpy kernel.
This amortizes per-group scheduling overhead across thousands of tiny
buckets while keeping each bucket wholly inside one task (hash
partitioning preserves key co-location), and gives skew a bounded
blast radius: the hottest partition is still processed in fixed-size
numpy tiles.

Skew handling (SURVEY §4):
* the dominant hot-bucket source — identical signatures (exact dups,
  boilerplate) — is removed FIRST: pairing runs over *distinct*
  signatures (``sig_groups``), with Hamming-0 membership edges emitted
  separately; a 10^6-copy boilerplate file costs one group row, not
  10^12 pairs;
* remaining oversized buckets are paired in fixed-size numpy tiles
  (bounded memory) rather than one n^2 allocation;
* each surviving pair is emitted from its FIRST matching band only, so
  no dedup shuffle is needed afterwards.

Pair gates inside the bucket (all vectorized):
* char-span gate ``|t1-t2| <= 0.3*min`` (``SimHasher.cpp:97-99``),
  applied conservatively over each signature group's token range so
  signature-level pairing never drops an oracle pair;
* same-file / cross-file-only filters apply downstream at membership
  expansion (file identity lives there);
* the reference's same-type check is dead code — it compares fp1 to
  itself (``SimHasher.cpp:93-95``) — reproduced as a no-op.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data

from clonebas_ray.config import PipelineConfig, DEFAULT_CONFIG, VEC_LEN
from clonebas_ray.functions.kernels import run_starts, sorted_runs, splitmix64
from clonebas_ray.functions.simhash import band_keys, hamming_pairs

#: pairing tile edge — bounds per-task memory at tile^2 cells
_TILE = 4096

_EMPTY_EDGES = pd.DataFrame(
    {
        "sha_a": pd.Series(dtype="object"),
        "sha_b": pd.Series(dtype="object"),
        "hamming": pd.Series(dtype="int32"),
    }
)


def sig_groups(fingerprints: ray.data.Dataset,
               config: PipelineConfig = DEFAULT_CONFIG) -> ray.data.Dataset:
    """fingerprints → one row per distinct signature:
    ``sig_hi, sig_lo, rep_sha, n_members, token_min, token_max,
    member_shas (list<string>, distinct shas beyond the rep)``.

    Only gated rows (``gen_fp``) participate.  Two-level aggregation:
    a per-batch combiner collapses duplicates before the shuffle
    (pre-aggregation, SURVEY §4), then partitions merge with one
    vectorized pandas groupby per partition.  Carrying the member-sha
    list here lets ``membership_edges`` derive Hamming-0 edges WITHOUT
    a second shuffle; a signature with a pathological dup count (10^9+
    copies of one file) would make that one row/partition heavy — at
    that scale split the membership path back into its own groupby
    (documented seam).
    """
    P = config.resolve_pair_partitions()

    def per_batch_distinct(batch: pa.Table) -> pa.Table:
        # vectorized partial: distinct (sig, sha) + partition key; no
        # per-group python in the hot path
        df = batch.to_pandas()
        df = df.drop_duplicates(["sig_hi", "sig_lo", "sha"])
        part = splitmix64(
            df["sig_hi"].to_numpy(np.uint64)
            ^ splitmix64(df["sig_lo"].to_numpy(np.uint64))
        ) % np.uint64(P)
        df = df.assign(sig_part=part.astype(np.int32))
        return pa.Table.from_pandas(
            df, preserve_index=False
        ).replace_schema_metadata(None)

    def merge_partition(part: pd.DataFrame) -> pd.DataFrame:
        if part.empty:
            return pd.DataFrame(
                {
                    "sig_hi": pd.Series(dtype="uint64"),
                    "sig_lo": pd.Series(dtype="uint64"),
                    "rep_sha": pd.Series(dtype="object"),
                    "n_members": pd.Series(dtype="int64"),
                    "token_min": pd.Series(dtype="int64"),
                    "token_max": pd.Series(dtype="int64"),
                    "member_shas": pd.Series(dtype="object"),
                }
            )
        hi = part["sig_hi"].to_numpy(np.uint64)
        lo = part["sig_lo"].to_numpy(np.uint64)
        sha = part["sha"].to_numpy()
        tok = part["token_num"].to_numpy(np.int64)
        order, starts, _ = sorted_runs(hi, lo, sha, run_keys=2)
        hi, lo, sha, tok = hi[order], lo[order], sha[order], tok[order]
        # distinct (sig, sha) rows: the same pair can arrive from
        # several input batches, so count DISTINCT shas per sig —
        # deterministic regardless of batch layout
        distinct = np.zeros(len(hi), dtype=np.int64)
        distinct[run_starts(hi, lo, sha)] = 1
        return pd.DataFrame(
            {
                "sig_hi": hi[starts],
                "sig_lo": lo[starts],
                "rep_sha": sha[starts],  # sorted → first is min
                "n_members": np.add.reduceat(distinct, starts),
                "token_min": np.minimum.reduceat(tok, starts),
                "token_max": np.maximum.reduceat(tok, starts),
                "member_shas": [
                    list(dict.fromkeys(chunk))
                    for chunk in np.split(sha, starts[1:])
                ],
            }
        )

    gated = fingerprints.filter(expr="gen_fp")
    gated = gated.select_columns(["sig_hi", "sig_lo", "sha", "token_num"])
    partial = gated.map_batches(per_batch_distinct, batch_format="pyarrow")
    return partial.groupby("sig_part").map_groups(
        merge_partition, batch_format="pandas"
    )


def expand_bands(
    sig_ds: ray.data.Dataset, config: PipelineConfig = DEFAULT_CONFIG
) -> ray.data.Dataset:
    """distinct sigs → ``n_bands`` rows each, keyed by a mixed
    ``band_key`` (band index folded in via a per-band salt — key
    collisions across bands only add candidates that exact Hamming
    verification discards) and hash-partitioned on ``band_part``."""
    n_bands = config.n_bands
    P = config.resolve_pair_partitions()
    salts = (splitmix64(
        np.arange(1, n_bands + 1, dtype=np.uint64) * np.uint64(0xA5A5A5A5A5A5A5A5)
    ))

    def expand(batch: pa.Table) -> pa.Table:
        hi = batch["sig_hi"].to_numpy().astype(np.uint64)
        lo = batch["sig_lo"].to_numpy().astype(np.uint64)
        n = len(hi)
        keys = band_keys(hi, lo, n_bands)  # (n, n_bands)
        band_idx = np.tile(np.arange(n_bands, dtype=np.uint64), n)
        mixed = splitmix64(keys.reshape(-1)) ^ np.tile(salts, n)
        rep = np.repeat(np.arange(n), n_bands)
        return pa.table(
            {
                "band_key": pa.array(mixed, pa.uint64()),
                "band_idx": pa.array(band_idx.astype(np.int8), pa.int8()),
                "band_part": pa.array(
                    (mixed % np.uint64(P)).astype(np.int32), pa.int32()
                ),
                "sig_hi": pa.array(hi[rep], pa.uint64()),
                "sig_lo": pa.array(lo[rep], pa.uint64()),
                "rep_sha": batch["rep_sha"].take(pa.array(rep)),
                "token_min": batch["token_min"].take(pa.array(rep)),
                "token_max": batch["token_max"].take(pa.array(rep)),
            }
        )

    return sig_ds.map_batches(expand, batch_format="pyarrow")


def _span_gate_ok(
    amin: np.ndarray, amax: np.ndarray, bmin: np.ndarray, bmax: np.ndarray,
    gate: float,
) -> np.ndarray:
    """Conservative (recall-safe) interval form of the 0.3 span gate:
    a member pair can pass iff min_b <= (1+gate)*max_a and
    min_a <= (1+gate)*max_b."""
    f = 1.0 + gate
    return (bmin <= f * amax) & (amin <= f * bmax)


def _pair_bucket(
    hi: np.ndarray, lo: np.ndarray, tmin: np.ndarray, tmax: np.ndarray,
    sha: np.ndarray, band_idx: int, config: PipelineConfig,
    out_a: list, out_b: list, out_d: list,
) -> None:
    """All-pairs Hamming verify within one (complete) bucket, tiled."""
    cfg = config
    n = len(hi)
    t_max = max(cfg.t_high, cfg.t_normal)
    all_bands = band_keys(hi, lo, cfg.n_bands)
    for i0 in range(0, n, _TILE):
        i1 = min(i0 + _TILE, n)
        for j0 in range(i0, n, _TILE):
            j1 = min(j0 + _TILE, n)
            d = hamming_pairs(
                hi[i0:i1, None], lo[i0:i1, None],
                hi[None, j0:j1], lo[None, j0:j1],
            )
            ii, jj = np.nonzero(d <= t_max)
            gi, gj = ii + i0, jj + j0
            keep = gi < gj  # upper triangle only
            gi, gj = gi[keep], gj[keep]
            if not len(gi):
                continue
            ok = _span_gate_ok(tmin[gi], tmax[gi], tmin[gj], tmax[gj],
                               cfg.span_gate)
            gi, gj = gi[ok], gj[ok]
            if not len(gi):
                continue
            # first-matching-band dedup: emit only from the lowest band
            # index on which the two signatures agree.  The any() guard
            # keeps the exactly-once invariant even for a pair that
            # landed in this bucket purely via a salted-key collision
            # (argmax of an all-False row is 0, which would double-emit
            # from band 0); pigeonhole makes such rows impossible for
            # hamming <= t_max, so this is belt-and-braces
            eq = all_bands[gi] == all_bands[gj]
            keep2 = eq.any(axis=1) & (eq.argmax(axis=1) == band_idx)
            gi, gj = gi[keep2], gj[keep2]
            if not len(gi):
                continue
            dd = d[gi - i0, gj - j0].astype(np.int32)
            a, b = sha[gi], sha[gj]
            swap = a > b
            out_a.append(np.where(swap, b, a))
            out_b.append(np.where(swap, a, b))
            out_d.append(dd)


def candidate_edges(
    sig_ds: ray.data.Dataset, config: PipelineConfig = DEFAULT_CONFIG
) -> ray.data.Dataset:
    """distinct signatures → verified near-dup edges between signature
    representatives (Hamming <= max tier threshold, span-gated),
    ``sha_a < sha_b``, each pair emitted exactly once."""
    expanded = expand_bands(sig_ds, config)

    def pair_partition(part: pd.DataFrame) -> pd.DataFrame:
        out_a: list[np.ndarray] = []
        out_b: list[np.ndarray] = []
        out_d: list[np.ndarray] = []
        # one stable sort + run boundaries instead of a pandas groupby
        # object per band bucket (buckets are overwhelmingly singletons
        # — the per-tiny-group pandas tax measured 20x on the minhash
        # twin of this stage); stable order keeps within-bucket row
        # order identical to the groupby(sort=False) path
        if len(part):
            order, starts, counts = sorted_runs(
                part["band_key"].to_numpy())
            hi = part["sig_hi"].to_numpy(np.uint64)[order]
            lo = part["sig_lo"].to_numpy(np.uint64)[order]
            tmin = part["token_min"].to_numpy(np.float64)[order]
            tmax = part["token_max"].to_numpy(np.float64)[order]
            sha = part["rep_sha"].to_numpy()[order]
            bidx = part["band_idx"].to_numpy()[order]
            multi = counts >= 2
            for s, e in zip(starts[multi], (starts + counts)[multi]):
                _pair_bucket(
                    hi[s:e], lo[s:e], tmin[s:e], tmax[s:e], sha[s:e],
                    int(bidx[s]), config, out_a, out_b, out_d,
                )
        if not out_a:
            return _EMPTY_EDGES.copy()
        return pd.DataFrame(
            {
                "sha_a": np.concatenate(out_a),
                "sha_b": np.concatenate(out_b),
                "hamming": np.concatenate(out_d),
            }
        )

    return expanded.groupby("band_part").map_groups(
        pair_partition, batch_format="pandas"
    )


def membership_edges(
    sig_ds: ray.data.Dataset, config: PipelineConfig = DEFAULT_CONFIG
) -> ray.data.Dataset:
    """Hamming-0 edges linking each signature's representative sha to
    every other member sha (the exact-dup / identical-signature fast
    path — replaces pairing within the hottest buckets entirely).

    Consumes the ``sig_groups`` output (member lists already
    co-located), so this is a stateless ``map_batches`` explode — no
    extra shuffle.

    These edges are deliberately NOT span-gated: identical-signature
    members whose spans diverge past the 0.3 gate may still be
    transitively joined by the reference through a mediator, so gating
    here would cost recall.  In file mode the complete-linkage
    refinement replays the exact gate afterwards; in block mode the
    over-connection is a documented precision seam (measured 1.0 on
    the conformance corpus)."""

    def explode(batch: pa.Table) -> pa.Table:
        reps = batch["rep_sha"].to_pylist()
        members = batch["member_shas"].to_pylist()
        out_a: list[str] = []
        out_b: list[str] = []
        for rep, shas in zip(reps, members):
            for s in shas:
                if s != rep:
                    out_a.append(rep)
                    out_b.append(s)
        return pa.table(
            {
                "sha_a": pa.array(out_a, pa.string()),
                "sha_b": pa.array(out_b, pa.string()),
                "hamming": pa.array(
                    np.zeros(len(out_a), dtype=np.int32), pa.int32()
                ),
            }
        )

    return sig_ds.select_columns(["rep_sha", "member_shas"]).map_batches(
        explode, batch_format="pyarrow"
    )
