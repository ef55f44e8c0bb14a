"""Flagship pipeline: source-file table → clone clusters.

End-to-end dataflow (SURVEY §3.1 "RD re-architecture"):

    read_parquet(files)
      → map_batches(sha256 + keys)                 [ingest, stateless]
      → map_batches(FingerprintActor)              [actor pool, parse+simhash]
      → [per-shard checkpoint: fingerprints/]
      → groupby(sig).agg                           [distinct signatures]
      → map_batches(band expansion, k=t+1 blocks)  [pigeonhole keys]
      → groupby(band_part).map_groups(pairing)     [LSH shuffle + verify]
      → union(membership edges)                    [identical-sig fast path]
      → [checkpoint: edges/]
      → driver union-find + complete-linkage refinement  [clusters]
      → broadcast tag + driver agg                 [stats]
      → write_parquet(clusters/) + run_report.json

Control crosses the "cluster" boundary at exactly two shuffles (the
signature groupby and the band groupby) plus the small stats
aggregate; every other stage is embarrassingly parallel and streams
with backpressure.  ``content`` never moves after fingerprinting.

Invariant (north rule): every stage preserves per-row ``content``
sha256 — fingerprints carry ``sha`` forward from ingest, and the test
suite anti-joins stage outputs against input keys.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import pyarrow as pa

import ray.data

from clonebas_ray.config import PipelineConfig, DEFAULT_CONFIG
from clonebas_ray.functions.kernels import union_find
from clonebas_ray.stages.ingest import read_files, prepare_stage
from clonebas_ray.stages.fingerprint import fingerprint_stage
from clonebas_ray.stages.candidates import (
    sig_groups,
    candidate_edges,
    membership_edges,
)
from clonebas_ray.stages.cluster import union_find_clusters, clusters_table
from clonebas_ray.state.checkpoint import (
    checkpointed,
    input_identity,
    lineage_key,
)


@dataclass
class DedupResult:
    fingerprints: ray.data.Dataset
    edges: ray.data.Dataset
    clusters: pa.Table
    cluster_stats: pa.Table
    metrics: dict = field(default_factory=dict)


def run_dedup_pipeline(
    input_path: str | list[str],
    run_dir: str,
    config: PipelineConfig = DEFAULT_CONFIG,
    resume: bool = True,
    concurrency: int | tuple[int, int] | None = None,
    checkpoint: bool = True,
    score_report: bool = False,
) -> DedupResult:
    """``score_report=True`` adds the reference's per-run corpus
    quality score (A4, ``ScoreController``) to the run metrics: a
    second content pass computes the 8-unit per-file scores with the
    run's own clone counts feeding the CloneCodeUnit."""
    from clonebas_ray.bootstrap import ensure_worker_importable

    ensure_worker_importable()
    t_start = time.perf_counter()
    metrics: dict = {"config_hash": config.config_hash()}
    input_id = input_identity(input_path)
    cfg_hash = config.config_hash()

    # --- fingerprints ------------------------------------------------
    def build_fingerprints() -> ray.data.Dataset:
        from clonebas_ray.stages.ingest import read_split_blocks

        ds = read_files(
            input_path, override_num_blocks=read_split_blocks()
        )
        ds = prepare_stage(ds)
        return fingerprint_stage(ds, config, concurrency=concurrency)

    t0 = time.perf_counter()
    if checkpoint:
        fingerprints, n_cached, n_computed = _sharded_fingerprints(
            input_path, run_dir, config, resume, concurrency
        )
        resumed_fp = n_computed == 0 and n_cached > 0
        metrics["fingerprint_shards_cached"] = n_cached
        metrics["fingerprint_shards_computed"] = n_computed
    else:
        # fingerprints feed two consumers (sig groups + membership);
        # pin them in the object store so the parse runs once
        fingerprints, resumed_fp = build_fingerprints().materialize(), False
    metrics["fingerprints_resumed"] = resumed_fp
    metrics["fingerprint_s"] = round(time.perf_counter() - t0, 3)

    # --- edges -------------------------------------------------------
    def build_edges() -> ray.data.Dataset:
        # one shuffle produces the distinct-signature table (with
        # member lists); candidates AND membership edges both derive
        # from it, so the signature groupby happens exactly once
        sigs = sig_groups(fingerprints, config).materialize()
        near = candidate_edges(sigs, config)
        same = membership_edges(sigs, config)
        return near.union(same)

    t0 = time.perf_counter()
    if checkpoint:
        edges, resumed_e = checkpointed(
            run_dir, "edges",
            lineage_key(input_id, cfg_hash, "edges"),
            build_edges, resume,
            empty_schema=pa.schema(
                [("sha_a", pa.string()), ("sha_b", pa.string()),
                 ("hamming", pa.int32())]
            ),
        )
    else:
        edges, resumed_e = build_edges().materialize(), False
    metrics["edges_resumed"] = resumed_e
    metrics["edges_s"] = round(time.perf_counter() - t0, 3)

    # --- clusters: high tier always; normal tier only when enabled
    # (disabled in the shipped config — dif_config.txt line 3 = -1) ---
    t0 = time.perf_counter()
    high_edges = edges.filter(expr=f"hamming <= {config.t_high}")
    file_filtered = config.only_same_file or config.only_diff_file
    # J5 filters gate every compare inside the reference's greedy loop;
    # the sha-level replay has no per-instance file identity, so with a
    # filter active the refinement would replay the WRONG gate — keep
    # the (recall-safe) connected components instead
    refine_file = (
        config.refine_clusters and not config.block_mode
        and not file_filtered
    )
    refine_block = (
        config.refine_clusters and config.block_mode and not file_filtered
    )
    # adversarial corpora (one giant near-dup family) make the edge
    # list quadratic in the family while the assignment stays node-
    # sized: past max_driver_edges, plain file mode routes components
    # through the distributed label_propagation fallback and never
    # pulls an edge row.  Block mode / J5 filters need the edge rows
    # driver-side regardless, so they keep the union-find path.
    n_high_edges = (
        high_edges.count()
        if (not config.block_mode and not file_filtered
            and config.max_driver_edges >= 0)
        else None
    )
    route_lp = (
        n_high_edges is not None
        and n_high_edges > config.max_driver_edges
    )
    if route_lp:
        from clonebas_ray.stages.cluster import label_propagation_assignment

        metrics["cluster_path"] = "label_propagation"
        metrics["n_edges"] = n_high_edges
        assignment = label_propagation_assignment(
            high_edges.select_columns(["sha_a", "sha_b"])
        )
        metrics["edge_pull_s"] = 0.0
        metrics["edge_filter_s"] = 0.0
        metrics["union_find_s"] = round(time.perf_counter() - t0, 3)
    else:
        metrics["cluster_path"] = "union_find"
        edge_df = high_edges.select_columns(["sha_a", "sha_b"]).to_pandas()
        metrics["edge_pull_s"] = round(time.perf_counter() - t0, 3)
        t_f = time.perf_counter()
        if config.block_mode:
            edge_df = _apply_block_edge_filters(
                edge_df, fingerprints, config,
                # the exact replay applies J6 itself; the approximate
                # post-filter REMOVES edges, which could shrink the
                # replay population below what the reference joins
                skip_child_suppression=refine_block,
            )
        elif file_filtered:
            edge_df = _apply_file_mode_filters(edge_df, fingerprints, config)
        metrics["edge_filter_s"] = round(time.perf_counter() - t_f, 3)
        t_u = time.perf_counter()
        edge_table = pa.Table.from_pandas(edge_df, preserve_index=False)
        assignment = union_find_clusters(edge_table)
        metrics["union_find_s"] = round(time.perf_counter() - t_u, 3)
    if refine_file and assignment:
        assignment = _refine_assignment(
            assignment, fingerprints, config, sigma=config.t_high
        )
    n_assign = None
    if config.t_normal >= 0:
        normal_edges = edges.filter(expr=f"hamming <= {config.t_normal}")
        ndf = normal_edges.select_columns(["sha_a", "sha_b"]).to_pandas()
        if config.block_mode:
            ndf = _apply_block_edge_filters(
                ndf, fingerprints, config,
                skip_child_suppression=refine_block,
            )
        elif file_filtered:
            ndf = _apply_file_mode_filters(ndf, fingerprints, config)
        n_assign = union_find_clusters(
            pa.Table.from_pandas(ndf, preserve_index=False)
        )
        if refine_file and n_assign:
            n_assign = _refine_assignment(
                n_assign, fingerprints, config, sigma=config.t_normal
            )
    if refine_block and (assignment or n_assign):
        t_r = time.perf_counter()
        assignment, n_assign = _refine_block_assignments(
            assignment, n_assign, fingerprints, config,
            stats_out=metrics,
        )
        metrics["block_refine_s"] = round(time.perf_counter() - t_r, 3)
    clusters = clusters_table(assignment, tier=1)
    if n_assign is not None:
        # keep cluster ids globally unique across tiers
        offset = (max(assignment.values()) + 1) if assignment else 0
        n_assign = {k: v + offset for k, v in n_assign.items()}
        clusters = pa.concat_tables(
            [clusters, clusters_table(n_assign, tier=2)]
        )
    metrics["cluster_s"] = round(time.perf_counter() - t0, 3)

    # --- per-cluster stats (SURVEY §2.5 A2/A3) -----------------------
    t0 = time.perf_counter()
    cluster_stats = _cluster_stats(fingerprints, clusters)
    metrics["stats_s"] = round(time.perf_counter() - t0, 3)

    # global clone roll-up + cluster-size histogram (the reference's
    # m_allCSetInfo totals — CloneSet.cpp:261-328)
    metrics.update(_global_clone_stats(cluster_stats))

    if score_report:
        t0 = time.perf_counter()
        from clonebas_ray.ops.code_metrics import (
            RAW_METRICS_SCHEMA, clone_counts_from_clusters,
            quality_rollup, raw_file_metrics, scored_metrics,
        )

        counts = clone_counts_from_clusters(clusters)

        def build_raw_metrics() -> ray.data.Dataset:
            from clonebas_ray.stages.ingest import read_split_blocks

            files_again = prepare_stage(
                read_files(
                    input_path, override_num_blocks=read_split_blocks()
                )
            )
            return raw_file_metrics(files_again)

        if checkpoint:
            # raw metrics depend on CONTENT only (not on the dedup
            # config), so the lineage key is pinned to a metrics
            # version: block- and file-mode runs over the same corpus
            # share the checkpoint, and a re-score with fresh clone
            # counts never re-reads file bodies
            raw_m, resumed_m = checkpointed(
                run_dir, "file_metrics",
                lineage_key(input_id, "metrics-v1", "file_metrics"),
                build_raw_metrics, resume,
                empty_schema=RAW_METRICS_SCHEMA,
            )
            metrics["file_metrics_resumed"] = resumed_m
        else:
            raw_m = build_raw_metrics()
        metrics.update(
            quality_rollup(scored_metrics(raw_m, clone_counts=counts))
        )
        metrics["score_s"] = round(time.perf_counter() - t0, 3)

    if checkpoint:
        import os

        clusters_dir = f"{run_dir}/clusters"
        os.makedirs(clusters_dir, exist_ok=True)
        import pyarrow.parquet as pq

        pq.write_table(clusters, f"{clusters_dir}/clusters.parquet")
        pq.write_table(cluster_stats, f"{clusters_dir}/cluster_stats.parquet")

    if "n_edges" not in metrics:
        metrics["n_edges"] = edge_table.num_rows
    metrics["n_clustered_shas"] = clusters.num_rows
    # derive from the FINAL clusters table so multi-tier runs report
    # every cluster, not just tier 1
    metrics["n_clusters"] = (
        len(set(clusters["cluster_id"].to_pylist()))
        if clusters.num_rows else 0
    )
    metrics["total_s"] = round(time.perf_counter() - t_start, 3)
    if checkpoint:
        # structured run report (the Ray-side analogue of the
        # reference's GlobalInfo/event stream — InfoStruct.h:16-236)
        import json
        import os

        report_path = os.path.join(run_dir, "run_report.json")
        with open(report_path + ".tmp", "w") as f:
            json.dump(metrics, f, indent=1)
        os.replace(report_path + ".tmp", report_path)
    return DedupResult(fingerprints, edges, clusters, cluster_stats, metrics)


#: concurrent shard fingerprint pipelines in a checkpointed run
_SHARD_PARALLEL = 4


def _sharded_fingerprints(
    input_path, run_dir: str, config: PipelineConfig, resume: bool,
    concurrency,
) -> tuple[ray.data.Dataset, int, int]:
    """Per-partition fingerprint checkpointing: every input shard's
    output is written and manifested independently, so a killed run
    resumes computing ONLY the missing shards (north rule:
    per-partition lineage).  Up to ``_SHARD_PARALLEL`` shard pipelines
    run CONCURRENTLY from worker threads — each is
    an independent Ray Data job sharing the cluster, with the
    fingerprint actor pool divided between them — so many-small-shard
    corpora don't pay a serial per-shard pipeline-startup tax.  Each
    shard still commits (atomic dir rename + manifest entry, guarded
    by a lock) the moment IT finishes, preserving per-shard resume
    granularity.
    """
    import os
    import shutil
    import threading
    from concurrent.futures import ThreadPoolExecutor

    import ray

    from clonebas_ray.state.checkpoint import (
        ShardedCheckpoint, list_input_shards,
    )

    shards = list_input_shards(input_path)
    if not shards:
        raise ValueError(f"no parquet shards under {input_path!r}")
    input_root = (
        input_path if isinstance(input_path, str)
        and os.path.isdir(input_path)
        else os.path.dirname(shards[0])
    )
    ckpt = ShardedCheckpoint(
        run_dir, "fingerprints", config.config_hash(),
        input_root=input_root,
    )
    cached, todo = ckpt.plan(shards, resume)
    from clonebas_ray.stages.ingest import read_split_blocks

    n_blocks = read_split_blocks(floor=16)
    out_dirs = list(cached)

    # cap concurrent shard jobs so each still gets a >=2-actor pool
    # (oversubscribing a small cluster just stalls every pipeline)
    total = int(ray.cluster_resources().get("CPU", 4))
    workers = max(1, min(
        _SHARD_PARALLEL,
        len(todo) or 1,
        max(1, (total - 2) // 2),
    ))
    shard_conc = concurrency
    if workers > 1:
        # divide the actor budget between concurrent shard pipelines —
        # an EXPLICIT concurrency must shrink too, else each of the 4
        # threads builds the full-size pool and they starve each
        # other's read/key tasks
        if shard_conc is None:
            shard_conc = max(2, (total - 2) // workers)
        elif isinstance(shard_conc, tuple):
            lo_c, hi_c = shard_conc
            shard_conc = (
                max(1, lo_c // workers), max(2, hi_c // workers)
            )
        else:
            shard_conc = max(2, int(shard_conc) // workers)
    record_lock = threading.Lock()

    def compute(shard: str) -> str:
        t0 = time.perf_counter()
        ds = read_files(shard, override_num_blocks=n_blocks)
        fp = fingerprint_stage(prepare_stage(ds), config,
                               concurrency=shard_conc)
        out = ckpt.out_path(shard)
        tmp = out + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        from clonebas_ray.stages.fingerprint import (
            BLOCK_FINGERPRINT_SCHEMA, FINGERPRINT_SCHEMA,
        )
        from clonebas_ray.state.checkpoint import write_parquet_empty_safe

        write_parquet_empty_safe(
            fp, tmp,
            BLOCK_FINGERPRINT_SCHEMA if config.block_mode
            else FINGERPRINT_SCHEMA,
        )
        shutil.rmtree(out, ignore_errors=True)
        os.replace(tmp, out)
        rows = ray.data.read_parquet(out).count()
        with record_lock:
            ckpt.record(shard, rows, time.perf_counter() - t0)
        return out

    if todo:
        _defuse_fsspec_http_import_race()
        with ThreadPoolExecutor(max_workers=workers) as ex:
            out_dirs.extend(ex.map(compute, todo))
    # read_parquet accepts a list of FILES (not of directories) —
    # expand each shard dir
    files = [
        os.path.join(d, f)
        for d in out_dirs
        for f in sorted(os.listdir(d))
        if f.endswith(".parquet")
    ]
    return ray.data.read_parquet(files), len(cached), len(todo)


def _refine_assignment(
    assignment: dict, fingerprints, config: PipelineConfig,
    sigma: int | None = None,
) -> dict:
    """Pull (sig, token, order-key) for the clustered shas only (a
    broadcast-filtered scan — clustered shas are small by construction)
    and replay the exact greedy loop per component."""
    import pyarrow.compute as pc
    import ray

    from clonebas_ray.stages.cluster import refine_complete_linkage

    wanted_ref = ray.put(pa.array(sorted(assignment), pa.string()))

    def pull(batch: pa.Table) -> pa.Table:
        mask = pc.is_in(batch["sha"], value_set=ray.get(wanted_ref))
        return batch.filter(mask).select(
            ["sha", "sig_hi", "sig_lo", "token_num", "file_key"]
        )

    meta_df = fingerprints.map_batches(
        pull, batch_format="pyarrow", batch_size=None
    ).to_pandas()
    # order anchor per sha = MAX file key among its rows (the greedy
    # loop's descending pass hits a sha at its highest walk position)
    meta_df = (
        meta_df.groupby("sha")
        .agg(
            sig_hi=("sig_hi", "first"),
            sig_lo=("sig_lo", "first"),
            token_num=("token_num", "first"),
            order_key=("file_key", "max"),
        )
        .reset_index()
    )
    meta = {
        r.sha: (int(r.sig_hi), int(r.sig_lo), int(r.token_num), r.order_key)
        for r in meta_df.itertuples()
    }
    return refine_complete_linkage(
        assignment, meta,
        config.t_high if sigma is None else sigma,
        config.span_gate,
    )


#: replay-component size above which the block-mode greedy replay for
#: that component dispatches as a Ray task (mirrors
#: ``cluster._REFINE_REMOTE_NODES``); the tiny-component tail runs
#: inline where task overhead would dwarf the work
_BLOCK_REPLAY_REMOTE_UNITS = 256

#: component-size cap for the exact block replay, mirroring file
#: mode's ``max_component`` (``cluster._refine_component``): a
#: component beyond this keeps its per-tier connected-components
#: grouping instead of the sequential replay — recall-safe (CC only
#: over-merges), a documented precision seam for pathological
#: clone-storm components whose exact sequential replay no engine can
#: make sublinear in pairs
_BLOCK_REPLAY_MAX_UNITS = 20000


def _fast_greedy_sets(
    hi: "np.ndarray", lo: "np.ndarray", tok: "np.ndarray",
    fkey: "np.ndarray", related: dict[int, "np.ndarray"],
    children: list["np.ndarray"], to_be_cmp: "np.ndarray",
    sigma: int, config: PipelineConfig,
) -> list[list[int]]:
    """Vectorized EXACT replay of ``oracle.greedy_cluster``
    (``SimHasher.cpp:149-192``) for one component — same predicates in
    the same sequential order, but Hamming distances come from
    vectorized popcount ROWS (one per anchor + one per join) instead
    of one Python ``popcount128`` call per (i, j) pair, which made a
    10^4-unit boilerplate component take tens of minutes.  Work is
    O(n · rows) numpy element ops + Python only over each anchor's
    sigma-neighborhood.

    ``related[i]`` holds i's J4 ancestor-relation partners (both
    directions); ``to_be_cmp`` is mutated in place so the normal-tier
    pass shares flags with the high pass (``SimHasher.cpp:21-22``).
    The pipeline uses THIS implementation while the sequential oracle
    keeps the object-based loop — the exact-pair-set tests
    cross-validate the two independently.
    """
    import numpy as np

    from clonebas_ray.functions.simhash import hamming_pairs

    n = len(hi)
    sets_out: list[list[int]] = []
    if sigma < 0:
        return sets_out  # tier disabled
    in_set = np.zeros(n, dtype=bool)
    gate = config.span_gate

    def ham_row(j: int) -> "np.ndarray":
        return hamming_pairs(hi[j : j + 1], lo[j : j + 1], hi, lo)

    for i in range(n - 1, -1, -1):
        if in_set[i]:
            continue
        d_i = ham_row(i)
        feasible = d_i <= sigma  # complete-linkage running mask
        # anchor-vs-j compare gates (checkToCompare): span + J4 + J5
        ok = feasible.copy()
        ok &= ~in_set
        ok &= np.abs(tok - tok[i]) <= np.minimum(tok, tok[i]) * gate
        rel = related.get(i)
        if rel is not None and len(rel):
            ok[rel] = False
        if config.only_diff_file:
            ok &= fkey != fkey[i]
        if config.only_same_file:
            ok &= fkey == fkey[i]
        cand = np.flatnonzero(ok[:i])
        if not len(cand):
            continue
        members = [i]
        # Candidate-list compression: between two joins NO mutable
        # state changes (in_set / feasible / to_be_cmp all mutate only
        # at a join), so every skip predicate can be applied to the
        # whole remaining list in one vectorized mask after each join
        # instead of one Python check per j — a dense boilerplate
        # component otherwise costs O(n^2) interpreter iterations.
        # Semantics are identical: a j blocked at compression time is
        # blocked at its sequential turn (flags only ever clear), and
        # a j marked by an intervening join is dropped by the next
        # compression exactly as the reference's one-pass scan skips
        # it at its turn.
        rest = cand[::-1]  # descending, as the reference iterates
        while len(rest):
            mask = feasible[rest] & ~in_set[rest]
            if not to_be_cmp[i]:
                mask &= to_be_cmp[rest]  # J6: skip only if BOTH flagged
            rest = rest[mask]
            if not len(rest):
                break
            j = int(rest[0])
            rest = rest[1:]
            members.append(j)
            in_set[j] = True
            feasible &= ham_row(j) <= sigma
            # markSonToNotCmp on both sides (SimHasher.cpp:58-89)
            if len(children[i]):
                to_be_cmp[children[i]] = False
            if len(children[j]):
                to_be_cmp[children[j]] = False
        if len(members) > 1:
            in_set[i] = True
            sets_out.append(members)
    return sets_out


def _replay_block_component(
    lfps: list, config: PipelineConfig, want_normal: bool,
) -> tuple[list[list[str]], list[list[str]] | None]:
    """Both-tier greedy replay over ONE component's fingerprints
    (local indices), via the vectorized exact kernel
    (``_fast_greedy_sets``).  The SAME flag array carries
    ``to_be_cmp`` from the high to the normal pass
    (``SimHasher.cpp:21-22``).  Pure function so big components run
    as parallel Ray tasks."""
    import numpy as np

    n = len(lfps)
    hi = np.array([f.sig_hi for f in lfps], dtype=np.uint64)
    lo = np.array([f.sig_lo for f in lfps], dtype=np.uint64)
    tok = np.array([f.token_num for f in lfps], dtype=np.float64)
    fkey = np.array([f.file_key for f in lfps])
    children = [
        np.array(f.child_idx, dtype=np.int64) for f in lfps
    ]
    related: dict[int, list[int]] = {}
    for f in lfps:
        for a in f.father_idx:
            related.setdefault(f.index, []).append(a)
            related.setdefault(a, []).append(f.index)
    related_np = {
        k: np.array(v, dtype=np.int64) for k, v in related.items()
    }
    to_be_cmp = np.ones(n, dtype=bool)

    def run(sigma: int) -> list[list[str]]:
        sets_idx = _fast_greedy_sets(
            hi, lo, tok, fkey, related_np, children, to_be_cmp,
            sigma, config,
        )
        return [sorted(lfps[m].sha for m in s) for s in sets_idx]

    high_sets = run(config.t_high)
    normal_sets = run(config.t_normal) if want_normal else None
    return high_sets, normal_sets


def _refine_block_assignments(
    high_assignment: dict,
    normal_assignment: dict | None,
    fingerprints,
    config: PipelineConfig,
    stats_out: dict | None = None,
) -> tuple[dict, dict | None]:
    """Exact block-mode complete-linkage replay (both tiers).

    Connected components over-merge, so the union of clustered units
    is a superset of everything the reference's greedy loop joins
    (pairs need Hamming <= sigma → a candidate edge).  Replaying the
    EXACT sequential loop — ``oracle.greedy_cluster``, including J4
    ancestor exclusion and J6 child suppression — over just that
    union, in the canonical walk order (ascending anchor file key,
    then the per-file gated-block emission order ``walk_pos``),
    reproduces the reference clustering:

    * suppression is sound on the subset: marks flow from a JOINED
      parent pair to its immediate gated children; joined parents are
      clustered, and an affected child matters only if it could pair,
      i.e. is clustered too;
    * content-identical file instances collapse to one unit — the
      (sig, span, structure) twin collapse the file-mode refinement
      already uses (twins share every pairwise decision);
    * both tiers replay over the SAME fingerprint objects so the
      ``to_be_cmp`` flags carry from the high to the normal pass, as
      the reference shares them (``SimHasher.cpp:21-22``);
    * the replay is COMPONENTIZED: units partition by connected
      components of (tier cluster co-membership ∪ same-file
      nearest-gated-parent→child links).  Greedy joins need Hamming
      <= sigma plus the exact span gate, which the conservative LSH
      candidate gate never drops, so every joinable pair shares a
      verified edge and hence a tier cluster; J6 marks flow only from
      a JOINED pair to its immediate gated children (``child_idx``),
      i.e. along the parent-child links.  No interaction crosses the
      closure, so replaying per component — big components as
      parallel Ray tasks, the tiny tail inline — is EXACT, and the
      replay wall time scales with the largest component instead of
      the whole clustered union.  A component beyond
      ``_BLOCK_REPLAY_MAX_UNITS`` keeps its per-tier
      connected-components grouping instead (recall-safe over-merge;
      mirrors file mode's ``max_component`` escape), with counts
      reported via ``stats_out``.
    """
    import ray

    from clonebas_ray.oracle import OracleFingerprint

    t_pull = time.perf_counter()
    wanted = set(high_assignment) | set(normal_assignment or {})
    if not wanted:
        return {}, ({} if normal_assignment is not None else None)
    import pyarrow.compute as pc

    file_shas = {u.rsplit(":", 1)[0] for u in wanted}
    wanted_ref = ray.put(pa.array(sorted(wanted), pa.string()))
    files_ref = ray.put(pa.array(sorted(file_shas), pa.string()))

    unit_cols = ["sha", "file_sha", "file_key", "block_id", "ancestors",
                 "token_num", "sig_hi", "sig_lo", "walk_pos"]

    def pull_meta(batch: pa.Table) -> pa.Table:
        # ONE scan serves both consumers: full rows for clustered
        # units, plus distinct (file, block) pairs for every EMITTED
        # unit of a wanted file (gated = emitted, clustered or not —
        # the nearest-gated-ancestor links below need them all),
        # null-padded into the unit schema and flagged
        unit_mask = pc.is_in(batch["sha"], value_set=ray.get(wanted_ref))
        u = batch.filter(unit_mask).select(unit_cols)
        file_mask = pc.is_in(
            batch["file_sha"], value_set=ray.get(files_ref)
        )
        g = (
            batch.filter(file_mask)
            .select(["file_sha", "block_id"])
            .group_by(["file_sha", "block_id"])
            .aggregate([])
        )
        out = {}
        for name in unit_cols:
            typ = u.schema.field(name).type
            if name in ("file_sha", "block_id"):
                pad = g[name].cast(typ).combine_chunks()
            else:
                pad = pa.nulls(g.num_rows, typ)
            out[name] = pa.concat_arrays([u[name].combine_chunks(), pad])
        out["is_unit"] = pa.concat_arrays(
            [pa.array([True] * u.num_rows, pa.bool_()),
             pa.array([False] * g.num_rows, pa.bool_())]
        )
        return pa.table(out)

    # batch_size=None → one call per BLOCK: the is_in value-set hash
    # (660k keys at 1M files) builds once per block, not once per
    # 1024-row default batch.  Split arrow-side BEFORE to_pandas: the
    # null-padded gated rows would otherwise coerce the unit rows'
    # uint64 signature columns to lossy float64 in pandas.
    both = pa.concat_tables(
        ray.get(
            fingerprints.map_batches(
                pull_meta, batch_format="pyarrow", batch_size=None
            ).to_arrow_refs()
        ),
        promote_options="default",
    )
    is_unit = both["is_unit"].combine_chunks()
    rows = both.filter(is_unit).select(unit_cols).to_pandas()
    gated_df = (
        both.filter(pc.invert(is_unit))
        .select(["file_sha", "block_id"])
        .to_pandas()
        .drop_duplicates()
    )
    if stats_out is not None:
        stats_out["replay_pull_s"] = round(time.perf_counter() - t_pull, 3)
    t_build = time.perf_counter()
    # collapse file instances: one record per unit, anchored at its
    # max file key (the greedy descending pass hits a unit at its
    # highest walk position)
    rows = rows.sort_values("file_key", kind="stable").drop_duplicates(
        "sha", keep="last"
    )
    units = rows.sort_values(["file_key", "walk_pos"]).reset_index(drop=True)
    gated_pairs = set(
        zip(gated_df["file_sha"].to_numpy(), gated_df["block_id"].to_numpy())
    )

    n = len(units)
    sha_arr = units["sha"].to_numpy()
    fsha_arr = units["file_sha"].to_numpy()
    fkey_arr = units["file_key"].to_numpy()
    blk_arr = units["block_id"].to_numpy()
    tok_arr = units["token_num"].to_numpy()
    hi_arr = units["sig_hi"].to_numpy()
    lo_arr = units["sig_lo"].to_numpy()
    anc_list = units["ancestors"].tolist()
    idx_of = {u: i for i, u in enumerate(sha_arr)}

    # ancestor/child links among replay units
    father_idx: list[tuple] = []
    children: dict[int, list[int]] = {}
    for i in range(n):
        fs = fsha_arr[i]
        ancs = anc_list[i]
        father_idx.append(
            tuple(
                idx_of[key]
                for a in ancs
                if (key := f"{fs}:{a}") in idx_of
            )
        )
        nearest = next((a for a in ancs if (fs, a) in gated_pairs), None)
        if nearest is not None:
            p = idx_of.get(f"{fs}:{nearest}")
            if p is not None:
                children.setdefault(p, []).append(i)

    # --- componentize: union within each tier cluster + along the
    # parent-child mark links, then replay each component on its own
    link_a: list[int] = []
    link_b: list[int] = []
    for assign in (high_assignment, normal_assignment or {}):
        first_of_cid: dict[int, int] = {}
        for u, cid in assign.items():
            i = idx_of.get(u)
            if i is not None:
                link_a.append(first_of_cid.setdefault(cid, i))
                link_b.append(i)
    for p, kids in children.items():
        link_a.extend([p] * len(kids))
        link_b.extend(kids)
    roots = union_find([(link_a, link_b)])

    comps: dict[int, list[int]] = {}
    for i in range(n):
        comps.setdefault(roots.get(i, i), []).append(i)

    def build_local(idxs: list[int]) -> list[OracleFingerprint]:
        # units are in canonical global order; a component's replay in
        # local order == the global loop restricted to it.  Fathers
        # outside the component (gapped ancestor chains) are dropped —
        # J4 only ever EXCLUDES a compare, and cross-component pairs
        # never compare
        local_of = {g: loc for loc, g in enumerate(idxs)}
        out = []
        for loc, g in enumerate(idxs):
            lf = OracleFingerprint(
                index=loc, sha=sha_arr[g], sig_hi=int(hi_arr[g]),
                sig_lo=int(lo_arr[g]), token_num=int(tok_arr[g]),
                file_key=fkey_arr[g], block_id=int(blk_arr[g]),
            )
            lf.father_idx = tuple(
                local_of[x] for x in father_idx[g] if x in local_of
            )
            lf.child_idx = tuple(
                local_of[x] for x in children.get(g, ()) if x in local_of
            )
            out.append(lf)
        return out

    if stats_out is not None:
        stats_out["replay_build_s"] = round(time.perf_counter() - t_build, 3)
    t_run = time.perf_counter()
    want_normal = normal_assignment is not None
    replay_remote = ray.remote(_replay_block_component)
    high_sets: list[list[str]] = []
    normal_sets: list[list[str]] = []
    pending = []
    n_capped = 0
    max_units = 0

    def cc_fallback(idxs: list[int]) -> None:
        # keep the tier's connected-components grouping for this
        # component (see _BLOCK_REPLAY_MAX_UNITS)
        shas_in = [sha_arr[g] for g in idxs]
        for assign, sink in (
            (high_assignment, high_sets),
            (normal_assignment or {}, normal_sets),
        ):
            by_cid: dict[int, list[str]] = {}
            for s in shas_in:
                cid = assign.get(s)
                if cid is not None:
                    by_cid.setdefault(cid, []).append(s)
            sink.extend(
                sorted(v) for v in by_cid.values() if len(v) > 1
            )

    for root in sorted(comps):
        idxs = comps[root]
        if len(idxs) < 2:
            continue  # a lone unit can never join
        max_units = max(max_units, len(idxs))
        if len(idxs) > _BLOCK_REPLAY_MAX_UNITS:
            n_capped += 1
            cc_fallback(idxs)
            continue
        lfps = build_local(idxs)
        if len(idxs) >= _BLOCK_REPLAY_REMOTE_UNITS:
            pending.append(
                replay_remote.remote(lfps, config, want_normal)
            )
        else:
            h, nrm = _replay_block_component(lfps, config, want_normal)
            high_sets.extend(h)
            if nrm is not None:
                normal_sets.extend(nrm)
    for h, nrm in ray.get(pending):
        high_sets.extend(h)
        if nrm is not None:
            normal_sets.extend(nrm)
    if stats_out is not None:
        stats_out["replay_run_s"] = round(time.perf_counter() - t_run, 3)
        stats_out["replay_components"] = sum(
            1 for v in comps.values() if len(v) >= 2
        )
        stats_out["replay_max_component_units"] = max_units
        stats_out["replay_capped_components"] = n_capped

    def to_assignment(sets: list[list[str]]) -> dict:
        out: dict[str, int] = {}
        for cid, members in enumerate(sorted(sets)):
            for s in members:
                out[s] = cid
        return out

    refined_high = to_assignment(high_sets)
    refined_normal = to_assignment(normal_sets) if want_normal else None
    return refined_high, refined_normal


def _pull_block_meta(fingerprints, file_shas, columns) -> "pd.DataFrame":
    """Pull block-unit metadata columns for a set of files — arrow-native
    (``pc.is_in`` + zero-copy ``filter``) so the scan cost is the hash
    probe, not a per-batch pandas round-trip."""
    import pyarrow.compute as pc
    import ray

    wanted_ref = ray.put(pa.array(sorted(file_shas), pa.string()))

    def pull(batch: pa.Table) -> pa.Table:
        mask = pc.is_in(batch["file_sha"], value_set=ray.get(wanted_ref))
        return batch.filter(mask).select(columns)

    return fingerprints.map_batches(
        pull, batch_format="pyarrow", batch_size=None
    ).to_pandas()


def _apply_block_edge_filters(edge_df, fingerprints, config: PipelineConfig,
                              skip_child_suppression: bool = False):
    """Block-mode edge post-filters (driver-side; the verified edge
    list is small by construction):

    * J4 ancestor exclusion (``SimHasher.cpp:101-110``): drop an edge
      whose endpoints are blocks of the SAME file where one is an
      ancestor of the other;
    * J6 child suppression (``SimHasher.cpp:58-89``), opt-in via
      ``config.child_suppression``: drop a pair of blocks whose
      nearest gated ancestors are themselves a verified pair — an
      order-independent approximation of the reference's sequential
      marking (SURVEY §7 "hard parts").
    """
    import numpy as np

    if edge_df.empty:
        return edge_df
    need_suppression = config.child_suppression and not skip_child_suppression
    file_filtered = config.only_diff_file or config.only_same_file
    if not need_suppression and not file_filtered:
        # Fast path (the refined default): only J4 same-file ancestor
        # exclusion applies, and an ancestor pair is by definition
        # SAME-file — identifiable from the unit key's file prefix
        # without touching the fingerprint table.  Pull ancestor lists
        # only for the (few) files that actually have a same-file edge.
        fa = edge_df["sha_a"].str.rpartition(":")[0].to_numpy()
        fb = edge_df["sha_b"].str.rpartition(":")[0].to_numpy()
        same = fa == fb
        if not same.any():
            return edge_df.reset_index(drop=True)
        same_files = set(fa[same])
        meta = _pull_block_meta(
            fingerprints, same_files,
            ["sha", "file_sha", "file_key", "block_id", "ancestors"],
        )
        anc = {
            row.sha: (row.file_sha, row.block_id, list(row.ancestors),
                      row.file_key)
            for row in meta.itertuples()
        }
        drop = np.zeros(len(edge_df), dtype=bool)
        idxs = np.flatnonzero(same)
        a_arr = edge_df["sha_a"].to_numpy()
        b_arr = edge_df["sha_b"].to_numpy()
        for k in idxs:
            ia, ib = anc.get(a_arr[k]), anc.get(b_arr[k])
            if ia and ib and (ib[1] in ia[2] or ia[1] in ib[2]):
                drop[k] = True
        return edge_df[~drop].reset_index(drop=True)

    units = set(edge_df["sha_a"]) | set(edge_df["sha_b"])
    file_shas = {u.rsplit(":", 1)[0] for u in units}
    meta = _pull_block_meta(
        fingerprints, file_shas,
        ["sha", "file_sha", "file_key", "block_id", "ancestors"],
    )
    anc = {
        row.sha: (row.file_sha, row.block_id, list(row.ancestors),
                  row.file_key)
        for row in meta.itertuples()
    }
    unit_set = set(anc)

    def is_ancestor_pair(a: str, b: str) -> bool:
        ia, ib = anc.get(a), anc.get(b)
        if not ia or not ib or ia[0] != ib[0]:
            return False
        return ib[1] in ia[2] or ia[1] in ib[2]

    def file_filter_ok(a: str, b: str) -> bool:
        # J5 same/diff-file pair filters — SimHasher.cpp:111-122
        if not (config.only_diff_file or config.only_same_file):
            return True
        ia, ib = anc.get(a), anc.get(b)
        same = bool(ia and ib and ia[3] == ib[3])
        if config.only_diff_file and same:
            return False
        if config.only_same_file and not same:
            return False
        return True

    keep = [
        not is_ancestor_pair(a, b) and file_filter_ok(a, b)
        for a, b in zip(edge_df["sha_a"], edge_df["sha_b"])
    ]
    edge_df = edge_df[np.array(keep, dtype=bool)]

    if (
        config.child_suppression and not skip_child_suppression
        and not edge_df.empty
    ):
        def parent_unit(u: str) -> str | None:
            ia = anc.get(u)
            if not ia:
                return None
            for blk in ia[2]:
                cand = f"{ia[0]}:{blk}"
                if cand in unit_set:
                    return cand
            return None

        pair_set = {
            frozenset((a, b))
            for a, b in zip(edge_df["sha_a"], edge_df["sha_b"])
        }
        keep2 = []
        for a, b in zip(edge_df["sha_a"], edge_df["sha_b"]):
            pa_, pb = parent_unit(a), parent_unit(b)
            keep2.append(
                not (pa_ and pb and pa_ != pb
                     and frozenset((pa_, pb)) in pair_set)
            )
        edge_df = edge_df[np.array(keep2, dtype=bool)]
    return edge_df.reset_index(drop=True)


def _defuse_fsspec_http_import_race() -> None:
    """Ray's read/write path resolution lazily does
    ``from fsspec.implementations.http import HTTPFileSystem`` and
    catches only ModuleNotFoundError.  When aiohttp is absent that
    import always fails — and two shard THREADS hitting it
    concurrently can race through sys.modules mid-teardown, turning
    the error into a plain ImportError that escapes Ray's handler.
    If (and only if) the import fails for a missing dependency,
    install an inert stub module so every later import succeeds
    deterministically; the stub class is never instantiated, so
    Ray's ``isinstance`` check correctly stays False."""
    try:
        from fsspec.implementations.http import HTTPFileSystem  # noqa: F401
        return
    except ModuleNotFoundError:
        pass
    except Exception:  # noqa: BLE001 — fsspec itself absent/odd: nothing to patch
        return
    import sys
    import types

    mod = types.ModuleType("fsspec.implementations.http")

    class HTTPFileSystem:  # noqa: N801 — sentinel, never constructed
        pass

    mod.HTTPFileSystem = HTTPFileSystem
    sys.modules["fsspec.implementations.http"] = mod


def _apply_file_mode_filters(edge_df, fingerprints, config: PipelineConfig):
    """J5 same/diff-file pair filters in FILE mode
    (``SimHasher.cpp:111-122``).  File-mode units are content shas and
    a sha can span many file instances, so the filters apply at the
    instance level: an edge survives iff SOME pair of file instances
    (one from each sha) satisfies the filter —
    ``only_diff_file``: a pair with differing file keys exists (true
    unless both shas live in exactly the same single file key);
    ``only_same_file``: a shared file key exists (two shas can only
    share a key when the same repo/path/commit appears with different
    content — degenerate by construction, like the reference's check
    in filebased mode).  Refinement is skipped under these flags (the
    greedy replay has no per-instance identity)."""
    import numpy as np
    import ray

    if edge_df.empty:
        return edge_df
    import pyarrow.compute as pc

    wanted = set(edge_df["sha_a"]) | set(edge_df["sha_b"])
    wanted_ref = ray.put(pa.array(sorted(wanted), pa.string()))

    def pull(batch: pa.Table) -> pa.Table:
        mask = pc.is_in(batch["sha"], value_set=ray.get(wanted_ref))
        t = batch.filter(mask).select(["sha", "file_key"])
        return t.group_by(["sha", "file_key"]).aggregate([])

    meta = fingerprints.map_batches(
        pull, batch_format="pyarrow", batch_size=None
    ).to_pandas()
    fk: dict[str, set] = {}
    for r in meta.itertuples():
        fk.setdefault(r.sha, set()).add(r.file_key)

    def ok(a: str, b: str) -> bool:
        fa, fb = fk.get(a, set()), fk.get(b, set())
        if config.only_same_file:
            return bool(fa & fb)
        # only_diff_file: some instance pair with differing keys
        return bool(fa and fb and (len(fa | fb) > 1))

    keep = np.array(
        [ok(a, b) for a, b in zip(edge_df["sha_a"], edge_df["sha_b"])],
        dtype=bool,
    )
    return edge_df[keep].reset_index(drop=True)


def _global_clone_stats(cluster_stats: pa.Table) -> dict:
    """Corpus-wide clone summary (``CloneSet.cpp:261-328``
    m_allCSetInfo): span extremes/totals over every cluster member,
    plus the cluster-size histogram {n_members: n_clusters}."""
    if cluster_stats.num_rows == 0:
        return {
            "clone_max_span": 0, "clone_min_span": 0,
            "clone_total_span": 0, "clone_total_members": 0,
            "cluster_size_hist": {},
        }
    df = cluster_stats.to_pandas()
    hist = df["n_files"].value_counts().sort_index()
    return {
        "clone_max_span": int(df["max_span"].max()),
        "clone_min_span": int(df["min_span"].min()),
        "clone_total_span": int(df["total_span"].sum()),
        "clone_total_members": int(df["n_files"].sum()),
        "cluster_size_hist": {
            int(k): int(v) for k, v in hist.items()
        },
    }


def _cluster_stats(
    fingerprints: ray.data.Dataset, clusters: pa.Table
) -> pa.Table:
    """max/min/mean/total member spans + member count per cluster
    (``CloneSet.cpp:170-328``) via a broadcast join: the cluster map is
    small (only near-dup shas), so it rides to every task via ray.put
    instead of a shuffle."""
    import numpy as np
    import ray

    if clusters.num_rows == 0:
        return pa.table(
            {
                "cluster_id": pa.array([], pa.int64()),
                "n_files": pa.array([], pa.int64()),
                "n_shas": pa.array([], pa.int64()),
                "max_span": pa.array([], pa.int32()),
                "min_span": pa.array([], pa.int32()),
                "avg_span": pa.array([], pa.float64()),
                "total_span": pa.array([], pa.int64()),
            }
        )
    # broadcast the clustered-sha set as an Arrow array (a sha can
    # belong to one cluster per tier — a dict keyed by sha alone would
    # collapse tiers); membership test is a vectorized pc.is_in
    import pyarrow.compute as pc

    shaset_ref = ray.put(pc.unique(clusters["sha"]))

    def tag(batch: pa.Table) -> pa.Table:
        wanted = ray.get(shaset_ref)
        mask = pc.is_in(batch["sha"], value_set=wanted)
        return batch.select(["sha", "token_num", "file_key"]).filter(mask)

    # the tagged subset only contains clustered rows (near-dup members),
    # which are small relative to the input by construction — so the
    # final roll-up is a driver-side pandas merge+groupby instead of a
    # distributed sort shuffle (saves a fixed ~3-5s barrier per run)
    tagged = fingerprints.map_batches(
        tag, batch_format="pyarrow", batch_size=None
    ).to_pandas()
    cdf = clusters.to_pandas()[["sha", "cluster_id"]]
    tagged = tagged.merge(cdf, on="sha", how="inner")
    stats = (
        tagged.groupby("cluster_id")
        .agg(
            n_files=("sha", "size"),
            n_distinct_files=("file_key", "nunique"),
            max_span=("token_num", "max"),
            min_span=("token_num", "min"),
            avg_span=("token_num", "mean"),
            total_span=("token_num", "sum"),
        )
        .reset_index()
    )
    # A3 clone score: mean member span, doubled for cross-file clusters
    # in the high tier (CloneSet.cpp:235-259)
    stats["clone_score"] = stats["avg_span"] * np.where(
        stats["n_distinct_files"] > 1, 2.0, 1.0
    )
    n_shas = (
        clusters.group_by("cluster_id")
        .aggregate([("sha", "count_distinct")])
        .rename_columns(["cluster_id", "n_shas"])
    )
    stats_t = pa.Table.from_pandas(stats, preserve_index=False)
    return stats_t.join(n_shas, keys="cluster_id").sort_by("cluster_id")
