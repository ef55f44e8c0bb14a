"""Job entrypoint — the ``ray job submit`` surface (north rule).

    ray job submit --working-dir . -- \\
        python -m clonebas_ray.run --input /data/files --run-dir /data/run

Owns the Ray session (guarded init, shutdown at exit) per the driver
contract; inside an existing cluster it attaches via RAY_ADDRESS.
Prints the run report JSON on stdout.
"""

from __future__ import annotations

import argparse
import json
import sys


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--input", required=True,
                   help="parquet file/dir of (repo,path,commit,lang,content)")
    p.add_argument("--run-dir", required=True,
                   help="checkpoint + output directory")
    p.add_argument("--block-mode", action="store_true",
                   help="per-block fingerprints (reference default path)")
    p.add_argument("--t-high", type=int, default=1)
    p.add_argument("--t-normal", type=int, default=-1)
    p.add_argument("--no-resume", action="store_true")
    p.add_argument("--no-checkpoint", action="store_true",
                   help="skip per-shard checkpointing (one-shot runs)")
    p.add_argument("--code-clean", action="store_true",
                   help="run the Stack-style code-corpus cleaning "
                        "pipeline (stage-checkpointed run_code_clean) "
                        "instead of clone dedup")
    p.add_argument("--clean-threshold", type=float, default=0.5,
                   help="near-dup Jaccard threshold for --code-clean")
    p.add_argument("--pretrain-clean", action="store_true",
                   help="run the text pre-training cleaning pipeline "
                        "(stage-checkpointed run_pretrain_clean) over "
                        "a (doc_id, text) parquet input")
    p.add_argument("--clean-min-len", type=int, default=25,
                   help="duplicated-span cut length for "
                        "--pretrain-clean")
    p.add_argument("--score", action="store_true",
                   help="add the A4 corpus quality score to the report "
                        "(second content pass)")
    p.add_argument("--only-same-file", action="store_true",
                   help="reference -onlysameF: keep same-file pairs only")
    p.add_argument("--only-diff-file", action="store_true",
                   help="reference -onlydiffF: keep cross-file pairs only")
    p.add_argument("--no-astopt", action="store_true",
                   help="disable the M2 AST simplification "
                        "(reference runs WITHOUT -astopt)")
    p.add_argument("--genfile", action="store_true",
                   help="reference -genfile: export the per-file "
                        "eigen-word corpus to <run-dir>/word_corpus "
                        "and exit (no dedup)")
    p.add_argument("--node-count", action="store_true",
                   help="reference -nodeCount: write the node census "
                        "to <run-dir>/node_census and exit (no dedup)")
    p.add_argument("--clone-model", action="store_true",
                   help="reference -clonemodel: AST-sequence embedding "
                        "path (cosine pairing) instead of SimHash")
    p.add_argument("--gen-seq", action="store_true",
                   help="reference -nosimhash sequence export: write "
                        "the per-block pre/post/tree sequence table "
                        "to <run-dir>/sequences and exit (no dedup)")
    # sequence-dump name options (NodeTravesal.cpp:3-139, flags
    # Main.cpp:128-147); -opnodetype/-arrtype route to the typed
    # parse-tree frontend (functions/ctree.py)
    p.add_argument("--opnodediff", action="store_true",
                   help="suffix BO/UO opcodes onto operator names")
    p.add_argument("--opnodetype", action="store_true",
                   help="suffix operator result types (typed frontend)")
    p.add_argument("--arrtype", action="store_true",
                   help="suffix array-subscript element types "
                        "(typed frontend)")
    p.add_argument("--noliteral", action="store_true",
                   help="drop literal nodes from sequences")
    p.add_argument("--nodecl", action="store_true",
                   help="drop Decl nodes from sequences")
    p.add_argument("--nodeclstmt", action="store_true",
                   help="drop DeclStmt nodes from sequences")
    p.add_argument("--noarrayexpr", action="store_true",
                   help="drop ArraySubscriptExpr nodes from sequences")
    p.add_argument("--on-unsupported", choices=("raise", "skip"),
                   default="skip",
                   help="typed frontend: files outside the parser "
                        "subset raise or contribute no rows "
                        "(default skip for heterogeneous corpora)")
    p.add_argument("--threshold", type=float, default=0.6,
                   help="reference -threshold: model-path similarity "
                        "cut at (cos*0.5+0.5) >= t (default 0.6)")
    p.add_argument("--compact-store",
                   choices=("hash", "sig", "vec"), default=None,
                   help="store maintenance: merge the incremental "
                        "store at --input (hash/sig/vec kind) into "
                        "one canonical part per shard and exit")
    p.add_argument("--num-cpus", type=int, default=None,
                   help="local mode only; omit inside a cluster")
    args = p.parse_args(argv)

    import os

    import ray

    # quiet worker-side ray.data console noise (ERROR+ only); must be
    # set before workers spawn
    os.environ.setdefault(
        "RAY_DATA_LOGGING_CONFIG",
        os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "tools", "ray_data_logging.yaml"),
    )
    if not ray.is_initialized():
        kwargs = dict(include_dashboard=False, ignore_reinit_error=True,
                      logging_level="ERROR")
        if args.num_cpus:
            kwargs.update(address="local", num_cpus=args.num_cpus)
        ray.init(**kwargs)
    import logging

    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)

    from clonebas_ray.config import PipelineConfig
    from clonebas_ray.pipelines.dedup import run_dedup_pipeline

    n_bands = max(2, max(args.t_high, args.t_normal) + 1)
    config = PipelineConfig(
        t_high=args.t_high, t_normal=args.t_normal,
        block_mode=args.block_mode, n_bands=n_bands,
        ast_opt=not args.no_astopt,
        only_same_file=args.only_same_file,
        only_diff_file=args.only_diff_file,
    )
    try:
        if args.compact_store:
            from clonebas_ray.state.hashstore import compact_store
            from clonebas_ray.state.sigstore import compact_sig_store
            from clonebas_ray.state.vecstore import compact_vec_store

            fn = {"hash": compact_store, "sig": compact_sig_store,
                  "vec": compact_vec_store}[args.compact_store]
            report = fn(args.input)
        elif args.code_clean:
            report = _run_code_clean_mode(args)
        elif args.pretrain_clean:
            report = _run_pretrain_clean_mode(args)
        elif args.gen_seq:
            report = _run_gen_seq(args, config)
        elif args.genfile or args.node_count:
            report = _run_exports(args, config)
        elif args.clone_model:
            report = _run_clone_model(args, config)
        else:
            report = run_dedup_pipeline(
                args.input, args.run_dir, config=config,
                resume=not args.no_resume, score_report=args.score,
                checkpoint=not args.no_checkpoint,
            ).metrics
    finally:
        ray.shutdown()
    print(json.dumps(report))
    return 0


def _run_code_clean_mode(args) -> dict:
    """--code-clean: stage-checkpointed code-corpus cleaning; resumes
    finished stages from <run-dir> Parquet and prints the run report
    (per-stage rows / wall / resumed lineage)."""
    import json as _json
    import os

    from clonebas_ray.pipelines.codeclean import run_code_clean

    run_code_clean(
        args.input, args.run_dir,
        resume=not args.no_resume,
        threshold=args.clean_threshold,
    )
    with open(os.path.join(args.run_dir, "run_report.json")) as f:
        return _json.load(f)


def _run_pretrain_clean_mode(args) -> dict:
    """--pretrain-clean: stage-checkpointed text cleaning; resumes
    finished stages from <run-dir> Parquet and prints the run report."""
    import json as _json
    import os

    from clonebas_ray.pipelines.textclean import run_pretrain_clean

    run_pretrain_clean(
        args.input, args.run_dir,
        resume=not args.no_resume,
        min_len=args.clean_min_len,
    )
    with open(os.path.join(args.run_dir, "run_report.json")) as f:
        return _json.load(f)


def _run_exports(args, config) -> dict:
    """-genfile / -nodeCount modes: corpus exports instead of dedup
    (the reference runs these as their own invocations too)."""
    import os
    import time

    import ray.data

    from clonebas_ray.stages.ingest import (
        export_word_corpus, node_census, prepare_stage, read_files,
        read_split_blocks,
    )

    t0 = time.perf_counter()
    os.makedirs(args.run_dir, exist_ok=True)
    ds = prepare_stage(
        read_files(args.input, override_num_blocks=read_split_blocks())
    )
    if args.genfile and args.node_count:
        # two consumers of one lazy graph: pin the prepared corpus so
        # the read+key pass runs once
        ds = ds.materialize()
    report: dict = {}
    if args.genfile:
        out = os.path.join(args.run_dir, "word_corpus")
        export_word_corpus(ds, config).write_parquet(out)
        report["word_corpus_rows"] = ray.data.read_parquet(out).count()
        report["word_corpus_dir"] = out
    if args.node_count:
        out = os.path.join(args.run_dir, "node_census")
        node_census(ds, config).write_parquet(out)
        report["node_census_rows"] = ray.data.read_parquet(out).count()
        report["node_census_dir"] = out
    report["total_s"] = round(time.perf_counter() - t0, 3)
    return report


def _seq_opts_from_args(args) -> dict:
    opts = {}
    if args.opnodediff:
        opts["op_node_diff"] = True
    if args.noliteral:
        opts["no_literal"] = True
    if args.nodecl:
        opts["no_decl"] = True
    if args.nodeclstmt:
        opts["no_decl_stmt"] = True
    if args.noarrayexpr:
        opts["no_array_expr"] = True
    if args.opnodetype:
        opts["op_node_type"] = True
    if args.arrtype:
        opts["arr_type"] = True
    return opts


def _run_gen_seq(args, config) -> dict:
    """Sequence export (the reference's -nosimhash run shape: dump the
    pre/post/tree sequence table, skip the duplicate computation)."""
    import os
    import time

    from clonebas_ray.ops.model_path import SequenceActor, typed_sequences
    from clonebas_ray.stages.ingest import read_files, read_split_blocks

    t0 = time.perf_counter()
    os.makedirs(args.run_dir, exist_ok=True)
    files = read_files(
        args.input, override_num_blocks=read_split_blocks()
    )
    opts = _seq_opts_from_args(args)
    out = os.path.join(args.run_dir, "sequences")
    if opts.get("op_node_type") or opts.get("arr_type"):
        seqs = typed_sequences(
            files, config=config, seq_opts=opts,
            on_unsupported=args.on_unsupported,
        )
    else:
        from clonebas_ray.stages.ingest import prepare_stage

        seqs = prepare_stage(files).map_batches(
            SequenceActor,
            fn_constructor_kwargs={"config": config, "seq_opts": opts},
            batch_format="pyarrow",
            concurrency=(1, 8),
        )
    seqs.write_parquet(out)
    import pyarrow.dataset as pads

    n = pads.dataset(out).count_rows()
    return {
        "mode": "gen_seq",
        "seq_opts": opts,
        "n_units": int(n),
        "sequences_path": out,
        "total_s": round(time.perf_counter() - t0, 3),
    }


def _run_clone_model(args, config) -> dict:
    """-clonemodel mode: AST-sequence embedding path (M9/J8/T3)."""
    import os
    import time

    import pyarrow.parquet as pq

    from clonebas_ray.ops.model_path import model_clone_clusters
    from clonebas_ray.stages.ingest import read_files, read_split_blocks

    t0 = time.perf_counter()
    os.makedirs(args.run_dir, exist_ok=True)
    files = read_files(
        args.input, override_num_blocks=read_split_blocks()
    )
    clusters = model_clone_clusters(
        files, config=config, threshold=args.threshold
    )
    out = os.path.join(args.run_dir, "model_clusters.parquet")
    pq.write_table(clusters, out)
    n_clusters = (
        len(set(clusters["cluster_id"].to_pylist()))
        if clusters.num_rows else 0
    )
    return {
        "mode": "clone_model",
        "threshold": args.threshold,
        "n_clustered_units": clusters.num_rows,
        "n_clusters": n_clusters,
        "clusters_path": out,
        "total_s": round(time.perf_counter() - t0, 3),
    }


if __name__ == "__main__":
    sys.exit(main())
