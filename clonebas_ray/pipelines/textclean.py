"""End-to-end pre-training corpus cleaning — the staged pipeline a
real training-data run executes, composed from the repo's pinned
operators so the WHOLE chain stays DuckDB-oracle-verifiable:

1. **Filter** (:class:`~clonebas_ray.ops.text_analysis.CorpusFilter`):
   language / quality / length / repetition gates, applied INLINE on
   the content batches (the keep decision is per-row, so no join —
   one vectorized pass filters as it tags).
2. **Exact dedup** among the survivors: keep the first (min doc_id)
   occurrence of each distinct content.  Same dup-winner-broadcast
   shape as ``segment_dedup``: block-distinct (hash, min id, count)
   partials → one bounded shuffle → winners with count >= 2 broadcast
   (bounded by DUPLICATED contents, not corpus size) → rows whose
   hash is unduplicated keep unconditionally.
3. **Substring cut** (:func:`~clonebas_ray.ops.text_dedup.
   cut_dup_spans`): duplicated >= ``min_len``-char spans (recomputed
   over the stage-2 survivors — dup coverage is defined by what
   remains) spliced out of each doc.

Output: one row per surviving doc ``(doc_id, text, n_cut)``.

``pretrain_clean`` is the single-session form (stage boundaries
materialize to the object store); ``run_pretrain_clean`` is the
checkpointed, crash-resumable form mirroring ``run_code_clean`` —
per-stage partitioned Parquet with chained lineage keys and a
``run_report.json``.  Content never shuffles anywhere in the chain —
every exchange carries hashes, winners, or flags.
"""

from __future__ import annotations

import pyarrow as pa

import ray
import ray.data

from clonebas_ray.bootstrap import ensure_worker_importable
from clonebas_ray.ops.relational import keep_first_occurrence
from clonebas_ray.ops.text_analysis import CorpusFilter
from clonebas_ray.ops.text_dedup import cut_dup_spans


def _doc_schema(id_col: str, text_col: str) -> pa.Schema:
    return pa.schema([(id_col, pa.int64()), (text_col, pa.string())])


def _filtered_stage(
    src: ray.data.Dataset,
    id_col: str,
    text_col: str,
    filter_kwargs: dict | None,
    concurrency: int | tuple[int, int] | None,
) -> ray.data.Dataset:
    """Stage 1 as a lazy graph: the composite tagger+mixer keep
    filter.  Task-pool callable instance by default (the tagger
    kernels are vectorized and stateless-after-init; a (1, 8) actor
    pool paid ~3x in autoscale ramp — round-4 A/B)."""
    fkw = dict(filter_kwargs or {})
    fkw.setdefault("text_col", text_col)

    class _FilterKeep:
        def __init__(self):
            self.cf = CorpusFilter(**fkw)

        def __call__(self, batch: pa.Table) -> pa.Table:
            keep = self.cf(batch)["keep"]
            return batch.filter(keep)

    if concurrency is None:
        return src.map_batches(_FilterKeep(), batch_format="pyarrow")
    return src.map_batches(
        _FilterKeep, batch_format="pyarrow",
        concurrency=concurrency, max_restarts=0,
    )


def pretrain_clean(
    docs: ray.data.Dataset,
    min_len: int = 25,
    id_col: str = "doc_id",
    text_col: str = "text",
    filter_kwargs: dict | None = None,
    concurrency: int | tuple[int, int] | None = None,
) -> ray.data.Dataset:
    """documents → cleaned survivors ``(id_col, text, n_cut)``; see
    the module docstring for the three pinned stages."""
    ensure_worker_importable()
    src = docs.select_columns([id_col, text_col])
    kept1 = _filtered_stage(
        src, id_col, text_col, filter_kwargs, concurrency
    ).materialize()
    kept2 = keep_first_occurrence(kept1, id_col, text_col).materialize()
    return cut_dup_spans(
        kept2, min_len=min_len, text_col=text_col, id_col=id_col
    )


def run_pretrain_clean(
    input_path: str | list[str],
    run_dir: str,
    resume: bool = True,
    min_len: int = 25,
    id_col: str = "doc_id",
    text_col: str = "text",
    filter_kwargs: dict | None = None,
) -> ray.data.Dataset:
    """Checkpointed, crash-resumable ``pretrain_clean`` — the text-tier
    twin of :func:`~clonebas_ray.pipelines.codeclean.run_code_clean`.

    Stage outputs land as partitioned Parquet under
    ``<run_dir>/<stage>/data/`` with lineage manifests; keys CHAIN
    (upstream key + the parameters each stage consumes), so a
    ``min_len`` change re-runs only the span cut while an input or
    filter change cascades.  ``<run_dir>/run_report.json`` records
    per-stage rows / wall / resumed.  Returns the survivors Dataset
    backed by ``<run_dir>/clean/data/``."""
    import hashlib
    import json
    import os
    import time

    from clonebas_ray.state.checkpoint import (
        checkpointed,
        input_identity,
        lineage_key,
    )

    ensure_worker_importable()
    t_run = time.perf_counter()
    fkw = dict(filter_kwargs or {})
    cfg = {
        "min_len": min_len, "id_col": id_col, "text_col": text_col,
        "filter_kwargs": {k: fkw[k] for k in sorted(fkw)},
    }

    def cfg_hash(sub: dict) -> str:
        return hashlib.sha256(
            json.dumps(sub, sort_keys=True, default=list).encode()
        ).hexdigest()[:16]

    input_id = input_identity(input_path)
    key_filtered = lineage_key(
        input_id,
        cfg_hash({"filter_kwargs": cfg["filter_kwargs"],
                  "id_col": id_col, "text_col": text_col}),
        "filtered",
    )
    key_exact = lineage_key(key_filtered, "", "exact_survivors")
    key_clean = lineage_key(
        key_exact, cfg_hash({"min_len": min_len}), "clean")

    doc_schema = _doc_schema(id_col, text_col)
    clean_schema = pa.schema([
        (id_col, pa.int64()), (text_col, pa.string()),
        ("n_cut", pa.int64()),
    ])

    walls = {}

    def timed(stage, *a, **kw):
        t0 = time.perf_counter()
        out = checkpointed(run_dir, stage, *a, **kw)
        walls[stage] = round(time.perf_counter() - t0, 3)
        return out

    kept1, r1 = timed(
        "filtered", key_filtered,
        lambda: _filtered_stage(
            ray.data.read_parquet(
                input_path, columns=[id_col, text_col]),
            id_col, text_col, fkw, None,
        ),
        resume=resume, empty_schema=doc_schema,
    )
    kept2, r2 = timed(
        "exact_survivors", key_exact,
        lambda: keep_first_occurrence(kept1, id_col, text_col),
        resume=resume, empty_schema=doc_schema,
    )
    clean, r3 = timed(
        "clean", key_clean,
        lambda: cut_dup_spans(
            kept2, min_len=min_len, text_col=text_col, id_col=id_col),
        resume=resume, empty_schema=clean_schema,
    )

    stages = {}
    for stage, resumed in (
        ("filtered", r1), ("exact_survivors", r2), ("clean", r3),
    ):
        with open(os.path.join(run_dir, stage, "manifest.json")) as f:
            m = json.load(f)
        stages[stage] = {
            "rows": m["rows"], "num_files": m["num_files"],
            "wall_s": walls[stage], "resumed": resumed,
            "lineage_key": m["lineage_key"],
        }
    report = {
        "pipeline": "pretrain_clean",
        "input_id": input_id,
        "config": cfg,
        "stages": stages,
        "wall_s": round(time.perf_counter() - t_run, 3),
    }
    tmp = os.path.join(run_dir, "run_report.json.tmp")
    with open(tmp, "w") as f:
        json.dump(report, f, indent=1)
    os.replace(tmp, os.path.join(run_dir, "run_report.json"))
    return clean
