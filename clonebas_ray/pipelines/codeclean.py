"""End-to-end code-corpus cleaning — the staged pipeline a code
pre-training run executes over a ``(repo, path, commit, lang,
content)`` hosting table (The Stack v1/v2 preparation shape, Kocetkov
et al. 2022 §3), composed from the repo's pinned code operators so the
WHOLE chain stays DuckDB-oracle-verifiable:

1. **Gate** (one vectorized task-pool pass; per-row decisions, no
   join): Stack quality rules (:class:`~clonebas_ray.ops.code_corpus.
   CodeQualityFilter` — line length / alnum fraction / autogenerated
   marker), license classification (:class:`~...LicenseScan`, files
   whose detected license is in ``drop_licenses`` drop), and the
   credential scan (:class:`~...SecretScan`, any hit drops the file —
   the conservative pre-release rule).
2. **Comment-invariant exact dedup** among survivors: files identical
   after comment/blank-space stripping (`_StripComments` norm) keep
   only the min-``doc_id`` copy.  Same dup-winner-broadcast shape as
   ``pretrain_clean``: block-distinct (norm-hash, min id, count)
   partials → one bounded shuffle → winners with count >= 2 broadcast
   (bounded by DUPLICATED norms, not corpus size).
3. **Near-dup dedup** over what remains (dup coverage is defined by
   the survivors, mirroring ``pretrain_clean`` stage 3): MinHash-LSH
   clusters on the stage-2 ``norm`` text (``minhash_dedup_clusters``
   — OPH signatures, identical-set collapse, streamed union-find;
   ``n_bands=32`` (4 rows/band) matches ``code_near_dup`` — MinHash
   is deterministic here, so oracle parity on the pinned fixture is
   exact, and r=2 bands (``n_bands=64``) cost 3.3x wall at 200k
   files by promoting every sub-threshold boilerplate pair to an
   LSH candidate, measured in BASELINE.md).  ``cluster_id`` is the
   smallest member
   ``doc_id``, so the keep rule is simply ``doc_id == cluster_id``
   for clustered files.

Output: one row per surviving file ``(doc_id, repo, path, license)``
with ``doc_id = md5_number_lower(repo||'/'||path) % 2^63`` (the pinned
SQL-parity file id).  Stage boundaries materialize the surviving rows
once (each is consumed by two downstream passes); ``content`` never
shuffles anywhere in the chain — the exchanges carry norm-hash
partials, winner ids, and cluster assignments only.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from clonebas_ray.bootstrap import ensure_worker_importable
from clonebas_ray.functions.murmur3 import md5_low64
from clonebas_ray.ops.code_corpus import (
    CodeQualityFilter,
    LicenseScan,
    SecretScan,
    _StripComments,
)
from clonebas_ray.ops.relational import keep_first_occurrence


def _ids(repo: pa.ChunkedArray, path: pa.ChunkedArray) -> pa.Array:
    mask = (1 << 63) - 1
    joined = pc.binary_join_element_wise(repo, path, "/")
    return pa.array(
        [md5_low64(s.encode()) & mask for s in joined.to_pylist()],
        pa.int64(),
    )


class _GateKeep:
    """Stage-1 composite gate: quality AND license AND secrets in one
    pass over the content block (three vectorized RE2/numpy scans —
    stateless, so a plain task-pool map; see the task-vs-actor A/B in
    BASELINE.md).  Emits the surviving rows of the input batch with
    ``license`` appended."""

    def __init__(self, content_col: str, drop_licenses: frozenset[str]):
        self.content_col = content_col
        self.drop = drop_licenses
        self.q = CodeQualityFilter(content_col=content_col)
        self.l = LicenseScan(content_col=content_col)
        self.s = SecretScan(content_col=content_col)

    def __call__(self, batch: pa.Table) -> pa.Table:
        keep = self.q(batch)["keep"].to_numpy(
            zero_copy_only=False).astype(bool)
        lic = self.l(batch)["license"]
        if self.drop:
            licm = ~np.isin(
                np.asarray(lic.to_pylist(), dtype=object), list(self.drop)
            )
            keep &= licm
        keep &= (
            self.s(batch)["n_secrets"].to_numpy(zero_copy_only=False) == 0
        )
        return batch.append_column("license", lic).filter(pa.array(keep))


_NORMED_SCHEMA = pa.schema([
    ("doc_id", pa.int64()), ("repo", pa.string()),
    ("path", pa.string()), ("license", pa.string()),
    ("norm", pa.string()),
])

_CLEAN_SCHEMA = pa.schema([
    ("doc_id", pa.int64()), ("repo", pa.string()),
    ("path", pa.string()), ("license", pa.string()),
])


def _normed_stage(
    ds: ray.data.Dataset,
    drop_licenses: tuple[str, ...],
    content_col: str,
    lang_col: str,
) -> ray.data.Dataset:
    """Stages 1+1.5 as one lazy graph: composite gate, then one
    comment-strip pass caching ``(doc_id, repo, path, license, norm)``
    for BOTH downstream stages — content is dropped here and never
    reread."""
    src = ds.select_columns(["repo", "path", lang_col, content_col])
    kept1 = src.map_batches(
        _GateKeep(content_col, frozenset(drop_licenses)),
        batch_format="pyarrow", batch_size=None,
    )

    def normed_rows(batch: pa.Table) -> pa.Table:
        stripped = _StripComments(
            content_col, lang_col, keep_norm=True)(batch)
        return pa.table({
            "doc_id": _ids(batch["repo"], batch["path"]),
            "repo": batch["repo"],
            "path": batch["path"],
            "license": batch["license"],
            "norm": stripped["norm"],
        })

    return kept1.map_batches(
        normed_rows, batch_format="pyarrow", batch_size=None
    )


def _neardup_survivors(
    kept2: ray.data.Dataset,
    threshold: float,
    num_perm: int,
    shingle_k: int,
    n_bands: int,
) -> ray.data.Dataset:
    """Stage 3: MinHash near-dup keep-one over the stage-2 survivors.
    ``kept2`` must be re-consumable: the signature pass and the final
    filter each stream it once."""
    from clonebas_ray.ops.text_dedup import minhash_dedup_clusters

    assign = minhash_dedup_clusters(
        kept2.map_batches(
            lambda b: pa.table(
                {"doc_id": b["doc_id"], "text": b["norm"]}),
            batch_format="pyarrow", batch_size=None,
        ),
        num_perm=num_perm, shingle_k=shingle_k, n_bands=n_bands,
        threshold=threshold,
    )
    # drop-set broadcast: clustered files that are NOT their cluster's
    # min-id rep (bounded by near-dup files, not corpus size)
    a_id = assign["doc_id"].to_numpy(zero_copy_only=False)
    a_cl = assign["cluster_id"].to_numpy(zero_copy_only=False)
    drop_ref = ray.put(np.sort(a_id[a_id != a_cl]))

    def keep_cluster_reps(batch: pa.Table) -> pa.Table:
        drop = ray.get(drop_ref)
        out = batch.drop_columns(["norm"])
        if not len(drop):
            return out
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        pos = np.searchsorted(drop, ids)
        pos[pos == len(drop)] = len(drop) - 1
        return out.filter(pa.array(drop[pos] != ids))

    return kept2.map_batches(
        keep_cluster_reps, batch_format="pyarrow", batch_size=None
    )


def code_clean(
    ds: ray.data.Dataset,
    drop_licenses: tuple[str, ...] = ("gpl-3.0",),
    threshold: float = 0.5,
    num_perm: int = 128,
    shingle_k: int = 5,
    n_bands: int = 32,
    content_col: str = "content",
    lang_col: str = "lang",
) -> ray.data.Dataset:
    """code files → cleaned survivors ``(doc_id, repo, path,
    license)``; see the module docstring for the three pinned stages.
    Single-session form: stage boundaries materialize to the object
    store.  For a crash-resumable run with per-stage Parquet
    checkpoints and lineage manifests, use :func:`run_code_clean`."""
    ensure_worker_importable()
    normed = _normed_stage(
        ds, drop_licenses, content_col, lang_col).materialize()
    kept2 = keep_first_occurrence(normed, "doc_id", "norm").materialize()
    return _neardup_survivors(
        kept2, threshold, num_perm, shingle_k, n_bands)


def run_code_clean(
    input_path: str | list[str],
    run_dir: str,
    resume: bool = True,
    drop_licenses: tuple[str, ...] = ("gpl-3.0",),
    threshold: float = 0.5,
    num_perm: int = 128,
    shingle_k: int = 5,
    n_bands: int = 32,
    content_col: str = "content",
    lang_col: str = "lang",
) -> ray.data.Dataset:
    """Checkpointed, crash-resumable ``code_clean`` (the north rule's
    "resumable from checkpoint with per-partition lineage + metrics"
    surface, mirroring the flagship ``run_dedup_pipeline``).

    Each stage writes its output as partitioned Parquet under
    ``<run_dir>/<stage>/data/`` with a lineage manifest; the
    manifest's per-part-file listing is the per-partition lineage
    record.  Stage keys CHAIN — each key hashes (upstream key, the
    parameters that stage actually consumes, stage name) — so an
    input change invalidates everything, while e.g. a ``threshold``
    change re-runs only the near-dup stage and resumes the gate and
    the exact dedup from Parquet.  A rerun skips completed stages and
    STREAMS their output from Parquet, so a resumed run has the same
    memory profile as a fresh one and a crash mid-stage-3 never
    re-pays the gate.  ``<run_dir>/run_report.json`` records
    per-stage rows / wall / resumed flags.  Returns the final
    survivors Dataset (backed by ``<run_dir>/clean/data/``)."""
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
    cfg = {
        "drop_licenses": sorted(drop_licenses),
        "threshold": threshold, "num_perm": num_perm,
        "shingle_k": shingle_k, "n_bands": n_bands,
        "content_col": content_col, "lang_col": lang_col,
    }

    def cfg_hash(*fields: str) -> str:
        sub = {f: cfg[f] for f in fields}
        return hashlib.sha256(
            json.dumps(sub, sort_keys=True).encode()).hexdigest()[:16]

    input_id = input_identity(input_path)
    key_normed = lineage_key(
        input_id,
        cfg_hash("drop_licenses", "content_col", "lang_col"),
        "normed",
    )
    key_exact = lineage_key(key_normed, "", "exact_survivors")
    key_clean = lineage_key(
        key_exact,
        cfg_hash("threshold", "num_perm", "shingle_k", "n_bands"),
        "clean",
    )

    # stage walls are measured around the whole checkpointed() call:
    # factory graphs with EAGER segments (the MinHash clustering inside
    # _neardup_survivors) do their work before save()'s write timer
    # starts, so the manifest's wall_s alone under-reports the stage
    walls = {}

    def timed(stage, *a, **kw):
        t0 = time.perf_counter()
        out = checkpointed(run_dir, stage, *a, **kw)
        walls[stage] = round(time.perf_counter() - t0, 3)
        return out

    normed, r1 = timed(
        "normed", key_normed,
        lambda: _normed_stage(
            ray.data.read_parquet(input_path),
            drop_licenses, content_col, lang_col,
        ),
        resume=resume, empty_schema=_NORMED_SCHEMA,
    )
    kept2, r2 = timed(
        "exact_survivors", key_exact,
        lambda: keep_first_occurrence(normed, "doc_id", "norm"),
        resume=resume, empty_schema=_NORMED_SCHEMA,
    )
    clean, r3 = timed(
        "clean", key_clean,
        lambda: _neardup_survivors(
            kept2, threshold, num_perm, shingle_k, n_bands),
        resume=resume, empty_schema=_CLEAN_SCHEMA,
    )

    stages = {}
    for stage, resumed in (
        ("normed", r1), ("exact_survivors", r2), ("clean", r3),
    ):
        with open(os.path.join(run_dir, stage, "manifest.json")) as f:
            m = json.load(f)
        stages[stage] = {
            "rows": m["rows"], "num_files": m["num_files"],
            "wall_s": walls[stage], "resumed": resumed,
            "lineage_key": m["lineage_key"],
        }
    report = {
        "pipeline": "code_clean",
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
