"""Repo-granularity code-corpus ops: Stack-style quality gates, license
census, and fork detection.

These are the code-hosting tier of a training-data pipeline (The Stack,
Kocetkov et al. 2022; StarCoder data prep): before any content-level
dedup runs, a crawl of repositories is (a) filtered by per-file quality
heuristics, (b) license-classified, and (c) collapsed at REPO
granularity — forks share most files byte-identically, so detecting
repo pairs with high file-sha-set Jaccard and keeping one side removes
whole-repo duplication far cheaper than file-level near-dup.

All three run over the reference's ``input_hint`` table shape
``(repo, path, commit, lang, content)`` (``corpus.generate_code_corpus``
is the deterministic small-scale fixture).  Scalar kernels are RE2
(pyarrow ``*_substring_regex``) — the same engine as DuckDB's
``regexp_*`` — so every float/flag is oracle-verifiable with no
convention shims.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from clonebas_ray.bootstrap import ensure_worker_importable
from clonebas_ray.functions.kernels import (
    run_starts, sorted_runs, splitmix64, union_find,
)

# The Stack v1 near-dedup preprocessing gates (Kocetkov et al. 2022 §3):
# files with a line longer than 1000 chars, mean line length > 100, or
# < 25% alphanumeric chars are dropped, as are generated files.
MAX_LINE_LEN = 1000
MAX_AVG_LINE_LEN = 100.0
MIN_ALNUM_FRAC = 0.25

_AUTOGEN_RE = r"(?i)(auto-?generated|do not edit|generated by)"

# priority-ordered (first match wins) license detectors: SPDX tag or the
# canonical identification phrase scanners key on
LICENSE_PATTERNS: tuple[tuple[str, str], ...] = (
    ("apache-2.0",
     r"SPDX-License-Identifier: Apache-2\.0"
     r"|Licensed under the Apache License, Version 2\.0"),
    ("gpl-3.0",
     r"SPDX-License-Identifier: GPL-3\.0|GNU General Public License"),
    ("mit",
     r"SPDX-License-Identifier: MIT"
     r"|Permission is hereby granted, free of charge"),
    ("bsd-3-clause",
     r"SPDX-License-Identifier: BSD-3-Clause"
     r"|Redistribution and use in source and binary forms"),
)


def _line_stats(content: pa.ChunkedArray | pa.Array):
    """(n_lines, sum_line_len, max_line_len) per row, vectorized.

    Lines are ``\\n`` splits; ``sum_line_len = len(content) - n_lines + 1``
    by construction (ASCII/char counting — agrees with DuckDB ``length``
    for any input, byte-vs-char only if non-BMP text sneaks in, which the
    fixture excludes).
    """
    if isinstance(content, pa.ChunkedArray):
        content = content.combine_chunks()
    lines = pc.split_pattern(content, "\n")
    n_lines = pc.list_value_length(lines).to_numpy(zero_copy_only=False)
    flat = pc.list_flatten(lines)
    flat_len = pc.utf8_length(flat).to_numpy(zero_copy_only=False)
    # segment max via reduceat (np.maximum.at is ~20x slower); every
    # row has >= 1 line so no segment is empty
    offsets = np.zeros(len(content), dtype=np.int64)
    np.cumsum(n_lines[:-1], out=offsets[1:])
    max_len = (
        np.maximum.reduceat(flat_len, offsets).astype(np.int64)
        if len(flat_len)
        else np.zeros(len(content), dtype=np.int64)
    )
    total = pc.utf8_length(content).to_numpy(zero_copy_only=False)
    sum_len = total - n_lines + 1
    return n_lines.astype(np.int64), sum_len.astype(np.int64), max_len


class CodeQualityFilter:
    """Per-file Stack-style quality gates as one vectorized
    ``map_batches`` task (embarrassingly parallel — the 100-TB shape is
    simply more blocks).  Emits the gate inputs plus ``keep``:

    ``n_lines, max_line_len, avg_line_len`` (sum/int division),
    ``alnum_frac`` (RE2 char-class count / length, 0.0 for empty),
    ``autogen`` (0/1 marker regex hit), and
    ``keep = 1`` iff ``max_line_len <= 1000 AND avg_line_len <= 100 AND
    alnum_frac >= 0.25 AND NOT autogen``.
    """

    def __init__(self, content_col: str = "content"):
        self.content_col = content_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        content = batch[self.content_col]
        n_lines, sum_len, max_len = _line_stats(content)
        total = pc.utf8_length(content).to_numpy(zero_copy_only=False)
        alnum = pc.count_substring_regex(
            content, "[a-zA-Z0-9]"
        ).to_numpy(zero_copy_only=False)
        avg = sum_len / n_lines
        alnum_frac = np.where(total > 0, alnum / np.maximum(total, 1), 0.0)
        autogen = pc.match_substring_regex(
            content, _AUTOGEN_RE
        ).to_numpy(zero_copy_only=False)
        keep = (
            (max_len <= MAX_LINE_LEN)
            & (avg <= MAX_AVG_LINE_LEN)
            & (alnum_frac >= MIN_ALNUM_FRAC)
            & ~autogen
        )
        out = batch.drop_columns([self.content_col])
        for name, arr in (
            ("n_lines", n_lines), ("max_line_len", max_len),
            ("avg_line_len", avg), ("alnum_frac", alnum_frac),
            ("autogen", autogen.astype(np.int64)),
            ("keep", keep.astype(np.int64)),
        ):
            out = out.append_column(name, pa.array(arr))
        return out


def code_quality_filter(
    ds: ray.data.Dataset, content_col: str = "content"
) -> ray.data.Dataset:
    ensure_worker_importable()
    # stateless pure-vectorized scan: a plain task-pool map (an actor
    # pool would pay ~10 s of autoscale ramp for zero amortizable state)
    return ds.map_batches(
        CodeQualityFilter(content_col=content_col),
        batch_format="pyarrow",
        batch_size=None,
    )


class LicenseScan:
    """Per-file license classification: first matching detector in
    ``LICENSE_PATTERNS`` priority order, else ``"unknown"``; one RE2
    pass per detector over the whole block."""

    def __init__(self, content_col: str = "content"):
        self.content_col = content_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        content = batch[self.content_col]
        n = len(batch)
        out = np.full(n, "unknown", dtype=object)
        undecided = np.ones(n, dtype=bool)
        for name, pat in LICENSE_PATTERNS:
            hit = pc.match_substring_regex(
                content, pat
            ).to_numpy(zero_copy_only=False)
            out[undecided & hit] = name
            undecided &= ~hit
        return batch.drop_columns([self.content_col]).append_column(
            "license", pa.array(out.tolist(), pa.string())
        )


def license_scan(
    ds: ray.data.Dataset, content_col: str = "content"
) -> ray.data.Dataset:
    ensure_worker_importable()
    # stateless pure-vectorized scan: a plain task-pool map (an actor
    # pool would pay ~10 s of autoscale ramp for zero amortizable state)
    return ds.map_batches(
        LicenseScan(content_col=content_col),
        batch_format="pyarrow",
        batch_size=None,
    )


# secret detectors (truffleHog/gitleaks-style pattern families, RE2):
# counted independently per file; n_secrets is their sum
SECRET_PATTERNS: tuple[tuple[str, str], ...] = (
    ("aws_keys", r"AKIA[0-9A-Z]{16}"),
    ("private_keys", r"-----BEGIN [A-Z ]*PRIVATE KEY-----"),
    ("url_creds", r"[a-z][a-z0-9+.-]*://[^/\s:@]+:[^/\s:@]+@"),
    ("generic_tokens",
     r"(?i)(api[_-]?key|secret|token)\s*=\s*['\"][a-z0-9_\-]{16,}['\"]"),
)


class SecretScan:
    """Per-file credential-leak census (the pre-release scan a code
    corpus runs before training): non-overlapping RE2 match counts per
    detector family plus their sum.  Engine-identical to the DuckDB
    oracle's ``regexp_extract_all`` lengths."""

    def __init__(self, content_col: str = "content"):
        self.content_col = content_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        content = batch[self.content_col]
        out = batch.drop_columns([self.content_col])
        total = np.zeros(len(batch), dtype=np.int64)
        for name, pat in SECRET_PATTERNS:
            c = pc.count_substring_regex(content, pat).to_numpy(
                zero_copy_only=False
            ).astype(np.int64)
            total += c
            out = out.append_column(name, pa.array(c))
        return out.append_column("n_secrets", pa.array(total))


def secret_scan(
    ds: ray.data.Dataset, content_col: str = "content"
) -> ray.data.Dataset:
    ensure_worker_importable()
    # stateless pure-vectorized scan: a plain task-pool map (an actor
    # pool would pay ~10 s of autoscale ramp for zero amortizable state)
    return ds.map_batches(
        SecretScan(content_col=content_col),
        batch_format="pyarrow",
        batch_size=None,
    )


def repo_fork_detect(
    ds: ray.data.Dataset,
    repo_col: str = "repo",
    content_col: str = "content",
    min_jaccard: float = 0.5,
    max_df: int = 20,
) -> ray.data.Dataset:
    """Repo-pair fork detection: pairs of repos whose DISTINCT file-sha
    sets have Jaccard >= ``min_jaccard`` (The Stack / CodeParrot dedup
    runs this tier before file-level near-dup; a fork shares most files
    byte-identically).

    Layout (content never shuffles, pairs are sha-bucket-local):

    1. per-block ``map_batches``: distinct ``(repo, content)`` → md5 sha
       → distinct ``(sha, repo)`` rows bucketed by sha hash — the only
       exchange is 2 short strings per distinct file;
    2. ``groupby(bucket).map_groups``: global distinct per bucket, then
       (a) per-repo distinct-sha counts (size partials) and (b) sha
       postings → repo pairs.  Shas held by more than ``max_df`` repos
       are skipped (a vendored boilerplate file in 10^5 repos would emit
       ~10^10 pairs; real forks share many doc-specific shas so the cap
       costs no recall — same guard as winnowing's ``max_df``);
    3. pair partials ``groupby(repo_a, repo_b).sum`` (each sha lives in
       exactly one bucket, so bucket partials are disjoint and summable);
    4. repo sizes are driver-summed (O(repos) rows) and broadcast via
       ``ray.put`` into a final ``map_batches`` that computes Jaccard =
       ``shared / (a + b - shared)`` and filters.  At 10^8+ repos swap
       step 4's broadcast for two bucketed ``relational.hash_join``s —
       the pair table is already a Dataset.

    Returns a Dataset ``(repo_a, repo_b, shared_files, files_a, files_b,
    jaccard)`` with ``repo_a < repo_b``.
    """
    ensure_worker_importable()
    from clonebas_ray.ops.relational import auto_partitions

    P = auto_partitions()

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.select([repo_col, content_col]).to_pandas()
        df = df.drop_duplicates()
        shas = [
            hashlib.md5(c.encode()).hexdigest() for c in df[content_col]
        ]
        out = pd.DataFrame({"sha": shas, "repo": df[repo_col].to_numpy()})
        out = out.drop_duplicates()
        kh = pd.util.hash_pandas_object(out["sha"], index=False).to_numpy()
        out["__bucket"] = (kh % np.uint64(P)).astype(np.int32)
        return pa.Table.from_pandas(
            out, preserve_index=False
        ).replace_schema_metadata(None)

    def bucket_merge(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["sha", "repo"])
        sizes = g.groupby("repo", sort=False).size()
        frames = [pd.DataFrame({
            "repo_a": sizes.index.to_numpy(),
            "repo_b": np.full(len(sizes), "", dtype=object),
            "n": sizes.to_numpy().astype(np.int64),
        })]
        df_per_sha = g.groupby("sha", sort=False)["repo"]
        pair_a: list[str] = []
        pair_b: list[str] = []
        for _, repos in df_per_sha:
            r = sorted(repos.to_numpy())
            if len(r) < 2 or len(r) > max_df:
                continue
            for i in range(len(r)):
                for j in range(i + 1, len(r)):
                    pair_a.append(r[i])
                    pair_b.append(r[j])
        if pair_a:
            pairs = (
                pd.DataFrame({"repo_a": pair_a, "repo_b": pair_b})
                .groupby(["repo_a", "repo_b"], sort=False)
                .size()
                .reset_index(name="n")
            )
            pairs["n"] = pairs["n"].astype(np.int64)
            frames.append(pairs)
        return pd.concat(frames, ignore_index=True)

    partials = (
        ds.map_batches(partial, batch_format="pyarrow", batch_size=None)
        .groupby("__bucket")
        .map_groups(bucket_merge, batch_format="pandas")
        .materialize()
    )

    # repo sizes: tiny (O(repos)) — driver-sum + broadcast
    sizes_pd = (
        partials.map_batches(
            lambda t: t.filter(pc.equal(t["repo_b"], "")).select(
                ["repo_a", "n"]
            ),
            batch_format="pyarrow",
            batch_size=None,
        )
        .groupby("repo_a")
        .sum("n")
        .to_pandas()
    )
    size_map = dict(zip(sizes_pd["repo_a"], sizes_pd["sum(n)"]))
    size_ref = ray.put(size_map)

    shared = (
        partials.map_batches(
            lambda t: t.filter(pc.not_equal(t["repo_b"], "")),
            batch_format="pyarrow",
            batch_size=None,
        )
        .groupby(["repo_a", "repo_b"])
        .sum("n")
    )

    out_schema = pa.schema([
        ("repo_a", pa.string()), ("repo_b", pa.string()),
        ("shared_files", pa.int64()), ("files_a", pa.int64()),
        ("files_b", pa.int64()), ("jaccard", pa.float64()),
    ])

    def finish(batch: pa.Table) -> pa.Table:
        # the upstream aggregate can emit zero-row (even zero-COLUMN)
        # blocks at high parallelism — normalize them to the output
        # schema (the tfidf_terms empty-block lesson)
        if batch.num_rows == 0 or "sum(n)" not in batch.schema.names:
            return out_schema.empty_table()
        sizes = ray.get(size_ref)
        sh = batch["sum(n)"].to_numpy(zero_copy_only=False).astype(np.int64)
        a = np.array([sizes[r] for r in batch["repo_a"].to_pylist()],
                     dtype=np.int64)
        b = np.array([sizes[r] for r in batch["repo_b"].to_pylist()],
                     dtype=np.int64)
        jac = sh / (a + b - sh)
        keep = jac >= min_jaccard
        out = pa.table({
            "repo_a": batch["repo_a"],
            "repo_b": batch["repo_b"],
            "shared_files": pa.array(sh),
            "files_a": pa.array(a),
            "files_b": pa.array(b),
            "jaccard": pa.array(jac),
        })
        return out.filter(pa.array(keep))

    return shared.map_batches(finish, batch_format="pyarrow",
                              batch_size=None)


# lang-dispatched import/include detectors.  One capture group named
# ``m`` (group 1 in DuckDB's regexp_extract); applied PER LINE after a
# '\n' split, so ``^`` anchors each line identically in pyarrow and in
# the oracle's unnest(string_split(...)) form.  RE2 both sides.
IMPORT_PATTERNS: dict[str, str] = {
    "c": r'^[ \t]*#[ \t]*include[ \t]*[<"](?P<m>[A-Za-z0-9_./-]+)[>"]',
    "cpp": r'^[ \t]*#[ \t]*include[ \t]*[<"](?P<m>[A-Za-z0-9_./-]+)[>"]',
    "python": r"^[ \t]*(?:from|import)[ \t]+(?P<m>[A-Za-z_][A-Za-z0-9_.]*)",
    "java": r"^[ \t]*import[ \t]+(?:static[ \t]+)?"
            r"(?P<m>[A-Za-z_][A-Za-z0-9_.]*)",
}


class _ImportPartials:
    """Per-block partial census: (lang, module) -> (n_imports, n_files).

    Explodes content into lines ONCE (zero-copy list flatten), runs one
    ``extract_regex`` per language present in the block, and collapses
    matches to partial counts INSIDE the task — the downstream groupby
    shuffles vocabulary-sized partials, never per-line rows (the 100-TB
    shape: exchange is O(distinct modules per block), not O(lines))."""

    def __init__(self, content_col: str, lang_col: str):
        self.content_col = content_col
        self.lang_col = lang_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        empty = pa.table({
            "lang": pa.array([], pa.string()),
            "module": pa.array([], pa.string()),
            "n_imports": pa.array([], pa.int64()),
            "n_files": pa.array([], pa.int64()),
        })
        if batch.num_rows == 0:
            return empty
        content = batch[self.content_col].combine_chunks()
        lang = np.asarray(batch[self.lang_col].to_pylist(), dtype=object)
        lines = pc.split_pattern(content, "\n")
        flat = pc.list_flatten(lines)
        parent = pc.list_parent_indices(lines).to_numpy(
            zero_copy_only=False
        )
        flat_lang = lang[parent]
        keys: list[str] = []
        file_keys: list[str] = []
        for lg in np.unique(lang):
            pat = IMPORT_PATTERNS.get(str(lg))
            if pat is None:
                continue
            sel = np.flatnonzero(flat_lang == lg)
            if not len(sel):
                continue
            sub = flat.take(pa.array(sel, pa.int64()))
            ex = pc.extract_regex(sub, pat)
            valid = pc.is_valid(ex).to_numpy(zero_copy_only=False)
            if not valid.any():
                continue
            mods = np.asarray(
                ex.field("m").to_pylist(), dtype=object
            )[valid]
            rows = parent[sel[valid]]
            for m, r in zip(mods, rows):
                k = f"{lg}\x00{m}"
                keys.append(k)
                file_keys.append(f"{k}\x00{r}")
        if not keys:
            return empty
        uk, n_imp = np.unique(np.asarray(keys, object),
                              return_counts=True)
        uf = np.unique(np.asarray(file_keys, object))
        fk, n_fil = np.unique(
            np.asarray([s.rsplit("\x00", 1)[0] for s in uf], object),
            return_counts=True,
        )
        assert (uk == fk).all()
        split = [k.split("\x00", 1) for k in uk]
        return pa.table({
            "lang": pa.array([s[0] for s in split], pa.string()),
            "module": pa.array([s[1] for s in split], pa.string()),
            "n_imports": pa.array(n_imp.astype(np.int64)),
            "n_files": pa.array(n_fil.astype(np.int64)),
        })


def import_census(
    ds: ray.data.Dataset,
    content_col: str = "content",
    lang_col: str = "lang",
) -> ray.data.Dataset:
    """Corpus dependency census: per (lang, module), how many import
    statements reference it (``n_imports``) and how many files do
    (``n_files``).  Languages without a detector pass through silently
    (a heterogeneous crawl is the normal input).

    Partial-aggregate inside ``map_batches`` then a vocabulary-sized
    ``groupby`` merge; exact because one file is one row, so per-block
    distinct-file partials never double-count across blocks."""
    from ray.data.aggregate import Sum

    ensure_worker_importable()
    partial = ds.map_batches(
        _ImportPartials(content_col, lang_col),
        batch_format="pyarrow",
        batch_size=None,
    )
    return partial.groupby(["lang", "module"]).aggregate(
        Sum("n_imports", alias_name="n_imports"),
        Sum("n_files", alias_name="n_files"),
    )


# lang-dispatched comment syntax.  The C/Java pattern strips /* */ block
# comments (non-greedy, (?s: ) so they span lines) and // line comments;
# python strips #-to-EOL.  KNOWN approximation (documented, shared by
# the oracle): comment markers INSIDE string literals are treated as
# comment starts — exact lexing needs the parse frontend, and the dedup
# use case (normalize before hashing) tolerates it because both sides
# of a candidate pair mis-strip identically.
COMMENT_PATTERNS: dict[str, str] = {
    "c": r"/\*(?s:.*?)\*/|//[^\n]*",
    "cpp": r"/\*(?s:.*?)\*/|//[^\n]*",
    "java": r"/\*(?s:.*?)\*/|//[^\n]*",
    "python": r"#[^\n]*",
}
_TRAIL_WS = r"[ \t]+\n"
_BLANKS = r"\n\n+"


class _StripComments:
    """Comment-stripped normal form + sha256 fingerprints per file:
    strip lang comments -> drop trailing [ \\t] before newlines ->
    collapse newline runs to one (blank lines gone) -> trim.
    ``norm_sha`` equality then means "same code modulo comments and
    blank space" — the normalization license-header-vendored copies
    differ by."""

    def __init__(self, content_col: str, lang_col: str,
                 keep_norm: bool = False):
        self.content_col = content_col
        self.lang_col = lang_col
        self.keep_norm = keep_norm

    def __call__(self, batch: pa.Table) -> pa.Table:
        content = batch[self.content_col].combine_chunks()
        lang = np.asarray(batch[self.lang_col].to_pylist(), dtype=object)
        stripped_cols = np.asarray(content.to_pylist(), dtype=object)
        for lg in np.unique(lang):
            pat = COMMENT_PATTERNS.get(str(lg))
            if pat is None:
                continue
            sel = np.flatnonzero(lang == lg)
            sub = content.take(pa.array(sel, pa.int64()))
            rep = pc.replace_substring_regex(sub, pat, "")
            stripped_cols[sel] = np.asarray(rep.to_pylist(), object)
        stripped = pa.array(stripped_cols, pa.string())
        norm = pc.utf8_trim(
            pc.replace_substring_regex(
                pc.replace_substring_regex(stripped, _TRAIL_WS, "\n"),
                _BLANKS, "\n",
            ),
            " \t\n",
        )
        n_chars = pc.utf8_length(content).to_numpy(zero_copy_only=False)
        strip_chars = pc.utf8_length(stripped).to_numpy(
            zero_copy_only=False
        )
        out = batch.drop_columns([self.content_col])
        out = out.append_column("sha", pa.array(
            [hashlib.sha256(s.encode()).hexdigest()
             for s in content.to_pylist()], pa.string(),
        ))
        out = out.append_column("norm_sha", pa.array(
            [hashlib.sha256(s.encode()).hexdigest()
             for s in norm.to_pylist()], pa.string(),
        ))
        out = out.append_column(
            "n_chars", pa.array(n_chars.astype(np.int64)))
        out = out.append_column(
            "comment_chars",
            pa.array((n_chars - strip_chars).astype(np.int64)),
        )
        out = out.append_column(
            "norm_chars",
            pa.array(pc.utf8_length(norm).to_numpy(
                zero_copy_only=False).astype(np.int64)),
        )
        if self.keep_norm:
            out = out.append_column("norm", norm)
        return out


def strip_comments(
    ds: ray.data.Dataset,
    content_col: str = "content",
    lang_col: str = "lang",
) -> ray.data.Dataset:
    """Per-file comment-stripped normalization fingerprints
    (``sha``/``norm_sha``/char accounting).  ``norm_sha`` feeds
    comment-invariant exact dedup: group by it to collapse files that
    differ only in comments or blank space (vendored copies under a
    different license header being the canonical case)."""
    ensure_worker_importable()
    return ds.map_batches(
        _StripComments(content_col, lang_col),
        batch_format="pyarrow",
        batch_size=None,
    )


def comment_dup_families(
    ds: ray.data.Dataset,
    content_col: str = "content",
    lang_col: str = "lang",
) -> ray.data.Dataset:
    """Families of files that are IDENTICAL after comment stripping but
    NOT byte-identical: per norm_sha, the family size (``n_files``),
    the number of distinct raw shas (``n_distinct_sha``, > 1 by
    definition of the family), and the lexicographic min sha as the
    representative.  Two vocabulary-sized aggregate exchanges — never
    a per-file shuffle and never a per-group task:

    1. per-block (norm_sha, sha) counts -> groupby-sum = exact global
       pair multiplicities (rows now globally unique pairs);
    2. per-block roll-up to (norm_sha, n_files, n_distinct_sha,
       rep_sha) partials -> groupby (Sum, Sum, Min).  Distinct-sha
       partials are summable ONLY because step 1 made pairs unique.
    """
    from ray.data.aggregate import Min, Sum

    def pair_counts(batch: pa.Table) -> pa.Table:
        df = (
            batch.select(["norm_sha", "sha"]).to_pandas()
            .groupby(["norm_sha", "sha"], sort=False)
            .size().rename("n").reset_index()
        )
        return pa.Table.from_pandas(df, preserve_index=False)

    pairs = (
        strip_comments(ds, content_col=content_col, lang_col=lang_col)
        .map_batches(pair_counts, batch_format="pyarrow",
                     batch_size=None)
        .groupby(["norm_sha", "sha"])
        .aggregate(Sum("n", alias_name="n"))
    )

    def family_partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        g = df.groupby("norm_sha", sort=False)
        out = g.agg(
            n_files=("n", "sum"), n_distinct_sha=("sha", "size"),
            rep_sha=("sha", "min"),
        ).reset_index()
        return pa.Table.from_pandas(out, preserve_index=False)

    fams = (
        pairs.map_batches(family_partial, batch_format="pyarrow",
                          batch_size=None)
        .groupby("norm_sha")
        .aggregate(
            Sum("n_files", alias_name="n_files"),
            Sum("n_distinct_sha", alias_name="n_distinct_sha"),
            Min("rep_sha", alias_name="rep_sha"),
        )
    )
    return fams.filter(
        expr="n_distinct_sha > 1"
    )


def code_near_dup(
    ds: ray.data.Dataset,
    threshold: float = 0.5,
    num_perm: int = 128,
    shingle_k: int = 5,
    n_bands: int = 32,
    content_col: str = "content",
    lang_col: str = "lang",
) -> ray.data.Dataset:
    """Comment-invariant near-duplicate FILE clusters over a code
    corpus (The-Stack-v2 file-grain dedup shape): strip comments and
    blank space (`_StripComments` norm), then MinHash-LSH cluster the
    normalized text (`text_dedup.minhash_dedup_clusters` — OPH
    signatures, identical-set collapse, streamed union-find).  Output:
    one row per file that HAS a near-dup, ``(repo, path, doc_id,
    cluster_id)`` with ``doc_id = md5_number_lower(repo||'/'||path) %
    2^63`` (the pinned SQL-parity hash; the 63-bit mask keeps min-rep
    selection identical between signed int64 and DuckDB UBIGINT) and
    ``cluster_id`` the smallest member doc_id.

    Catches what the exact tiers can't: fork detection keys on exact
    shas and ``comment_dup_families`` on exact normalized bytes, so a
    vendored copy with a handful of edited/inserted statements is
    invisible to both — here it lands in its source's cluster as long
    as shingle Jaccard clears ``threshold``.  Scale shape is the
    flagship MinHash path's (banded shuffle is signature-sized, pair
    volume quadratic only in DISTINCT near-dup content); the id→file
    rejoin is a broadcast of the near-dup assignment table only, never
    the corpus.
    """
    from clonebas_ray.functions.murmur3 import md5_low64
    from clonebas_ray.ops.text_dedup import minhash_dedup_clusters

    ensure_worker_importable()
    mask = (1 << 63) - 1

    def _ids(repo: pa.ChunkedArray, path: pa.ChunkedArray) -> pa.Array:
        joined = pc.binary_join_element_wise(repo, path, "/")
        return pa.array(
            [md5_low64(s.encode()) & mask for s in joined.to_pylist()],
            pa.int64(),
        )

    def to_docs(batch: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": _ids(batch["repo"], batch["path"]),
            "text": batch["norm"],
        })

    docs = ds.map_batches(
        _StripComments(content_col, lang_col, keep_norm=True),
        batch_format="pyarrow", batch_size=None,
    ).map_batches(to_docs, batch_format="pyarrow", batch_size=None)

    assign = minhash_dedup_clusters(
        docs, num_perm=num_perm, shingle_k=shingle_k, n_bands=n_bands,
        threshold=threshold,
    )
    lut_ref = ray.put(dict(zip(
        assign["doc_id"].to_pylist(), assign["cluster_id"].to_pylist(),
    )))

    def tag(batch: pa.Table) -> pa.Table:
        lut = ray.get(lut_ref)
        ids = _ids(batch["repo"], batch["path"])
        cl = np.array([lut.get(i, -1) for i in ids.to_pylist()],
                      dtype=np.int64)
        keep = np.flatnonzero(cl >= 0)
        sub = batch.select(["repo", "path"]).take(
            pa.array(keep, pa.int64()))
        return (
            sub.append_column("doc_id", ids.take(pa.array(keep, pa.int64())))
            .append_column("cluster_id", pa.array(cl[keep]))
        )

    return ds.select_columns(["repo", "path"]).map_batches(
        tag, batch_format="pyarrow", batch_size=None
    )


def code_dup_spans(
    ds: ray.data.Dataset,
    min_len: int = 40,
    content_col: str = "content",
) -> ray.data.Dataset:
    """Exact duplicated-substring spans over a code corpus — the
    suffix-array substring modality of the north rule applied to the
    ``(repo, path, commit, lang, content)`` table: every maximal span
    of ``content`` whose every ``min_len``-char window occurs >= 2
    times anywhere in the corpus (vendored stanzas, license headers,
    copy-pasted functions — including within-file repeats).  Thin
    composition over :func:`text_dedup.exact_dup_spans` (Lee et al.
    2022 window-hash equivalence; same two streaming passes, byte-bound
    hash exchange, no content shuffle) with the pinned SQL-parity file
    id ``doc_id = md5_number_lower(repo||'/'||path) % 2^63`` and
    ``(repo, path)`` carried onto each span row per batch — no rejoin.

    Output: one row per maximal span,
    ``(doc_id, repo, path, span_start, span_len)`` (0-based char
    offsets, touching intervals merged).  Default ``min_len=40`` is a
    code-sized window: long enough that shared language keywords/idiom
    lines don't fire, short enough to catch a vendored helper.
    """
    from clonebas_ray.functions.murmur3 import md5_low64
    from clonebas_ray.ops.text_dedup import exact_dup_spans

    ensure_worker_importable()
    mask = (1 << 63) - 1

    def to_docs(batch: pa.Table) -> pa.Table:
        joined = pc.binary_join_element_wise(
            batch["repo"], batch["path"], "/")
        ids = pa.array(
            [md5_low64(s.encode()) & mask for s in joined.to_pylist()],
            pa.int64(),
        )
        return pa.table({
            "doc_id": ids,
            "repo": batch["repo"],
            "path": batch["path"],
            "text": batch[content_col],
        })

    docs = ds.map_batches(to_docs, batch_format="pyarrow",
                          batch_size=None)
    return exact_dup_spans(docs, min_len=min_len,
                           carry_cols=("repo", "path"))


def repo_license_resolve(
    ds: ray.data.Dataset, content_col: str = "content"
) -> ray.data.Dataset:
    """Repo-level license resolution — The Stack's one-license-per-repo
    rule shape (Kocetkov et al. 2022 §3: files inherit a repo-level
    license decision): classify every file (:class:`LicenseScan`),
    then the repo's license is its most COMMON detected label, ties
    broken by detector priority (the ``LICENSE_PATTERNS`` order,
    ``unknown`` last).

    Scale shape: per-block (repo, license) count partials collapse the
    exchange to ≤ ``len(LICENSE_PATTERNS)+1`` rows per repo per block
    BEFORE the shuffle; the hash-partitioned merge resolves each repo
    with whole-partition vectorized ops (no per-repo groups).  Output:
    ``(repo, license, n_files, n_matched)`` with ``n_matched`` = files
    carrying any detected license.
    """
    ensure_worker_importable()
    from clonebas_ray.ops.relational import auto_partitions

    P = auto_partitions()
    rank = {name: i for i, (name, _) in enumerate(LICENSE_PATTERNS)}
    rank["unknown"] = len(LICENSE_PATTERNS)
    scan = LicenseScan(content_col=content_col)

    def partial(batch: pa.Table) -> pd.DataFrame:
        lic = scan(batch)["license"].to_numpy(zero_copy_only=False)
        df = (
            pd.DataFrame({
                "repo": batch["repo"].to_numpy(zero_copy_only=False),
                "license": lic,
            })
            .groupby(["repo", "license"], sort=False)
            .size()
            .reset_index(name="c")
        )
        df["c"] = df["c"].astype(np.int64)
        df["rp"] = (
            pd.util.hash_array(df["repo"].to_numpy()) % P
        ).astype(np.int32)
        return df

    def resolve(g: pd.DataFrame) -> pd.DataFrame:
        c = (
            g.groupby(["repo", "license"], sort=False)["c"]
            .sum()
            .reset_index()
        )
        per_repo = (
            c.groupby("repo", sort=False)["c"].sum().rename("n_files")
        )
        matched = (
            c[c["license"] != "unknown"]
            .groupby("repo", sort=False)["c"].sum().rename("n_matched")
        )
        c["rank"] = c["license"].map(rank).astype(np.int64)
        win = (
            c.sort_values(
                ["repo", "c", "rank"], ascending=[True, False, True]
            )
            .drop_duplicates("repo")
            .set_index("repo")
        )
        out = win.join(per_repo).join(matched)
        out["n_matched"] = out["n_matched"].fillna(0).astype(np.int64)
        out["n_files"] = out["n_files"].astype(np.int64)
        return out.reset_index()[
            ["repo", "license", "n_files", "n_matched"]
        ]

    return (
        ds.select_columns(["repo", content_col])
        .map_batches(partial, batch_format="pyarrow", batch_size=None)
        .groupby("rp")
        .map_groups(resolve, batch_format="pandas")
    )



# --- SourcererCC-style token-bag clone detection -----------------------

#: split pattern shared with the DuckDB oracle's
#: ``regexp_split_to_array`` (both RE2): identifier/number runs are
#: tokens, everything else is separator.
_TOKEN_SPLIT = r"[^A-Za-z0-9_]+"


def _bag_tables(
    ds: ray.data.Dataset, content_col: str
) -> ray.data.Dataset:
    """One content pass -> per-file token BAGS: ``(key, doc_id,
    bag_key, len, toks list<string>, cnts list<int32>)``, toks
    distinct and sorted lexicographically within each file;
    ``bag_key`` is a content-derived hash of the full multiset (md5 of
    the sorted token/count serialization), so files with an IDENTICAL
    bag share it across blocks.  Byte-bound derived dataset —
    downstream stages never re-read content."""
    from clonebas_ray.functions.murmur3 import md5_low64

    def bag_rows(batch: pa.Table) -> pa.Table:
        keys = pc.binary_join_element_wise(
            batch["repo"].combine_chunks().cast(pa.string()),
            batch["path"].combine_chunks().cast(pa.string()),
            "/",
        )
        la = pc.split_pattern_regex(
            batch[content_col].combine_chunks().cast(pa.string()),
            pattern=_TOKEN_SPLIT,
        )
        lengths = pc.list_value_length(la).to_numpy().astype(np.int64)
        flat = la.flatten()
        fidx = np.repeat(np.arange(len(lengths)), lengths)
        nonempty = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        flat = flat.filter(pa.array(nonempty))
        fidx = fidx[nonempty]
        de = pc.dictionary_encode(flat)
        codes = de.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        vocab = de.dictionary.to_numpy(zero_copy_only=False)
        # within-file lexicographic token order via a string-rank view
        str_rank = np.empty(len(vocab), dtype=np.int64)
        str_rank[np.argsort(vocab, kind="stable")] = np.arange(len(vocab))
        order, starts, cnts = sorted_runs(fidx, str_rank[codes])
        fi, co = fidx[order], codes[order]
        cnts = cnts.astype(np.int32)
        ufi, uco = fi[starts], co[starts]
        # per-file list offsets over the distinct-token rows
        n = len(lengths)
        per_file = np.bincount(ufi, minlength=n)
        offsets = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(per_file, out=offsets[1:])
        tok_vals = vocab[uco]
        toks_col = pa.ListArray.from_arrays(
            pa.array(offsets), pa.array(tok_vals, pa.string()))
        cnts_col = pa.ListArray.from_arrays(
            pa.array(offsets), pa.array(cnts, pa.int32()))
        tot = np.bincount(fi, minlength=n).astype(np.int64)
        cnts64 = cnts.astype("<i4")
        bag_keys = np.fromiter(
            (
                md5_low64(
                    "\x00".join(tok_vals[offsets[i]:offsets[i + 1]])
                    .encode() + b"\x01"
                    + cnts64[offsets[i]:offsets[i + 1]].tobytes()
                ) % (1 << 63)
                for i in range(n)
            ),
            dtype=np.int64, count=n,
        )
        key_list = keys.to_pylist()
        ids = np.fromiter(
            (md5_low64(k.encode()) % (1 << 63) for k in key_list),
            dtype=np.int64, count=n,
        )
        return pa.table({
            "key": keys,
            "doc_id": pa.array(ids, pa.int64()),
            "bag_key": pa.array(bag_keys, pa.int64()),
            "len": pa.array(tot, pa.int64()),
            "toks": toks_col,
            "cnts": cnts_col,
        })

    return ds.select_columns(["repo", "path", content_col]).map_batches(
        bag_rows, batch_format="pyarrow", batch_size=None
    )


@ray.remote
def _fam_lookup(*tabs: pa.Table) -> pa.Table:
    """One object-store family-membership table sorted by
    ``(rep_id, key)`` — built worker-side; read zero-copy per node by
    every expansion task."""
    live = [t for t in tabs if t.num_rows]
    if not live:
        return pa.table({
            "rep_id": pa.array([], pa.int64()),
            "key": pa.array([], pa.string()),
            "len": pa.array([], pa.int64()),
        })
    t = pa.concat_tables(live, promote_options="default")
    return t.take(pc.sort_indices(
        t, sort_keys=[("rep_id", "ascending"), ("key", "ascending")]))


def _token_bag_rep_pairs(
    ds: ray.data.Dataset,
    threshold: tuple[int, int],
    content_col: str,
    max_pairs_per_task: int | None,
    stats: dict | None,
) -> tuple[ray.data.Dataset, ray.data.Dataset]:
    """Shared rep-level machinery of the SourcererCC join (see
    :func:`token_bag_clones` for the full algorithm): bags ->
    identical-bag families -> DF rarity broadcast -> prefix index ->
    length/positional-filtered candidates -> blob-packed pair dedup ->
    vectorized exact verify.  Returns ``(rep_pairs, families)``:
    verified DISTINCT-bag pairs ``(id_a, id_b, overlap, sim)`` and the
    family membership table ``(rep_id, doc_id, key, len, fam_m)``.
    Both :func:`token_bag_clones` (pair expansion) and
    :func:`token_bag_clusters` (connected components) consume them.
    """
    ensure_worker_importable()
    from ray.data.aggregate import Sum

    from clonebas_ray.ops.relational import auto_partitions
    from clonebas_ray.ops.text_dedup import (
        _VERIFY_LOOKUP_BUDGET,
        _concat_sorted_by_id,
        _tab_nbytes,
    )

    num, den = int(threshold[0]), int(threshold[1])
    if not (0 < num <= den):
        raise ValueError(f"threshold must be 0 < num <= den, got {threshold}")
    P = auto_partitions()

    import time as _time

    _t = _time.perf_counter()

    def _mark(name, count=None):
        nonlocal _t
        if stats is not None:
            now = _time.perf_counter()
            stats[name + "_s"] = round(now - _t, 2)
            if count is not None:
                stats[name + "_rows"] = int(count)
            _t = now

    bags = _bag_tables(ds, content_col).materialize()
    _mark("bags", bags.count())

    # --- identical-bag families: rep = min doc_id per bag_key ---
    def add_fpart(batch: pa.Table) -> pa.Table:
        bk = batch["bag_key"].to_numpy(zero_copy_only=False).astype(
            np.uint64)
        part = (splitmix64(bk) % np.uint64(P)).astype(np.int32)
        return batch.append_column("fpart", pa.array(part, pa.int32()))

    def fam_partition(g: pa.Table) -> pa.Table:
        bk = g["bag_key"].to_numpy(zero_copy_only=False)
        di = g["doc_id"].to_numpy(zero_copy_only=False)
        if not len(bk):
            return pa.table({
                "rep_id": pa.array([], pa.int64()),
                "doc_id": pa.array([], pa.int64()),
                "key": pa.array([], pa.string()),
                "len": pa.array([], pa.int64()),
                "fam_m": pa.array([], pa.int64()),
            })
        order, starts, counts = sorted_runs(bk, di, run_keys=1)
        di_s = di[order]
        reps = np.repeat(di_s[starts], counts)
        fam_m = np.repeat(counts.astype(np.int64), counts)
        idx = pa.array(order, pa.int64())
        return pa.table({
            "rep_id": pa.array(reps, pa.int64()),
            "doc_id": pa.array(di_s, pa.int64()),
            "key": g["key"].take(idx),
            "len": g["len"].take(idx),
            "fam_m": pa.array(fam_m, pa.int64()),
        })

    families = (
        bags.select_columns(["bag_key", "doc_id", "key", "len"])
        .map_batches(add_fpart, batch_format="pyarrow", batch_size=None)
        .groupby("fpart")
        .map_groups(fam_partition, batch_format="pyarrow")
        .materialize()
    )
    _mark("families")

    # rep id set (byte-bound: ids only, distinct per block)
    rep_parts = [
        b["rep_id"].to_numpy(zero_copy_only=False)
        for b in families.map_batches(
            lambda b: pa.table({"rep_id": pa.array(
                np.unique(b["rep_id"].to_numpy(zero_copy_only=False)),
                pa.int64())}),
            batch_format="pyarrow", batch_size=None,
        ).iter_batches(batch_format="pyarrow", batch_size=None)
        if b.num_rows
    ]
    rep_ids = (
        np.unique(np.concatenate(rep_parts))
        if rep_parts else np.empty(0, np.int64)
    )
    rep_ids_ref = ray.put(rep_ids)

    def only_ids(batch: pa.Table, ids_ref) -> pa.Table:
        ids = ray.get(ids_ref)
        if not len(ids):
            return batch.slice(0, 0)
        v = batch["doc_id"].to_numpy(zero_copy_only=False)
        pos = np.searchsorted(ids, v)
        pos[pos == len(ids)] = len(ids) - 1
        return batch.filter(pa.array(ids[pos] == v))

    rep_bags = bags.map_batches(
        only_ids, fn_kwargs={"ids_ref": rep_ids_ref},
        batch_format="pyarrow", batch_size=None,
    ).materialize()
    _mark("rep_bags", len(rep_ids))

    # --- document-frequency census -> broadcast rarity order ---
    def df_partial(batch: pa.Table) -> pa.Table:
        flat = batch["toks"].combine_chunks().flatten()
        toks, cnt = np.unique(
            flat.to_numpy(zero_copy_only=False), return_counts=True)
        return pa.table({
            "token": pa.array(toks, pa.string()),
            "df": pa.array(cnt.astype(np.int64), pa.int64()),
        })

    df_tab = (
        rep_bags.map_batches(df_partial, batch_format="pyarrow",
                             batch_size=None)
        .groupby("token").aggregate(Sum("df", alias_name="df"))
        .to_pandas()  # vocabulary-sized: the broadcast small side
    )
    if df_tab.empty:  # tokenless corpus: no vocabulary, no pairs
        df_tab = pd.DataFrame({"token": pd.Series([], dtype=object),
                               "df": pd.Series([], dtype="int64")})
    df_tab = df_tab.sort_values(["df", "token"]).reset_index(drop=True)
    df_tab["rank"] = np.arange(len(df_tab), dtype=np.int64)
    by_tok = df_tab.sort_values("token")
    rank_ref = ray.put((
        by_tok["token"].to_numpy(),
        by_tok["rank"].to_numpy(),
    ))
    _mark("df_census", len(df_tab))

    def _ranks_of(flat: np.ndarray) -> np.ndarray:
        tok_sorted, rank_arr = ray.get(rank_ref)
        return rank_arr[np.searchsorted(tok_sorted, flat)]

    # --- prefix index rows (prank, doc_id, len) over reps ---
    def prefix_rows(batch: pa.Table) -> pa.Table:
        la = batch["toks"].combine_chunks()
        lengths = pc.list_value_length(la).to_numpy().astype(np.int64)
        flat = la.flatten().to_numpy(zero_copy_only=False)
        if not len(flat):
            return pa.table({
                "prank": pa.array([], pa.int64()),
                "part": pa.array([], pa.int32()),
                "doc_id": pa.array([], pa.int64()),
                "len": pa.array([], pa.int64()),
                "pos": pa.array([], pa.int64()),
            })
        ranks = _ranks_of(flat)
        cnts = batch["cnts"].combine_chunks().flatten().to_numpy(
            zero_copy_only=False).astype(np.int64)
        fidx = np.repeat(np.arange(len(lengths)), lengths)
        lens = batch["len"].to_numpy(zero_copy_only=False)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        p = lens - ((num * lens + den - 1) // den) + 1
        order, starts, seg_len = sorted_runs(fidx, ranks, run_keys=1)
        r_s, c_s, f_s = ranks[order], cnts[order], fidx[order]
        cum = np.cumsum(c_s)
        seg_base = np.repeat(cum[starts] - c_s[starts], seg_len)
        prev_in_file = (cum - c_s) - seg_base
        mask = prev_in_file < p[f_s]
        pr = r_s[mask]
        part = (splitmix64(pr.astype(np.uint64)) % np.uint64(P)).astype(
            np.int32)
        return pa.table({
            "prank": pa.array(pr, pa.int64()),
            "part": pa.array(part, pa.int32()),
            "doc_id": pa.array(ids[f_s[mask]], pa.int64()),
            "len": pa.array(lens[f_s[mask]], pa.int64()),
            # occurrence index of this token's first copy in the
            # file's rarity-ordered bag — feeds the ppjoin positional
            # upper bound in the pairing stage
            "pos": pa.array(prev_in_file[mask], pa.int64()),
        })

    _EMPTY_PAIRS = pa.table({
        "doc_a": pa.array([], pa.int64()),
        "doc_b": pa.array([], pa.int64()),
    })
    _EMPTY_BLOBS = pa.table({
        "pair_part": pa.array([], pa.int32()),
        "blob": pa.array([], pa.large_binary()),
    })

    # --- candidate pairs per shared prefix token: length-windowed
    # generation (never materialize a length-infeasible pair) + the
    # exact ppjoin positional upper bound.  Output is PACKED: one
    # binary blob per (task, pair_part) holding the task's candidate
    # (a, b) arrays for that dedup partition — the dedup exchange
    # ships the same bytes as row form but Ray's sort shuffle pays per
    # ROW, and at ~10^8 raw candidates per 200k files the row form
    # dominated the stage (the CLAUDE.md blob-exchange lesson) ---
    def partition_pairs(g: pa.Table) -> pa.Table:
        pr = g["prank"].to_numpy(zero_copy_only=False)
        di = g["doc_id"].to_numpy(zero_copy_only=False)
        ln = g["len"].to_numpy(zero_copy_only=False)
        po = g["pos"].to_numpy(zero_copy_only=False)
        if not len(pr):
            return _EMPTY_BLOBS
        order, starts, counts = sorted_runs(pr, ln, di, run_keys=1)
        di, ln, po = di[order], ln[order], po[order]
        out_a, out_b = [], []
        budget = max_pairs_per_task
        for s, c in zip(starts[counts >= 2], counts[counts >= 2]):
            l = ln[s:s + c]
            d = di[s:s + c]
            p = po[s:s + c]
            # sorted by len asc: for row i, feasible partners j > i
            # have num*l[j] <= den*l[i] (length filter, exact)
            hi = np.searchsorted(l, (den * l) // num, side="right")
            cnt = np.clip(hi - np.arange(c) - 1, 0, None)
            total = int(cnt.sum())
            if budget is not None:
                budget -= total
                if budget < 0:
                    raise RuntimeError(
                        "token_bag_clones pairing task exceeded "
                        f"max_pairs_per_task={max_pairs_per_task} "
                        f"(prefix bucket of {c} distinct bags, {total} "
                        "length-feasible pairs); raise the guard or "
                        "tighten the threshold"
                    )
            if not total:
                continue
            ii = np.repeat(np.arange(c), cnt)
            jj = (np.arange(total)
                  - np.repeat(np.cumsum(cnt) - cnt, cnt)
                  + ii + 1)
            la_, lb_ = l[ii], l[jj]
            pa_, pb_ = p[ii], p[jj]
            # ppjoin positional bound: overlap before the shared token
            # <= min(pos); at-and-after <= min(remaining).  For the
            # FIRST common token of a qualifying pair the before-part
            # is 0, so the bound holds there — pruning any one bucket's
            # copy never loses the pair
            alpha = -((-num * lb_) // den)  # ceil(num*max/den), lb>=la
            ub = np.minimum(pa_, pb_) + np.minimum(la_ - pa_, lb_ - pb_)
            keep = ub >= alpha
            out_a.append(d[ii[keep]])
            out_b.append(d[jj[keep]])
        if not out_a:
            return _EMPTY_BLOBS
        A = np.concatenate(out_a)
        B = np.concatenate(out_b)
        if not len(A):  # every feasible pair position-pruned
            return _EMPTY_BLOBS
        A, B = np.minimum(A, B), np.maximum(A, B)
        o, keep, _ = sorted_runs(A, B)
        A, B = A[o[keep]], B[o[keep]]
        # pack per dedup partition: one blob = a-halves then b-halves
        part = (
            splitmix64(A.astype(np.uint64) * np.uint64(3)
                       + B.astype(np.uint64)) % np.uint64(P)
        ).astype(np.int32)
        po_, pstarts, pcounts = sorted_runs(part)
        A, B, part = A[po_], B[po_], part[po_]
        blobs = [
            A[s:s + c].astype("<i8").tobytes()
            + B[s:s + c].astype("<i8").tobytes()
            for s, c in zip(pstarts, pcounts)
        ]
        return pa.table({
            "pair_part": pa.array(part[pstarts], pa.int32()),
            "blob": pa.array(blobs, pa.large_binary()),
        })

    candidate_blobs = (
        rep_bags.map_batches(prefix_rows, batch_format="pyarrow",
                             batch_size=None)
        .groupby("part")
        .map_groups(partition_pairs, batch_format="pyarrow")
        .materialize()
    )
    _mark("candidates")

    def _unpack(blob) -> tuple[np.ndarray, np.ndarray]:
        v = np.frombuffer(blob, dtype="<i8")
        h = len(v) // 2
        return v[:h], v[h:]

    # --- global pair dedup (blob-bound exchange, per-partition merge)
    def dedup_pairs(g: pa.Table) -> pa.Table:
        blobs = g["blob"].to_pylist()
        if not blobs:
            return _EMPTY_PAIRS
        parts = [_unpack(b) for b in blobs]
        A = np.concatenate([p[0] for p in parts])
        B = np.concatenate([p[1] for p in parts])
        o, keep, _ = sorted_runs(A, B)
        return pa.table({
            "doc_a": pa.array(A[o[keep]], pa.int64()),
            "doc_b": pa.array(B[o[keep]], pa.int64()),
        })

    distinct_pairs = (
        candidate_blobs
        .groupby("pair_part")
        .map_groups(dedup_pairs, batch_format="pyarrow")
        .materialize()
    )
    _mark("pair_dedup", distinct_pairs.count())

    # --- semi-join pushdown: rank-encoded bags of candidate reps ---
    def _block_ids(b: pa.Table) -> pa.Table:
        ids = np.unique(np.concatenate([
            b["doc_a"].to_numpy(zero_copy_only=False),
            b["doc_b"].to_numpy(zero_copy_only=False),
        ])) if b.num_rows else np.empty(0, np.int64)
        return pa.table({"id": pa.array(ids, pa.int64())})

    id_parts = [
        b["id"].to_numpy(zero_copy_only=False)
        for b in distinct_pairs.map_batches(
            _block_ids, batch_format="pyarrow", batch_size=None
        ).iter_batches(batch_format="pyarrow", batch_size=None)
        if b.num_rows
    ]
    cand_ids = (
        np.unique(np.concatenate(id_parts))
        if id_parts else np.empty(0, np.int64)
    )
    cand_ids_ref = ray.put(cand_ids)

    def cand_bags(batch: pa.Table) -> pa.Table:
        t = only_ids(batch, cand_ids_ref)
        empty = pa.table({
            "doc_id": pa.array([], pa.int64()),
            "len": pa.array([], pa.int64()),
            "rids": pa.ListArray.from_arrays(
                pa.array([0], pa.int32()), pa.array([], pa.int64())),
            "rcnt": pa.ListArray.from_arrays(
                pa.array([0], pa.int32()), pa.array([], pa.int64())),
        }).slice(0, 0)
        if not t.num_rows:
            return empty
        la = t["toks"].combine_chunks()
        lengths = pc.list_value_length(la).to_numpy().astype(np.int64)
        flat = la.flatten().to_numpy(zero_copy_only=False)
        ranks = _ranks_of(flat) if len(flat) else np.empty(0, np.int64)
        cnts = t["cnts"].combine_chunks().flatten().to_numpy(
            zero_copy_only=False).astype(np.int64)
        fidx = np.repeat(np.arange(len(lengths)), lengths)
        order = np.lexsort((ranks, fidx))
        offsets = np.zeros(len(lengths) + 1, dtype=np.int32)
        np.cumsum(lengths, out=offsets[1:])
        return pa.table({
            "doc_id": t["doc_id"],
            "len": t["len"],
            "rids": pa.ListArray.from_arrays(
                pa.array(offsets), pa.array(ranks[order], pa.int64())),
            "rcnt": pa.ListArray.from_arrays(
                pa.array(offsets), pa.array(cnts[order], pa.int64())),
        })

    bag_refs = rep_bags.map_batches(
        cand_bags, batch_format="pyarrow", batch_size=None
    ).materialize().to_arrow_refs()
    sizes = ray.get([_tab_nbytes.remote(r) for r in bag_refs])
    # past the plasma budget the verify falls back to two bucketed
    # hash joins that attach each side's bag to the pair rows — the
    # MinHash path's automatic switch (text_dedup.py verify_lookup /
    # hash_join), per-task memory bucket-bound instead of
    # lookup-bound, identical pair set (pytest-forced-budget pinned)
    use_lookup = sum(sizes) <= _VERIFY_LOOKUP_BUDGET
    lookup_ref = (
        _concat_sorted_by_id.remote(*bag_refs) if use_lookup else None)
    _mark("bag_lookup", len(cand_ids))

    _EMPTY_REP_PAIRS = pa.table({
        "id_a": pa.array([], pa.int64()),
        "id_b": pa.array([], pa.int64()),
        "overlap": pa.array([], pa.int64()),
        "sim": pa.array([], pa.float64()),
    })

    def _flat_gather(pos, roff):
        """Flat gather indices for a batch of bag slices: for each
        pair row, the positions of its doc's full bag in the lookup's
        flat value arrays, plus the per-row pair ids."""
        ln = roff[pos + 1] - roff[pos]
        tot = int(ln.sum())
        base = np.repeat(np.cumsum(ln) - ln, ln)
        flat = np.arange(tot) - base + np.repeat(roff[pos], ln)
        pid = np.repeat(np.arange(len(pos), dtype=np.uint64), ln)
        return flat, pid

    def verify(batch: pa.Table) -> pa.Table:
        # one vectorized pass per pair block: gather BOTH sides' bags
        # tagged (pair_id << 32 | rank), intersect once, segment-sum
        # the min counts — no per-pair python loop (61.7 -> 3.7 s on
        # the 200k smoke's ~18M-candidate verify)
        if not batch.num_rows:
            return _EMPTY_REP_PAIRS
        lut = ray.get(lookup_ref)
        ids = lut["doc_id"].to_numpy(zero_copy_only=False)
        lens = lut["len"].to_numpy(zero_copy_only=False)
        rids = lut["rids"].combine_chunks()
        rcnt = lut["rcnt"].combine_chunks()
        roff = rids.offsets.to_numpy(zero_copy_only=False).astype(
            np.int64)
        rval = rids.values.to_numpy(zero_copy_only=False).astype(
            np.uint64)
        cval = rcnt.values.to_numpy(zero_copy_only=False)
        if len(rval) and int(rval.max()) >= (1 << 32):
            raise RuntimeError(
                "token rank space exceeds 2^32 — widen the verify "
                "pair-id/rank packing"
            )
        da = batch["doc_a"].to_numpy(zero_copy_only=False)
        db = batch["doc_b"].to_numpy(zero_copy_only=False)
        pa_ = np.searchsorted(ids, da)
        pb_ = np.searchsorted(ids, db)
        flat_a, pid_a = _flat_gather(pa_, roff)
        flat_b, pid_b = _flat_gather(pb_, roff)
        key_a = (pid_a << np.uint64(32)) | rval[flat_a]
        key_b = (pid_b << np.uint64(32)) | rval[flat_b]
        # both key arrays are ALREADY sorted (pairs in row order, bag
        # ranks ascending within each doc) — a searchsorted merge
        # avoids intersect1d's full re-sort of the concatenation
        pos = np.searchsorted(key_b, key_a)
        pos_c = np.minimum(pos, max(len(key_b) - 1, 0))
        hit = (key_b[pos_c] == key_a) if len(key_b) else np.zeros(
            len(key_a), dtype=bool)
        xa = np.flatnonzero(hit)
        if not len(xa):
            return _EMPTY_REP_PAIRS
        xb = pos[xa]
        mins = np.minimum(cval[flat_a[xa]], cval[flat_b[xb]])
        pid = (key_a[xa] >> np.uint64(32)).astype(np.int64)
        starts = run_starts(pid)
        ov = np.add.reduceat(mins, starts)
        rows = pid[starts]
        mx = np.maximum(lens[pa_[rows]], lens[pb_[rows]])
        keep = den * ov >= num * mx
        rows, ov, mx = rows[keep], ov[keep], mx[keep]
        return pa.table({
            "id_a": pa.array(da[rows], pa.int64()),
            "id_b": pa.array(db[rows], pa.int64()),
            "overlap": pa.array(ov, pa.int64()),
            # raw int/int division — bit-identical to the oracle's
            "sim": pa.array(ov / mx, pa.float64()),
        })

    def verify_joined(df) -> pa.Table:
        # bucketed-join fallback verify: bags arrive as per-row list
        # columns; the keyed searchsorted merge is the same as the
        # lookup path's (both sides' rank lists are ascending within
        # each row, so the packed keys are globally sorted)
        n = len(df)
        if not n:
            return _EMPTY_REP_PAIRS
        da = df["doc_a"].to_numpy().astype(np.int64)
        db = df["doc_b"].to_numpy().astype(np.int64)
        la = df["len_a"].to_numpy().astype(np.int64)
        lb = df["len_b"].to_numpy().astype(np.int64)

        def _flat(col_r, col_c):
            rl = [np.asarray(x, np.uint64) for x in col_r]
            cl = [np.asarray(x, np.int64) for x in col_c]
            ln = np.fromiter(map(len, rl), np.int64, n)
            flat = (np.concatenate(rl) if int(ln.sum())
                    else np.empty(0, np.uint64))
            cnts = (np.concatenate(cl) if int(ln.sum())
                    else np.empty(0, np.int64))
            pid = np.repeat(np.arange(n, dtype=np.uint64), ln)
            return (pid << np.uint64(32)) | flat, cnts

        key_a, cval_a = _flat(df["rids_a"], df["rcnt_a"])
        key_b, cval_b = _flat(df["rids_b"], df["rcnt_b"])
        pos = np.searchsorted(key_b, key_a)
        pos_c = np.minimum(pos, max(len(key_b) - 1, 0))
        hit = (key_b[pos_c] == key_a) if len(key_b) else np.zeros(
            len(key_a), dtype=bool)
        xa = np.flatnonzero(hit)
        if not len(xa):
            return _EMPTY_REP_PAIRS
        xb = pos[xa]
        mins = np.minimum(cval_a[xa], cval_b[xb])
        pid = (key_a[xa] >> np.uint64(32)).astype(np.int64)
        starts = run_starts(pid)
        ov = np.add.reduceat(mins, starts)
        rows = pid[starts]
        mx = np.maximum(la[rows], lb[rows])
        keep = den * ov >= num * mx
        rows, ov, mx = rows[keep], ov[keep], mx[keep]
        return pa.table({
            "id_a": pa.array(da[rows], pa.int64()),
            "id_b": pa.array(db[rows], pa.int64()),
            "overlap": pa.array(ov, pa.int64()),
            "sim": pa.array(ov / mx, pa.float64()),
        })

    if use_lookup:
        # bounded batches: each verify call holds ~2 * batch * avg_bag
        # uint64 gathers in memory
        rep_pairs = distinct_pairs.map_batches(
            verify, batch_format="pyarrow", batch_size=65536)
    else:
        from clonebas_ray.ops.relational import hash_join

        bags_ds = ray.data.from_arrow_refs(list(bag_refs))

        def _as_side(suffix):
            def rn(t: pa.Table) -> pa.Table:
                return t.rename_columns(
                    ["doc_id", f"len_{suffix}", f"rids_{suffix}",
                     f"rcnt_{suffix}"])
            return bags_ds.map_batches(
                rn, batch_format="pyarrow", batch_size=None)

        with_a = hash_join(
            distinct_pairs, _as_side("a"), "doc_a", "doc_id",
            left_cols=["doc_a", "doc_b"],
            right_cols=["doc_id", "len_a", "rids_a", "rcnt_a"],
            left_dtypes={"doc_a": "int64", "doc_b": "int64"},
            right_dtypes={"doc_id": "int64", "len_a": "int64"},
        )
        with_b = hash_join(
            with_a, _as_side("b"), "doc_b", "doc_id",
            left_cols=["doc_a", "doc_b", "len_a", "rids_a", "rcnt_a"],
            right_cols=["doc_id", "len_b", "rids_b", "rcnt_b"],
            left_dtypes={"doc_a": "int64", "doc_b": "int64",
                         "len_a": "int64"},
            right_dtypes={"doc_id": "int64", "len_b": "int64"},
        )
        rep_pairs = with_b.map_batches(
            verify_joined, batch_format="pandas", batch_size=65536)

    return rep_pairs, families


def token_bag_clones(
    ds: ray.data.Dataset,
    threshold: tuple[int, int] = (7, 10),
    content_col: str = "content",
    max_pairs_per_task: int | None = 5_000_000,
    stats: dict | None = None,
) -> ray.data.Dataset:
    """EXACT token-bag overlap clone pairs (SourcererCC, Sajnani et
    al. ICSE 2016): a pair of files is a clone iff ``den * overlap >=
    num * max(len_a, len_b)`` where ``overlap = sum_t min(cnt_a(t),
    cnt_b(t))`` over identifier/number tokens and ``len`` is the total
    token count — threshold as an integer rational ``(num, den)`` so
    the gate has no float convention at all.  Unlike the MinHash path
    this is an exact similarity JOIN: recall and precision are 1.0 by
    construction, verified against a full O(n^2) SQL token self-join.

    Scale shape (the published prefix-filter scheme plus the
    identical-bag collapse, never all-pairs):

    1. one content pass builds per-file bags with a multiset hash
       ``bag_key`` (byte-bound; content never read again);
    2. files with an IDENTICAL bag collapse to one representative
       (min doc_id) per family — exact, because an identical bag has
       identical overlap/len against every other file, so rep-level
       results transfer verbatim to every member.  A 10^4-copy
       boilerplate family costs ONE row in every downstream stage
       instead of 10^8 intra-bucket candidates (the MinHash
       ``sig_groups`` lesson, reapplied);
    3. a document-frequency census over the REP bags (block partials
       -> vocabulary-sized groupby) gives the global rarity order
       ``(df asc, token asc)``, broadcast once via ``ray.put`` (at
       10^12-file scale ship it as a hash-partitioned annotate join
       instead — the order only has to be CONSISTENT, any total order
       keeps the filter lossless);
    4. each rep indexes only the DISTINCT tokens among its first
       ``len - ceil(num*len/den) + 1`` rarity-ordered token
       OCCURRENCES (the pigeonhole prefix: any qualifying pair shares
       a prefix token), grouped into ``auto_partitions()`` hash
       partitions and paired with the lexsort run-boundary transform;
       a ``den*min_len >= num*max_len`` length filter prunes inside
       each bucket (exact — overlap can never exceed the shorter
       bag);
    5. pair dedup (the same pair surfaces from many shared prefix
       tokens) via bucketed lexsort, then exact verification against
       a plasma-shared rank-encoded bag lookup of ONLY candidate reps
       (the MinHash semi-join-pushdown pattern; bags are ~tokens-
       sized, far smaller than the text they summarize);
    6. verified rep pairs expand to member pairs through a
       plasma-shared family-membership lookup (within-family pairs
       are the rep self-pair with ``overlap = len``, ``sim = 1.0``) —
       the expansion is the true output size, which the pair-list
       semantics makes unavoidable.

    Returns ``(key_a, key_b, overlap, len_a, len_b, sim)`` with
    ``key = repo || '/' || path``, ``key_a < key_b``
    lexicographically, ``sim = overlap / max(len_a, len_b)`` (int/int
    division, oracle-bit-identical).  Reference anchor: the SimHash
    candidate join this complements is SimHasher.cpp:149-192.
    """
    ensure_worker_importable()
    from clonebas_ray.ops.text_dedup import (
        _VERIFY_LOOKUP_BUDGET,
        _tab_nbytes,
    )

    rep_pairs, families = _token_bag_rep_pairs(
        ds, threshold, content_col, max_pairs_per_task, stats)

    # --- self-pairs: families with >= 2 members expand to sim-1.0
    # member pairs (overlap = len); len-0 bags share no token, so the
    # exact join excludes them ---
    def self_pairs(batch: pa.Table) -> pa.Table:
        m = batch["fam_m"].to_numpy(zero_copy_only=False)
        d = batch["doc_id"].to_numpy(zero_copy_only=False)
        r = batch["rep_id"].to_numpy(zero_copy_only=False)
        ln = batch["len"].to_numpy(zero_copy_only=False)
        sel = (d == r) & (m >= 2) & (ln > 0)
        return pa.table({
            "id_a": pa.array(r[sel], pa.int64()),
            "id_b": pa.array(r[sel], pa.int64()),
            "overlap": pa.array(ln[sel], pa.int64()),
            "sim": pa.array(np.ones(int(sel.sum())), pa.float64()),
        })

    verified = rep_pairs.union(
        families.map_batches(
            self_pairs, batch_format="pyarrow", batch_size=None)
    )

    # --- expansion: rep-level results transfer verbatim to members ---
    fam_refs = families.select_columns(
        ["rep_id", "key", "len"]).to_arrow_refs()
    fam_sizes = ray.get([_tab_nbytes.remote(r) for r in fam_refs])

    _EMPTY_OUT = pa.table({
        "key_a": pa.array([], pa.string()),
        "key_b": pa.array([], pa.string()),
        "overlap": pa.array([], pa.int64()),
        "len_a": pa.array([], pa.int64()),
        "len_b": pa.array([], pa.int64()),
        "sim": pa.array([], pa.float64()),
    })

    if sum(fam_sizes) > _VERIFY_LOOKUP_BUDGET:
        # past the plasma budget the expansion runs as two bucketed
        # hash joins on rep_id (the documented fallback, now code):
        # each join multiplies pair rows by that side's family size,
        # so the cartesian materializes inside buckets, never on one
        # node.  Within-family rows (id_a == id_b) arrive as the full
        # m^2 member cross product — keeping key_a < key_b leaves
        # exactly the triu pairs the lookup path emits.
        from clonebas_ray.ops.relational import hash_join

        fams_ds = ray.data.from_arrow_refs(list(fam_refs))

        def _fam_side(suffix):
            def rn(t: pa.Table) -> pa.Table:
                return t.rename_columns(
                    ["rep_id", f"key_{suffix}", f"len_{suffix}"])
            return fams_ds.map_batches(
                rn, batch_format="pyarrow", batch_size=None)

        ja = hash_join(
            verified, _fam_side("a"), "id_a", "rep_id",
            left_cols=["id_a", "id_b", "overlap", "sim"],
            right_cols=["rep_id", "key_a", "len_a"],
            left_dtypes={"id_a": "int64", "id_b": "int64",
                         "overlap": "int64", "sim": "float64"},
            right_dtypes={"rep_id": "int64", "len_a": "int64"},
        )
        jb = hash_join(
            ja, _fam_side("b"), "id_b", "rep_id",
            left_cols=["id_a", "id_b", "overlap", "sim", "key_a",
                       "len_a"],
            right_cols=["rep_id", "key_b", "len_b"],
            left_dtypes={"id_a": "int64", "id_b": "int64",
                         "overlap": "int64", "sim": "float64",
                         "len_a": "int64"},
            right_dtypes={"rep_id": "int64", "len_b": "int64"},
        )

        def finish(df) -> pa.Table:
            if not len(df):
                return _EMPTY_OUT
            same = (df["id_a"].to_numpy().astype(np.int64)
                    == df["id_b"].to_numpy().astype(np.int64))
            ka = df["key_a"].to_numpy()
            kb = df["key_b"].to_numpy()
            keep = (~same) | (ka < kb)
            if not keep.any():
                return _EMPTY_OUT
            ka, kb = ka[keep], kb[keep]
            la = df["len_a"].to_numpy().astype(np.int64)[keep]
            lb = df["len_b"].to_numpy().astype(np.int64)[keep]
            ov = df["overlap"].to_numpy().astype(np.int64)[keep]
            sm = df["sim"].to_numpy().astype(np.float64)[keep]
            swap = kb < ka
            return pa.table({
                "key_a": pa.array(np.where(swap, kb, ka), pa.string()),
                "key_b": pa.array(np.where(swap, ka, kb), pa.string()),
                "overlap": pa.array(ov, pa.int64()),
                "len_a": pa.array(
                    np.where(swap, lb, la).astype(np.int64)),
                "len_b": pa.array(
                    np.where(swap, la, lb).astype(np.int64)),
                "sim": pa.array(sm, pa.float64()),
            })

        return jb.map_batches(finish, batch_format="pandas")

    fam_ref = _fam_lookup.remote(*fam_refs)

    def expand(batch: pa.Table) -> pa.Table:
        if not batch.num_rows:
            return _EMPTY_OUT
        lut = ray.get(fam_ref)
        rid = lut["rep_id"].to_numpy(zero_copy_only=False)
        keys = lut["key"].to_numpy(zero_copy_only=False)
        lens = lut["len"].to_numpy(zero_copy_only=False)
        ida = batch["id_a"].to_numpy(zero_copy_only=False)
        idb = batch["id_b"].to_numpy(zero_copy_only=False)
        ovs = batch["overlap"].to_numpy(zero_copy_only=False)
        sims = batch["sim"].to_numpy(zero_copy_only=False)
        a_lo = np.searchsorted(rid, ida, side="left")
        a_hi = np.searchsorted(rid, ida, side="right")
        b_lo = np.searchsorted(rid, idb, side="left")
        b_hi = np.searchsorted(rid, idb, side="right")
        na = a_hi - a_lo
        nb = b_hi - b_lo
        ka_out, kb_out, ov_out, la_out, lb_out, sim_out = (
            [], [], [], [], [], [])
        # cross-family rows: one vectorized cartesian unranking
        cross = np.flatnonzero(ida != idb)
        if len(cross):
            cnt = na[cross] * nb[cross]
            tot = int(cnt.sum())
            rr = np.repeat(cross, cnt)
            k = np.arange(tot) - np.repeat(np.cumsum(cnt) - cnt, cnt)
            nb_r = nb[rr]
            ka = keys[a_lo[rr] + k // nb_r]
            kb = keys[b_lo[rr] + k % nb_r]
            la = lens[a_lo[rr]]
            lb = lens[b_lo[rr]]
            swap = kb < ka
            ka_out.append(np.where(swap, kb, ka))
            kb_out.append(np.where(swap, ka, kb))
            la_out.append(np.where(swap, lb, la).astype(np.int64))
            lb_out.append(np.where(swap, la, lb).astype(np.int64))
            ov_out.append(ovs[rr].astype(np.int64))
            sim_out.append(sims[rr])
        # within-family rows: python loop per FAMILY only (the member
        # pairs inside each are one triu call)
        for r in np.flatnonzero(ida == idb):
            A = keys[a_lo[r]:a_hi[r]]  # key-sorted within family
            ln = int(lens[a_lo[r]])
            x, y = np.triu_indices(len(A), k=1)
            n_p = len(x)
            ka_out.append(A[x])
            kb_out.append(A[y])
            la_out.append(np.full(n_p, ln, np.int64))
            lb_out.append(np.full(n_p, ln, np.int64))
            ov_out.append(np.full(n_p, int(ovs[r]), np.int64))
            sim_out.append(np.full(n_p, float(sims[r]), np.float64))
        if not ka_out:
            return _EMPTY_OUT
        return pa.table({
            "key_a": pa.array(np.concatenate(ka_out), pa.string()),
            "key_b": pa.array(np.concatenate(kb_out), pa.string()),
            "overlap": pa.array(np.concatenate(ov_out), pa.int64()),
            "len_a": pa.array(np.concatenate(la_out), pa.int64()),
            "len_b": pa.array(np.concatenate(lb_out), pa.int64()),
            "sim": pa.array(np.concatenate(sim_out), pa.float64()),
        })

    return verified.map_batches(
        expand, batch_format="pyarrow", batch_size=None)


def token_bag_clusters(
    ds: ray.data.Dataset,
    threshold: tuple[int, int] = (7, 10),
    content_col: str = "content",
    max_pairs_per_task: int | None = 5_000_000,
    stats: dict | None = None,
) -> ray.data.Dataset:
    """Connected-component clusters over the EXACT SourcererCC join —
    the corpus-scale entry point: cluster volume is linear in the
    near-dup docs where the pair list (:func:`token_bag_clones`) is
    quadratic in every dup family.  Edges = verified DISTINCT-bag rep
    pairs ∪ family star edges (rep -> member, similarity 1 by
    identical bags); the streamed driver union-find keeps memory
    O(near-dup docs), never O(pairs).  Returns ``(key, doc_id,
    cluster_id)`` with ``cluster_id`` = smallest member doc_id — the
    canonical label a recursive-CTE min-label SQL closure reproduces
    exactly (``doc_id = md5_low64(repo || '/' || path) % 2^63``).
    """
    ensure_worker_importable()
    from clonebas_ray.functions.kernels import stream_min_labels

    rep_pairs, families = _token_bag_rep_pairs(
        ds, threshold, content_col, max_pairs_per_task, stats)

    def star_edges(batch: pa.Table) -> pa.Table:
        d = batch["doc_id"].to_numpy(zero_copy_only=False)
        r = batch["rep_id"].to_numpy(zero_copy_only=False)
        ln = batch["len"].to_numpy(zero_copy_only=False)
        sel = (d != r) & (ln > 0)  # len-0 bags share no token: no edge
        return pa.table({
            "id_a": pa.array(r[sel], pa.int64()),
            "id_b": pa.array(d[sel], pa.int64()),
        })

    edges = families.map_batches(
        star_edges, batch_format="pyarrow", batch_size=None)
    assign = stream_min_labels(
        [rep_pairs.select_columns(["id_a", "id_b"]), edges],
        cols=("id_a", "id_b"),
    )
    uf_ids = assign["doc_id"].to_numpy(zero_copy_only=False)
    uf_lbl = assign["cluster_id"].to_numpy(zero_copy_only=False)
    uf_ref = ray.put((uf_ids, uf_lbl))

    def label_members(batch: pa.Table) -> pa.Table:
        ids_s, lbl_s = ray.get(uf_ref)
        v = batch["doc_id"].to_numpy(zero_copy_only=False)
        if not len(ids_s):
            sel = np.zeros(len(v), dtype=bool)
            pos = np.zeros(len(v), dtype=np.int64)
        else:
            pos = np.searchsorted(ids_s, v)
            pos_c = np.minimum(pos, len(ids_s) - 1)
            sel = ids_s[pos_c] == v
            pos = pos_c
        t = batch.filter(pa.array(sel))
        return pa.table({
            "key": t["key"],
            "doc_id": t["doc_id"],
            "cluster_id": pa.array(lbl_s[pos[sel]], pa.int64()),
        })

    return families.select_columns(["doc_id", "key"]).map_batches(
        label_members, batch_format="pyarrow", batch_size=None)


def repo_fork_dedup(
    ds: ray.data.Dataset,
    repo_col: str = "repo",
    content_col: str = "content",
    min_jaccard: float = 0.5,
    max_df: int = 20,
) -> ray.data.Dataset:
    """The keep-one-repo-per-fork-cluster ACTION over
    :func:`repo_fork_detect` (The Stack drops forks before file-level
    dedup): connected components over the fork-pair graph, winner =
    the repo with the most files (tie: lexicographically smallest
    name).  Returns the per-REPO decision table ``(repo, n_files,
    cluster, keep)`` — ``cluster`` is the lexicographically smallest
    member repo (its own name for unclustered repos), ``keep = 1``
    iff the repo is its cluster's winner.  O(repos) rows: the file-
    level filter is a broadcast semi-join the caller composes (repos
    ≪ files, so the decision table IS the broadcast small side; the
    heavy work — sha-bucketed pair detection — never leaves
    :func:`repo_fork_detect`'s partitioned exchange).
    """
    ensure_worker_importable()

    pairs = repo_fork_detect(
        ds, repo_col=repo_col, content_col=content_col,
        min_jaccard=min_jaccard, max_df=max_df,
    ).select_columns(["repo_a", "repo_b"])

    # per-repo file counts: byte-bound per-block partials -> driver
    # merge (O(repos) rows, the documented broadcast-small-side shape)
    def count_partial(batch: pa.Table) -> pa.Table:
        vc = pc.value_counts(batch[repo_col].combine_chunks())
        return pa.table({
            "repo": vc.field("values"),
            "n": vc.field("counts").cast(pa.int64()),
        })

    counts: dict[str, int] = {}
    for b in ds.select_columns([repo_col]).map_batches(
        count_partial, batch_format="pyarrow", batch_size=None
    ).iter_batches(batch_format="pyarrow", batch_size=None):
        for r, n in zip(b["repo"].to_pylist(), b["n"].to_pylist()):
            counts[r] = counts.get(r, 0) + n

    # string union-find over fork pairs (pairs are O(repos), streamed)
    roots = union_find(
        (b["repo_a"].to_pylist(), b["repo_b"].to_pylist())
        for b in pairs.iter_batches(batch_format="pyarrow",
                                    batch_size=65536)
    )
    repos = sorted(counts)
    cluster = [roots.get(r, r) for r in repos]
    # winner per cluster: most files, tie -> smallest repo name
    best: dict[str, str] = {}
    for r, cl in zip(repos, cluster):
        w = best.get(cl)
        if w is None or counts[r] > counts[w] or (
            counts[r] == counts[w] and r < w
        ):
            best[cl] = r
    return ray.data.from_arrow(pa.table({
        "repo": pa.array(repos, pa.string()),
        "n_files": pa.array([counts[r] for r in repos], pa.int64()),
        "cluster": pa.array(cluster, pa.string()),
        "keep": pa.array(
            [int(best[c] == r) for r, c in zip(repos, cluster)],
            pa.int64()),
    }))


def code_decontaminate(
    ds: ray.data.Dataset,
    bench_pred=None,
    n: int = 8,
    content_col: str = "content",
    lang_col: str = "lang",
) -> ray.data.Dataset:
    """Benchmark decontamination for CODE (the HumanEval/MBPP leakage
    scan every code-LM pipeline runs): flag files sharing an n-token
    gram with a held-out benchmark split, computed over the
    COMMENT-STRIPPED normal form so a leaked solution isn't hidden by
    a license header or comment edits.  Composition of
    :func:`strip_comments` (``keep_norm``) and
    ``text_dedup.ngram_decontaminate`` — the gram set broadcasts
    once, the corpus streams through one shuffle-free scan.

    ``bench_pred(doc_id ndarray) -> bool mask`` selects the benchmark
    split (default: ``md5_low64(key) % 5 == 0`` — deterministic and
    SQL-recomputable).  Returns ``(key, n_grams, n_hits,
    contaminated)`` per file.
    """
    ensure_worker_importable()
    from clonebas_ray.functions.murmur3 import md5_low64
    from clonebas_ray.ops.text_dedup import ngram_decontaminate

    def norm_docs(batch: pa.Table) -> pa.Table:
        keys = pc.binary_join_element_wise(
            batch["repo"].combine_chunks().cast(pa.string()),
            batch["path"].combine_chunks().cast(pa.string()),
            "/",
        )
        stripped = _StripComments(content_col, lang_col, keep_norm=True)(
            batch)
        ids = np.fromiter(
            (md5_low64(k.encode()) for k in keys.to_pylist()),
            dtype=np.uint64, count=len(keys),
        ).astype(np.int64)  # two's-complement view; predicates use uint
        return pa.table({
            "key": keys,
            "doc_id": pa.array(ids, pa.int64()),
            "text": stripped["norm"],
        })

    docs = ds.select_columns(
        ["repo", "path", lang_col, content_col]
    ).map_batches(
        norm_docs, batch_format="pyarrow", batch_size=None
    ).materialize()  # consumed twice: bench split + scan

    if bench_pred is None:
        def bench_pred(ids: np.ndarray) -> np.ndarray:
            return ids.astype(np.uint64) % np.uint64(5) == 0

    def bench_split(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(bench_pred(ids)))

    bench = docs.map_batches(
        bench_split, batch_format="pyarrow", batch_size=None)
    out = ngram_decontaminate(docs, bench, n=n)
    return out.select_columns(
        ["key", "n_grams", "n_hits", "contaminated"])


# ---------------------------------------------------------------------------
# edit_clones: exact character-level Levenshtein clone pairs
# ---------------------------------------------------------------------------


def _lev_chunk(
    a_arrs: list, b_arrs: list, kmax: np.ndarray
) -> np.ndarray:
    """Exact Levenshtein distances for a chunk of string pairs,
    vectorized ACROSS pairs: one full DP row per iteration over the
    whole chunk.  The in-row insertion chain ``D[i][j] =
    min(..., D[i][j-1]+1)`` is resolved without a sequential j loop via
    the classic transform ``D[i][j] = j + cummin(T[j] - j)`` (a
    running-min over ``T[l]-l`` equals the best ``T[l] + (j-l)``).

    ``kmax[p]`` is each pair's abandon bound: every 64 rows, pairs
    whose row minimum exceeds their bound are COMPACTED OUT of the
    chunk (their distances report as ``kmax+1`` — callers only test
    ``dist <= kmax``, so the exact overflow value is irrelevant), and
    pairs that reach their final row record and drop too, so one
    surviving near-dup never pins the whole chunk at full width.
    """
    B = len(a_arrs)
    la = np.fromiter((len(x) for x in a_arrs), np.int64, B)
    lb = np.fromiter((len(x) for x in b_arrs), np.int64, B)
    # a distance never exceeds la+lb, so clamping the bound there is
    # semantics-free and keeps the band/sentinel geometry bounded by
    # the data (a caller's "no bound" kmax=10^6 stays exact)
    kmax = np.minimum(kmax, la + lb)
    dist = np.empty(B, np.int64)
    dist[la == 0] = lb[la == 0]
    idx = np.flatnonzero(la > 0)
    if not len(idx):
        return dist
    La, Lb = int(la.max(initial=0)), int(lb.max(initial=0))
    # the kernel is memory-bandwidth-bound: int16 DP cells (values
    # <= la+lb) and uint8 char planes when the chunk is pure
    # single-byte halve-to-quarter the row traffic.  int16 requires
    # the SENTINEL (15000) to exceed every bound K, else a
    # sentinel-contaminated path (~sent+1) could masquerade as a
    # distance <= kmax — the false-positive class the banded
    # property test guards
    K0 = int(kmax.max(initial=0))
    cell = (np.int16 if La + Lb < 14000 and K0 < 13000
            else np.int32)
    cmax = max((int(c.max()) for c in a_arrs + b_arrs if len(c)),
               default=0)
    cdt = np.uint8 if cmax < 256 else np.uint32
    amat = np.zeros((len(idx), La), cdt)
    bmat = np.zeros((len(idx), Lb), cdt)
    for r, p in enumerate(idx):
        amat[r, : la[p]] = a_arrs[p].astype(cdt, copy=False)
        bmat[r, : lb[p]] = b_arrs[p].astype(cdt, copy=False)
    la_a, lb_a, k_a = la[idx], lb[idx], kmax[idx]
    jrow = np.arange(Lb + 1, dtype=cell)
    D = np.tile(jrow, (len(idx), 1))
    one = cell(1)
    # Ukkonen band: a result <= K has an optimal path inside
    # |i - j| <= K, so each row only updates columns [i-K-1, i+K].
    # The band slides RIGHT one column per row, so the left diagonal
    # neighbor D_prev[lo-1] is always the freshly-written previous
    # left edge; only the column ENTERING on the right is stale and
    # gets a sentinel after each row.  Out-of-band cells are
    # overestimates, which is exact for every result we keep.
    K = int(k_a.max()) + 1
    sent = cell(15000 if cell is np.int16 else 2 ** 30)
    for i in range(1, La + 1):
        lo = 0 if i <= K + 1 else i - K - 1
        hi = min(Lb, i + K)
        if lo > hi:
            # band slid past the end of b: every remaining cell is
            # >= i - Lb > K >= k, so all active pairs are done
            dist[idx] = k_a + 1
            break
        w0 = max(lo, 1)
        ai = amat[:, i - 1 : i]
        cost = (bmat[:, w0 - 1 : hi] != ai).astype(cell)
        T = np.minimum(D[:, w0 : hi + 1] + one,
                       D[:, w0 - 1 : hi] + cost)
        if lo == 0:
            V = np.empty((T.shape[0], T.shape[1] + 1), cell)
            V[:, 0] = cell(i)
            V[:, 1:] = T - jrow[None, w0 : hi + 1]
            D[:, : hi + 1] = (
                jrow[None, : hi + 1] + np.minimum.accumulate(V, axis=1))
        else:
            V = T - jrow[None, w0 : hi + 1]
            D[:, w0 : hi + 1] = (
                jrow[None, w0 : hi + 1]
                + np.minimum.accumulate(V, axis=1))
        if hi < Lb:
            D[:, hi + 1] = sent  # entering column reads as +inf
        fin = la_a == i
        if fin.any():
            rows = np.flatnonzero(fin)
            vals = D[rows, lb_a[rows]].astype(np.int64)
            # lb left of the band => |la-lb| > K => truly > k, but
            # the stale cell there can hold exactly K — force it
            # over the bound (right-of-band cells are sentinel/jrow,
            # both already > k)
            oob = lb_a[rows] < lo
            if oob.any():
                vals[oob] = np.maximum(
                    vals[oob], k_a[rows][oob] + 1)
            dist[idx[rows]] = vals
        drop = fin
        if i % 64 == 0:
            aband = (D[:, lo : hi + 1].min(axis=1) > k_a) & ~fin
            if aband.any():
                dist[idx[aband]] = k_a[aband] + 1
                drop = drop | aband
        if drop.any():
            keep = ~drop
            idx, la_a, lb_a, k_a = (
                idx[keep], la_a[keep], lb_a[keep], k_a[keep])
            if not len(idx):
                break
            D, amat, bmat = D[keep], amat[keep], bmat[keep]
            K = int(k_a.max()) + 1
            new_lb = int(lb_a.max())
            if new_lb + 1 < D.shape[1]:
                # junk beyond a shorter pair's lb never flows left,
                # so truncating columns to the surviving max is exact
                D, bmat = D[:, : new_lb + 1], bmat[:, :new_lb]
                jrow = jrow[: new_lb + 1]
                Lb = new_lb
    return dist


def edit_clones(
    ds: ray.data.Dataset,
    max_chars: int = 1536,
    sim_den: int = 10,
    pair_partitions: int = 16,
    pair_chunk: int = 2048,
) -> ray.data.Dataset:
    """Exact character-grain edit-distance clone pairs (the classic
    type-3 clone measure the SimHash/MinHash tiers approximate): for
    every two repos shipping the SAME ``path`` with contents of at
    most ``max_chars`` characters, emit the pair iff ``sim_den * lev
    <= max(la, lb)`` (edit similarity ``1 - lev/max >= 1 -
    1/sim_den``, default 0.9).  Output ``(path, repo_a, repo_b, dist,
    sim)`` with ``repo_a < repo_b``.

    Scale shape: files hash-partition by path (pairs never cross
    paths), so the only exchange is corpus-sized and key-local.
    Inside a partition, each path group sorts by length and a
    two-pointer window applies the LOSSLESS length filter ``sim_den *
    (lj - li) <= lj`` before any DP; survivors verify in
    ``pair_chunk``-sized batches through :func:`_lev_chunk` (whole-
    chunk vectorized rows + early abandon), never a per-pair Python
    DP.  Like every exact pair join, output volume is quadratic in
    the true answer — the ``max_chars`` cap bounds both DP cost and
    the worst-case hot path group (the cap is the op's contract, not
    a correctness trade: large files belong to the MinHash tier).
    Char grain = Unicode codepoints (matches DuckDB ``levenshtein``
    on the ASCII fixture; multibyte inputs are counted per codepoint).
    """
    ensure_worker_importable()
    from clonebas_ray.functions.murmur3 import poly_hash_column

    def prep(batch: pa.Table) -> pa.Table:
        n = pc.utf8_length(batch["content"])
        # empty files are excluded (identical-empty "clones" are
        # noise, and 0/0 similarity is undefined — NULL in SQL,
        # NaN in numpy: a parity trap, not a clone)
        keep = pc.and_(pc.greater_equal(n, 1),
                       pc.less_equal(n, max_chars))
        sub = batch.filter(keep)
        # partition key is internal-only (path groups must co-locate;
        # no cross-system value contract) — vectorized poly hash, no
        # per-row Python in this corpus-wide scan
        part = poly_hash_column(sub["path"], pair_partitions)
        return pa.table({
            "part": pa.array(part),
            "path": sub["path"],
            "repo": sub["repo"],
            "content": sub["content"],
        })

    _EMPTY = pa.table({
        "path": pa.array([], pa.string()),
        "repo_a": pa.array([], pa.string()),
        "repo_b": pa.array([], pa.string()),
        "dist": pa.array([], pa.int64()),
        "sim": pa.array([], pa.float64()),
    })

    def verify_partition(batch: pa.Table) -> pa.Table:
        paths = np.asarray(batch["path"].to_pylist(), dtype=object)
        repos = np.asarray(batch["repo"].to_pylist(), dtype=object)
        texts = batch["content"].to_pylist()
        lens = np.fromiter(map(len, texts), np.int64, len(texts))
        # runs per path (sorted), candidates via the two-pointer
        # length window inside each run
        order, starts, counts = sorted_runs(paths, lens, run_keys=1)
        paths, repos, lens = paths[order], repos[order], lens[order]
        texts = [texts[i] for i in order]
        ends = starts + counts
        ii, jj = [], []
        for s, e in zip(starts, ends):
            j = s
            for i in range(s, e):
                j = max(j, i + 1)
                while j < e and sim_den * (lens[j] - lens[i]) <= lens[j]:
                    j += 1
                if j > i + 1:
                    ii.append(np.arange(i + 1, j))
                    jj.append(np.full(j - i - 1, i))
        if not ii:
            return _EMPTY
        ii = np.concatenate(ii)   # longer side
        jj = np.concatenate(jj)   # shorter side
        maxlen = lens[ii]
        # encode/histogram only rows that appear in some candidate
        # pair — singleton/small path groups cost nothing
        used = np.unique(np.concatenate([ii, jj]))
        cp = [None] * len(texts)
        for u in used:
            cp[u] = np.frombuffer(
                texts[u].encode("utf-32-le"), np.uint32)
        # lossless bag-distance prefilter: edit distance is bounded
        # below by max(insertions, deletions) implied by the char
        # histogram diff, and MERGING chars into 64 hash bins only
        # shrinks that diff — so `bag > kmax` safely skips the DP
        # (kills random same-length pairs; near-dups pass untouched)
        hist = np.zeros((len(texts), 64), np.int64)
        for u in used:
            hist[u] = np.bincount(cp[u] % np.uint32(64), minlength=64)
        diff = hist[ii] - hist[jj]
        bag = np.maximum(
            diff.clip(min=0).sum(axis=1), (-diff).clip(min=0).sum(axis=1)
        )
        ok = np.flatnonzero(sim_den * bag <= maxlen)
        ii, jj, maxlen = ii[ok], jj[ok], maxlen[ok]
        if not len(ii):
            return _EMPTY
        # verify in chunks ordered by size so each chunk's DP rows
        # match its members' lengths
        by_size = np.argsort(maxlen, kind="stable")
        ii, jj, maxlen = ii[by_size], jj[by_size], maxlen[by_size]
        out_i, out_j, out_d = [], [], []
        for lo in range(0, len(ii), pair_chunk):
            hi = min(lo + pair_chunk, len(ii))
            kmax = maxlen[lo:hi] // sim_den
            d = _lev_chunk(
                [cp[jj[x]] for x in range(lo, hi)],
                [cp[ii[x]] for x in range(lo, hi)],
                kmax,
            )
            hit = np.flatnonzero(sim_den * d <= maxlen[lo:hi])
            out_i.append(ii[lo:hi][hit])
            out_j.append(jj[lo:hi][hit])
            out_d.append(d[hit])
        hi_idx = np.concatenate(out_i)
        lo_idx = np.concatenate(out_j)
        dist = np.concatenate(out_d)
        if not len(dist):
            return _EMPTY
        ra, rb = repos[lo_idx], repos[hi_idx]
        # same-repo pairs (duplicate (repo, path) rows in a dirty
        # corpus) are excluded, matching the oracle's `a.repo <
        # b.repo` join which silently drops them
        cross = ra != rb
        lo_idx, hi_idx, dist = lo_idx[cross], hi_idx[cross], dist[cross]
        ra, rb = ra[cross], rb[cross]
        if not len(dist):
            return _EMPTY
        swap = ra > rb
        ra2 = np.where(swap, rb, ra)
        rb2 = np.where(swap, ra, rb)
        mx = np.maximum(lens[lo_idx], lens[hi_idx])
        return pa.table({
            "path": pa.array(paths[lo_idx], pa.string()),
            "repo_a": pa.array(ra2, pa.string()),
            "repo_b": pa.array(rb2, pa.string()),
            "dist": pa.array(dist, pa.int64()),
            "sim": pa.array(
                1.0 - dist.astype(np.float64) / mx.astype(np.float64)),
        })

    # NOTE: a fully-filtered input yields a dataset Ray reports as
    # schemaless (empty blocks are dropped wholesale — not even a
    # typed-empty union survives), so CONSUMERS of a maybe-empty
    # result reindex to the five output columns after to_pandas
    # (see the edit_clones query wrapper).
    return (
        ds.select_columns(["repo", "path", "content"])
        .map_batches(prep, batch_format="pyarrow", batch_size=None)
        .groupby("part")
        .map_groups(verify_partition, batch_format="pyarrow")
    )
