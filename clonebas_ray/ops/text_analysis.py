"""Text-analysis operators for training-data curation: language ID,
quality scoring, token counting, document fingerprinting.

All are single ``map_batches`` stages; the stateful ones (compiled
regexes, stopword tables) are callable classes so the state builds
once per actor.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from clonebas_ray.bootstrap import ensure_worker_importable
from clonebas_ray.functions.kernels import run_starts, sorted_runs

#: per-language stopword lists for the stopword-ratio heuristic
#: language identifier (public common-word lists).  Dict order is the
#: tie-break order (first language reaching the max hit count wins) —
#: the DuckDB oracle mirrors both the lists and the order.
STOPWORDS = {
    "en": {"the", "and", "of", "to", "a", "in", "is", "it", "that", "for"},
    "de": {"der", "die", "das", "und", "ist", "nicht", "ein", "zu", "mit"},
    "es": {"el", "la", "de", "que", "y", "en", "un", "es", "por", "los"},
    "fr": {"le", "la", "de", "et", "un", "est", "que", "pour", "dans"},
    "it": {"il", "di", "che", "e", "la", "per", "un", "non", "sono", "con"},
    "pt": {"o", "de", "que", "e", "do", "da", "em", "um", "para", "com"},
    "nl": {"de", "het", "een", "van", "en", "in", "is", "dat", "op", "niet"},
}


class LanguageId:
    """Stopword-ratio language ID: argmax over per-language hit rates;
    'und' (undetermined) when nothing matches."""

    def __init__(self, text_col: str = "text"):
        self.text_col = text_col
        self.word_re = re.compile(r"[a-zA-Z']+")
        self.tables = {lang: ws for lang, ws in STOPWORDS.items()}

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch[self.text_col].to_pylist()
        langs, scores = [], []
        for t in texts:
            toks = [w.lower() for w in self.word_re.findall(t)]
            if not toks:
                langs.append("und")
                scores.append(0.0)
                continue
            best_lang, best = "und", 0.0
            for lang, ws in self.tables.items():
                hit = sum(1 for w in toks if w in ws) / len(toks)
                if hit > best:
                    best_lang, best = lang, hit
            langs.append(best_lang)
            # raw (un-rounded) ratio: int/int division is bit-identical
            # to the DuckDB oracle's, so the driver's 9-decimal value
            # hash matches without a rounding convention
            scores.append(best)
        return batch.append_column(
            "lang_pred", pa.array(langs, pa.string())
        ).append_column("lang_score", pa.array(scores, pa.float64()))


class QualityScore:
    """Heuristic document quality: length, mean word length, stopword
    ratio, punctuation ratio, digit ratio, repetition ratio — folded
    into one [0,1] score (C4/Gopher-style filters, simplified)."""

    def __init__(self, text_col: str = "text"):
        self.text_col = text_col
        self.punct_re = re.compile(r"[.,;:!?]")
        self.digit_re = re.compile(r"\d")
        self.stop = STOPWORDS["en"]

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch[self.text_col].to_pylist()
        cols = {
            "n_chars_q": [], "n_tokens": [], "mean_word_len": [],
            "stop_ratio": [], "punct_ratio": [], "digit_ratio": [],
            "rep_ratio": [], "quality": [],
        }
        for t in texts:
            toks = t.split()
            n = len(t)
            nt = len(toks)
            mwl = (sum(len(w) for w in toks) / nt) if nt else 0.0
            sr = (sum(1 for w in toks if w.lower() in self.stop) / nt) if nt else 0.0
            pr = len(self.punct_re.findall(t)) / max(1, n)
            dr = len(self.digit_re.findall(t)) / max(1, n)
            rep = 1.0 - (len(set(toks)) / nt) if nt else 0.0
            # q is a left-associated product; the DuckDB oracle mirrors
            # the exact operation order so doubles are bit-identical
            # (no rounding convention needed)
            q = 1.0
            if nt < 10 or nt > 100_000:
                q *= 0.2
            if not (2.0 <= mwl <= 12.0):
                q *= 0.5
            q *= min(1.0, 0.2 + sr * 4)  # some stopwords = natural prose
            q *= 1.0 - min(0.8, rep)     # heavy repetition = boilerplate
            cols["n_chars_q"].append(n)
            cols["n_tokens"].append(nt)
            cols["mean_word_len"].append(mwl)
            cols["stop_ratio"].append(sr)
            cols["punct_ratio"].append(pr)
            cols["digit_ratio"].append(dr)
            cols["rep_ratio"].append(rep)
            cols["quality"].append(q)
        out = batch
        for name in cols:
            typ = pa.int64() if name in ("n_chars_q", "n_tokens") else pa.float64()
            out = out.append_column(name, pa.array(cols[name], typ))
        return out


_BPE_ISH = re.compile(r"\w+|[^\w\s]")


def token_counts(
    ds: ray.data.Dataset, text_col: str = "text"
) -> ray.data.Dataset:
    """Append whitespace and BPE-ish (word/punct split) token counts —
    vectorized via pyarrow where possible."""
    ensure_worker_importable()

    def per_batch(batch: pa.Table) -> pa.Table:
        texts = batch[text_col].to_pylist()
        ws = np.fromiter(
            (len(t.split()) for t in texts), dtype=np.int64, count=len(texts)
        )
        bpe = np.fromiter(
            (len(_BPE_ISH.findall(t)) for t in texts),
            dtype=np.int64, count=len(texts),
        )
        return batch.append_column(
            "ws_tokens", pa.array(ws, pa.int64())
        ).append_column("bpe_tokens", pa.array(bpe, pa.int64()))

    return ds.map_batches(per_batch, batch_format="pyarrow")


class DocFingerprint:
    """Rolling-hash document fingerprint: polynomial rolling hash over
    per-token md5 hashes (Rabin-Karp style), order-sensitive — a cheap
    content identity robust to whitespace normalization.

    Token hash = the low 64 bits of md5 interpreted little-endian
    (DuckDB's ``md5_number_lower`` convention) and the accumulator
    lives mod the Mersenne prime 2^61-1, so the whole fingerprint is
    expressible in ANSI SQL (``list_reduce`` over HUGEINT) and the
    driver's DuckDB oracle verifies it bit-for-bit."""

    #: FNV-64 prime as the polynomial base
    BASE = 0x100000001B3
    #: accumulator modulus (2^61-1) — keeps the value inside int64
    MOD = (1 << 61) - 1

    def __init__(self, text_col: str = "text"):
        self.text_col = text_col
        self._cache: dict[str, int] = {}

    def _tok_hash(self, w: str) -> int:
        h = self._cache.get(w)
        if h is None:
            from clonebas_ray.functions.murmur3 import md5_low64

            h = md5_low64(w.encode("utf-8", "surrogatepass"))
            self._cache[w] = h
        return h

    def __call__(self, batch: pa.Table) -> pa.Table:
        base, mod = self.BASE, self.MOD
        out = []
        for t in batch[self.text_col].to_pylist():
            acc = 0
            for w in t.split():
                acc = (acc * base + self._tok_hash(w)) % mod
            out.append(acc)
        return batch.append_column(
            "fingerprint", pa.array(np.array(out, dtype=np.int64), pa.int64())
        )


def word_census(
    ds: ray.data.Dataset, text_col: str = "text"
) -> ray.data.Dataset:
    """Global word census (SURVEY M10/A5 — the reference's
    ``-nodeCount`` over AST node names, here over document tokens):
    per-batch partial counts, then one small groupby over partials.
    Tokenization = split on single spaces, matching DuckDB's
    ``string_split(text, ' ')`` for the oracle."""
    ensure_worker_importable()

    def partial(batch: pa.Table) -> pa.Table:
        counts: dict[str, int] = {}
        for t in batch[text_col].to_pylist():
            for w in t.split(" "):
                counts[w] = counts.get(w, 0) + 1
        return pa.table(
            {
                "word": pa.array(list(counts), pa.string()),
                "partial_n": pa.array(list(counts.values()), pa.int64()),
            }
        )

    from ray.data.aggregate import Sum

    partials = ds.select_columns([text_col]).map_batches(
        partial, batch_format="pyarrow"
    )
    return partials.groupby("word").aggregate(Sum("partial_n", alias_name="n"))


#: PII / secret patterns (RE2 syntax).  Dict order is the REDACTION
#: order — ``pii_redact`` applies the replacements sequentially, and
#: the DuckDB oracle chains ``regexp_replace(..., 'g')`` in the same
#: order.  Both sides run RE2 (pyarrow.compute's re2 kernels; DuckDB's
#: regexp_* are RE2 too), so match semantics are engine-identical —
#: avoid constructs RE2 lacks (lookaround, backrefs).
PII_PATTERNS = {
    "email": r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}",
    "ipv4": r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b",
    "phone": r"\b\d{3}-\d{3,4}-\d{4}\b",
    "secret": r"\b(?:AKIA|ASIA)[A-Z0-9]{16}\b",
}


def pii_scan(
    ds: ray.data.Dataset, text_col: str = "text"
) -> ray.data.Dataset:
    """Append per-document PII/secret match counts
    (``n_email/n_ipv4/n_phone/n_secret``) and a ``has_pii`` flag.

    The curation stage every large-scale training-data pipeline needs
    before publishing a corpus; the reference has no analogue (its
    inputs are local source trees).  Fully vectorized:
    ``pc.count_substring_regex`` is a RE2 kernel over the Arrow column
    — no Python per row, no shuffle, embarrassingly parallel."""
    ensure_worker_importable()

    def per_batch(batch: pa.Table) -> pa.Table:
        total = None
        for name, pat in PII_PATTERNS.items():
            n = pc.cast(
                pc.count_substring_regex(batch[text_col], pat), pa.int64()
            )
            batch = batch.append_column(f"n_{name}", n)
            total = n if total is None else pc.add(total, n)
        return batch.append_column("has_pii", pc.greater(total, 0))

    return ds.map_batches(per_batch, batch_format="pyarrow")


def pii_redact(
    ds: ray.data.Dataset, text_col: str = "text",
    out_col: str = "text_redacted",
) -> ray.data.Dataset:
    """Replace every PII/secret match with a ``<CLASS>`` placeholder
    (sequentially, in ``PII_PATTERNS`` order — a later class never
    sees text a former one redacted).  RE2 global replace per Arrow
    column; the redacted corpus streams straight to
    ``write_parquet``."""
    ensure_worker_importable()

    def per_batch(batch: pa.Table) -> pa.Table:
        col = batch[text_col]
        for name, pat in PII_PATTERNS.items():
            col = pc.replace_substring_regex(
                col, pat, f"<{name.upper()}>"
            )
        return batch.append_column(out_col, col)

    return ds.map_batches(per_batch, batch_format="pyarrow")


def dup_ngram_stats(
    ds: ray.data.Dataset, text_col: str = "text",
    ns: tuple[int, ...] = (2, 10),
) -> ray.data.Dataset:
    """Gopher-style repetition filters (published Gopher/RefinedWeb
    'duplicate n-gram' family, pinned to a deterministic char-weighted
    definition the SQL oracle shares): per document and per n, the
    fraction of n-gram character mass — every occurrence weighted by
    the gram's joined length — that sits in grams occurring more than
    once.  ``dup{n}_frac = sum(count*len for grams with count>1) /
    sum(count*len over all grams)``; 0.0 when the doc has fewer than
    n tokens.  Catches boilerplate/loop spam that the unique-token
    ``rep_ratio`` in :class:`QualityScore` misses (a document cycling
    two paragraphs has high dup10 but moderate rep_ratio).

    Single stateless ``map_batches`` — linear per doc, no shuffle."""
    ensure_worker_importable()
    from collections import Counter

    ws_re = re.compile(r"\s+")

    def per_batch(batch: pa.Table) -> pa.Table:
        texts = batch[text_col].to_pylist()
        cols: dict[str, list[float]] = {f"dup{n}_frac": [] for n in ns}
        for t in texts:
            toks = [w for w in ws_re.split(t) if w]
            for n in ns:
                grams = Counter(
                    " ".join(toks[i:i + n])
                    for i in range(len(toks) - n + 1)
                )
                tot = dup = 0
                for g, c in grams.items():
                    m = c * len(g)
                    tot += m
                    if c > 1:
                        dup += m
                cols[f"dup{n}_frac"].append(dup / tot if tot else 0.0)
        for name, vals in cols.items():
            batch = batch.append_column(
                name, pa.array(vals, pa.float64())
            )
        return batch

    return ds.map_batches(per_batch, batch_format="pyarrow")


def text_normalize(
    ds: ray.data.Dataset, text_col: str = "text",
    out_col: str = "text_norm",
) -> ray.data.Dataset:
    """Canonical text normalization for dedup/training prep: Unicode
    NFC, lowercase, whitespace runs collapsed to single spaces,
    trimmed — in that pinned order (the DuckDB oracle chains
    ``trim(regexp_replace(lower(nfc_normalize(..)), ..))`` the same
    way).  All four steps are Arrow compute kernels (utf8proc + RE2)
    — no Python per row; running it before ``exact_dedup_docs`` makes
    byte-different-but-equivalent documents collapse."""
    ensure_worker_importable()

    import unicodedata

    def per_batch(batch: pa.Table) -> pa.Table:
        x = batch[text_col]
        # pyarrow 16's utf8_normalize mis-binds its `form` option and
        # returns NFD even when NFC is requested (verified: composed
        # input comes back decomposed) — NFC runs through unicodedata,
        # gated on a vectorized is-ascii check so the common all-ASCII
        # block never leaves Arrow (ASCII is NFC by construction)
        all_ascii = pc.all(pc.string_is_ascii(x)).as_py()
        if all_ascii is False:
            x = pa.array(
                [
                    s if s is None or s.isascii()
                    else unicodedata.normalize("NFC", s)
                    for s in x.to_pylist()
                ],
                pa.string(),
            )
        x = pc.utf8_lower(x)
        x = pc.replace_substring_regex(x, r"\s+", " ")
        x = pc.utf8_trim_whitespace(x)
        return batch.append_column(out_col, x)

    return ds.map_batches(per_batch, batch_format="pyarrow")


def chunk_documents(
    ds: ray.data.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    max_tokens: int = 512,
    stride: int | None = None,
    chunk_col: str = "text_chunk",
) -> ray.data.Dataset:
    """Training-prep chunking: split each document into token windows
    of ``max_tokens`` whitespace tokens starting every ``stride``
    tokens (default non-overlapping ``stride = max_tokens``), rejoined
    with single spaces (whitespace-normalizing, same convention as
    every tokenizing op here).  Emits one row per chunk —
    ``(id_col, chunk_id, text_chunk, n_tokens)`` — zero rows for
    token-less docs.  The pinned window rule (a window for EVERY start
    in ``range(0, len, stride)``, tail windows included even when
    short) is mirrored exactly by the SQL oracle's
    ``range(1, len+1, stride)``.

    One stateless ``map_batches`` explode — linear, no shuffle; at
    corpus scale the output block count grows ~len/stride-fold, which
    Ray Data's streaming executor re-blocks automatically."""
    ensure_worker_importable()
    if stride is None:
        stride = max_tokens
    if stride <= 0 or max_tokens <= 0:
        raise ValueError("max_tokens and stride must be positive")

    def per_batch(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_pylist()
        texts = batch[text_col].to_pylist()
        out_id, out_cid, out_txt, out_n = [], [], [], []
        for did, t in zip(ids, texts):
            toks = t.split()
            for cid, start in enumerate(range(0, len(toks), stride)):
                w = toks[start : start + max_tokens]
                out_id.append(did)
                out_cid.append(cid)
                out_txt.append(" ".join(w))
                out_n.append(len(w))
        return pa.table(
            {
                id_col: pa.array(out_id, batch[id_col].type),
                "chunk_id": pa.array(out_cid, pa.int64()),
                chunk_col: pa.array(out_txt, pa.string()),
                "n_tokens": pa.array(out_n, pa.int64()),
            }
        )

    return ds.map_batches(per_batch, batch_format="pyarrow")


def tfidf_top_terms(
    ds: ray.data.Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    k: int = 3,
    min_df: int = 1,
) -> ray.data.Dataset:
    """Per-document top-``k`` TF-IDF terms (keyword extraction /
    topicality features for quality filtering).

    Pinned conventions (SQL-recomputable): terms = whitespace tokens,
    ``score = tf * ln((N+1) / (df+1))`` evaluated in exactly that
    float op order, top-``k`` by (score DESC, term ASC) with 1-based
    ``rank`` — tie scores are bit-identical on both sides because
    equal (tf, df) gives the identical double.

    Two passes: (1) per-batch per-doc term counts (one row per
    (doc, term) — a doc lives in one row, so its counts are exact
    in-batch) reduce to the document-frequency table; (2) the DF table
    ships ONCE via ``ray.put`` (sorted term array + counts,
    ``np.searchsorted`` per block — no per-batch rebuild) and each
    words block scores + selects its own docs' top-k locally: no
    shuffle at all beyond the small DF aggregation.

    Scale note: the broadcast assumes the (``min_df``-pruned) vocab
    fits a worker heap — at 10⁷ terms that is ~200 MB, fine; for a
    100-TB corpus raise ``min_df`` (hapax terms are ~half the vocab
    and can never beat a real top-k term for any doc that holds ≥ k
    repeated terms — but CAN appear in the output for short docs, so
    ``min_df > 1`` is a documented approximation, not free)."""
    ensure_worker_importable()
    from collections import Counter

    import ray

    def term_counts(batch: pa.Table) -> pa.Table:
        ids, terms, tfs = [], [], []
        for i, t in zip(
            batch[id_col].to_pylist(), batch[text_col].to_pylist()
        ):
            c = Counter(t.split())
            ids.extend([i] * len(c))
            terms.extend(c.keys())
            tfs.extend(c.values())
        return pa.table(
            {
                id_col: pa.array(ids, batch[id_col].type),
                "term": pa.array(terms, pa.string()),
                "tf": pa.array(tfs, pa.int64()),
            }
        )

    words = (
        ds.select_columns([id_col, text_col])
        .map_batches(term_counts, batch_format="pyarrow")
        .materialize()  # consumed twice (DF pass + scoring pass)
    )
    n_docs = ds.count()

    from clonebas_ray.ops.relational import auto_partitions

    P = auto_partitions()

    def df_partial(b: pa.Table) -> pa.Table:
        # one row per (doc, term) upstream -> row count per term = df;
        # bucket by term hash so the merge is P vectorized groupbys,
        # not one map_groups call per distinct term (and no risk of
        # the empty-output-block zero-column schema that a per-term
        # groupby produced at 32-way parallelism).
        vc = pd.Series(b["term"].to_pylist()).value_counts()
        terms = vc.index.to_numpy(dtype=object)
        kh = pd.util.hash_pandas_object(
            pd.Series(terms), index=False
        ).to_numpy()
        return pa.table(
            {
                "term": pa.array(terms, pa.string()),
                "c": pa.array(vc.to_numpy(dtype=np.int64), pa.int64()),
                "__bucket": pa.array(
                    (kh % np.uint64(P)).astype(np.int32), pa.int32()
                ),
            }
        )

    def df_merge(g: pd.DataFrame) -> pd.DataFrame:
        out = (
            g.groupby("term", sort=False)["c"].sum().reset_index()
        )
        out.columns = ["term", "df"]
        out["df"] = out["df"].astype("int64")
        return out

    df_ds = (
        words.map_batches(df_partial, batch_format="pyarrow")
        .groupby("__bucket")
        .map_groups(df_merge, batch_format="pandas")
    )
    _sch = pa.schema([("term", pa.string()), ("df", pa.int64())])
    df_parts = [
        t.select(["term", "df"])
        for t in ray.get(list(df_ds.to_arrow_refs()))
        if t.num_rows > 0 and t.num_columns > 0
    ]
    df_tab = (
        pa.concat_tables(df_parts) if df_parts
        else _sch.empty_table()
    )
    order = pc.sort_indices(df_tab["term"].combine_chunks())
    terms_sorted = df_tab["term"].combine_chunks().take(order)
    dfs_sorted = df_tab["df"].combine_chunks().take(order).to_numpy(
        zero_copy_only=False
    )
    if min_df > 1:
        keep = dfs_sorted >= min_df
        terms_sorted = terms_sorted.filter(pa.array(keep))
        dfs_sorted = dfs_sorted[keep]
    # IDF once per vocab entry with SCALAR libm log: numpy's
    # vectorized np.log rounds the last ulp differently from std::log,
    # which would break bit-parity with the SQL oracle's ln()
    import math

    idf_sorted = np.fromiter(
        (math.log((n_docs + 1) / (d + 1.0)) for d in dfs_sorted.tolist()),
        dtype=np.float64, count=len(dfs_sorted),
    )
    ref = ray.put(
        (np.asarray(terms_sorted.to_pylist(), dtype=object), idf_sorted)
    )

    def score(b: pa.Table) -> pd.DataFrame:
        ts, idfv = ray.get(ref)
        bt = np.asarray(b["term"].to_pylist(), dtype=object)
        idx = np.searchsorted(ts, bt)
        ok = (idx < len(ts))
        ok &= np.where(ok, ts[np.minimum(idx, len(ts) - 1)] == bt, False)
        out = pd.DataFrame(
            {
                id_col: np.asarray(b[id_col].to_pylist())[ok],
                "term": bt[ok],
                "tf": b["tf"].to_numpy(zero_copy_only=False)[ok],
            }
        )
        out["score"] = out["tf"].to_numpy(dtype=np.float64) * idfv[idx[ok]]
        out = out.sort_values(
            [id_col, "score", "term"],
            ascending=[True, False, True], kind="mergesort",
        )
        out = out.groupby(id_col, sort=False).head(k)
        out["rank"] = (
            out.groupby(id_col, sort=False).cumcount() + 1
        ).astype("int64")
        return out[[id_col, "term", "tf", "score", "rank"]]

    return words.map_batches(score, batch_format="pyarrow")


class CorpusFilter:
    """Dolma-style tagger + mixer in ONE pass: computes language ID,
    quality score and duplicate-10-gram mass per document (the three
    tagger families above) and folds them into a keep decision plus a
    reason bitmask — the composite filter stage a training-data
    pipeline actually runs, expressed as a single actor-pool
    ``map_batches`` so the text is read once, not once per tagger.

    Reason bits (set = gate FAILED): 1 language not allowed, 2 quality
    below ``min_quality``, 4 fewer than ``min_tokens`` whitespace
    tokens, 8 duplicate-10-gram char mass above ``max_dup10``.
    ``keep`` iff no bit set.  All four signals reuse the exact pinned
    kernels of :class:`LanguageId` / :class:`QualityScore` /
    :func:`dup_ngram_stats`, so the whole composite is
    DuckDB-oracle-verifiable with zero new float conventions."""

    REASON_LANG = 1
    REASON_QUALITY = 2
    REASON_LENGTH = 4
    REASON_REPETITION = 8

    def __init__(self, text_col: str = "text",
                 allowed_langs: tuple[str, ...] = ("en",),
                 min_quality: float = 0.5, min_tokens: int = 20,
                 max_dup10: float = 0.2):
        self.text_col = text_col
        self.allowed = frozenset(allowed_langs)
        self.min_quality = min_quality
        self.min_tokens = min_tokens
        self.max_dup10 = max_dup10
        self._lang = LanguageId(text_col)
        self._qual = QualityScore(text_col)
        self._ws_re = re.compile(r"\s+")

    def _dup10(self, texts: list[str]) -> list[float]:
        from collections import Counter

        out = []
        for t in texts:
            toks = [w for w in self._ws_re.split(t) if w]
            grams = Counter(
                " ".join(toks[i:i + 10])
                for i in range(len(toks) - 9)
            )
            tot = dup = 0
            for g, c in grams.items():
                m = c * len(g)
                tot += m
                if c > 1:
                    dup += m
            out.append(dup / tot if tot else 0.0)
        return out

    def __call__(self, batch: pa.Table) -> pa.Table:
        tagged = self._qual(self._lang(batch))
        texts = batch[self.text_col].to_pylist()
        dup10 = self._dup10(texts)
        langs = tagged["lang_pred"].to_pylist()
        quality = tagged["quality"].to_numpy(zero_copy_only=False)
        nt = tagged["n_tokens"].to_numpy(zero_copy_only=False)
        reasons = np.zeros(len(texts), dtype=np.int64)
        reasons += self.REASON_LANG * np.fromiter(
            (l not in self.allowed for l in langs),
            dtype=np.int64, count=len(langs),
        )
        reasons += self.REASON_QUALITY * (
            quality < self.min_quality
        ).astype(np.int64)
        reasons += self.REASON_LENGTH * (
            nt < self.min_tokens
        ).astype(np.int64)
        d10 = np.asarray(dup10, dtype=np.float64)
        reasons += self.REASON_REPETITION * (
            d10 > self.max_dup10
        ).astype(np.int64)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "lang_pred": tagged["lang_pred"],
                "quality": pa.array(quality, pa.float64()),
                "dup10_frac": pa.array(d10, pa.float64()),
                "reasons": pa.array(reasons, pa.int64()),
                "keep": pa.array(reasons == 0, pa.bool_()),
            }
        )


def corpus_filter(
    ds: ray.data.Dataset,
    concurrency: int | tuple[int, int] | None = None,
    **kwargs,
) -> ray.data.Dataset:
    """One-pass composite corpus filter — see :class:`CorpusFilter`.
    Task-pool callable instance by default (vectorized kernels, no
    amortizable state — the (1, 8) pool paid ~3x in ramp, round-4
    A/B); pass ``concurrency`` for the actor-pool form."""
    ensure_worker_importable()
    if concurrency is None:
        return ds.map_batches(
            CorpusFilter(**kwargs), batch_format="pyarrow")
    return ds.map_batches(
        CorpusFilter,
        fn_constructor_kwargs=kwargs,
        batch_format="pyarrow",
        concurrency=concurrency,
        max_restarts=0,
    )


def token_stream_index(
    docs: ray.data.Dataset,
    seq_len: int = 2048,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> ray.data.Dataset:
    """GPT-style sequence-packing index: documents are (logically)
    concatenated in ``id_col`` order into one token stream chunked
    into ``seq_len``-token training sequences, and each doc gets its
    stream coordinates — ``(id_col, n_tokens, tok_start, seq_first,
    seq_last)`` with ``seq_*`` the first/last sequence the doc's
    tokens land in (-1 for token-less docs).  This is the indexing
    step of pre-training batch packing: given the index, any worker
    can materialize sequence k by reading exactly the docs whose
    [tok_start, tok_start+n_tokens) intersects [k*L, (k+1)*L).

    Distributed-scan shape (the one pattern the rest of the repo
    didn't cover): sort by id, MATERIALIZE (pinning block boundaries),
    one pass collecting per-block token sums in dataset order, a
    driver-side cumsum over the per-block sums (thousands of entries,
    not rows), then a second pass where each block recognizes itself
    by its first id and adds its global offset to a local cumsum.
    Tokens = non-empty whitespace splits (the repo's pinned
    convention); the SQL oracle is a prefix SUM window over id
    order."""
    ensure_worker_importable()
    src = (
        docs.select_columns([id_col, text_col])
        .sort(id_col)
        .materialize()
    )

    def block_meta(b: pa.Table) -> pa.Table:
        texts = b[text_col].to_pylist()
        tot = int(sum(len(t.split()) for t in texts))
        first = b[id_col][0].as_py() if b.num_rows else -1
        return pa.table(
            {"first_id": pa.array([first], pa.int64()),
             "tok_sum": pa.array([tot], pa.int64()),
             "n_rows": pa.array([b.num_rows], pa.int64())}
        )

    metas = [
        (m["first_id"][0].as_py(), m["tok_sum"][0].as_py(),
         m["n_rows"][0].as_py())
        for m in src.map_batches(
            block_meta, batch_format="pyarrow", batch_size=None
        ).iter_batches(batch_format="pyarrow", batch_size=None)
        if m["n_rows"][0].as_py()
    ]
    # iter_batches preserves dataset (sorted) order; blocks are pinned
    # by the materialize above, so first_id -> cumulative offset is a
    # stable key for pass 2
    metas.sort(key=lambda m: m[0])
    offsets: dict[int, int] = {}
    acc = 0
    for first, tot, _ in metas:
        offsets[first] = acc
        acc += tot
    off_ref = ray.put(offsets)

    def index_block(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table(
                {id_col: pa.array([], pa.int64()),
                 "n_tokens": pa.array([], pa.int64()),
                 "tok_start": pa.array([], pa.int64()),
                 "seq_first": pa.array([], pa.int64()),
                 "seq_last": pa.array([], pa.int64())}
            )
        off = ray.get(off_ref)[b[id_col][0].as_py()]
        texts = b[text_col].to_pylist()
        nt = np.fromiter(
            (len(t.split()) for t in texts),
            dtype=np.int64, count=len(texts),
        )
        start = off + np.concatenate([[0], np.cumsum(nt[:-1])])
        has = nt > 0
        seq_first = np.where(has, start // seq_len, -1)
        seq_last = np.where(has, (start + nt - 1) // seq_len, -1)
        return pa.table(
            {
                id_col: b[id_col],
                "n_tokens": pa.array(nt, pa.int64()),
                "tok_start": pa.array(start, pa.int64()),
                "seq_first": pa.array(seq_first, pa.int64()),
                "seq_last": pa.array(seq_last, pa.int64()),
            }
        )

    return src.map_batches(
        index_block, batch_format="pyarrow", batch_size=None
    )


def unigram_lm_score(
    ds: ray.data.Dataset,
    ref: ray.data.Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> ray.data.Dataset:
    """CCNet-style language-model quality scoring: score every
    document by its mean per-token log-probability under an add-one
    smoothed UNIGRAM model trained on ``ref`` (a trusted reference
    split — CCNet trains KenLM on Wikipedia and buckets a crawl by
    perplexity; the unigram variant keeps the exact same pipeline
    shape with a model a SQL oracle can recompute).

    Pinned conventions (SQL-recomputable): tokens = whitespace split;
    token log-prob ``ln((c_w + 1) / (T + V))`` with ``c_w`` the token's
    reference count (0 if out-of-vocabulary), ``T`` total reference
    tokens, ``V`` reference vocab size; ``mean_logprob`` = STRICT
    left-to-right sequential sum of per-token log-probs in document
    order divided by token count (``np.add.accumulate`` here,
    ``list_reduce(list_prepend(0.0, list(... ORDER BY i)))`` in the
    oracle — same IEEE add sequence), log-probs evaluated ONCE per
    vocab entry with scalar ``math.log`` (numpy's vectorized log
    rounds the last ulp differently from libm — same pin as
    :func:`tfidf_top_terms`).  Zero-token documents drop.  Output:
    ``(id_col, n_tokens, oov, mean_logprob)``.

    Scale shape: pass 1 reduces the reference split to a ``(term,
    count)`` table via per-block partial Counters + a hash-bucketed
    merge (the :func:`tfidf_top_terms` DF pattern — no per-term
    ``map_groups``); the model ships ONCE via ``ray.put`` as a sorted
    term array + per-term log-prob array (``np.searchsorted`` per
    block); pass 2 scores every block locally — no shuffle touches
    document text.  The broadcast assumes the reference vocab fits a
    worker heap (the reference split is the CURATED side — small by
    construction; a 10⁷-term vocab is ~300 MB)."""
    ensure_worker_importable()
    import math

    import ray

    from clonebas_ray.ops.relational import auto_partitions

    P = auto_partitions()

    def ref_partial(b: pa.Table) -> pa.Table:
        from collections import Counter

        c: Counter = Counter()
        for t in b[text_col].to_pylist():
            c.update((t or "").split())
        terms = np.asarray(list(c.keys()), dtype=object)
        kh = pd.util.hash_pandas_object(
            pd.Series(terms), index=False
        ).to_numpy() if len(terms) else np.array([], dtype=np.uint64)
        return pa.table({
            "term": pa.array(terms, pa.string()),
            "c": pa.array(
                np.fromiter(c.values(), dtype=np.int64, count=len(c)),
                pa.int64()),
            "__bucket": pa.array(
                (kh % np.uint64(P)).astype(np.int32), pa.int32()),
        })

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("term", sort=False)["c"].sum().reset_index()
        out["c"] = out["c"].astype("int64")
        return out

    cnt_ds = (
        ref.select_columns([text_col])
        .map_batches(ref_partial, batch_format="pyarrow")
        .groupby("__bucket")
        .map_groups(merge, batch_format="pandas")
    )
    _sch = pa.schema([("term", pa.string()), ("c", pa.int64())])
    parts = [
        t.select(["term", "c"])
        for t in ray.get(list(cnt_ds.to_arrow_refs()))
        if t.num_rows > 0 and t.num_columns > 0
    ]
    tab = pa.concat_tables(parts) if parts else _sch.empty_table()
    order = pc.sort_indices(tab["term"].combine_chunks())
    terms_sorted = np.asarray(
        tab["term"].combine_chunks().take(order).to_pylist(),
        dtype=object)
    counts_sorted = tab["c"].combine_chunks().take(order).to_numpy(
        zero_copy_only=False)
    total = int(counts_sorted.sum())
    vocab = len(counts_sorted)
    z = total + vocab
    lp_sorted = np.fromiter(
        ((math.log((c + 1) / z)) for c in counts_sorted.tolist()),
        dtype=np.float64, count=vocab,
    )
    lp_oov = math.log(1 / z) if z else 0.0
    model_ref = ray.put((terms_sorted, lp_sorted))

    def score(b: pa.Table) -> pa.Table:
        ts, lpv = ray.get(model_ref)
        ids, nts, oovs, means = [], [], [], []
        for i, t in zip(b[id_col].to_pylist(), b[text_col].to_pylist()):
            toks = np.asarray((t or "").split(), dtype=object)
            n = len(toks)
            if not n:
                continue
            idx = np.searchsorted(ts, toks)
            hit = idx < len(ts)
            hit &= np.where(
                hit, ts[np.minimum(idx, max(len(ts) - 1, 0))] == toks,
                False)
            lp = np.where(hit, lpv[np.minimum(idx, max(len(ts) - 1, 0))],
                          lp_oov)
            ids.append(i)
            nts.append(n)
            oovs.append(int(n - hit.sum()))
            means.append(float(np.add.accumulate(lp)[-1]) / n)
        return pa.table({
            id_col: pa.array(ids, b[id_col].type),
            "n_tokens": pa.array(nts, pa.int64()),
            "oov": pa.array(oovs, pa.int64()),
            "mean_logprob": pa.array(means, pa.float64()),
        })

    return ds.select_columns([id_col, text_col]).map_batches(
        score, batch_format="pyarrow")


def _dsir_features(texts: list[str]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-doc (unigram, bigram) feature arrays in document order.

    Features are the DSIR paper's hashed n-gram bag (unigrams +
    bigrams; Xie et al. 2023, "Data Selection for Language Models via
    Importance Resampling"): tokens = whitespace split (the repo's
    pinned tokenizer, same as :func:`unigram_lm_score`); a bigram is
    the two tokens joined by one space.
    """
    out = []
    for t in texts:
        toks = np.asarray((t or "").split(), dtype=object)
        if len(toks) >= 2:
            bigs = np.add(np.add(toks[:-1], " "), toks[1:])
        else:
            bigs = np.empty(0, dtype=object)
        out.append((toks, bigs))
    return out


def _dsir_buckets(feats: np.ndarray, n_buckets: int) -> np.ndarray:
    """Feature string → hash bucket via the pinned ``md5_low64 %
    n_buckets`` convention (DuckDB: ``md5_number_lower(w) % B``).
    Hashes once per DISTINCT feature in the input (np.unique memo)."""
    from clonebas_ray.functions.murmur3 import md5_low64

    if not len(feats):
        return np.empty(0, dtype=np.int64)
    uniq, inv = np.unique(feats, return_inverse=True)
    ub = np.fromiter(
        (md5_low64(u.encode("utf-8")) % n_buckets for u in uniq.tolist()),
        dtype=np.int64, count=len(uniq),
    )
    return ub[inv]


def dsir_importance(
    ds: ray.data.Dataset,
    target: ray.data.Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    n_buckets: int = 1024,
) -> ray.data.Dataset:
    """DSIR importance weights (Xie et al. 2023): score every document
    by the log-likelihood ratio of a hashed-n-gram bag model of a
    curated TARGET split over one of the RAW corpus, the published
    recipe for importance-resampling pretraining data toward a target
    domain.  Selection (top-k or Gumbel-noised sampling) composes
    downstream; this operator emits the weights.

    Pinned conventions (SQL-recomputable, see the ``dsir_weights``
    oracle): features = unigrams then bigrams of the whitespace
    tokenizer, hashed into ``n_buckets`` by ``md5_low64 % B``; bucket
    log-ratio ``lr[b] = ln((c_t[b]+1)/(T_t+B)) - ln((c_r[b]+1)/(T_r+B))``
    (add-one smoothing; scalar ``math.log`` per bucket — the libm/
    DuckDB-``ln`` parity pin of :func:`unigram_lm_score`); per-doc
    ``dsir_logweight`` = STRICT left-to-right sum of ``lr`` over the
    doc's feature occurrences, unigrams in position order then bigrams
    in position order (``np.add.accumulate``, matching the oracle's
    ``list_reduce(list_prepend(0.0, list(l ORDER BY ord)))``).
    Zero-token documents drop.  Output: ``(id_col, n_tokens,
    dsir_logweight)``.

    Scale shape: pass 1 reduces EACH side to one ``n_buckets``-long
    int64 vector via per-block ``bincount`` partials packed as binary
    blobs (one tiny row per block — the byte-bound-exchange pattern;
    driver traffic is ``n_blocks x 8*B`` bytes, independent of corpus
    size); the ``B`` log-ratios ship once via ``ray.put``; pass 2
    scores every block locally.  No shuffle ever touches document
    text, and per-block hashing is memoized per distinct feature.
    """
    ensure_worker_importable()
    import math

    import ray

    def count_partial(b: pa.Table) -> pa.Table:
        counts = np.zeros(n_buckets, dtype=np.int64)
        for toks, bigs in _dsir_features(b[text_col].to_pylist()):
            for arr in (toks, bigs):
                bk = _dsir_buckets(arr, n_buckets)
                if len(bk):
                    counts += np.bincount(bk, minlength=n_buckets)
        return pa.table({"blob": pa.array([counts.tobytes()], pa.binary())})

    def side_counts(side: ray.data.Dataset) -> np.ndarray:
        total = np.zeros(n_buckets, dtype=np.int64)
        for row in side.select_columns([text_col]).map_batches(
            count_partial, batch_format="pyarrow", batch_size=None
        ).iter_rows():
            total += np.frombuffer(row["blob"], dtype=np.int64)
        return total

    c_raw = side_counts(ds)
    c_tgt = side_counts(target)
    z_raw = int(c_raw.sum()) + n_buckets
    z_tgt = int(c_tgt.sum()) + n_buckets
    lr = np.fromiter(
        (
            math.log((int(ct) + 1) / z_tgt) - math.log((int(cr) + 1) / z_raw)
            for ct, cr in zip(c_tgt.tolist(), c_raw.tolist())
        ),
        dtype=np.float64, count=n_buckets,
    )
    lr_ref = ray.put(lr)

    def score(b: pa.Table) -> pa.Table:
        lrv = ray.get(lr_ref)
        ids, nts, ws = [], [], []
        for i, (toks, bigs) in zip(
            b[id_col].to_pylist(),
            _dsir_features(b[text_col].to_pylist()),
        ):
            n = len(toks)
            if not n:
                continue
            seq = np.concatenate([
                lrv[_dsir_buckets(toks, n_buckets)],
                lrv[_dsir_buckets(bigs, n_buckets)],
            ])
            ids.append(i)
            nts.append(n)
            ws.append(float(np.add.accumulate(seq)[-1]))
        return pa.table({
            id_col: pa.array(ids, b[id_col].type),
            "n_tokens": pa.array(nts, pa.int64()),
            "dsir_logweight": pa.array(ws, pa.float64()),
        })

    return ds.select_columns([id_col, text_col]).map_batches(
        score, batch_format="pyarrow")


# --- distributed BPE (Sennrich et al. 2016) -----------------------------

def bpe_word_census(
    ds: "ray.data.Dataset", text_col: str = "text"
) -> "ray.data.Dataset":
    """Distributed word census ``(word, c)``: whitespace pre-tokenized
    (the classic BPE pre-tokenization), per-block partial counts ->
    one vocabulary-sized groupby.  The corpus is read ONCE; every BPE
    merge round afterwards runs over this vocab, never the corpus."""
    ensure_worker_importable()
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        la = pc.split_pattern_regex(
            batch[text_col].combine_chunks().cast(pa.string()),
            pattern=r"\s+")
        flat = la.flatten()
        flat = flat.filter(pc.not_equal(flat, ""))
        vc = pc.value_counts(flat)
        return pa.table({
            "word": vc.field("values"),
            "c": vc.field("counts").cast(pa.int64()),
        })

    return (
        ds.select_columns([text_col])
        .map_batches(partial, batch_format="pyarrow", batch_size=None)
        .groupby("word").aggregate(Sum("c", alias_name="c"))
    )


def _pair_census_block(words, counts, symseqs=None):
    """Adjacent-symbol pair counts for a block of (word, count) rows.
    ``symseqs`` (list of symbol tuples) overrides the initial
    one-char-per-symbol split after merges have been applied."""
    acc: dict[tuple[str, str], int] = {}
    for i, w in enumerate(words):
        syms = symseqs[i] if symseqs is not None else tuple(w)
        c = int(counts[i])
        for a, b in zip(syms, syms[1:]):
            acc[(a, b)] = acc.get((a, b), 0) + c
    if not acc:
        return pa.table({
            "left_sym": pa.array([], pa.string()),
            "right_sym": pa.array([], pa.string()),
            "n": pa.array([], pa.int64()),
        })
    ks = list(acc)
    return pa.table({
        "left_sym": pa.array([k[0] for k in ks], pa.string()),
        "right_sym": pa.array([k[1] for k in ks], pa.string()),
        "n": pa.array([acc[k] for k in ks], pa.int64()),
    })


def bpe_pair_census(
    ds: "ray.data.Dataset", text_col: str = "text", top_k: int = 50
) -> "pa.Table":
    """The first BPE merge-round census: corpus-weighted adjacent
    CHARACTER-pair counts over the word census, the primitive a
    distributed tokenizer trainer iterates (Sennrich et al. 2016;
    GPT-2's byte-level variant).  Per-block partials over the vocab ->
    one pair-vocabulary groupby; deterministic top-``top_k`` by
    ``(n DESC, left, right)`` — fully SQL-verifiable."""
    ensure_worker_importable()
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        return _pair_census_block(
            batch["word"].to_pylist(),
            batch["c"].to_numpy(zero_copy_only=False))

    pairs = (
        bpe_word_census(ds, text_col)
        .map_batches(partial, batch_format="pyarrow", batch_size=None)
        .groupby(["left_sym", "right_sym"])
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()  # pair-vocabulary-sized
    )
    pairs = pairs.sort_values(
        ["n", "left_sym", "right_sym"], ascending=[False, True, True]
    ).head(top_k).reset_index(drop=True)
    return pa.Table.from_pandas(
        pairs[["left_sym", "right_sym", "n"]], preserve_index=False)


def bpe_train(
    ds: "ray.data.Dataset",
    n_merges: int,
    text_col: str = "text",
) -> list[tuple[str, str]]:
    """Distributed BPE training: ``n_merges`` merge rules learned by
    iterating pair census -> argmax -> merge over the WORD VOCAB (the
    corpus is read exactly once, by :func:`word_census`; each round is
    a vocab-sized map + a pair-vocabulary groupby + one broadcast).
    Tie-break: max count, then lexicographically smallest (left,
    right) — deterministic, matching the sequential reference in the
    tests.  Returns the ordered merge list."""
    ensure_worker_importable()
    from ray.data.aggregate import Sum

    def to_seqs(batch: pa.Table) -> pa.Table:
        words = batch["word"].to_pylist()
        offsets = np.zeros(len(words) + 1, dtype=np.int64)
        np.cumsum([len(w) for w in words], out=offsets[1:])
        chars = [ch for w in words for ch in w]
        return pa.table({
            "c": batch["c"],
            "syms": pa.LargeListArray.from_arrays(
                pa.array(offsets), pa.array(chars, pa.string())),
        })

    # symbol sequences carried FORWARD: each round applies only the
    # newest rule (one vocab-sized pass per merge, never the history)
    vocab = bpe_word_census(ds, text_col).map_batches(
        to_seqs, batch_format="pyarrow", batch_size=None).materialize()
    merges: list[tuple[str, str]] = []

    def census(batch: pa.Table) -> pa.Table:
        seqs = batch["syms"].to_pylist()
        return _pair_census_block(
            [None] * len(seqs),
            batch["c"].to_numpy(zero_copy_only=False),
            symseqs=seqs)

    def apply_rule(syms: list, a: str, b: str) -> list:
        out = []
        i = 0
        while i < len(syms):
            if i + 1 < len(syms) and syms[i] == a and syms[i + 1] == b:
                out.append(a + b)
                i += 2
            else:
                out.append(syms[i])
                i += 1
        return out

    for _ in range(n_merges):
        pairs = (
            vocab.map_batches(census, batch_format="pyarrow",
                              batch_size=None)
            .groupby(["left_sym", "right_sym"])
            .aggregate(Sum("n", alias_name="n"))
            .to_pandas()
        )
        if pairs.empty:
            break
        pairs = pairs.sort_values(
            ["n", "left_sym", "right_sym"],
            ascending=[False, True, True])
        top = pairs.iloc[0]
        a, b = str(top["left_sym"]), str(top["right_sym"])
        merges.append((a, b))

        def merge_block(batch: pa.Table, a=a, b=b) -> pa.Table:
            seqs = [apply_rule(s, a, b)
                    for s in batch["syms"].to_pylist()]
            offsets = np.zeros(len(seqs) + 1, dtype=np.int64)
            np.cumsum([len(s) for s in seqs], out=offsets[1:])
            flat = [x for s in seqs for x in s]
            return pa.table({
                "c": batch["c"],
                "syms": pa.LargeListArray.from_arrays(
                    pa.array(offsets), pa.array(flat, pa.string())),
            })

        vocab = vocab.map_batches(
            merge_block, batch_format="pyarrow", batch_size=None
        ).materialize()
    return merges


def bpe_encode_counts(
    ds: "ray.data.Dataset",
    merges: list[tuple[str, str]],
    text_col: str = "text",
    id_col: str = "doc_id",
) -> "ray.data.Dataset":
    """Apply an ordered BPE merge list (from :func:`bpe_train`) to the
    corpus and emit per-doc BPE token counts ``(id_col, n_bpe_tokens)``
    — the tokenizer-APPLICATION half of the tier (token budgets for
    mixing/packing are measured in the tokenizer's units, not
    whitespace words).

    Semantics: whitespace pre-tokenization (the trainer's), then each
    word encodes by applying rule k only after rules < k have fully
    applied, with the left-to-right non-overlapping scan — provably
    equal to the priority encoder (repeatedly merge the
    earliest-LEARNED adjacent pair present), which the pytest uses as
    the independent reference implementation.

    Scale shape: merges broadcast once via ``ray.put`` (tiny); each
    block encodes only its DISTINCT words (per-block memo — corpus
    word frequency follows Zipf, so the memo turns per-token work
    into per-vocab work) and per-doc counts are one ``np.bincount``
    over the word→token-length map; no shuffle at all — output rows
    = input rows.
    """
    ensure_worker_importable()
    import ray

    merges_ref = ray.put(list(merges))

    def encode_block(batch: pa.Table) -> pa.Table:
        rules = ray.get(merges_ref)
        la = pc.split_pattern_regex(
            batch[text_col].combine_chunks().cast(pa.string()),
            pattern=r"\s+")
        flat = la.flatten()
        keep = pc.not_equal(flat, "")
        lengths = pc.list_value_length(la).to_numpy(
            zero_copy_only=False).astype(np.int64)
        # doc index per (pre-filter) word, then filter empties
        didx = np.repeat(np.arange(len(lengths)), lengths)
        kept = keep.to_numpy(zero_copy_only=False)
        didx = didx[kept]
        words = flat.filter(keep)
        # distinct words encode once per block
        enc = pc.dictionary_encode(words)
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(
            np.int64)
        uniq = enc.dictionary.to_pylist()
        tok_len = np.empty(len(uniq), np.int64)
        for u, w in enumerate(uniq):
            syms = list(w)
            for a, b in rules:
                # the symbol concatenation is invariant under merging
                # (always equals w), so `a+b in w` is a necessary
                # condition — skips most (rule, word) combinations
                if a + b not in w:
                    continue
                i = 0
                out = []
                n = len(syms)
                while i < n:
                    if (i + 1 < n and syms[i] == a
                            and syms[i + 1] == b):
                        out.append(a + b)
                        i += 2
                    else:
                        out.append(syms[i])
                        i += 1
                syms = out
            tok_len[u] = len(syms)
        per_doc = np.bincount(
            didx, weights=tok_len[codes], minlength=len(lengths)
        ).astype(np.int64)
        return pa.table({
            id_col: batch[id_col],
            "n_bpe_tokens": pa.array(per_doc, pa.int64()),
        })

    return ds.select_columns([id_col, text_col]).map_batches(
        encode_block, batch_format="pyarrow", batch_size=None)


def bm25_topk(
    ds: "ray.data.Dataset",
    query: str,
    id_col: str = "doc_id",
    text_col: str = "text",
    k1: float = 1.2,
    b: float = 0.75,
    top_k: int = 10,
) -> "pa.Table":
    """BM25 top-``top_k`` retrieval (Robertson/Spärck Jones; the
    Lucene ``+1`` idf variant) — the IR primitive of targeted data
    selection (query a curated exemplar against the raw corpus, keep
    the best matches).

    Pinned SQL-recomputable conventions: whitespace tokens;
    ``idf = ln((N - df + 0.5)/(df + 0.5) + 1.0)``;
    per-term ``s = idf * (tf*(k1+1.0)) / (tf + k1*(1.0 - b +
    b*dl/avgdl))`` in exactly that float op order with
    ``avgdl = total_tokens / N`` (int/int); per-doc score = left fold
    over matched terms in ASCENDING term order (``np.add.reduceat``
    == the oracle's ``list_reduce`` over ``list(s ORDER BY term)``);
    rank by (score DESC, doc_id).

    Two streaming passes, no shuffle: (1) per-block (N, total_tokens,
    per-query-term df) partials — byte-bound, query terms are few;
    (2) broadcast idf/avgdl, per-block scoring + local top-k, driver
    merge of O(blocks * top_k) rows."""
    ensure_worker_importable()
    import math

    import ray

    q_terms = np.array(sorted(set(query.split())), dtype=object)
    if not len(q_terms):
        raise ValueError("empty query")
    q_ref = ray.put(q_terms)

    def _tok(batch: pa.Table):
        la = pc.split_pattern_regex(
            batch[text_col].combine_chunks().cast(pa.string()),
            pattern=r"\s+")
        lengths = pc.list_value_length(la).to_numpy().astype(np.int64)
        flat = la.flatten()
        ok = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        fidx = np.repeat(np.arange(len(lengths)), lengths)[ok]
        toks = flat.filter(pa.array(ok)).to_numpy(zero_copy_only=False)
        dl = np.bincount(fidx, minlength=len(lengths)).astype(np.int64)
        return toks, fidx, dl

    def stats_partial(batch: pa.Table) -> pa.Table:
        qt = ray.get(q_ref)
        toks, fidx, dl = _tok(batch)
        pos = np.searchsorted(qt, toks)
        pos_c = np.minimum(pos, len(qt) - 1)
        hit = qt[pos_c] == toks
        # df partial: docs containing each term at least once
        key = pos_c[hit] * (len(dl) + 1) + fidx[hit]
        df = np.bincount(
            np.unique(key) // (len(dl) + 1), minlength=len(qt))
        return pa.table({
            "term_i": pa.array(np.arange(len(qt) + 1), pa.int64()),
            "v": pa.array(
                np.r_[df.astype(np.int64), len(dl)], pa.int64()),
            "tot": pa.array(
                np.r_[np.zeros(len(qt), np.int64), dl.sum()],
                pa.int64()),
        })

    df = np.zeros(len(q_terms), dtype=np.int64)
    n_docs = 0
    total = 0
    for blk in ds.select_columns([text_col]).map_batches(
        stats_partial, batch_format="pyarrow", batch_size=None
    ).iter_batches(batch_format="pyarrow", batch_size=None):
        ti = blk["term_i"].to_numpy(zero_copy_only=False)
        v = blk["v"].to_numpy(zero_copy_only=False)
        tt = blk["tot"].to_numpy(zero_copy_only=False)
        for i, val, to in zip(ti, v, tt):
            if i < len(q_terms):
                df[i] += val
            else:
                n_docs += val
                total += to
    if n_docs == 0:
        return pa.table({
            "rank": pa.array([], pa.int64()),
            id_col: pa.array([], pa.int64()),
            "score": pa.array([], pa.float64()),
        })
    avgdl = total / n_docs
    idf = np.array([
        math.log((n_docs - d + 0.5) / (d + 0.5) + 1.0) for d in df
    ])
    bc_ref = ray.put((q_terms, idf, avgdl))

    def score_partial(batch: pa.Table) -> pa.Table:
        qt, idf_, avg = ray.get(bc_ref)
        toks, fidx, dl = _tok(batch)
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        pos = np.searchsorted(qt, toks)
        pos_c = np.minimum(pos, len(qt) - 1)
        hit = qt[pos_c] == toks
        fi, ti = fidx[hit], pos_c[hit]
        if not len(fi):
            return pa.table({
                id_col: pa.array([], pa.int64()),
                "score": pa.array([], pa.float64()),
            })
        order, starts, tf = sorted_runs(fi, ti)
        ufi, uti = fi[order][starts], ti[order][starts]
        dlr = dl[ufi].astype(np.float64)
        s = idf_[uti] * (tf * (k1 + 1.0)) / (
            tf + k1 * (1.0 - b + b * dlr / avg))
        dstart = run_starts(ufi)
        dend = np.r_[dstart[1:], len(ufi)]
        # rows are (doc, term-ascending): explicit per-doc left fold —
        # np.add.reduceat is NOT left-associated (measured one-ulp
        # drift vs the oracle's list_reduce); segments are query-sized
        # so the scalar loop is O(matched docs * |query|)
        sl = s.tolist()
        score = np.empty(len(dstart), dtype=np.float64)
        for i, (st, en) in enumerate(zip(dstart, dend)):
            acc = 0.0
            for j in range(st, en):
                acc = acc + sl[j]
            score[i] = acc
        doc = ids[ufi[dstart]]
        k_loc = min(top_k, len(doc))
        sel = np.lexsort((doc, -score))[:k_loc]
        return pa.table({
            id_col: pa.array(doc[sel], pa.int64()),
            "score": pa.array(score[sel], pa.float64()),
        })

    parts = [
        b for b in ds.select_columns([id_col, text_col]).map_batches(
            score_partial, batch_format="pyarrow", batch_size=None
        ).iter_batches(batch_format="pyarrow", batch_size=None)
        if b.num_rows
    ]
    if not parts:
        return pa.table({
            "rank": pa.array([], pa.int64()),
            id_col: pa.array([], pa.int64()),
            "score": pa.array([], pa.float64()),
        })
    allp = pa.concat_tables(parts)
    doc = allp[id_col].to_numpy(zero_copy_only=False)
    score = allp["score"].to_numpy(zero_copy_only=False)
    sel = np.lexsort((doc, -score))[:top_k]
    return pa.table({
        "rank": pa.array(np.arange(1, len(sel) + 1), pa.int64()),
        id_col: pa.array(doc[sel], pa.int64()),
        "score": pa.array(score[sel], pa.float64()),
    })
