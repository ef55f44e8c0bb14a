"""End-to-end conformance: Ray pipeline vs sequential oracle on the
synthetic corpus (SURVEY §5.1/5.3/5.4/5.5)."""

import itertools
import shutil

import pytest

from clonebas_ray.config import PipelineConfig


def _pair_set(clusters):
    import collections

    clus = collections.defaultdict(set)
    for sha, cid in zip(
        clusters["sha"].to_pylist(), clusters["cluster_id"].to_pylist()
    ):
        clus[cid].add(sha)
    pairs = set()
    for members in clus.values():
        for a, b in itertools.combinations(sorted(members), 2):
            pairs.add(frozenset((a, b)))
    return pairs


@pytest.fixture(scope="module")
def pipeline_result(ray_session, corpus_dir, tmp_path_factory):
    from clonebas_ray.pipelines.dedup import run_dedup_pipeline

    d, _ = corpus_dir
    run_dir = str(tmp_path_factory.mktemp("run"))
    return run_dedup_pipeline(f"{d}/files.parquet", run_dir), run_dir


def test_recall_against_oracle(pipeline_result, oracle_result):
    """The binding target: dup-pair recall >= 0.99 at the shipped
    config (BASELINE.json north_rule)."""
    res, _ = pipeline_result
    ours = _pair_set(res.clusters)
    oracle_pairs = oracle_result.pairs["high"]
    assert oracle_pairs, "oracle produced no pairs — corpus broken"
    inter = ours & oracle_pairs
    recall = len(inter) / len(oracle_pairs)
    precision = len(inter) / max(1, len(ours))
    assert recall >= 0.99, f"recall {recall:.4f}"
    # complete-linkage refinement replays the reference's greedy loop
    # per component → exact cluster parity
    assert precision >= 0.99, f"precision {precision:.4f}"


def test_sha_invariant_preserved(pipeline_result, corpus_dir):
    """North-rule invariant: per-row content sha256 survives every
    stage — fingerprints cover exactly the input rows."""
    import hashlib

    res, _ = pipeline_result
    _, tables = corpus_dir
    input_shas = {
        hashlib.sha256(c.encode()).hexdigest()
        for c in tables.files["content"].to_pylist()
    }
    fp = res.fingerprints.to_pandas()
    assert set(fp["sha"]) == input_shas
    assert len(fp) == tables.files.num_rows  # one fingerprint per row
    # clustered shas are a subset of input shas (anti-join is empty)
    assert set(res.clusters["sha"].to_pylist()) <= input_shas


def test_short_files_gated(pipeline_result):
    res, _ = pipeline_result
    fp = res.fingerprints.to_pandas()
    gated = fp[~fp["gen_fp"]]
    assert (gated["token_num"] <= 200).all()
    assert not (set(gated["sha"]) & set(res.clusters["sha"].to_pylist()))


def test_same_sig_groups_have_membership_edges(pipeline_result,
                                               corpus_dir):
    """Distinct contents with identical signatures always CONNECT via
    the Hamming-0 membership fast path (recall-safe, ungated).
    Whether every member ends up in the final cluster is then the
    refinement's call — greedy complete-linkage can legitimately
    exclude a same-sig member whose set constraints fail (the oracle
    parity tests pin that) — but the candidate EDGE must exist."""
    res, _ = pipeline_result
    _, tables = corpus_dir

    fp = res.fingerprints.to_pandas()
    eligible = fp[fp["gen_fp"]]
    edges = res.edges.to_pandas()
    connected = set(edges["sha_a"]) | set(edges["sha_b"])
    checked = 0
    for (hi, lo), g in eligible.groupby(["sig_hi", "sig_lo"]):
        shas = set(g["sha"])
        if len(shas) < 2:
            continue
        assert shas <= connected, (hi, lo)
        checked += 1
    assert checked > 0


def test_determinism_across_parallelism(ray_session, corpus_dir,
                                        tmp_path_factory, pipeline_result):
    """Same input at different batch sizes / no checkpoints → identical
    edge set and cluster assignment (SURVEY §5.3)."""
    from clonebas_ray.pipelines.dedup import run_dedup_pipeline

    d, _ = corpus_dir
    res1, _ = pipeline_result
    res2 = run_dedup_pipeline(
        f"{d}/files.parquet", str(tmp_path_factory.mktemp("run2")),
        config=PipelineConfig(pair_partitions=7),
        concurrency=(1, 2), checkpoint=False,
    )
    assert _pair_set(res1.clusters) == _pair_set(res2.clusters)
    e1 = res1.edges.to_pandas().sort_values(["sha_a", "sha_b"]).reset_index(drop=True)
    e2 = res2.edges.to_pandas().sort_values(["sha_a", "sha_b"]).reset_index(drop=True)
    assert e1[["sha_a", "sha_b", "hamming"]].equals(
        e2[["sha_a", "sha_b", "hamming"]]
    )


def test_resume_from_checkpoint(ray_session, corpus_dir, pipeline_result):
    """Restart on an existing run dir reuses both checkpoints and
    reproduces identical output (SURVEY §5.5)."""
    from clonebas_ray.pipelines.dedup import run_dedup_pipeline

    d, _ = corpus_dir
    res1, run_dir = pipeline_result
    res2 = run_dedup_pipeline(f"{d}/files.parquet", run_dir)
    assert res2.metrics["fingerprints_resumed"]
    assert res2.metrics["edges_resumed"]
    assert res2.clusters.equals(res1.clusters)


def test_resume_invalidated_by_config_change(ray_session, corpus_dir,
                                             pipeline_result):
    from clonebas_ray.pipelines.dedup import run_dedup_pipeline

    d, _ = corpus_dir
    _, run_dir = pipeline_result
    res = run_dedup_pipeline(
        f"{d}/files.parquet", run_dir, config=PipelineConfig(t_high=3)
    )
    assert not res.metrics["fingerprints_resumed"]  # config hash changed


def test_cluster_stats_consistent(pipeline_result):
    res, _ = pipeline_result
    stats = res.cluster_stats.to_pandas()
    assert (stats["max_span"] >= stats["min_span"]).all()
    assert (stats["n_files"] >= stats["n_shas"]).all()
    assert stats["n_shas"].sum() == res.clusters.num_rows


def test_global_clone_stats_in_report(pipeline_result):
    """CloneSet.cpp:261-328 m_allCSetInfo analogue: run metrics carry
    the corpus-wide clone roll-up + cluster-size histogram."""
    res, _ = pipeline_result
    m = res.metrics
    stats = res.cluster_stats.to_pandas()
    assert m["clone_total_members"] == int(stats["n_files"].sum())
    assert m["clone_max_span"] == int(stats["max_span"].max())
    assert m["clone_min_span"] == int(stats["min_span"].min())
    hist = m["cluster_size_hist"]
    assert sum(k * v for k, v in hist.items()) == m["clone_total_members"]
    assert sum(hist.values()) == len(stats)
    assert m["n_clusters"] == len(stats)


def test_score_report_in_metrics(ray_session, corpus_dir, tmp_path_factory):
    """score_report=True adds the A4 corpus quality score to the run
    metrics, with the run's own clone counts feeding CloneCodeUnit."""
    from clonebas_ray.pipelines.dedup import run_dedup_pipeline

    d, _ = corpus_dir
    run_dir = str(tmp_path_factory.mktemp("scored"))
    score_keys = (
        "quality_score", "total_chars", "score_normative",
        "score_efficiency", "score_maintainability", "score_security",
    )
    res = run_dedup_pipeline(
        f"{d}/files.parquet", run_dir, score_report=True,
    )
    assert 0 <= res.metrics["quality_score"] <= 100
    assert res.metrics["total_chars"] > 0
    assert not res.metrics["file_metrics_resumed"]
    # re-score resumes the raw-metrics checkpoint (no content re-read)
    # and reproduces the identical roll-up
    res2 = run_dedup_pipeline(
        f"{d}/files.parquet", run_dir, score_report=True,
    )
    assert res2.metrics["file_metrics_resumed"]
    for k in score_keys:
        assert res2.metrics[k] == res.metrics[k], k


def _write_tiny_corpus(dir_path, contents):
    import hashlib

    import pyarrow as pa
    import pyarrow.parquet as pq

    files = pa.table(
        {
            "repo": pa.array([f"r{i}" for i in range(len(contents))]),
            "path": pa.array([f"f{i}.cpp" for i in range(len(contents))]),
            "commit": pa.array(
                [hashlib.sha1(c.encode()).hexdigest() for c in contents]
            ),
            "lang": pa.array(["cpp"] * len(contents)),
            "content": pa.array(contents, pa.string()),
        }
    )
    pq.write_table(files, f"{dir_path}/files.parquet")


def test_pipeline_clean_corpus_no_clones(ray_session, tmp_path_factory):
    """A corpus with nothing near-duplicate (the common clean-repo
    case) must run end-to-end and report zero clusters — empty edge
    tables, empty refinement, empty stats, in BOTH modes."""
    from clonebas_ray.config import PipelineConfig
    from clonebas_ray.pipelines.dedup import run_dedup_pipeline

    d = tmp_path_factory.mktemp("clean")
    # three structurally distinct files, far apart in SimHash space
    _write_tiny_corpus(
        str(d),
        [
            "int alpha(int a){ if(a>0){ return a+1; } return 0; }",
            "void beta(){ for(int i=0;i<9;i++){ delta(i); } }",
            "double gamma(double x, double y){ while(x<y){ x*=2.0; } return x; }",
        ],
    )
    for block_mode in (False, True):
        # checkpoint=True ON PURPOSE: it drives the empty-Dataset
        # write path (a 0-block stage writes no parquet files), which
        # block mode hits at the fingerprint shard and file mode at
        # the edges stage
        run_dir = str(tmp_path_factory.mktemp(f"clean_run{int(block_mode)}"))
        for attempt in range(2):  # second pass resumes from checkpoints
            res = run_dedup_pipeline(
                f"{d}/files.parquet",
                run_dir,
                config=PipelineConfig(block_mode=block_mode),
            )
            assert res.metrics["n_clusters"] == 0, (block_mode, attempt)
            assert res.clusters.num_rows == 0
            assert res.cluster_stats.num_rows == 0
        assert res.metrics["fingerprints_resumed"]
        assert res.metrics["edges_resumed"]


def test_pipeline_single_file(ray_session, tmp_path_factory):
    """One file alone can never clone: must not crash, zero clusters."""
    from clonebas_ray.pipelines.dedup import run_dedup_pipeline

    d = tmp_path_factory.mktemp("single")
    _write_tiny_corpus(
        str(d), ["int solo(int a){ if(a>0){ return a+1; } return 0; }"]
    )
    res = run_dedup_pipeline(
        f"{d}/files.parquet", str(tmp_path_factory.mktemp("single_run")),
        checkpoint=False,
    )
    assert res.metrics["n_clusters"] == 0
    assert res.clusters.num_rows == 0


def test_cli_entrypoint_runs_and_resumes(tmp_path_factory):
    """`python -m clonebas_ray.run` (the job-submit surface) completes
    on a tiny corpus, prints the run-report JSON on stdout, and a
    second invocation resumes from the per-shard checkpoints."""
    import json
    import os
    import subprocess
    import sys

    d = tmp_path_factory.mktemp("cli_corpus")
    _write_tiny_corpus(
        str(d),
        [
            "int alpha(int a){ if(a>0){ return a+1; } return 0; }",
            "int alpha(int a){ if(a>0){ return a+1; } return 0; }\n// x",
            "void beta(){ for(int i=0;i<9;i++){ delta(i); } }",
        ],
    )
    run_dir = str(tmp_path_factory.mktemp("cli_run"))
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

    def invoke():
        out = subprocess.run(
            [sys.executable, "-m", "clonebas_ray.run",
             "--input", f"{d}/files.parquet", "--run-dir", run_dir,
             "--num-cpus", "2"],
            capture_output=True, text=True, timeout=300, cwd=repo_root,
        )
        assert out.returncode == 0, out.stderr[-2000:]
        lines = [ln for ln in out.stdout.splitlines() if ln.strip()]
        return json.loads(lines[-1])

    first = invoke()
    assert first["total_s"] > 0
    assert "n_clusters" in first and "n_edges" in first
    assert not first["fingerprints_resumed"]
    second = invoke()
    assert second["fingerprints_resumed"]
    assert second["n_clusters"] == first["n_clusters"]
    assert second["n_edges"] == first["n_edges"]


def test_cli_export_modes(tmp_path_factory):
    """`--genfile --node-count` (the reference's -genfile/-nodeCount
    invocations) export the word corpus + census instead of running
    the dedup, and report row counts."""
    import json
    import os
    import subprocess
    import sys

    d = tmp_path_factory.mktemp("cli_exp_corpus")
    _write_tiny_corpus(
        str(d),
        [
            "int alpha(int a){ if(a>0){ return a+1; } return 0; }",
            "void beta(){ for(int i=0;i<9;i++){ delta(i); } }",
        ],
    )
    run_dir = str(tmp_path_factory.mktemp("cli_exp_run"))
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = subprocess.run(
        [sys.executable, "-m", "clonebas_ray.run",
         "--input", f"{d}/files.parquet", "--run-dir", run_dir,
         "--genfile", "--node-count", "--num-cpus", "2"],
        capture_output=True, text=True, timeout=300, cwd=repo_root,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    rep = json.loads(
        [ln for ln in out.stdout.splitlines() if ln.strip()][-1]
    )
    assert rep["word_corpus_rows"] == 2
    assert rep["node_census_rows"] > 0
    assert os.path.isdir(rep["word_corpus_dir"])
    assert os.path.isdir(rep["node_census_dir"])


def test_label_propagation_fallback_identical_clusters(
    ray_session, corpus_dir, pipeline_result, tmp_path_factory
):
    """Forcing the distributed clustering fallback (max_driver_edges=0
    routes EVERY plain file-mode run through label_propagation instead
    of the driver-side union-find) reproduces the default path's
    cluster table bit-for-bit — the routing is a physical knob, never
    a semantic one."""
    from clonebas_ray.pipelines.dedup import run_dedup_pipeline

    d, _ = corpus_dir
    base, _ = pipeline_result
    forced = run_dedup_pipeline(
        f"{d}/files.parquet",
        str(tmp_path_factory.mktemp("lp_run")),
        config=PipelineConfig(max_driver_edges=0),
        checkpoint=False,
    )
    assert forced.metrics["cluster_path"] == "label_propagation"
    assert base.metrics["cluster_path"] == "union_find"
    assert forced.clusters.equals(base.clusters)
    assert forced.cluster_stats.equals(base.cluster_stats)


def test_fingerprint_keys_on_sha_and_lang(ray_session, tmp_path):
    """Identical bytes under different lang profiles must fingerprint
    independently, while the same (content, lang) always gives one
    signature — the per-actor word memo keys on (sha, lang), never on
    sha alone."""
    import pyarrow as pa
    import ray.data

    from clonebas_ray.config import DEFAULT_CONFIG
    from clonebas_ray.stages.fingerprint import fingerprint_stage
    from clonebas_ray.stages.ingest import prepare_stage

    code = "int f(int a) { return a + 1; }\n" * 12
    t = pa.table({
        "repo": ["r"] * 4, "path": ["a", "b", "c", "d"],
        "commit": ["c0"] * 4,
        "lang": ["cpp", "python", "cpp", "python"],
        "content": [code] * 4,
    })
    fps = (
        fingerprint_stage(
            prepare_stage(ray.data.from_arrow(t)), DEFAULT_CONFIG,
            concurrency=2)
        .to_pandas()
    )
    assert len(fps) == 4
    assert fps["sha"].nunique() == 1  # one content
    by_lang = fps.groupby("lang")[["sig_hi", "sig_lo"]].nunique()
    assert (by_lang == 1).all().all()  # same content+lang -> same sig
    cpp = fps[fps.lang == "cpp"].iloc[0]
    py = fps[fps.lang == "python"].iloc[0]
    assert (cpp.sig_hi, cpp.sig_lo) != (py.sig_hi, py.sig_lo)
