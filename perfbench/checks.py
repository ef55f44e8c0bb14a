"""Output checks applied to every timed run.

* planted dup-pair recall >= 0.99 (the north rule), over the connected
  components of the verified high-tier edge graph: planted dup pairs
  are Hamming-0 by construction, so the LSH join plus verification
  must connect every one of them.  The greedy complete linkage that
  follows may legitimately split a planted pair (a near-identical
  file of another family, outside the span gate, can anchor a set),
  so the final clusters are held to the digest instead;
* the cluster-partition digest equals the expected one: pinned per
  workload and corpus variant in ``digests.json`` at benchmark scale,
  or computed by the sequential oracle (``oracle.run_oracle`` /
  ``run_block_oracle``) on small runs.
"""

from __future__ import annotations

import collections
import hashlib
import json
import os

import pyarrow as pa

MIN_RECALL = 0.99
PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "digests.json")


def _digest(tiers: dict[int, list[list[str]]]) -> str:
    canon = {
        str(tier): sorted(sorted(m) for m in sets)
        for tier, sets in sorted(tiers.items()) if sets
    }
    return hashlib.sha256(
        json.dumps(canon, sort_keys=True).encode()
    ).hexdigest()[:32]


def partition_digest(clusters: pa.Table) -> str:
    """Digest of the cluster partition: per tier, the sorted list of
    sorted member sets (shas in file mode, ``sha:block`` units in
    block mode).  Independent of cluster-id numbering."""
    sets: dict[tuple[int, int], set] = collections.defaultdict(set)
    for sha, cid, tier in zip(clusters["sha"].to_pylist(),
                              clusters["cluster_id"].to_pylist(),
                              clusters["tier"].to_pylist()):
        sets[(tier, cid)].add(sha)
    tiers: dict[int, list] = collections.defaultdict(list)
    for (tier, _), members in sets.items():
        tiers[tier].append(list(members))
    return _digest(tiers)


def oracle_digest(files: pa.Table, block_mode: bool) -> str:
    """The same digest from the sequential CloneBAS oracle (quadratic:
    small inputs only).  Oracle clusters with fewer than two distinct
    members are not reported by the pipeline, so they are dropped."""
    from clonebas_ray.config import PipelineConfig
    from clonebas_ray.oracle import run_block_oracle, run_oracle, unit_key

    rows = files.to_pylist()
    if block_mode:
        res = run_block_oracle(rows, PipelineConfig(block_mode=True))
        key = unit_key
    else:
        res = run_oracle(rows, PipelineConfig())
        key = lambda fp: fp.sha  # noqa: E731
    tiers = {}
    for tier, name in ((1, "high"), (2, "normal")):
        sets = [{key(res.fingerprints[i]) for i in members}
                for members in res.clusters[name]]
        tiers[tier] = [list(s) for s in sets if len(s) > 1]
    return _digest(tiers)


def load_pins() -> dict:
    with open(PINS_PATH) as f:
        return json.load(f)


def high_edges(result, config) -> pa.Table:
    """The run's verified edges within the high tier, on the driver."""
    high = result.edges.filter(expr=f"hamming <= {config.t_high}")
    df = high.select_columns(["sha_a", "sha_b"]).to_pandas()
    if df.empty:  # a 0-row to_pandas may carry no columns
        return pa.table({"sha_a": pa.array([], pa.string()),
                         "sha_b": pa.array([], pa.string())})
    return pa.Table.from_pandas(df, preserve_index=False)


def dup_recall(edges: pa.Table, dup_pairs: list[tuple[str, str]]) -> float:
    """Share of planted dup file pairs connected in the edge graph
    ``(sha_a, sha_b)``; in block mode a pair counts when some unit of
    each file shares a component."""
    if not dup_pairs:
        return 1.0
    parent: dict[str, str] = {}

    def find(x: str) -> str:
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(edges["sha_a"].to_pylist(), edges["sha_b"].to_pylist()):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    comps: dict[str, set] = collections.defaultdict(set)
    for unit in list(parent):
        comps[unit.split(":", 1)[0]].add(find(unit))
    hit = sum(1 for a, b in dup_pairs if comps.get(a, set()) & comps.get(b, set()))
    return hit / len(dup_pairs)


def check_result(clusters: pa.Table, edges: pa.Table, dup_pairs,
                 expected_digest: str | None) -> tuple[bool, dict]:
    """→ (passed, detail)."""
    recall = dup_recall(edges, dup_pairs)
    digest = partition_digest(clusters)
    detail = {"recall": recall, "digest": digest,
              "expected_digest": expected_digest}
    return recall >= MIN_RECALL and digest == expected_digest, detail
