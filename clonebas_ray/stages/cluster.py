"""Clustering: verified edges → clone-cluster assignments (SURVEY §2.5 A1).

The reference's greedy complete-linkage loop is order-dependent and
inherently sequential (``SimHasher.cpp:149-192``).  We compute
connected components over the verified edges first (which can only
over-merge — preserving dup-pair recall, the binding target), then
``refine_complete_linkage`` replays the exact sequential loop WITHIN
each component in canonical walk order, restoring full cluster parity
(recall 1.0 AND precision 1.0 vs the oracle) while every sequential
problem stays component-sized.

Component builders (pick by edge volume):

* ``union_find_clusters`` — driver-side union-find over the edge list.
  The DEFAULT: verified edges are orders of magnitude smaller than the
  input (they reference distinct-signature representatives), so even a
  10^12-file corpus with a 1% near-dup rate yields an edge list that
  fits comfortably on the driver.  Mirrors ``CloneSet.cpp:22-84``
  (``kernels.union_find``: union by min sha + path compression).
* ``label_propagation`` — distributed fallback for adversarial edge
  volumes: iterated min-label propagation over
  ``groupby(node).aggregate(min)`` until fixpoint.  O(diameter)
  shuffle rounds; near-dup graphs have tiny diameters (hub-and-spoke
  around representatives), so 3-5 rounds suffice.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data

from clonebas_ray.functions.kernels import union_find


def union_find_clusters(edges: pa.Table) -> dict[str, int]:
    """edge table (sha_a, sha_b) → {sha: cluster_id}; cluster ids are
    dense ints ordered by the min sha in each cluster (deterministic,
    independent of edge arrival order)."""
    if edges.num_rows == 0 or "sha_a" not in edges.column_names:
        return {}
    roots = union_find(
        [(edges["sha_a"].to_pylist(), edges["sha_b"].to_pylist())])
    members: dict[str, list[str]] = {}
    for sha, root in roots.items():
        members.setdefault(root, []).append(sha)
    return {
        sha: cid
        for cid, root in enumerate(sorted(members))
        for sha in members[root]
    }


def clusters_table(assignment: dict[str, int], tier: int = 1) -> pa.Table:
    shas = sorted(assignment)
    return pa.table(
        {
            "sha": pa.array(shas, pa.string()),
            "cluster_id": pa.array([assignment[s] for s in shas], pa.int64()),
            "tier": pa.array([tier] * len(shas), pa.int8()),
        }
    )


def label_propagation(
    edges: ray.data.Dataset, max_iters: int = 20
) -> ray.data.Dataset:
    """Distributed connected components: (sha_a, sha_b) edge Dataset →
    (sha, label) Dataset where label = min sha reachable.

    Each round: every node adopts the min label among itself and its
    neighbors' labels (one groupby shuffle per round); stops when no
    label changes.  Use when the edge list is too large for the driver.
    """

    def to_directed(batch: pa.Table) -> pa.Table:
        a = batch["sha_a"]
        b = batch["sha_b"]
        return pa.table(
            {
                "node": pa.concat_arrays(
                    [a.combine_chunks(), b.combine_chunks()]
                ),
                "peer": pa.concat_arrays(
                    [b.combine_chunks(), a.combine_chunks()]
                ),
            }
        )

    def add_bucket(batch: pa.Table, col: str) -> pa.Table:
        h = pd.util.hash_array(
            batch[col].to_numpy(zero_copy_only=False)
        ) % 32
        return batch.append_column(
            "__bucket", pa.array(h.astype("int32"), pa.int32())
        )

    directed = edges.map_batches(to_directed, batch_format="pyarrow")
    directed = directed.map_batches(
        lambda t: add_bucket(t, "node"), batch_format="pyarrow"
    ).materialize()
    # initial label of a node = min(node, min peer)
    labels = directed.groupby("node").aggregate(
        ray.data.aggregate.Min("peer", alias_name="label")
    )
    labels = labels.map_batches(
        lambda t: pa.table(
            {
                "node": t["node"],
                "label": pa.compute.min_element_wise(t["node"], t["label"]),
            }
        ),
        batch_format="pyarrow",
    )

    for _ in range(max_iters):
        labels_mat = labels.materialize()
        # push labels across edges with an explicit bucketed merge:
        # co-locate edge rows and label rows by hash(node), pandas-merge
        # within each bucket — no driver pull, no engine join op
        lab_b = labels_mat.map_batches(
            lambda t: add_bucket(t, "node").append_column(
                "peer", pa.array([""] * t.num_rows, pa.string())
            ),
            batch_format="pyarrow",
        )

        def merge_bucket(g: pd.DataFrame) -> pd.DataFrame:
            lab = g[g["peer"] == ""][["node", "label"]]
            edg = g[g["peer"] != ""][["node", "peer"]]
            if edg.empty:
                return pd.DataFrame(
                    {"node": pd.Series(dtype="object"),
                     "label": pd.Series(dtype="object")}
                )
            m = edg.merge(lab, on="node", how="left")
            m["label"] = m["label"].fillna(m["node"])
            return pd.DataFrame(
                {"node": m["peer"].to_numpy(), "label": m["label"].to_numpy()}
            )

        dir_tagged = directed.map_batches(
            lambda t: t.append_column(
                "label", pa.array([None] * t.num_rows, pa.string())
            ),
            batch_format="pyarrow",
        )
        both = dir_tagged.select_columns(
            ["node", "peer", "label", "__bucket"]
        ).union(
            lab_b.select_columns(["node", "peer", "label", "__bucket"])
        )
        pushed = both.groupby("__bucket").map_groups(
            merge_bucket, batch_format="pandas"
        )
        # normalize to arrow blocks so the union feeding the next
        # groupby is homogeneous (mixed pandas/arrow blocks break
        # sort-boundary sampling)
        pushed = pushed.map_batches(
            lambda t: t, batch_format="pyarrow"
        )
        cand = pushed.union(labels_mat)
        new_labels = cand.groupby("node").aggregate(
            ray.data.aggregate.Min("label", alias_name="label")
        )
        new_mat = new_labels.materialize()
        # fixpoint check without pulling labels to the driver: compare
        # an order-independent checksum of (node, label) pairs
        new_sum = _labels_checksum(new_mat)
        old_sum = _labels_checksum(labels_mat)
        labels = new_mat
        if new_sum == old_sum:
            break
    return labels


def label_propagation_assignment(
    edges: ray.data.Dataset, max_iters: int = 50
) -> dict[str, int]:
    """Distributed drop-in for :func:`union_find_clusters` on an edge
    DATASET: connected components via :func:`label_propagation` (the
    edge list never touches the driver — only the node-level
    ``(node, min-sha label)`` result does, which is dup-family-bounded
    while |edges| can be quadratic in it), relabeled to the same dense
    ids: cluster id = rank of the component's min sha among all
    components — bit-identical to the union-find assignment."""
    df = label_propagation(edges, max_iters=max_iters).to_pandas()
    if df.empty:
        return {}
    roots = {r: i for i, r in enumerate(sorted(df["label"].unique()))}
    return {
        n: roots[l] for n, l in zip(df["node"], df["label"])
    }


def _labels_checksum(labels: ray.data.Dataset) -> int:
    def per_batch(batch: pa.Table) -> pa.Table:
        h = pd.util.hash_pandas_object(
            batch.to_pandas()[["node", "label"]].agg("|".join, axis=1),
            index=False,
        ).to_numpy()
        return pa.table({"h": pa.array([int(np.bitwise_xor.reduce(h))], pa.uint64())})

    parts = labels.map_batches(per_batch, batch_format="pyarrow").take_all()
    acc = 0
    for row in parts:
        acc ^= int(row["h"])
    return acc


def _refine_component(
    shas: list[str],
    meta: dict[str, tuple[int, int, int, str]],
    sigma: int,
    span_gate: float,
    max_component: int,
) -> list[tuple[str, list[str]]]:
    """Exact greedy complete-linkage replay for ONE connected
    component (see ``refine_complete_linkage``); pure function so big
    components can run as Ray tasks in parallel."""
    import collections

    from clonebas_ray.functions.simhash import hamming_pairs

    out: list[tuple[str, list[str]]] = []
    # collapse identical (sig, token) twins
    nodes: dict[tuple[int, int, int], list[str]] = collections.defaultdict(list)
    for s in shas:
        hi, lo, tok, _ = meta[s]
        nodes[(hi, lo, tok)].append(s)
    keys = list(nodes)
    K = len(keys)
    if K > max_component or K == 1:
        # pathological / all-twins: keep CC grouping for this component
        out.append((min(shas), list(shas)))
        return out
    # order: descending max order-key over the node's twins
    order_key = [max(meta[s][3] for s in nodes[k]) for k in keys]
    order = sorted(range(K), key=lambda i: order_key[i], reverse=True)
    hi = np.array([k[0] for k in keys], dtype=np.uint64)
    lo = np.array([k[1] for k in keys], dtype=np.uint64)
    tok = np.array([k[2] for k in keys], dtype=np.float64)
    d = hamming_pairs(hi[:, None], lo[:, None], hi[None, :], lo[None, :])
    gate = (
        np.abs(tok[:, None] - tok[None, :])
        <= np.minimum(tok[:, None], tok[None, :]) * span_gate
    )
    # reference semantics: the span gate applies only between j and
    # the set ANCHOR i (checkToCompare(i,j) — SimHasher.cpp:171),
    # while Hamming <= sigma applies to EVERY member
    # (checkCanAddToSet — SimHasher.cpp:177)
    ok_sigma = d <= sigma
    ok = ok_sigma & gate  # anchor-row condition
    pos = np.empty(K, dtype=np.int64)
    for p_, n_ in enumerate(order):
        pos[n_] = p_
    in_set = np.zeros(K, dtype=bool)
    for p_i, i in enumerate(order):
        if in_set[i]:
            continue
        feasible = ok[i].copy()
        members = [i]
        joined = False
        # scan only i's sigma-neighborhood, in walk order after i
        cand = np.flatnonzero(ok[i] & ~in_set)
        cand = cand[pos[cand] > p_i]
        cand = cand[np.argsort(pos[cand])]
        for j in cand:
            if in_set[j] or not feasible[j]:
                continue
            members.append(int(j))
            in_set[j] = True
            joined = True
            feasible &= ok_sigma[j]  # members constrain sigma only
        # a node holding >= 2 twin shas is a set even with no OTHER
        # node to join: at instance level the anchor twin pulls in its
        # Hamming-0 siblings (they satisfy every set constraint the
        # anchor does), so dropping it would lose those oracle pairs
        if joined or len(nodes[keys[i]]) > 1:
            in_set[i] = True
            flat = [s for n_ in members for s in nodes[keys[n_]]]
            out.append((min(flat), flat))
    return out


#: collapsed-node count above which a component's replay is dispatched
#: as a Ray task instead of running on the driver (the replay is the
#: pipeline's only serial-by-default step; big components dominate it)
_REFINE_REMOTE_NODES = 256


def refine_complete_linkage(
    assignment: dict[str, int],
    meta: dict[str, tuple[int, int, int, str]],
    sigma: int,
    span_gate: float,
    max_component: int = 20000,
) -> dict[str, int]:
    """Exact greedy complete-linkage WITHIN each connected component
    (``SimHasher.cpp:149-192`` semantics at sha level), in canonical
    walk order (descending file key — see ``oracle._walk_order``).

    Connected components can only over-merge relative to the
    reference's greedy loop; since cross-component joins are
    impossible (complete linkage requires Hamming <= sigma to the set
    anchor), re-running the exact sequential algorithm per component
    reproduces the reference clustering while every component stays a
    tiny driver-side problem.

    Scale discipline:
    * shas with identical (signature, span) are collapsed to one node
      first — exact (twins share every pairwise decision), and it is
      what bounds hot boilerplate components;
    * the pairwise Hamming/gate matrix is built vectorized; the greedy
      scan touches only each anchor's sigma-neighborhood (a running
      ``feasible`` AND-mask), so total work is O(component edges);
    * a component still larger than ``max_component`` nodes after
      collapsing keeps its connected-components grouping (logged via
      the returned ids; recall unaffected — CC only over-merges).

    ``meta``: sha → (sig_hi, sig_lo, token_num, order_key).
    Returns the refined assignment (singleton shas are dropped, like
    the reference, which only reports joined sets).

    Components are independent replay problems, so components with
    many collapsed nodes (>= ``_REFINE_REMOTE_NODES``) dispatch as
    parallel Ray tasks — Amdahl's law otherwise makes this the
    pipeline's dominant serial step on clone-heavy corpora — while
    the long tail of tiny components runs inline (task overhead would
    dwarf them).  Output ids are assigned by sorted min-member sha,
    so the result is independent of execution order.
    """
    import collections

    import ray

    comps: dict[int, list[str]] = collections.defaultdict(list)
    for sha, cid in assignment.items():
        comps[cid].append(sha)

    refine_remote = ray.remote(_refine_component)

    sets_by_min_sha: list[tuple[str, list[str]]] = []
    pending = []
    for cid, shas in comps.items():
        if len(shas) < 2:
            continue
        n_nodes = len({meta[s][:3] for s in shas})
        if n_nodes >= _REFINE_REMOTE_NODES:
            comp_meta = {s: meta[s] for s in shas}
            pending.append(
                refine_remote.remote(
                    shas, comp_meta, sigma, span_gate, max_component
                )
            )
        else:
            sets_by_min_sha.extend(
                _refine_component(shas, meta, sigma, span_gate,
                                  max_component)
            )
    for res in ray.get(pending):
        sets_by_min_sha.extend(res)

    refined: dict[str, int] = {}
    for new_id, (_, members) in enumerate(sorted(sets_by_min_sha)):
        for s in members:
            refined[s] = new_id
    return refined
