"""Connected components over near-duplicate pair sets — the step that
turns pairwise dedup candidates into CLUSTERS (one canonical doc per
group of mutual near-duplicates).

Contraction scheme (the practical large-graph CC design, e.g. Kiveris
et al., "Connected Components in MapReduce and Beyond" — public paper;
structure only):

1. Edges hash-partition on one endpoint; each partition task solves
   its LOCAL subgraph exactly with a vectorized numpy min-label +
   pointer-jumping kernel (O(E · log d) vector passes, no Python
   loop over edges).
2. A node seen in several partitions gets several local roots; star
   edges between those roots form the next level's (much smaller)
   edge set.  Contraction repeats until the surviving edges need one
   partition (``rows_per_partition``); a ``partition_apply`` with
   P = 1 then solves them exactly.
3. Labels resolve top-down: each level's (node → local-min-root)
   mapping looks up the next level's final label for its root
   (hash-partitioned lookup, identity default for roots whose
   component never left their partition).

A near-dup candidate graph at bench scale is one in-process solve
(``partition_apply``'s size policy); at 100-TB scale each level is two
shuffles and the edge set shrinks geometrically — versus
O(diameter / log) shuffle ROUNDS for message-passing label
propagation, whose fixed per-round cost dominated this op's wall
time.  Driver state: one edge count per level.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from .common import default_partitions, partition_apply, sorted_runs, subtract_ids

_PAIR_SCHEMA = pa.schema([("a", pa.int64()), ("b", pa.int64())])
_LVL_SCHEMA = pa.schema([("u", pa.int64()), ("v", pa.int64()), ("kind", pa.int8())])
_MAP_SCHEMA = pa.schema([("u", pa.int64()), ("v", pa.int64())])
_ROOT_SCHEMA = pa.schema([("node", pa.int64()), ("root", pa.int64())])
_LABEL_SCHEMA = pa.schema([("doc_id", pa.int64()), ("component", pa.int64())])


def _numpy_components(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact CC over one edge list: (nodes, component-min root per
    node).  Min-label iteration with pointer jumping on a dense local
    relabeling — every step is a whole-array numpy kernel."""
    ids = np.concatenate([a, b])
    nodes, inv = np.unique(ids, return_inverse=True)
    s, d = inv[: len(a)], inv[len(a) :]
    lbl = np.arange(len(nodes), dtype=np.int64)
    while True:
        new = lbl.copy()
        np.minimum.at(new, d, lbl[s])
        np.minimum.at(new, s, lbl[d])
        new = new[new]  # pointer jump: adopt label's label
        if np.array_equal(new, lbl):
            break
        lbl = new
    return nodes, nodes[lbl]


def _solve(batch: pa.Table, schema: pa.Schema = _LABEL_SCHEMA) -> pa.Table:
    """(a, b) edge batch → exact (node, component-min root) rows of
    ``schema`` for its subgraph."""
    a = np.asarray(batch["a"].to_numpy(zero_copy_only=False), dtype=np.int64)
    b = np.asarray(batch["b"].to_numpy(zero_copy_only=False), dtype=np.int64)
    nodes, roots = _numpy_components(a, b)
    return pa.Table.from_arrays([pa.array(nodes), pa.array(roots)], schema=schema)


def _contract_group(group: pa.Table) -> pa.Table:
    """One partition's (node, root) rows → unified-schema output:
    mapping rows (node, min-root, kind=0) and star edges
    (min-root, other-root, kind=1)."""
    n = np.asarray(group["node"].to_numpy(zero_copy_only=False), dtype=np.int64)
    r = np.asarray(group["root"].to_numpy(zero_copy_only=False), dtype=np.int64)
    order = np.lexsort((r, n))
    n, r = n[order], r[order]
    starts, counts = sorted_runs(n)
    m = r[starts]  # per-node min root (rows sorted by (node, root))
    group_idx = np.repeat(np.arange(len(starts)), counts)
    mapping = pa.table(
        {
            "u": pa.array(n[starts]),
            "v": pa.array(m),
            "kind": pa.array(np.zeros(len(starts), dtype=np.int8)),
        }
    )
    # star edges: every non-min root links to its node's min root
    star = r != m[group_idx]
    # dedupe (m, root) star pairs within the partition
    eu, ev = m[group_idx][star], r[star]
    if len(eu):
        key = np.stack([eu, ev], axis=1)
        key = np.unique(key, axis=0)
        eu, ev = key[:, 0], key[:, 1]
    edges = pa.table(
        {
            "u": pa.array(eu),
            "v": pa.array(ev),
            "kind": pa.array(np.ones(len(eu), dtype=np.int8)),
        }
    )
    return pa.concat_tables([mapping.cast(_LVL_SCHEMA), edges.cast(_LVL_SCHEMA)])


def _resolve(mapping: ray.data.Dataset, labels: ray.data.Dataset, P: int) -> ray.data.Dataset:
    """node→root mapping (u, v) + root→component labels → node→
    component (identity for roots without an entry).  One
    partition_apply on the root key, one searchsorted per partition
    task."""

    def route(req: pa.Table, lab: pa.Table) -> pa.Table:
        rk = np.asarray(req["v"].to_numpy(zero_copy_only=False), dtype=np.int64)
        out = rk.copy()  # identity default: root labels itself
        if lab.num_rows:
            lk = np.asarray(lab["doc_id"].to_numpy(zero_copy_only=False), dtype=np.int64)
            lv = np.asarray(lab["component"].to_numpy(zero_copy_only=False), dtype=np.int64)
            o = np.argsort(lk, kind="stable")
            lk, lv = lk[o], lv[o]
            idx = np.minimum(np.searchsorted(lk, rk), len(lk) - 1)
            found = lk[idx] == rk
            out[found] = lv[idx[found]]
        return pa.table({"doc_id": req["u"], "component": pa.array(out)})

    return partition_apply(
        [(mapping, "v", _MAP_SCHEMA), (labels, "doc_id", _LABEL_SCHEMA)], P, route, _LABEL_SCHEMA
    )


def connected_components(
    pairs: ray.data.Dataset,
    *,
    a_col: str = "a",
    b_col: str = "b",
    max_levels: int = 12,
    num_partitions: int | None = None,
    rows_per_partition: int = 1_000_000,
) -> ray.data.Dataset:
    """(a, b) undirected pair rows → (doc_id, component) where
    ``component`` is the minimum doc id reachable from ``doc_id``
    (only nodes appearing in at least one pair are emitted)."""
    P_cap = num_partitions or default_partitions()

    def project(b: pa.Table) -> pa.Table:
        if not b.num_columns or not b.num_rows:
            return _PAIR_SCHEMA.empty_table()
        a, bb = b[a_col].cast(pa.int64()), b[b_col].cast(pa.int64())
        if a.null_count or bb.null_count:
            # a null endpoint would round-trip NaN→INT64_MIN downstream,
            # creating one phantom node that silently BRIDGES every
            # null-bearing pair into a single component (and
            # canonical_docs would then kill every member)
            raise ValueError(
                f"connected_components: null ids in pair columns "
                f"({a_col}: {a.null_count}, {b_col}: {bb.null_count})"
            )
        return pa.table({"a": a, "b": bb}).cast(_PAIR_SCHEMA)

    # Materialize once: feeds the count AND the first contraction (or
    # single-task solve) without re-executing the caller's candidate
    # pipeline per consumer.
    edges = pairs.map_batches(project, batch_format="pyarrow").materialize()

    mappings: list[ray.data.Dataset] = []  # per level: (u=node, v=min root, kind=0) rows
    labels: ray.data.Dataset | None = None
    prev_P: int | None = None
    for _level in range(max_levels):
        n_edges = edges.count()
        if n_edges == 0:
            labels = None
            break
        P = max(1, min(P_cap, (n_edges + rows_per_partition - 1) // rows_per_partition))
        if prev_P is not None:
            # Guaranteed termination: sparse giant components can
            # contract slowly under hash partitioning (each level only
            # merges what co-locates), so the partition count decays
            # ≥8× per level — within log8(P) levels the survivors land
            # in ONE task regardless of graph shape.  Per-task edge
            # count grows only when contraction underperforms; a task
            # solves ~100M edges in numpy comfortably.
            P = min(P, max(1, prev_P // 8))
        prev_P = P
        if P <= 1:
            # the whole surviving graph fits one partition: exact solve there
            labels = partition_apply([(edges, "a", _PAIR_SCHEMA)], 1, _solve, _LABEL_SCHEMA)
            break

        lvl_rows = partition_apply(
            [(edges, "a", _PAIR_SCHEMA)], P, lambda g: _solve(g, _ROOT_SCHEMA), _ROOT_SCHEMA
        )
        # combine per node across partitions: hash-partition on node
        combined = partition_apply(
            [(lvl_rows, "node", _ROOT_SCHEMA)], P, _contract_group, _LVL_SCHEMA
        ).materialize()

        def keep_kind(k: int):
            def fn(b: pa.Table) -> pa.Table:
                sel = b.filter(pc.equal(b["kind"], k))
                return pa.table({"u": sel["u"], "v": sel["v"]})

            return fn

        # carry this level's partition count: the mapping has one row
        # per level-node (same scale as this level's edges), so its
        # resolution shuffle uses the same P the contraction did
        mappings.append((combined.map_batches(keep_kind(0), batch_format="pyarrow"), P))
        edges = (
            combined.map_batches(keep_kind(1), batch_format="pyarrow")
            .map_batches(
                lambda b: pa.table({"a": b["u"], "b": b["v"]}).cast(_PAIR_SCHEMA),
                batch_format="pyarrow",
            )
            .materialize()
        )
    else:
        raise RuntimeError(f"connected_components did not contract within {max_levels} levels")

    # top-down resolution through the contraction levels (the deepest
    # mapping resolves against no labels: every root labels itself)
    if labels is None:
        labels = ray.data.from_arrow(_LABEL_SCHEMA.empty_table())
    for mapping, lvl_P in reversed(mappings):
        labels = _resolve(mapping, labels, max(2, lvl_P)).materialize()
    return labels


def canonical_docs(
    docs: ray.data.Dataset,
    pairs: ray.data.Dataset,
    *,
    id_col: str = "doc_id",
    num_partitions: int | None = None,
    **cc_kwargs,
) -> ray.data.Dataset:
    """APPLY near-dup clustering: keep each component's canonical
    (minimum-id) member and every unpaired document — the final
    "drop the duplicates" step of a dedup pipeline.

    ``num_partitions`` sizes BOTH the component computation and the
    anti-join (it forwards to :func:`connected_components` unless
    ``cc_kwargs`` overrides it explicitly).  The kill set (non-canonical
    member ids) leaves ``docs`` through :func:`common.subtract_ids`.
    """
    cc_kwargs.setdefault("num_partitions", num_partitions)
    comp = connected_components(pairs, **cc_kwargs)

    def kill_rows(b: pa.Table) -> pa.Table:
        keep = pc.not_equal(b["doc_id"], b["component"])
        return pa.table({"kill": b.filter(keep)["doc_id"].cast(pa.int64())})

    kills = comp.map_batches(kill_rows, batch_format="pyarrow")
    return subtract_ids(docs, kills, id_col=id_col, drop_col="kill", num_partitions=num_partitions)
