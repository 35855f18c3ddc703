"""TCD — Temporal Core Decomposition (paper §3, Algorithms 2 and 4).

``tcd_operation`` mutates a TEL in place: *truncation* drops timeline
nodes outside ``[ts, te]`` from both ends, then *decomposition* peels
vertices with fewer than ``k`` distinct neighbours. By Theorem 1 it may
be applied to any temporal k-core whose interval contains ``[ts, te]``,
which is what makes the decremental row sweep of Algorithm 2 correct.
Such an instance is a k-core already, so decomposition peels from the
TEL's sub-``k`` worklist and scans every degree only for an instance
not yet known to be a core at ``k`` (a fresh window, or a larger ``k``).

``window_tel`` cuts ``TEL(G_[ts,te])`` out of the time-sorted dataset
arrays by bisection, so a query costs its window, not the dataset.

``tcd_query`` is Algorithm 2: enumerate subintervals row-major
(``ts`` ascending; within a row ``te`` descending), inducing each core
from the previous one, collecting a core when its edge set has not been
seen before.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right

from .records import CoreRecord, QueryResult, QueryStats
from .tel import TEL


def tcd_operation(
    tel: TEL,
    k: int,
    ts: int,
    te: int,
    *,
    min_strength: int = 1,
) -> TEL:
    """Induce ``T^k_[ts,te]`` in place from the graph held by ``tel``.

    ``min_strength`` implements the link-strength extension (paper
    §6.2): a vertex pair counts as adjacent only while it retains at
    least that many parallel edges; pairs that fall below the bound
    lose all their remaining edges. ``min_strength=1`` is plain TCQ.
    """
    # -- truncation: walk the timeline from the head up to ts ...
    t = tel.head_t
    while t is not None and t < ts:
        bucket = tel.tl[t]
        for e in list(bucket):
            tel.del_edge(e, from_tl=False)
        bucket.clear()
        nxt = tel.next_t.get(t)
        tel._del_tl_node(t)
        t = nxt
    # ... and from the tail down to te.
    t = tel.tail_t
    while t is not None and t > te:
        bucket = tel.tl[t]
        for e in list(bucket):
            tel.del_edge(e, from_tl=False)
        bucket.clear()
        prv = tel.prev_t.get(t)
        tel._del_tl_node(t)
        t = prv

    if min_strength > 1:
        _enforce_strength(tel, min_strength)

    # -- decomposition: peel vertices with degree < k from the worklist.
    deg, low = tel.deg, tel.low
    if k > tel.kcore:
        low[:] = [v for v, d in deg.items() if d < k]
    tel.kcore = k
    while low:
        v = low.pop()
        if deg.get(v, k) >= k:
            continue  # still >= k, or gone already
        for e in tel.incident_edges(v):
            if e in tel.alive:
                tel.del_edge(e)
        if min_strength > 1:
            _enforce_strength(tel, min_strength)
    return tel


def _enforce_strength(tel: TEL, min_strength: int) -> None:
    """Drop every vertex pair whose parallel-edge count sank below the
    link-strength bound, cascading until no weak pair remains."""
    while True:
        weak = [
            (a, b)
            for a, c in tel.nbr.items()
            for b, m in c.items()
            if m < min_strength and a < b
        ]
        if not weak:
            return
        for a, b in weak:
            for e in list(tel.sl.get(a, ())) + list(tel.dl.get(a, ())):
                if e in tel.alive and (
                    (tel.edge_u[e] == a and tel.edge_v[e] == b)
                    or (tel.edge_u[e] == b and tel.edge_v[e] == a)
                ):
                    tel.del_edge(e)


def window_tel(
    edge_u: list[int],
    edge_v: list[int],
    edge_t: list[int],
    ts: int,
    te: int,
) -> TEL:
    """``TEL(G_[ts,te])`` built directly from the full edge arrays,
    keeping *global* edge ids so signatures stay comparable across
    algorithms (paper §5.2: queries start from a truncated copy of
    TEL(G); building only the window is the same object for less work).

    On a time-sorted ``edge_t`` list (as ``generate_pdf`` and
    ``edge_arrays`` give) the window is the id range found by bisection;
    anything else falls back to a scan. Sortedness is checked on every
    call, at C speed, because the list may have been changed since.
    """
    if sorted(edge_t) == edge_t:
        eids = range(bisect_left(edge_t, ts), bisect_right(edge_t, te))
    else:
        eids = [e for e, t in enumerate(edge_t) if ts <= t <= te]
    return TEL(edge_u, edge_v, edge_t, eids=eids)


def row_sweep_distinct(
    tel: TEL, k: int, ts: int, Te: int
) -> list[tuple[int, int, int, int, int]]:
    """One anchor row of the schedule with PoR-style jumping: emit one
    record ``(te, tti_s, tti_e, n_vertices, n_edges)`` per distinct core
    in row ``ts``. Mutates ``tel`` (callers pass a fresh copy). This is
    the per-task kernel of the distributed TCQ (rows are independent by
    Theorem 1; cross-row duplicates are removed by a distinct-by-TTI
    reduction, correct by Property 2).
    """
    out: list[tuple[int, int, int, int, int]] = []
    tcd_operation(tel, k, ts, Te)
    te = Te
    while not tel.is_empty():
        tti = tel.get_tti()
        assert tti is not None
        out.append((te, tti[0], tti[1], tel.n_vertices(), tel.n_edges))
        te = tti[1] - 1  # PoR: cells in between induce the same core
        if te < ts:
            break
        tcd_operation(tel, k, ts, te)
    return out


def _collect(
    tel: TEL, ts: int, te: int, *, materialize: bool, signatures: bool = True
) -> CoreRecord:
    # Signatures/edge lists copy O(|core|) per collected core — exact
    # identities for tests and result export. Large scans (Table 6's
    # full-span query collects tens of thousands of cores) disable them
    # and rely on TTI identity (Property 2).
    tti = tel.get_tti()
    assert tti is not None
    return CoreRecord(
        ts=ts,
        te=te,
        tti=tti,
        n_vertices=tel.n_vertices(),
        n_edges=tel.n_edges,
        signature=tel.signature() if signatures else frozenset(),
        edges=tuple(tel.edges()) if materialize else None,
    )


def tcd_query(
    graph: TEL,
    k: int,
    Ts: int,
    Te: int,
    *,
    materialize: bool = False,
    min_strength: int = 1,
    max_span: int | None = None,
) -> QueryResult:
    """Algorithm 2: answer TCQ(G, k, [Ts, Te]) with plain TCD.

    ``graph`` is not modified (the sweep works on copies, mirroring the
    paper's "copy of TEL(G_[Ts,Te])"). ``max_span`` filters results by
    TTI span (time-span extension, §6.2) without affecting enumeration.
    """
    span = Te - Ts + 1
    res = QueryResult(stats=QueryStats(cells_total=span * (span + 1) // 2))
    seen: set[frozenset[int]] = set()

    # Row-start chain: A holds T^k_[ts, Te]; B sweeps the row.
    chain = graph.copy()
    tcd_operation(chain, k, Ts, Te, min_strength=min_strength)
    res.stats.cells_evaluated += 1
    for ts in range(Ts, Te + 1):
        if ts > Ts:
            tcd_operation(chain, k, ts, Te, min_strength=min_strength)
            res.stats.cells_evaluated += 1
        if chain.is_empty():
            # T^k_[ts,Te] empty ⇒ every remaining subinterval is empty.
            break
        res.stats.rows_started += 1
        _maybe_collect(res, seen, chain, ts, Te, materialize, max_span)
        row = chain.copy()
        for te in range(Te - 1, ts - 1, -1):
            tcd_operation(row, k, ts, te, min_strength=min_strength)
            res.stats.cells_evaluated += 1
            if row.is_empty():
                break
            _maybe_collect(res, seen, row, ts, te, materialize, max_span)
    res.stats.cores_collected = len(res.cores)
    return res


def _maybe_collect(
    res: QueryResult,
    seen: set[frozenset[int]],
    tel: TEL,
    ts: int,
    te: int,
    materialize: bool,
    max_span: int | None,
) -> None:
    sig = tel.signature()
    if sig in seen:
        return
    seen.add(sig)
    rec = _collect(tel, ts, te, materialize=materialize)
    if max_span is not None and rec.tti[1] - rec.tti[0] + 1 > max_span:
        return
    res.cores.append(rec)
