"""Temporal Edge List (TEL) — the paper's in-memory temporal-graph structure.

A TEL (paper §5.1, Figure 5) organises the temporal edges of a graph in
three dimensions, each supporting O(1) manipulation:

* **TL (Time List)** — edges grouped by timestamp; the non-empty
  timestamps are threaded on a doubly-linked *timeline* in ascending
  order, so ``get_TTI`` is a head/tail read and truncation walks the
  timeline from either end.
* **SL (Source List) / DL (Destination List)** — per-vertex adjacency:
  the edges whose source (resp. destination) is ``v``.

On top of the paper's structure we maintain, per vertex, a multiplicity
counter of *distinct neighbours* (temporal k-core degrees count neighbour
vertices, not parallel edges). In place of the paper's degree heap
``H_v``, Algorithm 4 peels from a sub-``k`` worklist (the O(m) peeling
of Batagelj & Zaversnik, 2003): every vertex whose degree is below the
instance's known core level ``kcore`` is on ``low``, because deletions
and appends push each vertex whose degree changes to below it.

All mutating operations keep the invariant that a timestamp node exists
on the timeline iff its TL is non-empty, so the TTI of the represented
(sub)graph is always ``(head.t, tail.t)``.
"""
from __future__ import annotations

from typing import Iterable, Iterator, Sequence


class TEL:
    """Temporal Edge List over edges ``(u, v, t)`` with stable edge ids.

    Edge ids index into the ``edge_u/edge_v/edge_t`` arrays shared by
    every TEL derived from the same base graph, so edge-set signatures
    are comparable across copies and across processes that rebuilt the
    arrays deterministically. A TEL never writes to arrays it was given:
    its first ``add_edge`` switches it to private copies (``own_arrays``).
    """

    __slots__ = (
        "edge_u", "edge_v", "edge_t",
        "alive", "tl", "next_t", "prev_t", "head_t", "tail_t",
        "sl", "dl", "nbr", "deg", "low", "kcore", "n_edges", "own_arrays",
    )

    def __init__(
        self,
        edge_u: Sequence[int],
        edge_v: Sequence[int],
        edge_t: Sequence[int],
        eids: Iterable[int] | None = None,
    ) -> None:
        self.edge_u = edge_u
        self.edge_v = edge_v
        self.edge_t = edge_t
        if eids is None:
            eids = range(len(edge_u))
        # TL: timestamp -> set of edge ids; timeline threaded via dicts.
        tl: dict[int, set[int]] = {}
        sl: dict[int, set[int]] = {}
        dl: dict[int, set[int]] = {}
        nbr: dict[int, dict[int, int]] = {}
        alive: set[int] = set()
        for e in eids:
            u, v, t = edge_u[e], edge_v[e], edge_t[e]
            alive.add(e)
            tl.setdefault(t, set()).add(e)
            sl.setdefault(u, set()).add(e)
            dl.setdefault(v, set()).add(e)
            cu = nbr.setdefault(u, {})
            cu[v] = cu.get(v, 0) + 1
            cv = nbr.setdefault(v, {})
            cv[u] = cv.get(u, 0) + 1
        self.alive = alive
        self.tl = tl
        ts_sorted = sorted(tl)
        self.next_t = {}
        self.prev_t = {}
        for a, b in zip(ts_sorted, ts_sorted[1:]):
            self.next_t[a] = b
            self.prev_t[b] = a
        self.head_t = ts_sorted[0] if ts_sorted else None
        self.tail_t = ts_sorted[-1] if ts_sorted else None
        self.sl = sl
        self.dl = dl
        self.nbr = nbr
        self.deg = {v: len(c) for v, c in nbr.items()}
        self.low: list[int] = []
        self.kcore = 1  # every listed vertex has a neighbour
        self.n_edges = len(alive)
        self.own_arrays = False

    # -- factories ---------------------------------------------------------

    @classmethod
    def from_edges(cls, edges: Iterable[tuple[int, int, int]]) -> "TEL":
        """Build a TEL from an iterable of ``(u, v, t)`` triples."""
        us, vs, ts = [], [], []
        for u, v, t in edges:
            us.append(u)
            vs.append(v)
            ts.append(t)
        return cls(us, vs, ts)

    def copy(self) -> "TEL":
        """An independent TEL over the currently-alive edges.

        Shares the edge arrays and copies the mutable index bucket by
        bucket, in time linear in the alive edges and without rehashing
        them one by one. Used by (O)TCD to start each anchor row from
        ``T^k_[ts, Te]`` without disturbing the row-start chain instance
        (paper §5.2 keeps exactly these two instances in memory).
        """
        cp = TEL.__new__(TEL)
        cp.edge_u, cp.edge_v, cp.edge_t = self.edge_u, self.edge_v, self.edge_t
        cp.alive = self.alive.copy()
        cp.tl = dict(zip(self.tl, map(set.copy, self.tl.values())))
        cp.next_t = self.next_t.copy()
        cp.prev_t = self.prev_t.copy()
        cp.head_t, cp.tail_t = self.head_t, self.tail_t
        cp.sl = dict(zip(self.sl, map(set.copy, self.sl.values())))
        cp.dl = dict(zip(self.dl, map(set.copy, self.dl.values())))
        cp.nbr = dict(zip(self.nbr, map(dict.copy, self.nbr.values())))
        cp.deg = self.deg.copy()
        cp.low = self.low.copy()
        cp.kcore = self.kcore
        cp.n_edges = self.n_edges
        cp.own_arrays = False
        return cp

    # -- O(1) manipulations (paper Table 1) --------------------------------

    def get_tti(self) -> tuple[int, int] | None:
        """Timestamps of the timeline's head and tail (``None`` if empty)."""
        if self.head_t is None:
            return None
        return (self.head_t, self.tail_t)

    def _del_tl_node(self, t: int) -> None:
        """Unlink timestamp ``t`` from the timeline (its TL must be empty)."""
        nxt = self.next_t.pop(t, None)
        prv = self.prev_t.pop(t, None)
        if prv is not None:
            if nxt is not None:
                self.next_t[prv] = nxt
            else:
                self.next_t.pop(prv, None)
        if nxt is not None:
            if prv is not None:
                self.prev_t[nxt] = prv
            else:
                self.prev_t.pop(nxt, None)
        if self.head_t == t:
            self.head_t = nxt
        if self.tail_t == t:
            self.tail_t = prv
        del self.tl[t]

    def del_edge(self, e: int, *, from_tl: bool = True) -> None:
        """Delete edge ``e``; update TL/SL/DL, degrees and the worklist.

        ``from_tl=False`` skips the TL removal when the caller is
        consuming an entire TL bucket itself (truncation fast path).
        Empty TLs are unlinked immediately so the TTI invariant holds.
        """
        u, v, t = self.edge_u[e], self.edge_v[e], self.edge_t[e]
        self.alive.discard(e)
        self.n_edges -= 1
        if from_tl:
            bucket = self.tl[t]
            bucket.discard(e)
            if not bucket:
                self._del_tl_node(t)
        s = self.sl.get(u)
        if s is not None:
            s.discard(e)
            if not s:
                del self.sl[u]
        d = self.dl.get(v)
        if d is not None:
            d.discard(e)
            if not d:
                del self.dl[v]
        for a, b in ((u, v), (v, u)):
            c = self.nbr[a]
            m = c[b] - 1
            if m:
                c[b] = m
            else:
                del c[b]
                if c:
                    n = self.deg[a] = len(c)
                    if n < self.kcore:
                        self.low.append(a)
                else:
                    del self.nbr[a]
                    del self.deg[a]

    def add_edge(self, u: int, v: int, t: int) -> int:
        """Dynamic-graph append (paper §6.1): ``t`` must be >= every
        existing timestamp (new events arrive in time order). O(1), but
        for the first append, which copies the edge arrays."""
        if self.tail_t is not None and t < self.tail_t:
            raise ValueError(
                f"add_edge requires non-decreasing timestamps "
                f"(got {t} < tail {self.tail_t})"
            )
        if not self.own_arrays:
            # The arrays may be shared (a dataset cache, other TELs):
            # new ids extend private copies.
            self.edge_u = list(self.edge_u)
            self.edge_v = list(self.edge_v)
            self.edge_t = list(self.edge_t)
            self.own_arrays = True
        e = len(self.edge_u)
        self.edge_u.append(u)
        self.edge_v.append(v)
        self.edge_t.append(t)
        self.alive.add(e)
        self.n_edges += 1
        if t in self.tl:
            self.tl[t].add(e)
        else:
            self.tl[t] = {e}
            if self.tail_t is None:
                self.head_t = self.tail_t = t
            else:
                self.next_t[self.tail_t] = t
                self.prev_t[t] = self.tail_t
                self.tail_t = t
        self.sl.setdefault(u, set()).add(e)
        self.dl.setdefault(v, set()).add(e)
        for a, b in ((u, v), (v, u)):
            c = self.nbr.setdefault(a, {})
            if b in c:
                c[b] += 1
            else:
                c[b] = 1
                n = self.deg[a] = len(c)
                if n < self.kcore:  # a new vertex: older ones are >= kcore or on low
                    self.low.append(a)
        return e

    # -- derived views -----------------------------------------------------

    def is_empty(self) -> bool:
        return self.n_edges == 0

    def vertices(self) -> set[int]:
        """Vertices with at least one incident alive edge."""
        return set(self.deg)

    def n_vertices(self) -> int:
        return len(self.deg)

    def edges(self) -> list[tuple[int, int, int]]:
        """Alive edges as sorted ``(u, v, t)`` triples (for materialising
        query results; not used on algorithm hot paths)."""
        eu, ev, et = self.edge_u, self.edge_v, self.edge_t
        return sorted((eu[e], ev[e], et[e]) for e in self.alive)

    def signature(self) -> frozenset[int]:
        """Edge-set identity of the represented subgraph."""
        return frozenset(self.alive)

    def incident_edges(self, v: int) -> Iterator[int]:
        """All alive edges touching ``v`` (its SL then DL)."""
        yield from list(self.sl.get(v, ()))
        yield from list(self.dl.get(v, ()))

    def timestamps(self) -> list[int]:
        """Timeline timestamps in ascending order (walks the links)."""
        out = []
        t = self.head_t
        while t is not None:
            out.append(t)
            t = self.next_t.get(t)
        return out
