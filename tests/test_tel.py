"""Unit tests for the TEL data structure (paper §5.1, Table 1)."""
import random

import pytest

from repro.core.tcd import window_tel
from repro.core.tel import TEL

from .util import random_temporal_graph, tel_of


def simple_tel():
    # (u, v, t): a triangle at t=1..2 plus a pendant at t=3.
    return TEL.from_edges([(1, 2, 1), (2, 3, 1), (1, 3, 2), (3, 4, 3)])


class TestConstruction:
    def test_counts(self):
        tel = simple_tel()
        assert tel.n_edges == 4
        assert tel.n_vertices() == 4
        assert tel.vertices() == {1, 2, 3, 4}

    def test_tti_is_min_max_timestamp(self):
        assert simple_tel().get_tti() == (1, 3)

    def test_timeline_sorted(self):
        assert simple_tel().timestamps() == [1, 2, 3]

    def test_degrees_count_distinct_neighbours(self):
        # Parallel edges must not inflate the degree.
        tel = TEL.from_edges([(1, 2, 1), (1, 2, 2), (1, 2, 3), (1, 3, 1)])
        assert tel.deg[1] == 2
        assert tel.deg[2] == 1
        assert tel.deg[3] == 1

    def test_empty(self):
        tel = TEL([], [], [])
        assert tel.is_empty()
        assert tel.get_tti() is None
        assert tel.vertices() == set()

    def test_edges_sorted_view(self):
        tel = simple_tel()
        assert tel.edges() == [(1, 2, 1), (1, 3, 2), (2, 3, 1), (3, 4, 3)]

    @pytest.mark.parametrize("seed", range(10))
    def test_n_edges_matches_alive(self, seed):
        tel = tel_of(random_temporal_graph(seed))
        assert tel.n_edges == len(tel.alive)
        assert tel.n_edges == len(tel.edges())


class TestDelEdge:
    def test_del_edge_updates_everything(self):
        tel = simple_tel()
        tel.del_edge(3)  # (3, 4, 3)
        assert tel.n_edges == 3
        assert 4 not in tel.vertices()
        assert tel.get_tti() == (1, 2)  # TL(3) removed with its last edge
        assert tel.timestamps() == [1, 2]

    def test_del_edge_degree_decrease(self):
        tel = simple_tel()
        assert tel.deg[3] == 3
        tel.del_edge(3)
        assert tel.deg[3] == 2

    def test_parallel_edge_del_keeps_degree(self):
        tel = TEL.from_edges([(1, 2, 1), (1, 2, 2), (1, 3, 1), (2, 3, 1)])
        tel.del_edge(1)  # one of the two parallel (1,2) edges
        assert tel.deg[1] == 2 and tel.deg[2] == 2

    def test_delete_all(self):
        tel = simple_tel()
        for e in list(tel.alive):
            tel.del_edge(e)
        assert tel.is_empty()
        assert tel.get_tti() is None
        assert tel.vertices() == set()
        assert tel.timestamps() == []

    @pytest.mark.parametrize("seed", range(10))
    def test_random_deletion_order_consistency(self, seed):
        import random

        edges = random_temporal_graph(seed, n_edges=30)
        tel = tel_of(edges)
        order = list(tel.alive)
        random.Random(seed).shuffle(order)
        for e in order:
            tel.del_edge(e)
            # Invariants after every deletion:
            assert tel.n_edges == len(tel.alive)
            for t in tel.timestamps():
                assert tel.tl[t], "timeline node with empty TL"
            if tel.alive:
                tmin = min(tel.edge_t[x] for x in tel.alive)
                tmax = max(tel.edge_t[x] for x in tel.alive)
                assert tel.get_tti() == (tmin, tmax)
            else:
                assert tel.get_tti() is None


class TestAddEdge:
    def test_append_new_timestamp(self):
        tel = simple_tel()
        tel.add_edge(4, 1, 5)
        assert tel.n_edges == 5
        assert tel.get_tti() == (1, 5)
        assert tel.timestamps() == [1, 2, 3, 5]

    def test_append_same_timestamp(self):
        tel = simple_tel()
        tel.add_edge(4, 1, 3)
        assert tel.get_tti() == (1, 3)
        assert len(tel.tl[3]) == 2

    def test_append_into_empty(self):
        tel = TEL([], [], [])
        tel.add_edge(1, 2, 7)
        assert tel.get_tti() == (7, 7)
        assert tel.deg == {1: 1, 2: 1}

    def test_append_rejects_past_timestamps(self):
        tel = simple_tel()
        with pytest.raises(ValueError):
            tel.add_edge(1, 2, 2)

    def test_append_updates_degree(self):
        tel = simple_tel()
        tel.add_edge(1, 4, 5)
        assert tel.deg[1] == 3
        assert tel.deg[4] == 2


class TestCopy:
    def test_copy_is_independent(self):
        tel = simple_tel()
        cp = tel.copy()
        cp.del_edge(0)
        assert tel.n_edges == 4 and cp.n_edges == 3
        assert tel.deg[1] == 2 and cp.deg[1] == 1

    def test_copy_preserves_ids(self):
        tel = simple_tel()
        tel.del_edge(0)
        cp = tel.copy()
        assert cp.alive == tel.alive
        assert cp.signature() == tel.signature()

    @pytest.mark.parametrize("seed", range(5))
    def test_copy_equivalence_random(self, seed):
        tel = tel_of(random_temporal_graph(seed))
        cp = tel.copy()
        assert cp.edges() == tel.edges()
        assert cp.deg == tel.deg
        assert cp.timestamps() == tel.timestamps()


class TestWindowTel:
    def test_window_restricts_edges(self):
        edges = [(1, 2, 1), (2, 3, 5), (1, 3, 9)]
        tel = tel_of(edges, 2, 8)
        assert tel.edges() == [(2, 3, 5)]

    def test_window_keeps_global_ids(self):
        edges = [(1, 2, 1), (2, 3, 5), (1, 3, 9)]
        tel = tel_of(edges, 2, 8)
        assert tel.alive == {1}

    @pytest.mark.parametrize("shuffle", [False, True])
    @pytest.mark.parametrize(
        "window",
        [
            (4, 10),  # three edges on each bound
            (6, 6),  # a single tick
            (5, 9),  # bounds between timestamps
            (3, 3),  # empty: no edge at t=3
            (10, 4),  # empty: ts > te
            (-5, 1),  # empty, before the first edge
            (21, 30),  # empty, after the last edge
            (-5, 4),  # past the start
            (18, 30),  # past the end
            (-5, 30),  # everything
        ],
    )
    def test_matches_linear_scan(self, shuffle, window):
        """Sorted arrays are bisected, shuffled ones scanned; both keep
        exactly the global ids a scan of the whole array keeps."""
        tts = sorted(list(range(2, 21, 2)) * 3)
        if shuffle:
            random.Random(7).shuffle(tts)
        us, vs = list(range(len(tts))), list(range(1, len(tts) + 1))
        ts, te = window
        tel = window_tel(us, vs, tts, ts, te)
        assert tel.alive == {e for e, t in enumerate(tts) if ts <= t <= te}
        assert tel.n_edges == len(tel.alive)

    def test_order_rechecked_on_every_call(self):
        tts = [1, 2, 3]
        assert window_tel([1, 2, 3], [2, 3, 4], tts, 3, 3).alive == {2}
        tts[0] = 3  # no longer sorted: bisection would miss edge 0
        assert window_tel([1, 2, 3], [2, 3, 4], tts, 3, 3).alive == {0, 2}
