"""Topology graph construction and routing algorithms."""

import hashlib

import numpy as np
import pytest

from repro.topo import (
    Crossbar,
    FatTree,
    NoRoute,
    TopoRuntime,
    Torus3D,
    link_label,
)


class TestTorus3D:
    def test_hosts_enumeration_row_major(self):
        t = Torus3D((2, 2, 2))
        assert t.n_hosts == 8
        assert t.hosts[0] == (0, 0, 0)
        assert t.hosts[1] == (0, 0, 1)  # z fastest
        assert t.hosts[2] == (0, 1, 0)
        assert t.hosts[-1] == (1, 1, 1)

    def test_every_node_has_six_neighbours_in_big_torus(self):
        t = Torus3D((4, 4, 4))
        for host in t.hosts:
            assert len(t.succ[host]) == 6
            assert len(t.pred[host]) == 6

    def test_dimension_order_route_corrects_x_then_y_then_z(self):
        t = Torus3D((4, 4, 4))
        path = t.route((0, 0, 0), (2, 1, 3))
        # x hops first, then y, then z (shortest wrap: 3 is one -1 hop).
        heads = [v for _, v in path]
        assert heads[0] == (1, 0, 0)
        assert heads[1] == (2, 0, 0)
        assert heads[2] == (2, 1, 0)
        assert heads[3] == (2, 1, 3)  # wraps backwards
        assert len(path) == 4

    def test_route_takes_shortest_wrap_direction(self):
        t = Torus3D((5, 1, 1))
        # 0 -> 3 is 2 hops backwards (0 -> 4 -> 3), not 3 forwards.
        path = t.route((0, 0, 0), (3, 0, 0))
        assert len(path) == 2
        assert path[0] == ((0, 0, 0), (4, 0, 0))

    def test_route_tie_goes_forward(self):
        t = Torus3D((4, 1, 1))
        path = t.route((0, 0, 0), (2, 0, 0))
        assert [v for _, v in path] == [(1, 0, 0), (2, 0, 0)]

    def test_self_route_is_empty(self):
        t = Torus3D((3, 3, 3))
        assert t.route((1, 1, 1), (1, 1, 1)) == []

    def test_adaptive_route_is_minimal_and_seeded(self):
        t = Torus3D((4, 4, 4), adaptive=True)
        src, dst = (0, 0, 0), (2, 2, 2)
        rng_a = np.random.default_rng(42)
        rng_b = np.random.default_rng(42)
        paths_a = [t.route(src, dst, rng=rng_a) for _ in range(20)]
        paths_b = [t.route(src, dst, rng=rng_b) for _ in range(20)]
        assert paths_a == paths_b  # same seed, same routes
        assert all(len(p) == 6 for p in paths_a)  # always minimal
        assert len({tuple(p) for p in paths_a}) > 1  # routes actually vary

    def test_max_hops_bounds_routes(self):
        t = Torus3D((4, 4, 4))
        assert t.max_hops() == 6
        path = t.route((0, 0, 0), (2, 2, 2))
        assert len(path) <= t.max_hops()

    def test_detour_around_dead_link(self):
        t = Torus3D((4, 1, 1))
        primary = t.route((0, 0, 0), (1, 0, 0))
        assert primary == [((0, 0, 0), (1, 0, 0))]
        detour = t.route((0, 0, 0), (1, 0, 0),
                         avoid={((0, 0, 0), (1, 0, 0))})
        assert detour[0][1] == (3, 0, 0)  # goes the long way round
        assert len(detour) == 3

    def test_bad_dims_rejected(self):
        with pytest.raises(ValueError):
            Torus3D((4, 4))
        with pytest.raises(ValueError):
            Torus3D((0, 4, 4))


class TestFatTree:
    def test_structure(self):
        t = FatTree(hosts_per_leaf=4, n_leaf=4, n_spine=2)
        assert t.n_hosts == 16
        assert ("leaf", 0) in t.succ
        assert ("spine", 1) in t.succ

    def test_same_leaf_route_turns_at_leaf(self):
        t = FatTree(hosts_per_leaf=4, n_leaf=4, n_spine=2)
        path = t.route(("h", 0), ("h", 3))
        assert path == [(("h", 0), ("leaf", 0)), (("leaf", 0), ("h", 3))]

    def test_cross_leaf_route_climbs_to_spine(self):
        t = FatTree(hosts_per_leaf=4, n_leaf=4, n_spine=2)
        path = t.route(("h", 0), ("h", 5))
        assert len(path) == 4
        assert path[1][1][0] == "spine"
        assert path[-1] == (("leaf", 1), ("h", 5))

    def test_deterministic_spine_choice_is_stable(self):
        t = FatTree(hosts_per_leaf=2, n_leaf=4, n_spine=2)
        p1 = t.route(("h", 0), ("h", 7))
        p2 = t.route(("h", 0), ("h", 7))
        assert p1 == p2

    def test_adaptive_spine_choice_varies(self):
        t = FatTree(hosts_per_leaf=2, n_leaf=4, n_spine=4, adaptive=True)
        rng = np.random.default_rng(0)
        spines = {t.route(("h", 0), ("h", 7), rng=rng)[1][1]
                  for _ in range(40)}
        assert len(spines) > 1

    def test_partition_when_all_spines_dead(self):
        t = FatTree(hosts_per_leaf=2, n_leaf=2, n_spine=1)
        dead = {(("leaf", 0), ("spine", 0)), (("spine", 0), ("leaf", 0))}
        with pytest.raises(NoRoute):
            t.route(("h", 0), ("h", 2), avoid=dead)


class TestCrossbar:
    def test_two_hop_routes(self):
        t = Crossbar(8)
        path = t.route(("h", 2), ("h", 5))
        assert path == [(("h", 2), ("xbar", 0)), (("xbar", 0), ("h", 5))]
        assert t.max_hops() == 2

    def test_host_link_down_partitions_host(self):
        t = Crossbar(4)
        dead = {(("h", 0), ("xbar", 0)), (("xbar", 0), ("h", 0))}
        with pytest.raises(NoRoute):
            t.route(("h", 0), ("h", 1), avoid=dead)


class TestLinkParams:
    def test_defaults_and_overrides(self):
        t = Crossbar(2, link_latency=0.3, link_byte_time=0.001)
        lat, bt = t.link_params(("h", 0), ("xbar", 0))
        assert (lat, bt) == (0.3, 0.001)

    def test_links_sorted_and_bidirectional(self):
        t = Crossbar(2)
        links = t.links()
        assert links == sorted(links)
        for u, v in links:
            assert u in t.succ[v]

    def test_link_label(self):
        assert link_label((("h", 3), ("leaf", 0))) == "h3->leaf0"
        assert link_label(((0, 1, 2), (0, 1, 3))) == "(0,1,2)->(0,1,3)"


def detour_digest(topo, seed, n_sets=20, n_hosts=24):
    """SHA-256 over ``route(s, d, avoid=dead)`` (``None`` for
    :class:`NoRoute`) for every ordered pair of up to ``n_hosts`` seeded
    hosts, under ``n_sets`` seeded dead sets of four links plus the
    reverse of two of them."""
    rng = np.random.default_rng(seed)
    links = topo.links()
    hosts = topo.hosts
    if len(hosts) > n_hosts:
        hosts = [hosts[i] for i in
                 sorted(rng.choice(len(hosts), n_hosts, replace=False))]
    h = hashlib.sha256()
    for _ in range(n_sets):
        picks = rng.choice(len(links), size=4, replace=False)
        dead = frozenset([links[i] for i in picks]
                         + [links[i][::-1] for i in picks[:2]])
        for s in hosts:
            for d in hosts:
                try:
                    path = topo.route(s, d, avoid=dead)
                except NoRoute:
                    path = None
                h.update(repr(path).encode())
    return h.hexdigest()


class TestExactDetours:
    """Which of several equal-length detours a dead link forces is part
    of every link-fault run's simulated time.  The literals were
    recorded with the bidirectional BFS routed fabrics have always used;
    a plain forward BFS picks other detours and fails both tori."""

    @pytest.mark.parametrize("topo, digest", [
        (Torus3D((4, 4, 4)),
         "66fa16b4af2e15d9c1a61fab1adfbf78380b0bebdeb24a37972dc0e8733bb682"),
        (Torus3D((3, 2, 5)),
         "0f0dc4691d75fe4390618b8cf62de1495f898dcb8d78e24059b245f3c00e8efa"),
        (FatTree(4, 4, 2),
         "758c2ea1c925eba8cb8848d9d2ed00a494beae11d7244cfe4232cebb2ecb14b8"),
    ], ids=["torus-4x4x4", "torus-3x2x5", "fattree-4x4x2"])
    def test_detours_pinned(self, topo, digest):
        assert detour_digest(topo, seed=0) == digest


class TestPlacement:
    @pytest.mark.parametrize("topo, switch", [
        (FatTree(), ("leaf", 0)),
        (FatTree(), ("spine", 1)),
        (Crossbar(4), ("xbar", 0)),
    ])
    def test_rank_on_a_switch_is_rejected(self, topo, switch):
        with pytest.raises(ValueError, match="rank 1 placed on unknown host"):
            TopoRuntime(topo, {0: topo.hosts[0], 1: switch})

    def test_rank_on_a_missing_node_is_rejected(self):
        with pytest.raises(ValueError, match="unknown host"):
            TopoRuntime(Torus3D((2, 2, 2)), {0: (5, 5, 5)})
