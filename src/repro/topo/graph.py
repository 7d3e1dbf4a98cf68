"""Topology graphs: the interconnects the paper's machines actually have.

The paper's architectural taxonomy (§III) is anchored in concrete
networks — the Cray XT's 3D-torus SeaStar/Portals fabric, generic
RDMA clusters, and the NEC SX's IXS crossbar.  This module models them
as routed graphs:

- :class:`Torus3D` — a 3D torus where every node is both a router and a
  host (SeaStar personality).  Deterministic dimension-order routing
  with shortest-direction wraparound; the optional *adaptive* mode
  permutes the dimension traversal order per packet (minimal adaptive
  routing), which is exactly the behaviour §III-B1 warns breaks
  delivery ordering.
- :class:`FatTree` — a two-level folded-Clos (leaf/spine) fabric for
  generic RDMA clusters.  Deterministic up/down routing hashes the
  (src, dst) pair onto a spine; adaptive mode picks the spine per
  packet.
- :class:`Crossbar` — every host port connects to one central
  non-blocking switch (NEC SX IXS personality); contention exists only
  on the host ingress/egress links.

A graph is two insertion-ordered adjacency dicts, ``succ`` and ``pred``.
Routing for the healthy fabric is computed by closed-form per-topology
algorithms (cheap, deterministic); when links are dead the topology
falls back to a bidirectional BFS shortest path on the surviving graph
(:meth:`Topology.route` with ``avoid``), raising :class:`NoRoute` when
the fabric is partitioned.

Every link is *directed* (a full-duplex cable is two directed links)
and carries its own latency and per-byte serialization time, defaulted
from the topology but overridable per link via :meth:`Topology.add_link`.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["NoRoute", "Topology", "Torus3D", "FatTree", "Crossbar",
           "link_label"]

#: A directed link: (tail node, head node).
Link = Tuple[Any, Any]


class NoRoute(RuntimeError):
    """No surviving path between two hosts (the fabric is partitioned)."""

    def __init__(self, src: Any, dst: Any) -> None:
        self.src = src
        self.dst = dst
        super().__init__(f"no surviving route {_node_str(src)} -> "
                         f"{_node_str(dst)}")


def _node_str(node: Any) -> str:
    """Compact display form of a graph node."""
    if isinstance(node, tuple):
        if len(node) == 2 and isinstance(node[0], str):
            return f"{node[0]}{node[1]}"  # ("leaf", 3) -> "leaf3"
        return "(" + ",".join(str(c) for c in node) + ")"
    return str(node)


def link_label(link: Link) -> str:
    """Stable human-readable label of a directed link (metrics key)."""
    return f"{_node_str(link[0])}->{_node_str(link[1])}"


class Topology:
    """A routed interconnect graph.

    Parameters
    ----------
    name:
        Display name (shows up in config/repr, not in routing).
    link_latency:
        Default per-hop wire latency (µs) of every link.
    link_byte_time:
        Default per-byte serialization time (µs/B) of every link —
        1/bandwidth.  Per-hop serialization is what makes shared links
        congest under incast/hotspot traffic.
    adaptive:
        Route packets adaptively (per-packet seeded choice among
        minimal routes).  Adaptive routing is the jitter source on
        topology paths — combined with an unordered
        :class:`~repro.network.config.NetworkConfig` it produces real
        overtaking, the case the paper's ordering attribute pays for.
    """

    def __init__(self, name: str, link_latency: float = 0.5,
                 link_byte_time: float = 0.0005,
                 adaptive: bool = False) -> None:
        if link_latency < 0 or link_byte_time < 0:
            raise ValueError("link latency/byte_time must be >= 0")
        self.name = name
        self.link_latency = float(link_latency)
        self.link_byte_time = float(link_byte_time)
        self.adaptive = bool(adaptive)
        #: node -> {head: (latency, byte_time)}, in ``add_link`` order.
        self.succ: Dict[Any, Dict[Any, Tuple[float, float]]] = {}
        #: node -> {tail: None}, in ``add_link`` order.
        self.pred: Dict[Any, Dict[Any, None]] = {}
        self.hosts: List[Any] = []

    # -- construction ----------------------------------------------------
    def add_host(self, node: Any) -> None:
        """Register ``node`` as a host port (rank-attachable)."""
        self.succ.setdefault(node, {})
        self.pred.setdefault(node, {})
        self.hosts.append(node)

    def add_link(self, u: Any, v: Any, latency: Optional[float] = None,
                 byte_time: Optional[float] = None) -> None:
        """Add the full-duplex cable ``u <-> v`` (two directed links)."""
        lat = self.link_latency if latency is None else float(latency)
        bt = self.link_byte_time if byte_time is None else float(byte_time)
        for tail, head in ((u, v), (v, u)):
            self.succ.setdefault(tail, {})[head] = (lat, bt)
            self.pred.setdefault(head, {})[tail] = None

    # -- queries ---------------------------------------------------------
    @property
    def n_hosts(self) -> int:
        """Host ports available for rank placement."""
        return len(self.hosts)

    def links(self) -> List[Link]:
        """Every directed link, deterministically ordered."""
        return sorted((u, v) for u, heads in self.succ.items()
                      for v in heads)

    def link_params(self, u: Any, v: Any) -> Tuple[float, float]:
        """``(latency, byte_time)`` of the directed link ``u -> v``."""
        return self.succ[u][v]

    def max_hops(self) -> int:
        """Upper bound on healthy-route length (RTO sizing)."""
        raise NotImplementedError

    # -- routing ---------------------------------------------------------
    def route(self, src: Any, dst: Any, rng=None,
              avoid: "frozenset[Link] | set[Link] | tuple" = ()) -> List[Link]:
        """The directed-link path ``src -> dst``.

        Deterministic unless the topology is adaptive *and* ``rng`` (a
        NumPy generator) is given.  ``avoid`` lists dead links: when the
        primary route crosses one, a BFS shortest path on the surviving
        graph is used instead; :class:`NoRoute` means partition.
        """
        if src == dst:
            return []
        path = self._route(src, dst, rng)
        if not avoid or all(link not in avoid for link in path):
            return path
        return self._detour(src, dst, avoid)

    def _route(self, src: Any, dst: Any, rng) -> List[Link]:
        raise NotImplementedError

    def _detour(self, src: Any, dst: Any, avoid) -> List[Link]:
        """Shortest path avoiding dead links: a bidirectional BFS.

        Of several equal-length paths the search order picks one, and
        that order is part of the simulated result (a different detour
        moves every later arrival): expand the forward fringe when it is
        no larger than the reverse one, visit neighbours in ``add_link``
        order, skip dead links, and stop at the first node both searches
        have reached, tested right after it is recorded.  The path is
        the forward parent chain to that node, then the reverse one.
        """
        fwd: Dict[Any, Any] = {src: None}  # node -> its parent from src
        rev: Dict[Any, Any] = {dst: None}  # node -> its parent from dst
        fwd_fringe, rev_fringe = [src], [dst]
        while fwd_fringe and rev_fringe:
            if len(fwd_fringe) <= len(rev_fringe):
                meet, fwd_fringe = _bfs_level(fwd_fringe, self.succ, fwd,
                                              rev, avoid, False)
            else:
                meet, rev_fringe = _bfs_level(rev_fringe, self.pred, rev,
                                              fwd, avoid, True)
            if meet is not None:
                nodes = _chain(fwd, meet)[::-1] + _chain(rev, rev[meet])
                return list(zip(nodes, nodes[1:]))
        raise NoRoute(src, dst)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<{type(self).__name__} {self.name} hosts={self.n_hosts} "
                f"links={sum(map(len, self.succ.values()))}"
                f"{' adaptive' if self.adaptive else ''}>")


def _bfs_level(level: List[Any], adj: Dict[Any, Dict[Any, Any]],
               seen: Dict[Any, Any], other: Dict[Any, Any], avoid,
               reverse: bool) -> Tuple[Any, List[Any]]:
    """Expand one BFS level over ``adj``, recording parents in ``seen``.

    Returns ``(meet, fringe)``: ``meet`` is the first node found that
    the other search has reached (``None`` if none), ``fringe`` the next
    level.  ``reverse`` says ``adj`` is the predecessor map, so the link
    from ``v`` to its neighbour ``w`` is ``(w, v)``.
    """
    fringe: List[Any] = []
    for v in level:
        for w in adj[v]:
            if ((w, v) if reverse else (v, w)) in avoid:
                continue
            if w not in seen:
                seen[w] = v
                fringe.append(w)
            if w in other:
                return w, fringe
    return None, fringe


def _chain(parent: Dict[Any, Any], node: Any) -> List[Any]:
    """``node``, its parent, its parent's parent, ... up to the root."""
    nodes = []
    while node is not None:
        nodes.append(node)
        node = parent[node]
    return nodes


class Torus3D(Topology):
    """3D torus, Cray XT SeaStar personality.

    Every coordinate ``(x, y, z)`` is both a router and a host.
    ``hosts[i]`` enumerates coordinates in row-major order (z fastest),
    so block rank placement keeps consecutive ranks on adjacent torus
    nodes.  Dimension-order routing corrects x, then y, then z, taking
    the shorter wrap direction (ties go +1); adaptive mode permutes the
    dimension traversal order per packet — minimal, but different
    intermediate links, which is what makes concurrent flows jitter.
    """

    def __init__(self, dims: Tuple[int, int, int] = (4, 4, 4),
                 link_latency: float = 0.5, link_byte_time: float = 0.0005,
                 adaptive: bool = False) -> None:
        dims = tuple(int(d) for d in dims)
        if len(dims) != 3 or any(d < 1 for d in dims):
            raise ValueError(f"dims must be three ints >= 1, got {dims!r}")
        super().__init__(
            name=f"torus3d-{dims[0]}x{dims[1]}x{dims[2]}"
                 + ("-adaptive" if adaptive else ""),
            link_latency=link_latency, link_byte_time=link_byte_time,
            adaptive=adaptive,
        )
        self.dims = dims
        for coord in itertools.product(*(range(d) for d in dims)):
            self.add_host(coord)
        for coord in self.hosts:
            for dim in range(3):
                if dims[dim] < 2:
                    continue
                nxt = list(coord)
                nxt[dim] = (coord[dim] + 1) % dims[dim]
                self.add_link(coord, tuple(nxt))

    def _route(self, src: Any, dst: Any, rng) -> List[Link]:
        order = (0, 1, 2)
        if self.adaptive and rng is not None:
            order = tuple(int(i) for i in rng.permutation(3))
        path: List[Link] = []
        cur = list(src)
        for dim in order:
            n = self.dims[dim]
            while cur[dim] != dst[dim]:
                fwd = (dst[dim] - cur[dim]) % n
                step = 1 if fwd <= n - fwd else -1
                nxt = list(cur)
                nxt[dim] = (cur[dim] + step) % n
                path.append((tuple(cur), tuple(nxt)))
                cur = nxt
        return path

    def max_hops(self) -> int:
        return max(1, sum(d // 2 for d in self.dims))


class FatTree(Topology):
    """Two-level folded Clos (leaf/spine), generic RDMA cluster.

    Hosts ``("h", i)`` hang off leaf switches ``("leaf", i // per_leaf)``;
    every leaf uplinks to every spine ``("spine", j)``.  Up/down routing:
    same-leaf pairs turn around at the leaf (2 hops), cross-leaf pairs
    climb to a spine (4 hops).  The spine is chosen deterministically
    from the (src, dst) host indices; adaptive mode draws it per packet.
    """

    def __init__(self, hosts_per_leaf: int = 4, n_leaf: int = 4,
                 n_spine: int = 2, link_latency: float = 0.5,
                 link_byte_time: float = 0.0005,
                 adaptive: bool = False) -> None:
        if hosts_per_leaf < 1 or n_leaf < 1 or n_spine < 1:
            raise ValueError("hosts_per_leaf, n_leaf, n_spine must be >= 1")
        super().__init__(
            name=f"fattree-{hosts_per_leaf}x{n_leaf}x{n_spine}"
                 + ("-adaptive" if adaptive else ""),
            link_latency=link_latency, link_byte_time=link_byte_time,
            adaptive=adaptive,
        )
        self.hosts_per_leaf = hosts_per_leaf
        self.n_leaf = n_leaf
        self.n_spine = n_spine
        self._host_index: Dict[Any, int] = {}
        for i in range(hosts_per_leaf * n_leaf):
            host = ("h", i)
            self.add_host(host)
            self._host_index[host] = i
            self.add_link(host, ("leaf", i // hosts_per_leaf))
        for leaf in range(n_leaf):
            for spine in range(n_spine):
                self.add_link(("leaf", leaf), ("spine", spine))

    def _leaf_of(self, host: Any) -> Any:
        return ("leaf", self._host_index[host] // self.hosts_per_leaf)

    def _route(self, src: Any, dst: Any, rng) -> List[Link]:
        leaf_s, leaf_d = self._leaf_of(src), self._leaf_of(dst)
        if leaf_s == leaf_d:
            return [(src, leaf_s), (leaf_s, dst)]
        if self.adaptive and rng is not None:
            spine_idx = int(rng.integers(self.n_spine))
        else:
            spine_idx = (self._host_index[src]
                         + self._host_index[dst]) % self.n_spine
        spine = ("spine", spine_idx)
        return [(src, leaf_s), (leaf_s, spine), (spine, leaf_d),
                (leaf_d, dst)]

    def max_hops(self) -> int:
        return 4


class Crossbar(Topology):
    """Central crossbar switch, NEC SX IXS personality.

    Every host ``("h", i)`` has one full-duplex port into the (modeled
    as non-blocking) crossbar ``("xbar", 0)``.  All contention lives on
    the per-host ingress and egress links — incast at a host serializes
    on its egress port exactly like the IXS.  Routing is trivially
    deterministic, so adaptive mode is meaningless here and rejected.
    """

    def __init__(self, n_hosts: int = 8, link_latency: float = 0.5,
                 link_byte_time: float = 0.0005) -> None:
        if n_hosts < 1:
            raise ValueError("n_hosts must be >= 1")
        super().__init__(name=f"crossbar-{n_hosts}",
                         link_latency=link_latency,
                         link_byte_time=link_byte_time, adaptive=False)
        self.switch = ("xbar", 0)
        for i in range(n_hosts):
            host = ("h", i)
            self.add_host(host)
            self.add_link(host, self.switch)

    def _route(self, src: Any, dst: Any, rng) -> List[Link]:
        return [(src, self.switch), (self.switch, dst)]

    def max_hops(self) -> int:
        return 2
