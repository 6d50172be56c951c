"""Generic routed-graph network: every inter-GPM fabric is one of these.

Ring, fully-connected, mesh, torus, and hierarchical package/board
fabrics share everything but their edge lists (and, for the ring, its
route policy).  :class:`GraphNetwork` takes an undirected weighted edge
list, builds one directional :class:`~repro.interconnect.link.Link` per
direction of each edge, and freezes a per-pair route table at
construction: BFS shortest paths walked greedily with a lowest-index
tie-break, unless the caller supplies explicit node paths (the ring's
source-parity antipodal tie-break).  The public ``routes`` table is what
the generated walkers key on, so every fabric gets the walker path for
free.

The module also hosts the pure-graph math (:func:`bfs_distances`,
:func:`remote_hop_counts`, :func:`graph_diameter`) the topology registry
uses for its closed-form-free analytical dispatch.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .link import REQUEST, RESPONSE, Link

#: One undirected edge: (node u, node v, total bandwidth across both
#: directions in bytes/cycle, per-hop latency in cycles).
WeightedEdge = Tuple[int, int, float, float]

#: ``paths[src][dst]``: the node sequence ``(src, ..., dst)`` a message
#: walks from ``src`` to ``dst``.
NodePaths = Sequence[Sequence[Sequence[int]]]


def bfs_distances(n_nodes: int, edges: Iterable[Tuple[int, int]]) -> List[List[int]]:
    """All-pairs shortest-path hop counts of an undirected graph.

    Plain per-source BFS — the fabrics modeled here stay well under a
    hundred nodes, so O(n * (n + e)) is instant.  Unreachable pairs keep
    distance -1 (callers treat a disconnected fabric as a construction
    error).
    """
    adjacency: List[List[int]] = [[] for _ in range(n_nodes)]
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    for neighbors in adjacency:
        neighbors.sort()
    distances: List[List[int]] = []
    for src in range(n_nodes):
        dist = [-1] * n_nodes
        dist[src] = 0
        frontier = [src]
        while frontier:
            nxt: List[int] = []
            for node in frontier:
                for neighbor in adjacency[node]:
                    if dist[neighbor] < 0:
                        dist[neighbor] = dist[node] + 1
                        nxt.append(neighbor)
            frontier = nxt
        distances.append(dist)
    return distances


def remote_hop_counts(distances: Sequence[Sequence[int]]) -> Dict[int, int]:
    """Histogram of shortest-path hops over all ordered remote pairs."""
    counts: Dict[int, int] = {}
    for src, row in enumerate(distances):
        for dst, hops in enumerate(row):
            if src != dst and hops > 0:
                counts[hops] = counts.get(hops, 0) + 1
    return counts


def graph_diameter(distances: Sequence[Sequence[int]]) -> int:
    """Largest finite shortest-path distance (0 for a single node)."""
    return max((hops for row in distances for hops in row), default=0)


class GraphNetwork:
    """A statically routed network over an undirected edge list.

    Parameters
    ----------
    n_nodes:
        Number of GPMs (a single-node network is legal and link-free).
    edges:
        Undirected :data:`WeightedEdge` list; each entry materializes two
        directional links, one per direction, each granted *half* the
        edge's total bandwidth (the paper's per-link GB/s setting is the
        total across both directions).
    name:
        Prefix for link names (telemetry and debugging).
    paths:
        Optional explicit :data:`NodePaths` route table; every path must
        be a shortest path along edges.  Without it, per-pair shortest
        paths are walked greedily, preferring the lowest-numbered neighbor
        that stays on a shortest path.

    Either way the routes are frozen into ``routes[src][dst]``, a tuple
    of directional links.
    """

    def __init__(
        self,
        n_nodes: int,
        edges: Sequence[WeightedEdge],
        name: str = "graph",
        paths: Optional[NodePaths] = None,
    ) -> None:
        if n_nodes <= 0:
            raise ValueError(f"n_nodes must be positive, got {n_nodes}")
        self.n_nodes = n_nodes
        self.name = name
        self.edges: List[WeightedEdge] = list(edges)
        self._link_by_pair: Dict[Tuple[int, int], Link] = {}
        self._link_order: List[Link] = []
        for u, v, bandwidth, latency in self.edges:
            if not 0 <= u < n_nodes or not 0 <= v < n_nodes or u == v:
                raise ValueError(f"bad edge ({u}, {v}) for {n_nodes} nodes")
            if (u, v) in self._link_by_pair:
                raise ValueError(f"duplicate edge ({u}, {v})")
            per_direction = bandwidth / 2.0
            for src, dst in ((u, v), (v, u)):
                link = Link(
                    per_direction, latency, name=f"{name}.{src}->{dst}"
                )
                self._link_by_pair[(src, dst)] = link
                self._link_order.append(link)
        self._dist = bfs_distances(
            n_nodes, [(u, v) for u, v, _, _ in self.edges]
        )
        for src, row in enumerate(self._dist):
            for dst, hops in enumerate(row):
                if hops < 0:
                    raise ValueError(
                        f"{name!r} fabric is disconnected: no path {src}->{dst}"
                    )
        if paths is None:
            paths = self._greedy_paths()
        # Routes are static; precompute them so the per-transfer hot path
        # (and the generated walkers) is a tuple walk.
        self.routes: List[List[Tuple[Link, ...]]] = [
            [self._path_links(src, dst, paths[src][dst]) for dst in range(n_nodes)]
            for src in range(n_nodes)
        ]

    def _greedy_paths(self) -> List[List[List[int]]]:
        adjacency: List[List[int]] = [[] for _ in range(self.n_nodes)]
        for u, v, _, _ in self.edges:
            adjacency[u].append(v)
            adjacency[v].append(u)
        for neighbors in adjacency:
            neighbors.sort()
        dist = self._dist
        paths: List[List[List[int]]] = []
        for src in range(self.n_nodes):
            row = []
            for dst in range(self.n_nodes):
                path = [src]
                while path[-1] != dst:
                    node = path[-1]
                    path.append(
                        next(
                            neighbor
                            for neighbor in adjacency[node]
                            if dist[neighbor][dst] == dist[node][dst] - 1
                        )
                    )
                row.append(path)
            paths.append(row)
        return paths

    def _path_links(
        self, src: int, dst: int, path: Sequence[int]
    ) -> Tuple[Link, ...]:
        if (
            len(path) != self._dist[src][dst] + 1
            or path[0] != src
            or path[-1] != dst
        ):
            raise ValueError(f"route {list(path)} is not a shortest {src}->{dst} path")
        return tuple(self._link_by_pair[hop] for hop in zip(path[:-1], path[1:]))

    def hops_between(self, src: int, dst: int) -> int:
        """Minimal hop count between two nodes."""
        self._check_node(src)
        self._check_node(dst)
        return self._dist[src][dst]

    def route(self, src: int, dst: int) -> List[Link]:
        """Ordered list of directional links on the route."""
        self._check_node(src)
        self._check_node(dst)
        return list(self.routes[src][dst])

    def transfer(
        self, now: float, src: int, dst: int, n_bytes: int, channel: str = REQUEST
    ) -> float:
        """Move ``n_bytes`` from ``src`` to ``dst``; returns arrival cycle.

        Each hop serializes on its link's ``channel`` virtual channel and
        adds that link's latency; same-node transfers are free.
        """
        n = self.n_nodes
        if not (0 <= src < n and 0 <= dst < n):
            raise ValueError(f"nodes {src}->{dst} out of range for {n}-node network")
        time = now
        if channel == RESPONSE:
            for link in self.routes[src][dst]:
                time = link.response_pipe.transfer(time, n_bytes) + link.latency_cycles
        else:
            for link in self.routes[src][dst]:
                time = link.request_pipe.transfer(time, n_bytes) + link.latency_cycles
        return time

    @property
    def total_link_bytes(self) -> int:
        """Aggregate bytes carried, counting each hop traversed."""
        return sum(link.bytes_transferred for link in self._link_order)

    @property
    def links(self) -> List[Link]:
        """All directional links, in construction order."""
        return list(self._link_order)

    def average_hops_uniform(self) -> float:
        """Mean shortest-path hop count over distinct uniformly random pairs."""
        if self.n_nodes == 1:
            return 0.0
        total = sum(
            hops for row in self._dist for hops in row if hops > 0
        )
        return total / (self.n_nodes * (self.n_nodes - 1))

    def diameter(self) -> int:
        """Largest shortest-path hop count between any two nodes."""
        return graph_diameter(self._dist)

    def reset(self) -> None:
        """Clear all link counters and timing state."""
        for link in self._link_order:
            link.reset()

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.n_nodes:
            raise ValueError(
                f"node {node} out of range for {self.n_nodes}-node network"
            )
