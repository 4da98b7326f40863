"""Network-on-package topologies (2D mesh and triangular).

The paper assumes a 2D-mesh NoP with XY routing (like Simba) and shows in
Sec. V-E that SCAR generalizes to other topologies because it only relies on
adjacency -- reproduced here with the triangular NoP (mesh plus one diagonal
per cell, Fig. 6 "Simba-T" / "Het-T").

Nodes are numbered row-major: node ``i`` sits at ``(i // cols, i % cols)``.
Routes are returned as sequences of directed links ``(src, dst)`` so the
traffic analyzer can attribute flows to individual links.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache

from repro.errors import HardwareError

Link = tuple[int, int]


@dataclass(frozen=True)
class Topology:
    """An immutable NoP topology with deterministic routing.

    ``kind`` is ``"mesh"`` (XY routing) or ``"triangular"`` (BFS shortest
    path with lowest-node-id tie-breaking).
    """

    rows: int
    cols: int
    kind: str = "mesh"

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise HardwareError(
                f"topology must be at least 1x1, got {self.rows}x{self.cols}")
        if self.kind not in ("mesh", "triangular"):
            raise HardwareError(f"unknown topology kind {self.kind!r}")

    # -- basic geometry --------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return self.rows * self.cols

    def position(self, node: int) -> tuple[int, int]:
        """(row, col) of a node id."""
        self._check(node)
        return divmod(node, self.cols)

    def node_at(self, row: int, col: int) -> int:
        """Node id at (row, col)."""
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise HardwareError(f"position ({row}, {col}) out of range")
        return row * self.cols + col

    def _check(self, node: int) -> None:
        if not (0 <= node < self.num_nodes):
            raise HardwareError(
                f"node {node} out of range for {self.rows}x{self.cols}")

    # -- connectivity ----------------------------------------------------

    @lru_cache(maxsize=None)
    def edges(self) -> tuple[Link, ...]:
        """Undirected edge list (each edge once, low id first; memoized)."""
        result: list[Link] = []
        for node in range(self.num_nodes):
            row, col = self.position(node)
            if col + 1 < self.cols:
                result.append((node, node + 1))
            if row + 1 < self.rows:
                result.append((node, node + self.cols))
            if (self.kind == "triangular" and row + 1 < self.rows
                    and col + 1 < self.cols):
                result.append((node, node + self.cols + 1))
        return tuple(result)

    @lru_cache(maxsize=None)
    def neighbors(self, node: int) -> tuple[int, ...]:
        """Directly connected nodes, ascending (memoized)."""
        self._check(node)
        found = [b for a, b in self.edges() if a == node]
        found += [a for a, b in self.edges() if b == node]
        return tuple(sorted(found))

    # -- routing ----------------------------------------------------------

    @lru_cache(maxsize=None)
    def route(self, src: int, dst: int) -> tuple[Link, ...]:
        """Directed link sequence from ``src`` to ``dst``.

        Mesh uses dimension-ordered XY routing (X first, then Y) exactly as
        the paper adopts; triangular uses deterministic BFS shortest paths.
        Memoized (topologies are frozen value objects and routes are pure
        functions of them): the traffic analyzer asks for the same few
        hundred routes millions of times per search.
        """
        self._check(src)
        self._check(dst)
        if src == dst:
            return ()
        if self.kind == "mesh":
            return self._xy_route(src, dst)
        path = self._shortest_paths()[(src, dst)]
        return tuple(zip(path[:-1], path[1:]))

    def hops(self, src: int, dst: int) -> int:
        """Hop count of the deterministic route."""
        return len(self.route(src, dst))

    def _xy_route(self, src: int, dst: int) -> tuple[Link, ...]:
        row, col = self.position(src)
        dst_row, dst_col = self.position(dst)
        links: list[Link] = []
        node = src
        while col != dst_col:
            col += 1 if dst_col > col else -1
            nxt = self.node_at(row, col)
            links.append((node, nxt))
            node = nxt
        while row != dst_row:
            row += 1 if dst_row > row else -1
            nxt = self.node_at(row, col)
            links.append((node, nxt))
            node = nxt
        return tuple(links)

    def _shortest_paths(self) -> dict[tuple[int, int], list[int]]:
        return _all_pairs_paths(self.rows, self.cols, self.kind)


@lru_cache(maxsize=None)
def _all_pairs_paths(rows: int, cols: int,
                     kind: str) -> dict[tuple[int, int], list[int]]:
    """Deterministic all-pairs shortest paths for non-mesh topologies.

    One FIFO breadth-first search per source over the ascending
    neighbor lists; the first path to reach a node is kept, which is the
    lowest-node-id tie-break.
    """
    topo = Topology(rows=rows, cols=cols, kind=kind)
    paths: dict[tuple[int, int], list[int]] = {}
    for src in range(topo.num_nodes):
        paths[(src, src)] = [src]
        frontier = deque([src])
        while frontier:
            node = frontier.popleft()
            for nxt in topo.neighbors(node):
                if (src, nxt) not in paths:
                    paths[(src, nxt)] = paths[(src, node)] + [nxt]
                    frontier.append(nxt)
    return paths


def mesh(rows: int, cols: int) -> Topology:
    """2D mesh with XY routing (the paper's default)."""
    return Topology(rows=rows, cols=cols, kind="mesh")


def triangular(rows: int, cols: int) -> Topology:
    """Mesh plus one diagonal per cell (Fig. 6 'T' templates)."""
    return Topology(rows=rows, cols=cols, kind="triangular")
