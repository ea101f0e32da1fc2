"""Labeled simple undirected graphs, the multi-whisker construction, and
edge specs.

Vertices are always ``0..order-1``.  Values are immutable; every operation
returns a fresh :class:`Graph`.  Isolated vertices are allowed; a
:class:`TreeWitness` is a checked connected, acyclic graph.  Each component's
preorder walk, :func:`_preorder`, is the one place a labeled graph becomes
level sequences, and :func:`_forest_walks` its one forest test: invariants,
witnesses, n, p, d and forest Betti tables come from that walk.  The
all-pairs BFS reference for p and d, the component lists, the vertex
deletions and the disjoint unions of the regularity identities are test
helpers (``tests/conftest.py``).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterable, Sequence


@dataclass(frozen=True)
class Graph:
    """Simple graph as a tuple of strictly sorted neighbor tuples."""

    order: int
    adjacency: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.order < 0:
            raise ValueError("order must be nonnegative")
        if len(self.adjacency) != self.order:
            raise ValueError(
                f"adjacency has {len(self.adjacency)} rows for order {self.order}"
            )
        for v, nbrs in enumerate(self.adjacency):
            prev = -1
            for u in nbrs:
                if not 0 <= u < self.order:
                    raise ValueError(f"neighbor {u} of vertex {v} out of range")
                if u == v:
                    raise ValueError(f"loop at vertex {v}")
                if u <= prev:
                    raise ValueError(f"neighbors of vertex {v} not strictly sorted")
                prev = u
        # every row is strictly sorted now, so a bisect finds the back edge
        for v, nbrs in enumerate(self.adjacency):
            for u in nbrs:
                row = self.adjacency[u]
                i = bisect_left(row, v)
                if i == len(row) or row[i] != v:
                    raise ValueError(f"edge {v}-{u} present only on one side")

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjacency[u]

    def edges(self) -> tuple[tuple[int, int], ...]:
        """All edges as (u, v) pairs with u < v, in sorted order."""
        return tuple(
            (u, v) for u in range(self.order) for v in self.adjacency[u] if u < v
        )

    @property
    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self.adjacency) // 2

    def neighbor_masks(self) -> list[int]:
        """Adjacency as one int bitmask per vertex (bit u set iff u adjacent)."""
        masks = []
        for nbrs in self.adjacency:
            m = 0
            for u in nbrs:
                m |= 1 << u
            masks.append(m)
        return masks


def from_edge_list(edges: Iterable[tuple[int, int]], order: int) -> Graph:
    """Build a graph from (possibly repeated) edge pairs on 0..order-1.

    Rejects loops and out-of-range labels, naming the offending pair.
    """
    nbrs: list[set[int]] = [set() for _ in range(order)]
    for pair in edges:
        u, v = pair
        if u == v:
            raise ValueError(f"loop edge ({u},{v}) not allowed")
        if not (0 <= u < order and 0 <= v < order):
            raise ValueError(f"edge ({u},{v}) has a label outside 0..{order - 1}")
        nbrs[u].add(v)
        nbrs[v].add(u)
    return Graph(order, tuple(tuple(sorted(s)) for s in nbrs))


def path_graph(n: int) -> Graph:
    """The path on n vertices, 0-1-2-...-(n-1)."""
    return from_edge_list([(i, i + 1) for i in range(n - 1)], n)


def _preorder(g: Graph) -> list[tuple[list[int], list[int]]]:
    """Each component's vertices in preorder, with their levels.

    A component is rooted at its least vertex, and a vertex's children are
    visited in ascending label order, so in a forest every descendant of a
    vertex comes after it and each component's levels are a level sequence.
    A graph with cycles is walked along a spanning tree of each component.
    """
    seen = [False] * g.order
    walks = []
    for root in range(g.order):
        if seen[root]:
            continue
        seen[root] = True
        verts: list[int] = []
        levels: list[int] = []
        stack = [(root, 0)]
        while stack:
            v, lvl = stack.pop()
            verts.append(v)
            levels.append(lvl)
            for u in reversed(g.adjacency[v]):
                if not seen[u]:
                    seen[u] = True
                    stack.append((u, lvl + 1))
        walks.append((verts, levels))
    return walks


def _forest_walks(g: Graph) -> list[tuple[list[int], list[int]]] | None:
    """:func:`_preorder`'s walks if g is a forest (edges = order - walks), else None."""
    walks = _preorder(g)
    return walks if g.edge_count == g.order - len(walks) else None


@dataclass(frozen=True)
class TreeWitness:
    """A graph together with checked evidence that it is a tree: its one
    :func:`_preorder` walk, the vertices and their levels."""

    graph: Graph
    walk: tuple[list[int], list[int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        g = self.graph
        if g.order == 0:
            raise ValueError("a tree has at least one vertex")
        if g.edge_count != g.order - 1:
            raise ValueError(f"not a tree: {g.edge_count} edges on {g.order} vertices")
        walks = _preorder(g)
        if len(walks) != 1:
            raise ValueError("not a tree: graph is disconnected")
        object.__setattr__(self, "walk", walks[0])

    @property
    def order(self) -> int:
        return self.graph.order


@dataclass(frozen=True)
class WhiskerVector:
    """One positive whisker count per vertex of the base graph."""

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        for i, a in enumerate(self.entries):
            if a < 1:
                raise ValueError(f"whisker count at vertex {i} must be >= 1, got {a}")

    @classmethod
    def ones(cls, n: int) -> "WhiskerVector":
        return cls((1,) * n)

    @classmethod
    def constant(cls, n: int, value: int) -> "WhiskerVector":
        return cls((value,) * n)

    def __len__(self) -> int:
        return len(self.entries)


def multi_whisker(g: Graph, a: WhiskerVector | Sequence[int]) -> Graph:
    """Attach a_i new pendant vertices to each vertex i.

    Original vertices keep their labels; whisker vertices are labeled
    n, n+1, ... in increasing order of the vertex they hang from.
    """
    vec = a if isinstance(a, WhiskerVector) else WhiskerVector(tuple(a))
    if len(vec) != g.order:
        raise ValueError(
            f"whisker vector has length {len(vec)} for a graph of order {g.order}"
        )
    edges = list(g.edges())
    label = g.order
    for v, count in enumerate(vec.entries):
        for _ in range(count):
            edges.append((v, label))
            label += 1
    return from_edge_list(edges, label)


def _label_pair(parts: Sequence[str], where: str, *args) -> tuple[int, int]:
    """The two non-negative labels of an edge.  Each error ends in
    ``where.format(*args)``, which names the token or line they came from;
    it is formatted only on an error, as most edges have none."""
    try:
        u, v = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"non-integer label {where.format(*args)}") from None
    if u < 0 or v < 0:
        raise ValueError(f"negative label {where.format(*args)}")
    return u, v


def parse_edge_spec(text: str) -> list[tuple[int, int]]:
    """Parse comma-separated ``u-v`` tokens with 0-based labels.

    Errors report the 1-based position of the offending token.
    """
    edges = []
    for pos, token in enumerate(text.split(","), start=1):
        token = token.strip()
        if not token:
            raise ValueError(f"empty edge token at position {pos}")
        parts = token.split("-")
        if len(parts) != 2:
            raise ValueError(f"malformed edge token {token!r} at position {pos}")
        edges.append(_label_pair(parts, "in token {!r} at position {}", token, pos))
    return edges


def parse_edge_lines(lines: Iterable[str]) -> list[tuple[int, int]]:
    """Parse one pair per line, two whitespace-separated labels or one
    ``u-v`` token split as :func:`parse_edge_spec` splits it; blank lines
    are skipped and errors name the 1-based line."""
    edges = []
    for lineno, raw in enumerate(lines, start=1):
        parts = raw.split()
        if not parts:
            continue
        if len(parts) == 1:
            parts = parts[0].split("-")
        if len(parts) != 2:
            raise ValueError(f"malformed edge on line {lineno}: {raw.rstrip()!r}")
        edges.append(_label_pair(parts, "on line {}: {!r}", lineno, raw.rstrip()))
    return edges


def graph_from_edges(
    edges: Sequence[tuple[int, int]], order: int | None = None
) -> Graph:
    """Graph on parsed edges; order defaults to 1 + max label.

    The one order rule of both ``treereg invariants`` edge inputs: a given
    order must be at least 1 and at least 1 + max label, and with no edges
    there is no label to infer it from.
    """
    top = max((max(u, v) for u, v in edges), default=-1)
    if order is None:
        if top < 0:
            raise ValueError("no edges to infer the order from; give --order")
        order = top + 1
    elif order < 1:
        raise ValueError(f"--order must be at least 1, got {order}")
    elif order <= top:
        raise ValueError(f"--order {order} smaller than 1 + max label {top + 1}")
    return from_edge_list(edges, order)


def graph_from_edge_spec(text: str, order: int | None = None) -> Graph:
    """Graph from an inline edge spec; order defaults to 1 + max label."""
    return graph_from_edges(parse_edge_spec(text), order)


def edge_spec(edges: Iterable[tuple[int, int]]) -> str:
    """The ``u-v`` spec parse_edge_spec reads, one token per edge in the
    given order: ``edge_spec(g.edges())`` for a graph, and beside each code
    of ``treereg enumerate`` the spec of :func:`~treereg.trees.code_edges`."""
    return ",".join(f"{u}-{v}" for u, v in edges)
