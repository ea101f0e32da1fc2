"""Shared fixtures, graph builders, and brute-force oracles."""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from functools import cache
from itertools import product
from typing import Iterable, Sequence

import pytest
from hypothesis import strategies as st

from treereg.bounds import kernel
from treereg.census import _Checkpoint
from treereg.graphs import (
    Graph,
    TreeWitness,
    _preorder,
    from_edge_list,
)
from treereg.invariants import (
    BRUTE_FORCE_EDGE_CAP,
    BRUTE_FORCE_ORDER_CAP,
    _edge_conflict_masks,
)
from treereg.trees import Run, _code_levels, graph_from_code


def star_graph(leaves: int) -> Graph:
    """Star with center 0 and the given number of leaves."""
    return from_edge_list([(0, i) for i in range(1, leaves + 1)], leaves + 1)


def spider(leg_lengths: tuple[int, ...]) -> Graph:
    """Center vertex 0 with one path of each given length hanging off it."""
    edges = []
    label = 1
    for length in leg_lengths:
        prev = 0
        for _ in range(length):
            edges.append((prev, label))
            prev = label
            label += 1
    return from_edge_list(edges, label)


def relabel(g: Graph, perm: list[int]) -> Graph:
    """Image of g under the vertex permutation perm."""
    return from_edge_list([(perm[u], perm[v]) for u, v in g.edges()], g.order)


def induced_subgraph(g: Graph, keep: Iterable[int]) -> Graph:
    """Induced subgraph on the given vertex set, relabeled by rank within it."""
    kept = sorted(set(keep))
    for v in kept:
        if not 0 <= v < g.order:
            raise ValueError(f"vertex {v} out of range")
    rank = {v: i for i, v in enumerate(kept)}
    adj = tuple(
        tuple(rank[u] for u in g.adjacency[v] if u in rank) for v in kept
    )
    return Graph(len(kept), adj)


def delete_vertex(g: Graph, v: int) -> Graph:
    """Graph with v removed and the rest relabeled 0..order-2 preserving order."""
    if not 0 <= v < g.order:
        raise ValueError(f"vertex {v} out of range")
    return induced_subgraph(g, (u for u in range(g.order) if u != v))


def delete_closed_neighborhood(g: Graph, v: int) -> Graph:
    """Induced subgraph on the complement of N[v], relabeled by rank."""
    if not 0 <= v < g.order:
        raise ValueError(f"vertex {v} out of range")
    banned = set(g.adjacency[v]) | {v}
    return induced_subgraph(g, (u for u in range(g.order) if u not in banned))


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    """Both graphs side by side; g2's labels are shifted by g1's order."""
    shift = g1.order
    adj = g1.adjacency + tuple(
        tuple(u + shift for u in nbrs) for nbrs in g2.adjacency
    )
    return Graph(g1.order + g2.order, adj)


def connected_components(g: Graph) -> list[list[int]]:
    """Vertex lists of the connected components, each sorted, in order of minimum."""
    return [sorted(verts) for verts, _ in _preorder(g)]


def _bfs_distances(g: Graph, source: int) -> list[int]:
    dist = [-1] * g.order
    dist[source] = 0
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for u in g.adjacency[v]:
            if dist[u] < 0:
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist


@dataclass(frozen=True)
class StructuralInvariants:
    """Order, pendant count and diameter."""

    n: int
    p: int
    d: int


def structural_invariants(g: Graph) -> StructuralInvariants:
    """Exact n, p, d for a connected graph: the reference for the level pass.

    Pendants are the degree-1 vertices; the diameter is the maximum BFS
    distance over all vertex pairs.
    """
    comps = connected_components(g)
    if len(comps) > 1:
        a, b = comps[0][0], comps[1][0]
        raise ValueError(
            f"graph is disconnected: vertices {a} and {b} lie in different components"
        )
    pendants = sum(1 for v in range(g.order) if g.degree(v) == 1)
    diameter = 0
    for v in range(g.order):
        diameter = max(diameter, max(_bfs_distances(g, v)))
    return StructuralInvariants(g.order, pendants, diameter)


def prufer_to_edges(seq: Sequence[int], n: int) -> list[tuple[int, int]]:
    """Labeled tree on 0..n-1 from a Pruefer sequence of length n-2."""
    if n < 2:
        raise ValueError("Pruefer decoding needs n >= 2")
    if len(seq) != n - 2:
        raise ValueError(f"sequence length {len(seq)} != n-2 = {n - 2}")
    degree = [1] * n
    for x in seq:
        if not 0 <= x < n:
            raise ValueError(f"sequence entry {x} out of range")
        degree[x] += 1
    edges = []
    # ptr scans for leaves in increasing order; leaf tracks the current one.
    ptr = 0
    while degree[ptr] != 1:
        ptr += 1
    leaf = ptr
    for x in seq:
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1 and x < ptr:
            leaf = x
        else:
            ptr += 1
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
    edges.append((leaf, n - 1))
    return edges


def random_tree(n: int, seed: int) -> TreeWitness:
    """Uniform labeled tree from a random Pruefer sequence; fixed by seed."""
    if n < 1:
        raise ValueError("order must be >= 1")
    if n == 1:
        return TreeWitness(Graph(1, ((),)))
    rng = random.Random(seed)
    seq = [rng.randrange(n) for _ in range(n - 2)]
    return TreeWitness(from_edge_list(prufer_to_edges(seq, n), n))


def brute_force_im(g: Graph) -> int:
    """Largest edge subset passing the induced-matching predicate.

    Plain ordered include/exclude search over edges, pruned only by the
    count of edges still available; capped at 24 edges.
    """
    if g.edge_count > BRUTE_FORCE_EDGE_CAP:
        raise ValueError(f"edge count {g.edge_count} exceeds {BRUTE_FORCE_EDGE_CAP}")
    edges, conflicts = _edge_conflict_masks(g)
    m = len(edges)
    best = 0

    def search(i: int, chosen: int, blocked: int) -> None:
        nonlocal best
        count = chosen.bit_count()
        if count + (m - i) <= best:
            return
        if i == m:
            best = max(best, count)
            return
        if not blocked >> i & 1:
            search(i + 1, chosen | (1 << i), blocked | conflicts[i])
        search(i + 1, chosen, blocked)

    search(0, 0, 0)
    return best


def brute_force_alpha(g: Graph) -> int:
    """Largest independent set by ordered subset search; capped at order 24."""
    if g.order > BRUTE_FORCE_ORDER_CAP:
        raise ValueError(f"order {g.order} exceeds {BRUTE_FORCE_ORDER_CAP}")
    masks = g.neighbor_masks()
    n = g.order
    best = 0

    def search(i: int, chosen: int, excluded: int) -> None:
        nonlocal best
        count = chosen.bit_count()
        if count + (n - i) <= best:
            return
        if i == n:
            best = max(best, count)
            return
        if not excluded >> i & 1:
            search(i + 1, chosen | (1 << i), excluded | masks[i])
        search(i + 1, chosen, excluded)

    search(0, 0, 0)
    return best


def _forest_betti_entries(g: Graph) -> dict[tuple[int, int], int]:
    """The entries of :func:`_betti_entries` for a forest, one step per subset.

    Vertices are relabeled in the order of :func:`~treereg.graphs._preorder`,
    where every descendant of a vertex comes after it, so the top vertex h of
    a subset W has no child in W: in G[W] it is isolated, which makes
    Ind(G[W]) a cone, or a leaf hanging from its parent p, which makes
    Ind(G[W]) the suspension of Ind(G[W - N[p]]).  sph[W] is the dimension
    of that sphere, None for a cone, and -1 for the empty complex of W = {}.
    Subsets are filled in increasing bitmask order, block by top vertex,
    since W - N[p] drops h and so comes before W.
    """
    # a vertex's parent is the latest one a level up, as in a level sequence
    order: list[int] = []
    parent: list[int] = []
    latest = [0] * g.order
    for verts, levels in _preorder(g):
        for v, lvl in zip(verts, levels):
            parent.append(latest[lvl - 1] if lvl else -1)
            latest[lvl] = len(order)
            order.append(v)
    label = [0] * g.order
    for i, v in enumerate(order):
        label[v] = i
    closed = []
    for i, v in enumerate(order):
        m = 1 << i
        for u in g.adjacency[v]:
            m |= 1 << label[u]
        closed.append(m)
    sph: list[int | None] = [-1]
    for h in range(g.order):
        p = parent[h]
        if p < 0:  # a root: isolated whenever it is the top vertex
            sph += [None] * len(sph)
            continue
        has_p = 1 << p
        keep = ~closed[p]
        sph += [
            None if not r & has_p or (k := sph[r & keep]) is None else k + 1
            for r in range(len(sph))
        ]
    entries: dict[tuple[int, int], int] = {}
    for w, k in enumerate(sph):
        if k is not None:
            j = w.bit_count()
            key = (j - k - 1, j)
            entries[key] = entries.get(key, 0) + 1
    return entries


def _decode_adjacency(seq: tuple[int, ...], n: int) -> list[list[int]]:
    """Pruefer decode straight to adjacency lists (hot path of the oracle)."""
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    adj: list[list[int]] = [[] for _ in range(n)]
    ptr = 0
    while degree[ptr] != 1:
        ptr += 1
    leaf = ptr
    for x in seq:
        adj[leaf].append(x)
        adj[x].append(leaf)
        degree[x] -= 1
        if degree[x] == 1 and x < ptr:
            leaf = x
        else:
            ptr += 1
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
    adj[leaf].append(n - 1)
    adj[n - 1].append(leaf)
    return adj


def tree_id(adj: Sequence[Sequence[int]], ids: dict) -> tuple[int, ...]:
    """Isomorphism class of a free tree: the AHU ids of its one or two centres.

    Leaves are peeled layer by layer down to the centres.  A leaf's id is 0,
    and a peeled vertex's id is the small integer ``ids`` maps the sorted
    tuple of its children's ids to, a new one for a new tuple.  Trees whose
    ids come from one ``ids``, which starts as ``{(): 0}``, get equal
    classes iff they are isomorphic.  No generator code is used.
    """
    degree = [len(a) for a in adj]
    layer = [v for v, deg in enumerate(degree) if deg < 2]
    labels = [0] * len(layer)
    left = len(adj)
    kids: list[list[int]] = [[] for _ in adj]
    while True:
        left -= len(layer)
        if not left:
            return tuple(sorted(labels))
        # a peeled vertex has degree 0, so its one unpeeled neighbour is its
        # parent; a parent left with degree 1 is in the next layer
        nxt = []
        for v, label in zip(layer, labels):
            degree[v] = 0
            for u in adj[v]:
                if degree[u]:
                    kids[u].append(label)
                    degree[u] -= 1
                    if degree[u] == 1:
                        nxt.append(u)
        layer = nxt
        labels = [ids.setdefault(tuple(sorted(kids[v])), len(ids)) for v in layer]


def prufer_tree_ids(n: int, ids: dict) -> set[tuple[int, ...]]:
    """:func:`tree_id` of every labeled tree on n vertices, deduplicated.

    Exhaustive over all n^(n-2) Pruefer sequences; the independent oracle
    for the generator (feasible up to n = 9).
    """
    if n == 1:
        return {tree_id([()], ids)}
    return {
        tree_id(_decode_adjacency(seq, n), ids)
        for seq in product(range(n), repeat=n - 2)
    }


@cache
def leaf_extension_codes(n: int) -> frozenset[tuple[int, ...]]:
    """Canonical codes of every tree of order n, grown from order n - 1.

    Every tree of order n >= 2 is a tree of order n - 1 with one more leaf,
    so a leaf hung at each vertex of each smaller tree, canonicalized by
    ``_code_levels``, finds them all; the oracle uses no generator code.
    """
    if n == 1:
        return frozenset({(0,)})
    out = set()
    for code in leaf_extension_codes(n - 1):
        adj = [list(a) for a in graph_from_code(code).adjacency] + [[]]
        for v in range(n - 1):
            adj[v].append(n - 1)
            adj[n - 1].append(v)
            out.add(_code_levels(adj))
            adj[v].pop()
            adj[n - 1].pop()
    return frozenset(out)


@st.composite
def tree_witnesses(draw, min_order: int = 1, max_order: int = 10) -> TreeWitness:
    n = draw(st.integers(min_order, max_order))
    if n == 1:
        return TreeWitness(Graph(1, ((),)))
    seq = draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))
    return TreeWitness(from_edge_list(prufer_to_edges(seq, n), n))


class Killed(Exception):
    """A sweep stopped by :func:`kill_at_dump`.  ``main`` does not catch it."""


@pytest.fixture
def kill_at_dump(monkeypatch):
    """``kill_at_dump(k)`` makes the k-th checkpoint write from then on
    raise :class:`Killed` instead.  The batch before it is written and
    fsynced but not checkpointed, so the outputs hold rows past the
    checkpoint, as a kill leaves them; later writes go through."""
    real = _Checkpoint.dump

    def arm(k: int) -> None:
        calls = 0

        def dump(self, path):
            nonlocal calls
            calls += 1
            if calls == k:
                raise Killed(f"killed at checkpoint write {k}")
            real(self, path)

        monkeypatch.setattr(_Checkpoint, "dump", dump)

    return arm


@pytest.fixture
def three_leg_spider() -> Graph:
    return spider((2, 2, 2))


@pytest.fixture
def four_leg_spider() -> Graph:
    return spider((2, 2, 2, 2))


def code_run(code: bytes) -> Run:
    """A ``bytes`` code as a one-tree run: its head, up to the root's second
    child, and the rest as its one forest."""
    end = code.find(1, 2)
    if end < 0:
        end = len(code)
    return code[:end], [code[end:]]


def code_kernel(code: bytes) -> tuple[int, int, int, int, int]:
    """``(n, p, d, im, alpha)`` of the tree a ``bytes`` level sequence
    encodes: a fresh ``bounds.kernel()`` on its one-tree run."""
    return kernel()(*code_run(code))[0]
