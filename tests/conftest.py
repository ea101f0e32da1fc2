"""Shared fixtures, graph builders, and brute-force oracles."""

from __future__ import annotations

from functools import cache
from itertools import product

import pytest
from hypothesis import strategies as st

from treereg.graphs import Graph, TreeWitness, from_edge_list
from treereg.trees import _code_levels, graph_from_code, prufer_to_edges


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


def prufer_dedup_codes(n: int) -> set[tuple[int, ...]]:
    """Canonical codes of every labeled tree on n vertices, deduplicated.

    Exhaustive over all n^(n-2) Pruefer sequences; the independent oracle
    for the generator (feasible up to n = 9).
    """
    if n == 1:
        return {(0,)}
    if n == 2:
        return {(0, 1)}
    return {
        _code_levels(_decode_adjacency(seq, n))
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


@pytest.fixture
def three_leg_spider() -> Graph:
    return spider((2, 2, 2))


@pytest.fixture
def four_leg_spider() -> Graph:
    return spider((2, 2, 2, 2))
