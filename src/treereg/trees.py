"""Canonical codes and exhaustive generation of free trees.

A tree's code is the level sequence (preorder depth list) of the tree rooted
at its center, children ordered by descending subtree code; bicentral trees
take the lexicographically larger of the two center-rooted sequences.  Equal
codes mean isomorphic trees, and the lexicographic order on codes is the
deterministic total order every enumeration consumer relies on.

Generation walks canonical rooted level sequences with the classical
Beyer-Hedetniemi successor, restricted to free-tree representatives in the
Wright-Richmond-Odlyzko-McKay style, so each isomorphism class appears
exactly once without pairwise comparisons.  Each layout the walk yields is
already rooted at a center with its sibling blocks in descending order, so
its code comes from the level sequence alone: a unicentral layout is its
code, and a bicentral one is re-rooted at the other center in O(n) and the
larger sequence kept.  No Graph is built during enumeration, and the
sweeps take the codes as sorted ``bytes`` (:func:`code_bytes`) with no
:class:`TreeCode` per tree; the adjacency-based canonicalizer serves
labeled input.  The all-Pruefer-sequences enumeration stays exponential and
is kept in the test suite as an oracle.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from functools import cache
from typing import Iterable, Iterator, Sequence

from .graphs import Graph, TreeWitness, from_edge_list

DEFAULT_MAX_ORDER = 20


def max_order_cap() -> int:
    """Enumeration order cap; TREEREG_MAX_ORDER overrides the default of 20."""
    raw = os.environ.get("TREEREG_MAX_ORDER")
    if raw is None:
        return DEFAULT_MAX_ORDER
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"TREEREG_MAX_ORDER={raw!r} is not an integer") from None
    if cap < 1:
        raise ValueError(f"TREEREG_MAX_ORDER must be >= 1, got {cap}")
    return cap


@dataclass(frozen=True, order=True)
class TreeCode:
    """Isomorphism-invariant level sequence of a free tree."""

    levels: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.levels)

    def to_text(self) -> str:
        """Space-separated levels; the stable primary key in all output files."""
        return code_text(self.levels)

    @classmethod
    def from_text(cls, text: str) -> "TreeCode":
        return cls(tuple(int(tok) for tok in text.split()))


# The text of every level a byte can hold.
_LEVEL_TEXT = tuple(map(str, range(256)))


def code_text(levels: Iterable[int]) -> str:
    """A level sequence (tuple or ``bytes``) as its space-separated text."""
    if type(levels) is bytes:
        return " ".join([_LEVEL_TEXT[x] for x in levels])
    return " ".join(map(str, levels))


def _tree_centers(adj: Sequence[Sequence[int]]) -> list[int]:
    """The one or two middle vertices left after repeatedly stripping leaves."""
    n = len(adj)
    if n <= 2:
        return list(range(n))
    degree = [len(a) for a in adj]
    layer = [v for v in range(n) if degree[v] == 1]
    remaining = n
    while remaining > 2:
        remaining -= len(layer)
        nxt = []
        for v in layer:
            for u in adj[v]:
                degree[u] -= 1
                if degree[u] == 1:
                    nxt.append(u)
        layer = nxt
    return sorted(layer)


def _rooted_levels(adj: Sequence[Sequence[int]], root: int) -> tuple[int, ...]:
    """Canonical level sequence of the tree rooted at root.

    Children are concatenated in descending order of their own sequences,
    which makes the result depend only on the rooted isomorphism class.
    """
    n = len(adj)
    parent = [-1] * n
    order = [root]
    parent[root] = root
    for v in order:
        for u in adj[v]:
            if parent[u] < 0:
                parent[u] = v
                order.append(u)
    children: list[list[int]] = [[] for _ in range(n)]
    for v in order[1:]:
        children[parent[v]].append(v)
    seq: list[tuple[int, ...]] = [()] * n
    for v in reversed(order):
        kids = sorted((seq[c] for c in children[v]), reverse=True)
        out = [0]
        for ks in kids:
            out.extend(x + 1 for x in ks)
        seq[v] = tuple(out)
    return seq[root]


def _code_levels(adj: Sequence[Sequence[int]]) -> tuple[int, ...]:
    centers = _tree_centers(adj)
    if not centers:
        raise ValueError("empty tree has no code")
    best = _rooted_levels(adj, centers[0])
    if len(centers) == 2:
        other = _rooted_levels(adj, centers[1])
        if other > best:
            best = other
    return best


def canonical_code(t: TreeWitness | Graph) -> TreeCode:
    """Canonical code; equal codes iff the trees are isomorphic."""
    witness = t if isinstance(t, TreeWitness) else TreeWitness(t)
    return TreeCode(_code_levels(witness.graph.adjacency))


def graph_from_code(code: TreeCode | Sequence[int]) -> Graph:
    """Rebuild a tree from a level sequence via the parent stack."""
    levels = code.levels if isinstance(code, TreeCode) else tuple(code)
    if not levels or levels[0] != 0:
        raise ValueError(f"level sequence must start at 0: {levels}")
    edges = []
    stack = [0]
    for v in range(1, len(levels)):
        lvl = levels[v]
        if not 1 <= lvl <= levels[stack[-1]] + 1:
            raise ValueError(f"invalid level {lvl} at position {v}")
        while levels[stack[-1]] != lvl - 1:
            stack.pop()
        edges.append((stack[-1], v))
        stack.append(v)
    return from_edge_list(edges, len(levels))


def tree_from_code(code: TreeCode | Sequence[int]) -> TreeWitness:
    return TreeWitness(graph_from_code(code))


# --- successor generation of canonical level sequences ---------------------


def _next_rooted(seq: list[int], p: int | None = None) -> list[int] | None:
    """Beyer-Hedetniemi successor of a canonical rooted level sequence."""
    if p is None:
        p = len(seq) - 1
        while seq[p] == 1:
            p -= 1
    if p == 0:
        return None
    q = p - 1
    while seq[q] != seq[p] - 1:
        q -= 1
    out = list(seq)
    for i in range(p, len(out)):
        out[i] = out[i - p + q]
    return out


def _split_first_subtree(seq: list[int]) -> tuple[list[int], list[int]]:
    """First root subtree (levels shifted down) and the rest with the root."""
    try:
        m = seq.index(1, 2)
    except ValueError:
        m = len(seq)
    return [x - 1 for x in seq[1:m]], [0] + seq[m:]


def _free_tree_layouts(n: int) -> Iterator[list[int]]:
    """All canonical free-tree level sequences of the given order."""
    if n == 1:
        yield [0]
        return
    if n == 2:
        yield [0, 1]
        return
    # Start from the path rooted at its center; walk successors, keeping
    # exactly the sequences whose first subtree is no taller (and no bigger,
    # and no later lexicographically) than the remainder.
    seq: list[int] | None = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))
    while seq is not None:
        left, rest = _split_first_subtree(seq)
        left_h, rest_h = max(left), max(rest)
        valid = rest_h > left_h or (
            rest_h == left_h
            and len(left) <= len(rest)
            and not (len(left) == len(rest) and left > rest)
        )
        if valid:
            yield seq
            seq = _next_rooted(seq)
        else:
            p = len(left)
            nxt = _next_rooted(seq, p)
            if seq[p] > 2 and nxt is not None:
                new_left, _ = _split_first_subtree(nxt)
                suffix = list(range(1, max(new_left) + 2))
                nxt[len(nxt) - len(suffix):] = suffix
            seq = nxt


def _layout_code(layout: list[int]) -> list[int]:
    """Canonical code of a layout from :func:`_free_tree_layouts`.

    The layout is rooted at a center c0 and its sibling blocks descend, so
    it is c0's canonical rooting.  The tree is bicentral exactly when the
    first subtree (rooted at the other center c1) is as tall as the rest;
    then c1's rooting is c1's child blocks plus the rest as one more block,
    inserted in descending order, and the larger of the two rootings is
    the code.
    """
    if len(layout) < 4:
        return layout
    m = layout.index(1, 2)
    if max(layout[m:]) != max(layout[1:m]) - 1:
        return layout
    # Compare blocks at the depth c1's children have in the layout (level
    # 2), then take one off every level to root the sequence at c1.
    moved = [2] + [x + 2 for x in layout[m:]]
    start = 2
    for i in range(3, m):
        if layout[i] == 2:
            if moved > layout[start:i]:
                break
            start = i
    else:
        if moved <= layout[start:m]:
            start = m
    other = [0] + [x - 1 for x in layout[2:start] + moved + layout[start:m]]
    return other if other > layout else layout


def code_bytes(n: int) -> list[bytes]:
    """Canonical codes of all non-isomorphic trees of order n, ascending, as
    ``bytes`` (one level per byte; bytes order is the code order).

    Each code comes from its generator layout by :func:`_layout_code`,
    re-rooted at the other center only for bicentral trees; no Graph and
    no :class:`TreeCode` is built.
    """
    cap = max_order_cap()
    if not 1 <= n <= cap:
        raise ValueError(f"order {n} outside 1..{cap}")
    raw = [bytes(_layout_code(layout)) for layout in _free_tree_layouts(n)]
    raw.sort()
    return raw


def enumerate_codes(n: int) -> list[TreeCode]:
    """Canonical codes of all non-isomorphic trees of order n, ascending."""
    return [TreeCode(tuple(b)) for b in code_bytes(n)]


def enumerate_trees(n: int) -> Iterator[TreeWitness]:
    """One witness per isomorphism class of order-n trees, ascending code order."""
    for code in code_bytes(n):
        yield tree_from_code(code)


@cache
def _rooted_count(n: int) -> int:
    """Number of unlabeled rooted trees on n vertices."""
    if n < 2:
        return n
    total = 0
    for j in range(1, n):
        for d in range(1, n):
            if j % d == 0:
                total += d * _rooted_count(d) * _rooted_count(n - j)
    return total // (n - 1)


def count_trees(n: int) -> int:
    """Number of non-isomorphic free trees of order n, without materializing."""
    cap = max_order_cap()
    if not 1 <= n <= cap:
        raise ValueError(f"order {n} outside 1..{cap}")
    paired = sum(_rooted_count(k) * _rooted_count(n - k) for k in range(n + 1))
    if n % 2 == 0:
        paired -= _rooted_count(n // 2)
    return _rooted_count(n) - paired // 2


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
