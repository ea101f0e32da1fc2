"""Canonical codes and exhaustive generation of free trees.

A tree's code is the level sequence (preorder depth list) of the tree rooted
at its center, children ordered by descending subtree code; bicentral trees
take the lexicographically larger of the two center-rooted sequences.  Equal
codes mean isomorphic trees, and the lexicographic order on codes is the
deterministic total order every enumeration consumer relies on.

Generation composes each code from canonical rooted subtrees (Otter 1948):
a free tree is a center with rooted subtrees hanging off it, or a central
edge joining two rooted halves of equal height.  :func:`code_runs` builds
ascending tables of rooted subtrees and the forests they make, once per
call, and yields the codes as ``bytes`` in ascending runs, one per first
block, each a slice of two tables.  So each isomorphism class appears
exactly once without pairwise comparisons or a sort of the codes, no
order's codes are held at once, and no Graph is built.  The sweeps and
``enumerate`` write them in :func:`code_batches`.  Labeled input goes
through the adjacency-based canonicalizer, :func:`canonical_code`, which
returns the same level sequence as a tuple of ints in O(n log n): it roots
the tree at each center and orders children by AHU ranks, level by level.
:func:`code_text`, :func:`graph_from_code` and :func:`tree_from_code` take
either form.  :func:`code_parents` is the one check of a level sequence
and decodes it for Graphs, records and ``enumerate``'s edge specs.
Pruefer decoding, random trees and the exponential all-Pruefer enumeration
are oracles of the test suite and live there.
"""

from __future__ import annotations

import os
from bisect import bisect_left, bisect_right
from functools import cache
from itertools import islice
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


# The text of every level a byte can hold.
_LEVEL_TEXT = tuple(map(str, range(256)))

# code_texts joins codes on this byte; its hex is the "ee" the texts split at.
_SEP = b"\xee"
# A one-digit level k becomes the byte 0xkF, whose hex less its "f" is k;
# every longer level becomes the separator, so a surplus of separators
# marks a batch that needs the per-level join.
_HEX_LEVEL = bytes(16 * k + 15 if k < 10 else _SEP[0] for k in range(256))


def code_texts(codes: Sequence[bytes]) -> list[str]:
    """The space-separated texts of non-empty ``bytes`` level sequences.

    A batch whose levels all have one digit takes a few C-level calls
    whatever its size: join on the separator, translate each level k to
    the byte 0xkF, write the hex with a space between bytes, drop every
    "f", and split at the separators' "ee".  A batch with a level of two
    or more digits (at the default cap only the order-20 path, which
    reaches level 10) joins each code's level strings instead.
    """
    joined = _SEP.join(codes).translate(_HEX_LEVEL)
    # an empty batch also lands here: it has no separator, not -1 of them
    if joined.count(_SEP) != len(codes) - 1:
        return [" ".join([_LEVEL_TEXT[x] for x in code]) for code in codes]
    return joined.hex(" ").replace("f", "").split(" ee ")


def code_text(levels: Iterable[int]) -> str:
    """A level sequence (tuple or ``bytes``) as its space-separated text,
    the text :func:`code_texts` gives a batch of ``bytes`` codes."""
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
    Those sequences are never built: AHU ranks stand in for them, one level
    at a time from the deepest.  A vertex's key is its children's ranks in
    descending order, and a level's ranks follow its keys in ascending
    order.  Tuple order on keys is code order, since a child block that is
    a proper prefix of another sorts first in both, so equal ranks mean
    equal subtrees and a larger rank a larger code.
    """
    depth = [-1] * len(adj)
    depth[root] = 0
    children: list[list[int]] = [[] for _ in adj]
    layers = [[root]]
    for layer in layers:
        below = []
        for v in layer:
            for u in adj[v]:
                if depth[u] < 0:
                    depth[u] = depth[v] + 1
                    children[v].append(u)
                    below.append(u)
        if below:
            layers.append(below)
    rank = [0] * len(adj)
    by_rank = rank.__getitem__
    for layer in reversed(layers):
        keys = []
        for v in layer:
            kids = children[v]
            if kids:
                kids.sort(key=by_rank)
                keys.append(tuple([rank[c] for c in reversed(kids)]))
            else:
                keys.append(())
        ids = {key: i for i, key in enumerate(sorted(set(keys)))}
        for v, key in zip(layer, keys):
            rank[v] = ids[key]
    # a stack pops the children, pushed in ascending rank, largest first
    out = []
    stack = [root]
    while stack:
        v = stack.pop()
        out.append(depth[v])
        stack.extend(children[v])
    return tuple(out)


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


def canonical_code(t: TreeWitness | Graph) -> tuple[int, ...]:
    """Canonical level sequence; equal codes iff the trees are isomorphic."""
    witness = t if isinstance(t, TreeWitness) else TreeWitness(t)
    return _code_levels(witness.graph.adjacency)


def code_parents(code: Sequence[int]) -> list[int]:
    """Each vertex's parent, the latest vertex one level up (the root's is
    0), in the tree a level sequence (tuple, list or ``bytes``) encodes."""
    n = len(code)
    if not n or code[0] != 0:
        raise ValueError(f"level sequence must start at 0: {tuple(code)}")
    parent = [0] * n
    latest = [0] * n
    prev = 0
    for v in range(1, n):
        lvl = code[v]
        if not 1 <= lvl <= prev + 1:
            raise ValueError(f"invalid level {lvl} at position {v}")
        parent[v] = latest[lvl - 1]
        latest[lvl] = v
        prev = lvl
    return parent


def code_edges(code: Sequence[int]) -> list[tuple[int, int]]:
    """The tree's (parent, child) edges, sorted as ``Graph.edges()`` is."""
    parent = code_parents(code)
    return sorted(zip(parent[1:], range(1, len(parent))))


def graph_from_code(code: Sequence[int]) -> Graph:
    """Rebuild a tree from a level sequence."""
    return from_edge_list(code_edges(code), len(code))


def tree_from_code(code: Sequence[int]) -> TreeWitness:
    return TreeWitness(graph_from_code(code))


# --- free trees composed from canonical rooted subtrees --------------------

# Adds one to, or takes one from, every level of a ``bytes`` code: a block
# one level deeper, or a block's forest one level up.
_DEEPER = bytes(range(1, 256)) + b"\xff"
_UP = b"\0" + bytes(range(255))


def _forests(m: int, h: int, tables: dict) -> list[bytes]:
    """Ascending forests of m vertices whose blocks have height <= h."""
    got = tables.get((m, h))
    if got is None:
        got = [b""] if m == 0 else []
        for s in range(1, m + 1) if h >= 0 else ():
            rest = _forests(m - s, h, tables)
            for y in _blocks(s, h, tables):
                # A forest led by y or a smaller block sorts below y + 2: after
                # y comes the next root (1) or nothing, while a larger block
                # that extends y goes on with a level of at least 2.
                got.extend(map(y.__add__, islice(rest, bisect_left(rest, y + b"\2"))))
        got.sort()
        tables[m, h] = got
    return got


def _blocks(s: int, h: int, tables: dict) -> list[bytes]:
    """Ascending blocks of s vertices and height <= h: each is a root one
    level deep over a forest one level deeper."""
    return [b"\1" + f.translate(_DEEPER) for f in _forests(s - 1, h - 1, tables)]


def code_runs(n: int) -> Iterator[list[bytes]]:
    """Canonical codes of all non-isomorphic trees of order n, ascending, as
    ``bytes`` (one level per byte; bytes order is the code order), in runs
    that share a first block.

    A block is a canonical rooted tree written one level deep, and a forest
    is blocks joined in descending order: a root's child sequence.  A taller
    rooted tree has the larger code, since its code starts 0, 1, ...,
    height; so in an ascending table the blocks of height at most h come
    first, and ``bisect`` finds every bound.  A code is ``0``, its first
    block X of height h, then a forest.  A bicentral tree with halves A >= B
    is rooted at B's root with A as X, the larger of the two rootings, and
    its forest is B's: led by a block of height h - 1, and at most A's.  A
    unicentral tree's forest is led by a block of height h, at most X.  So
    every bicentral code sorts below every unicentral one with the same X,
    each run is two slices of ascending tables, and only the first blocks
    are sorted.  The tables live while the generator does.
    """
    cap = max_order_cap()
    if not 1 <= n <= cap:
        raise ValueError(f"order {n} outside 1..{cap}")
    if n == 1:
        yield [b"\0"]
        return
    tables: dict[tuple[int, int], list[bytes]] = {}
    for h in range((n - 2) // 2 + 1):
        path = bytes(range(1, h + 2))  # the least block of height h
        firsts, slices = [], {}
        for s in range(h + 1, n - h):
            ys = _blocks(s, h, tables)
            firsts += islice(ys, bisect_left(ys, path), None)
            # bicentral forests g start at the least of height h - 1, and
            # unicentral f at path
            g, f = _forests(n - 1 - s, h - 1, tables), _forests(n - 1 - s, h, tables)
            slices[s] = g, bisect_left(g, path[:-1]), f, bisect_left(f, path)
        firsts.sort()
        for x in firsts:
            g, g0, f, f0 = slices[len(x)]
            head = b"\0" + x
            # g up to A's forest, x's own one level up; f led by a block <= x
            run = [
                *map(head.__add__, islice(g, g0, bisect_right(g, x[1:].translate(_UP)))),
                *map(head.__add__, islice(f, f0, bisect_left(f, x + b"\2"))),
            ]
            if run:
                yield run


def code_bytes(n: int) -> list[bytes]:
    """The codes of :func:`code_runs` in one list."""
    return [code for run in code_runs(n) for code in run]


def code_batches(runs: Iterable[list[bytes]], size: int) -> Iterator[list[bytes]]:
    """The codes of ``runs`` in order, in lists of whole runs of at least
    ``size`` codes; only the last list may be shorter."""
    batch: list[bytes] = []
    for run in runs:
        batch += run
        if len(batch) >= size:
            yield batch
            batch = []
    if batch:
        yield batch


def enumerate_trees(n: int) -> Iterator[TreeWitness]:
    """One witness per isomorphism class of order-n trees, ascending code order."""
    for run in code_runs(n):
        for code in run:
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

