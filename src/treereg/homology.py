"""Graded Betti tables of edge ideals via independence complexes.

The route is the classical squarefree one (Hochster's formula): for every
vertex subset W, the reduced homology of the independence complex of the
induced subgraph contributes to one Betti entry.  With j = |W| and homology
in dimension k, the contribution lands in beta_{j-k-1, j} of the quotient
module, so the regularity is max(k) + 1 over all nonzero contributions.  The
index shift is the classic off-by-one trap, which is why construction runs a
fixed calibration case (the one-edge graph must give exactly beta_{1,2} = 1)
on both routes before any table is returned.

Two routes compute the homology:

- Forests (:func:`_forest_dp_entries`, cap :data:`FOREST_BETTI_ORDER_CAP`):
  the independence complex of every induced subforest is a cone or a
  sphere.  An isolated vertex makes it a cone, and a leaf v with neighbour u
  gives Ind(G) ~ susp Ind(G - N[u]) (Ehrenborg-Hetyei 2006; Engstrom 2009).
  A tree DP applies that reduction to all subsets at once and counts the
  spheres by size and dimension, in time polynomial in the order, from one
  level sequence per component (:func:`forest_betti_table`).
- Any other graph (:func:`_betti_entries`, cap :data:`BETTI_ORDER_CAP`):
  every independent set is listed and the boundary ranks are found by GF(2)
  elimination.  For the chordal inputs this package cares about the
  resulting regularity is field-independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Sequence

from . import gf2
from .graphs import Graph, _forest_walks

# Largest order each route accepts.  The GF(2) route lists every independent
# set of every subset; the forest DP takes about 30 ms on a path or a complete
# binary tree of order 100 (Python 3.11, 2-vCPU Xeon VM).
BETTI_ORDER_CAP = 12
FOREST_BETTI_ORDER_CAP = 100


def _reduced_ranks(masks_by_size: list[list[int]]) -> list[int]:
    """Reduced homology ranks for dimensions -1..top from face masks.

    rank H~_k = (#k-faces - rank d_k) - rank d_{k+1}, with d_k the boundary
    map from k-chains to (k-1)-chains; over GF(2) a boundary row is just the
    XOR of the facet indices.
    """
    sizes = len(masks_by_size)  # faces of size 0..sizes-1 exist
    index: list[dict[int, int]] = [
        {m: i for i, m in enumerate(level)} for level in masks_by_size
    ]
    # boundary_rank[s] = rank of the map from size-s faces to size-(s-1) faces
    boundary_rank = [0] * (sizes + 1)
    for s in range(1, sizes):
        rows = []
        below = index[s - 1]
        for m in masks_by_size[s]:
            row = 0
            mm = m
            while mm:
                bit = mm & -mm
                row ^= 1 << below[m ^ bit]
                mm ^= bit
            rows.append(row)
        boundary_rank[s] = gf2.rank(rows)
    ranks = []
    for s in range(sizes):  # dimension k = s - 1
        ranks.append(len(masks_by_size[s]) - boundary_rank[s] - boundary_rank[s + 1])
    return ranks


def _independent_set_masks(neighbor_masks: Sequence[int]) -> list[int]:
    """All independent sets of the graph given by neighbor bitmasks."""
    n = len(neighbor_masks)
    out = []
    stack = [(0, 0)]
    while stack:
        start, mask = stack.pop()
        out.append(mask)
        for v in range(start, n):
            if not neighbor_masks[v] & mask:
                stack.append((v + 1, mask | (1 << v)))
    return out


def _independence_ranks(neighbor_masks: Sequence[int]) -> list[int]:
    """Reduced GF(2) homology ranks of the independence complex of a graph.

    The graph is given by neighbor bitmasks; the ranks are for dimensions
    -1..dim of the complex, in that order.
    """
    by_size: list[list[int]] = [[] for _ in range(len(neighbor_masks) + 1)]
    for mask in _independent_set_masks(neighbor_masks):
        by_size[mask.bit_count()].append(mask)
    while not by_size[-1]:
        by_size.pop()
    return _reduced_ranks(by_size)


@dataclass(frozen=True)
class BettiTable:
    """Sparse graded Betti numbers of the quotient by an edge ideal."""

    entries: Mapping[tuple[int, int], int]

    def regularity(self) -> int:
        return max(j - i for (i, j), b in self.entries.items() if b)

    def projective_dimension(self) -> int:
        return max(i for (i, j), b in self.entries.items() if b)

    def to_json_dict(self) -> dict:
        entries = sorted([i, j, b] for (i, j), b in self.entries.items() if b)
        return {
            "entries": entries,
            "reg": self.regularity(),
            "pdim": self.projective_dimension(),
        }


def _betti_entries(g: Graph) -> dict[tuple[int, int], int]:
    n = g.order
    masks = g.neighbor_masks()
    entries: dict[tuple[int, int], int] = {(0, 0): 1}
    vertices = list(range(n))
    for w in range(1, 1 << n):
        # A vertex isolated inside W makes the complex a cone: no homology.
        cone = False
        remap: list[int] = []
        for v in vertices:
            if w >> v & 1:
                if not masks[v] & w:
                    cone = True
                    break
                remap.append(v)
        if cone:
            continue
        j = len(remap)
        pos = {v: i for i, v in enumerate(remap)}
        sub = []
        for v in remap:
            m = masks[v] & w
            s = 0
            while m:
                bit = m & -m
                s |= 1 << pos[bit.bit_length() - 1]
                m ^= bit
            sub.append(s)
        for s, r in enumerate(_independence_ranks(sub)):
            if r:
                k = s - 1  # homology dimension
                i = j - k - 1
                if i < 1:
                    raise AssertionError(
                        f"subset {w:#b} contributes to row 0 at {(i, j)}"
                    )
                key = (i, j)
                entries[key] = entries.get(key, 0) + r
    return entries


def _mul(p: dict[int, int], q: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for k, c in p.items():
        for kk, cc in q.items():
            out[k + kk] = out.get(k + kk, 0) + c * cc
    return out


def _add(p: dict[int, int], q: dict[int, int]) -> dict[int, int]:
    out = dict(p)
    for k, c in q.items():
        out[k] = out.get(k, 0) + c
    return out


def _forest_dp_entries(
    walks: Sequence[Sequence[int]],
) -> dict[tuple[int, int], int]:
    """The entries of :func:`_betti_entries` for a forest, by a tree DP on
    its components' level sequences (tuples, lists or ``bytes``).

    Each subset W is reduced bottom-up by Ind(G) ~ susp Ind(G - N[u]).  A
    vertex of W is free when its children are all neutral (absent or
    deleted), and matched, the u, when it has a free child; it then deletes
    its parent.  A free vertex under an absent parent is isolated, as is the
    free child of a deleted vertex, and the cone drops out.  A state sums its
    subsets as x^j y^m, at key j * s + m, for j vertices of W, m matches and
    s the forest's order + 1; that sphere adds 1 to beta_{j-m, j}.  ``a``,
    ``dm`` and ``mf`` fold a vertex's children so far: all neutral, some
    matched and none free, some free and none matched.  Walking each level
    sequence backwards, acc[l + 1] folds the children of the next vertex at
    level l, and acc[0] those of a virtual root, not in W, over the components.
    """
    s = sum(map(len, walks)) + 1
    x, xy, one_x = {s: 1}, {s + 1: 1}, {0: 1, s: 1}
    start: tuple[dict[int, int], ...] = ({0: 1}, {}, {})
    acc = [start] * s
    for levels in walks:
        for lvl in reversed(levels):
            a, dm, mf = acc[lvl + 1]
            acc[lvl + 1] = start
            neutral, free, matched = _add(a, _mul(dm, one_x)), _mul(a, x), _mul(mf, xy)
            a, dm, mf = acc[lvl]
            acc[lvl] = (
                _mul(a, neutral),
                _add(_mul(dm, _add(neutral, matched)), _mul(a, matched)),
                _add(_mul(mf, _add(neutral, free)), _mul(a, free)),
            )
    a, dm, _ = acc[0]
    return {(k // s - k % s, k // s): c for k, c in _add(a, dm).items()}


@lru_cache(maxsize=None)
def _calibrated() -> bool:
    """Pin the index convention on the one-edge graph before trusting output."""
    p2 = Graph(2, ((1,), (0,)))
    for route, arg in ((_betti_entries, p2), (_forest_dp_entries, ((0, 1),))):
        entries = route(arg)
        if entries != {(0, 0): 1, (1, 2): 1}:
            raise AssertionError(
                f"index-shift calibration failed: {route.__name__} gives "
                f"the one-edge table {entries}"
            )
    return True


def forest_betti_table(walks: Sequence[Sequence[int]]) -> BettiTable:
    """The Betti table of a forest given as its components' level sequences."""
    n = sum(map(len, walks))
    if n > FOREST_BETTI_ORDER_CAP:
        raise ValueError(f"order {n} exceeds {FOREST_BETTI_ORDER_CAP}, the forest cap")
    _calibrated()
    return BettiTable(_forest_dp_entries(walks))


def betti_table(g: Graph) -> BettiTable:
    """Full graded Betti table of the quotient by the edge ideal of g.

    Forests take the forest route, on their walk's level sequences, up to
    FOREST_BETTI_ORDER_CAP; any other graph the GF(2) route up to BETTI_ORDER_CAP.
    """
    if (walks := _forest_walks(g)) is not None:
        return forest_betti_table([levels for _, levels in walks])
    if g.order > BETTI_ORDER_CAP:
        raise ValueError(
            f"order {g.order} exceeds {BETTI_ORDER_CAP}, the non-forest cap"
        )
    _calibrated()
    return BettiTable(_betti_entries(g))


def regularity(g: Graph) -> int:
    """max(j - i) over nonzero Betti entries; 0 for edgeless graphs."""
    return betti_table(g).regularity()
