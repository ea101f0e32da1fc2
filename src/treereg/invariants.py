"""Exact induced matching number and independence number with certificates.

Forests get one linear-time rooted dynamic program, :func:`_level_pass`,
run on each component's level sequence from the walk that finds a forest,
:func:`~treereg.graphs._forest_walks`; the same pass gives a level-sequence code
its record (:func:`~treereg.bounds.record_for_code`).  Small general graphs
fall back to an exact branch-and-bound, capped at
:data:`BRUTE_FORCE_EDGE_CAP` edges for im and :data:`BRUTE_FORCE_ORDER_CAP`
vertices for alpha.  The plain subset-search oracles that validate both live
in the test suite, as separate code paths under the same caps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .graphs import Graph, _forest_walks
from .trees import code_parents

BRUTE_FORCE_EDGE_CAP = 24
BRUTE_FORCE_ORDER_CAP = 24


@dataclass(frozen=True)
class MatchingCertificate:
    """Witness for an induced matching: the chosen edges."""

    edges: frozenset[tuple[int, int]]
    size: int

    def __post_init__(self) -> None:
        if self.size != len(self.edges):
            raise ValueError("certificate size disagrees with its edge set")

    def validate(self, g: Graph) -> None:
        """Check both conditions against the host graph; O(size^2)."""
        chosen = sorted(self.edges)
        for u, v in chosen:
            if not g.has_edge(u, v):
                raise ValueError(f"certificate edge {u}-{v} not in graph")
        for i, (a, b) in enumerate(chosen):
            for c, d in chosen[i + 1:]:
                if len({a, b, c, d}) < 4:
                    raise ValueError(f"edges {a}-{b} and {c}-{d} share an endpoint")
                for x in (a, b):
                    for y in (c, d):
                        if g.has_edge(x, y):
                            raise ValueError(
                                f"edge {x}-{y} joins certificate edges "
                                f"{a}-{b} and {c}-{d}"
                            )


@dataclass(frozen=True)
class IndependentSetCertificate:
    """Witness for an independent set: the chosen vertices."""

    vertices: frozenset[int]
    size: int

    def __post_init__(self) -> None:
        if self.size != len(self.vertices):
            raise ValueError("certificate size disagrees with its vertex set")

    def validate(self, g: Graph) -> None:
        chosen = sorted(self.vertices)
        for i, u in enumerate(chosen):
            for v in chosen[i + 1:]:
                if g.has_edge(u, v):
                    raise ValueError(f"certificate vertices {u} and {v} are adjacent")


def _level_pass(levels: Sequence[int]) -> tuple:
    """n, p, d, im and alpha of the tree a level sequence encodes, with
    witnesses for im and alpha, in O(n).

    Returns ``(n, p, d, im, alpha, matching, independent)``: the matching's
    (vertex, child) pairs by vertex and the independent set's vertices in
    ascending order.  ``levels`` may be a tuple, a list or ``bytes``; vertex
    v is position v, and :func:`~treereg.trees.code_parents` checks the
    sequence and gives each vertex's parent.  The tree is rooted at vertex
    0, and a vertex's children are taken in preorder.
    """
    parent = code_parents(levels)
    n = len(levels)

    # One reverse-preorder pass, so every child is final before its parent.
    # The three-state matching DP, for the subtree at v: b0 leaves v and its
    # children unmatched (v may pair upward), b1 leaves v unmatched, b2 is
    # unconstrained; s0/s1 sum the children's b1/b2.  pick is the first child
    # in preorder of largest gain b0 - b1, taken only when matching v to it
    # strictly beats b1.  inc/exc is the in/out independence DP.
    # deep1/deep2 are the deepest levels reached through two different
    # children, so a path bending at v has deep1 + deep2 - 2 levels[v] edges.
    s0 = [0] * n
    s1 = [0] * n
    gain = [-n] * n
    pick = [-1] * n
    inc = [1] * n
    exc = [0] * n
    deep1 = list(levels)
    deep2 = list(levels)
    d = 0
    leaves = 0
    for v in range(n - 1, -1, -1):
        b0 = s0[v]
        b1 = s1[v]
        b2 = 1 + b0 + gain[v]
        if pick[v] < 0:  # no child picked it: a leaf
            leaves += 1
            b2 = b1
        elif b2 <= b1:
            b2 = b1
            pick[v] = -1
        bend = deep1[v] + deep2[v] - 2 * levels[v]
        if bend > d:
            d = bend
        if not v:
            break  # b2 is the root's, im of the whole tree
        u = parent[v]
        s0[u] += b1
        s1[u] += b2
        if b0 - b1 >= gain[u]:  # children arrive last first: >= keeps the first
            gain[u] = b0 - b1
            pick[u] = v
        i = inc[v]
        e = exc[v]
        exc[u] += i if i > e else e
        inc[u] += e
        dv = deep1[v]
        if dv > deep1[u]:
            deep2[u] = deep1[u]
            deep1[u] = dv
        elif dv > deep2[u]:
            deep2[u] = dv
    alpha = inc[0] if inc[0] > exc[0] else exc[0]

    # Witnesses, parent before child.  state 3 is state 2 with a pick (v
    # matched to it); state 2 without one acts as 1.  A vertex is taken into
    # the independent set when inc >= exc and its parent is not taken.
    state = [3 if pick[0] >= 0 else 1] + [0] * (n - 1)
    take = [inc[0] >= exc[0]] + [False] * (n - 1)
    matching = [(0, pick[0])] if state[0] == 3 else []
    independent = [0] if take[0] else []
    for v in range(1, n):
        u = parent[v]
        s = state[u]
        if s == 3:
            s = 0 if pick[u] == v else 1
        elif s == 0:
            s = 1
        elif pick[v] >= 0:
            s = 3
            matching.append((v, pick[v]))
        else:
            s = 1
        state[v] = s
        if not take[u] and inc[v] >= exc[v]:
            take[v] = True
            independent.append(v)
    if len(matching) != b2 or len(independent) != alpha:
        raise AssertionError(
            f"witnesses of {len(matching)} edges and {len(independent)} "
            f"vertices, the DP values are im = {b2} and alpha = {alpha}"
        )
    # the root is no leaf once it has a child, and a pendant when it has only
    # one: no second child raised its deep2
    p = leaves + (deep2[0] == 0) if n > 1 else 0
    return n, p, d, b2, alpha, tuple(matching), tuple(independent)


def _forest_certificates(
    walks: list[tuple[list[int], list[int]]],
) -> tuple[MatchingCertificate, IndependentSetCertificate]:
    """Witnesses for im and alpha of a forest, in its own labels: one
    :func:`_level_pass` per walk of :func:`~treereg.graphs._forest_walks`."""
    edges: list[tuple[int, int]] = []
    chosen: list[int] = []
    for verts, levels in walks:
        *_, matching, independent = _level_pass(levels)
        for v, c in matching:
            u, w = verts[v], verts[c]
            edges.append((u, w) if u < w else (w, u))
        chosen.extend(verts[v] for v in independent)
    return (
        MatchingCertificate(frozenset(edges), len(edges)),
        IndependentSetCertificate(frozenset(chosen), len(chosen)),
    )


def _mis_branch(neighbor_masks: list[int], candidates: int) -> tuple[int, int]:
    """Exact maximum independent set on a vertex bitmask, (size, chosen_mask).

    Branches on a maximum-degree vertex; degree <= 1 vertices are taken
    greedily, which is optimal by the usual exchange argument.
    """
    if candidates == 0:
        return 0, 0
    best_v, best_deg = -1, -1
    m = candidates
    while m:
        v = (m & -m).bit_length() - 1
        m &= m - 1
        deg = (neighbor_masks[v] & candidates).bit_count()
        if deg <= 1:
            size, mask = _mis_branch(
                neighbor_masks, candidates & ~(neighbor_masks[v] | (1 << v))
            )
            return size + 1, mask | (1 << v)
        if deg > best_deg:
            best_v, best_deg = v, deg
    v = best_v
    s_in, m_in = _mis_branch(
        neighbor_masks, candidates & ~(neighbor_masks[v] | (1 << v))
    )
    s_in += 1
    m_in |= 1 << v
    s_out, m_out = _mis_branch(neighbor_masks, candidates & ~(1 << v))
    return (s_in, m_in) if s_in >= s_out else (s_out, m_out)


def _edge_conflict_masks(g: Graph) -> tuple[list[tuple[int, int]], list[int]]:
    """Edges plus, per edge, the bitmask of edges it cannot join in an
    induced matching (shared endpoint or a host edge between endpoints)."""
    edges = list(g.edges())
    masks = [0] * len(edges)
    for i, (a, b) in enumerate(edges):
        for j in range(i + 1, len(edges)):
            c, d = edges[j]
            conflict = len({a, b, c, d}) < 4 or any(
                g.has_edge(x, y) for x in (a, b) for y in (c, d)
            )
            if conflict:
                masks[i] |= 1 << j
                masks[j] |= 1 << i
    return edges, masks


def induced_matching_number(g: Graph) -> tuple[int, MatchingCertificate]:
    """im(g) with a checkable witness; exact on forests of any size."""
    if (walks := _forest_walks(g)) is not None:
        cert = _forest_certificates(walks)[0]
        return cert.size, cert
    if g.edge_count > BRUTE_FORCE_EDGE_CAP:
        raise ValueError(
            f"graph is not a forest and has {g.edge_count} edges; exact "
            f"computation is only available up to {BRUTE_FORCE_EDGE_CAP} edges"
        )
    edges, conflicts = _edge_conflict_masks(g)
    size, mask = _mis_branch(conflicts, (1 << len(edges)) - 1)
    chosen = frozenset(edges[i] for i in range(len(edges)) if mask >> i & 1)
    return size, MatchingCertificate(chosen, size)


def independence_number(g: Graph) -> tuple[int, IndependentSetCertificate]:
    """alpha(g) with a checkable witness; exact on forests of any size."""
    if (walks := _forest_walks(g)) is not None:
        cert = _forest_certificates(walks)[1]
        return cert.size, cert
    if g.order > BRUTE_FORCE_ORDER_CAP:
        raise ValueError(
            f"graph is not a forest and has order {g.order}; exact "
            f"computation is only available up to order {BRUTE_FORCE_ORDER_CAP}"
        )
    size, mask = _mis_branch(g.neighbor_masks(), (1 << g.order) - 1)
    chosen = frozenset(v for v in range(g.order) if mask >> v & 1)
    return size, IndependentSetCertificate(chosen, size)

