"""Exact induced matching number and independence number with certificates.

Forests get linear-time rooted dynamic programs; small general graphs fall
back to an exact branch-and-bound, capped at :data:`BRUTE_FORCE_EDGE_CAP`
edges for im and :data:`BRUTE_FORCE_ORDER_CAP` vertices for alpha.  The
plain subset-search oracles that validate both live in the test suite, as
separate code paths under the same caps.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph

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


def is_forest(g: Graph) -> bool:
    from .graphs import connected_components

    return g.edge_count == g.order - len(connected_components(g))


def _rooted_forest_order(g: Graph) -> tuple[list[int], list[list[int]], list[int]]:
    """Per-component BFS order, children arrays, and the roots in BFS order."""
    n = g.order
    seen = [False] * n
    order: list[int] = []
    children: list[list[int]] = [[] for _ in range(n)]
    roots: list[int] = []
    for s in range(n):
        if seen[s]:
            continue
        seen[s] = True
        roots.append(s)
        order.append(s)
        head = len(order) - 1
        while head < len(order):
            v = order[head]
            head += 1
            for u in g.adjacency[v]:
                if not seen[u]:
                    seen[u] = True
                    children[v].append(u)
                    order.append(u)
    return order, children, roots


def _forest_induced_matching(g: Graph) -> tuple[int, MatchingCertificate]:
    """Rooted DP over three per-vertex states.

    State meanings for the subtree solution at v:
      0 - v not matched and no child of v matched (v may pair upward later);
      1 - v not matched, children unconstrained (parent may be matched);
      2 - unconstrained.
    """
    order, children, roots = _rooted_forest_order(g)
    n = g.order
    b0 = [0] * n
    b1 = [0] * n
    b2 = [0] * n
    pick = [-1] * n  # child matched with v in the optimal state-2 solution
    for v in reversed(order):
        s0 = s1 = 0
        for c in children[v]:
            s0 += b1[c]
            s1 += b2[c]
        b0[v] = s0
        b1[v] = s1
        best, best_pick = s1, -1
        for c in children[v]:
            cand = 1 + s0 - b1[c] + b0[c]
            if cand > best:
                best, best_pick = cand, c
        b2[v] = best
        pick[v] = best_pick
    edges: list[tuple[int, int]] = []
    stack = [(v, 2) for v in roots]
    while stack:
        v, state = stack.pop()
        if state == 2 and pick[v] >= 0:
            c = pick[v]
            edges.append((min(v, c), max(v, c)))
            for other in children[v]:
                stack.append((other, 0 if other == c else 1))
        elif state == 0:
            for c in children[v]:
                stack.append((c, 1))
        else:  # state 1, or state 2 resolved as state 1
            for c in children[v]:
                stack.append((c, 2))
    total = sum(b2[v] for v in roots)
    cert = MatchingCertificate(frozenset(edges), len(edges))
    if cert.size != total:
        raise AssertionError(
            f"matching witness has {cert.size} edges, the DP value is {total}"
        )
    return total, cert


def _forest_independence(g: Graph) -> tuple[int, IndependentSetCertificate]:
    """Classic in/out rooted DP with witness reconstruction."""
    order, children, roots = _rooted_forest_order(g)
    n = g.order
    inc = [0] * n
    exc = [0] * n
    for v in reversed(order):
        inc[v] = 1 + sum(exc[c] for c in children[v])
        exc[v] = sum(max(inc[c], exc[c]) for c in children[v])
    chosen: list[int] = []
    stack = [(v, True) for v in roots]
    while stack:
        v, may_take = stack.pop()
        take = may_take and inc[v] >= exc[v]
        if take:
            chosen.append(v)
        for c in children[v]:
            stack.append((c, not take))
    total = sum(max(inc[v], exc[v]) for v in roots)
    cert = IndependentSetCertificate(frozenset(chosen), len(chosen))
    if cert.size != total:
        raise AssertionError(
            f"independent-set witness has {cert.size} vertices, the DP value is {total}"
        )
    return total, cert


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
    if is_forest(g):
        return _forest_induced_matching(g)
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
    if is_forest(g):
        return _forest_independence(g)
    if g.order > BRUTE_FORCE_ORDER_CAP:
        raise ValueError(
            f"graph is not a forest and has order {g.order}; exact "
            f"computation is only available up to order {BRUTE_FORCE_ORDER_CAP}"
        )
    size, mask = _mis_branch(g.neighbor_masks(), (1 << g.order) - 1)
    chosen = frozenset(v for v in range(g.order) if mask >> v & 1)
    return size, IndependentSetCertificate(chosen, size)

