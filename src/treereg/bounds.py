"""Closed-form bound evaluation and per-tree invariant records.

All arithmetic is exact integer floor/ceil; nothing here touches floats.
Field and CSV column names follow the census schema: ``lb_tree`` is
floor((n-p+d+5)/6), ``ub_tree_np`` is n-p, ``ub_tree_23`` is
floor((2n-p)/3), ``wub_d`` is ceil((2n-d-1)/2), ``wub_p`` is
floor((2n+p-2)/3), ``w_lb`` is ceil(n/2) and ``w_ub_triv`` is n-1.

The trees of a first-block run get their invariants from
:func:`run_kernel`, a fold that visits each distinct rooted subtree and
each distinct forest once per sweep and feeds the sweep's CSV rows, and
a tree's full record, witnesses included, from :func:`record_for_code`.
A labeled tree takes :func:`record_for_tree`, a thin adapter over
:func:`record_for_code` on the tree's preorder.  So every record gets n,
p, d, im, alpha and both witnesses from one linear pass over a level
sequence, :func:`~treereg.invariants._level_pass` (also the fold's
reference), and ``reg`` from the forest DP on it; no record builds a Graph.
A record derives its bounds and tightness flags from those numbers itself.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import cache
from typing import Optional, Sequence

from .graphs import TreeWitness
from .homology import FOREST_BETTI_ORDER_CAP, forest_betti_table
from .invariants import _level_pass
from .trees import canonical_code, code_text

# Each CSV column names a field of the record or, for a bound, of its
# BoundSet; both the header and every row are built from this one list.
CSV_COLUMNS = (
    "tree_code", "n", "p", "d", "im", "alpha", "reg",
    "lb_tree", "ub_tree_np", "ub_tree_23", "wub_d", "wub_p",
    "lb_tight", "ub_tight", "wub_tight",
)
CSV_HEADER = ",".join(CSV_COLUMNS)


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


@dataclass(frozen=True)
class BoundSet:
    """Every closed-form bound evaluated at one (n, p, d) triple."""

    lb_tree: int
    ub_tree_np: int
    ub_tree_23: int
    ub_tree: int
    wub_d: int
    wub_p: int
    wub: int
    w_lb: int
    w_ub_triv: int


def evaluate_bounds(n: int, p: int, d: int) -> BoundSet:
    """Evaluate all bounds at parameter level; no tree-realizability check."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if not 1 <= p <= n:
        raise ValueError(f"p must be in 1..{n}, got {p}")
    if not 1 <= d <= n - 1:
        raise ValueError(f"d must be in 1..{n - 1}, got {d}")
    lb_tree = (n - p + d + 5) // 6
    ub_tree_np = n - p
    ub_tree_23 = (2 * n - p) // 3
    wub_d = _ceil_div(2 * n - d - 1, 2)
    wub_p = (2 * n + p - 2) // 3
    return BoundSet(
        lb_tree=lb_tree,
        ub_tree_np=ub_tree_np,
        ub_tree_23=ub_tree_23,
        ub_tree=min(ub_tree_np, ub_tree_23),
        wub_d=wub_d,
        wub_p=wub_p,
        wub=min(wub_d, wub_p),
        w_lb=_ceil_div(n, 2),
        w_ub_triv=n - 1,
    )


def bound_parameters(n: int, p: int) -> int:
    """The pendant count the bounds are evaluated at.

    The 2-vertex tree is handled throughout as the one-leaf star (p = 1):
    with p = 2 the n-p upper bound would degenerate to 0 and sit below the
    actual invariant, so the single-edge case uses the star parameters.
    """
    return 1 if n == 2 else p


@dataclass(frozen=True)
class InvariantRecord:
    """One census row: structural data, invariants, bounds, tightness flags.

    Only the nine measured fields are constructor arguments; ``bounds`` and
    the flags are derived from them as the record is made, and again by
    ``dataclasses.replace``.  ``bounds`` is None, and every flag False, only
    for the one-vertex tree, whose parameters fall outside every bound's
    domain; an impossible (n, p, d) raises ``ValueError``.  ``reg`` is None
    above the oracle cap.  The witness fields make every reported number
    checkable in O(n^2).
    """

    tree_code: str
    n: int
    p: int
    d: int
    im: int
    alpha: int
    reg: Optional[int]
    im_witness: tuple[tuple[int, int], ...]
    alpha_witness: tuple[int, ...]
    bounds: Optional[BoundSet] = field(init=False)
    lb_tight: bool = field(init=False)
    ub_tight: bool = field(init=False)
    wub_tight: bool = field(init=False)

    def __post_init__(self) -> None:
        b = None
        if self.n >= 2:
            b = evaluate_bounds(self.n, bound_parameters(self.n, self.p), self.d)
        object.__setattr__(self, "bounds", b)
        object.__setattr__(self, "lb_tight", b is not None and self.im == b.lb_tree)
        object.__setattr__(self, "ub_tight", b is not None and self.im == b.ub_tree)
        object.__setattr__(self, "wub_tight", b is not None and self.alpha == b.wub)

    def csv_row(self) -> str:
        def cell(name: str) -> str:
            # a bound's cell is empty where ``bounds`` is None
            x = getattr(self if hasattr(self, name) else self.bounds, name, None)
            if isinstance(x, bool):
                return "true" if x else "false"
            return "" if x is None else str(x)

        return ",".join(map(cell, CSV_COLUMNS))

    def to_json_dict(self) -> dict:
        # the witnesses stay tuples, which json writes as lists
        bounds = None if self.bounds is None else {**vars(self.bounds)}
        return {**vars(self), "bounds": bounds}

    def to_jsonl(self) -> str:
        return json.dumps(self.to_json_dict(), separators=(",", ":"), sort_keys=True)


def record_for_tree(t: TreeWitness, with_oracle: bool = False) -> InvariantRecord:
    """Populate a full record; reg only when asked for and within the cap.

    This is the path for labeled input: :func:`record_for_code` on the
    tree's preorder walk (``t.walk``), with the witnesses
    mapped back to the caller's vertex labels, each matching edge as
    (smaller, larger), both sorted, and the canonical code as ``tree_code``.
    """
    verts, levels = t.walk
    r = record_for_code(levels, with_oracle)
    edges = ((verts[v], verts[c]) for v, c in r.im_witness)
    return replace(
        r,
        tree_code=code_text(canonical_code(t)),
        im_witness=tuple(sorted((u, w) if u < w else (w, u) for u, w in edges)),
        alpha_witness=tuple(sorted(verts[v] for v in r.alpha_witness)),
    )


# The summary of a rooted subtree the fold needs: the three-state matching
# DP's b0/b1/b2 (invariants._level_pass), the in/out
# independence DP, the height, the longest path inside it and its leaves.
# A leaf, at any depth:
_LEAF = (0, 0, 0, 1, 0, 0, 0, 1)
# The fold's state over a vertex's children: the sums of their b1 and b2,
# the largest gain b0 - b1 (None before any child), the in/out independence
# sums, the two largest heights one level up, the longest path inside a
# child and the leaf sum.  No children yet:
_NO_CHILD = (0, 0, None, 1, 0, 0, 0, 0, 0)


def _step(state: tuple, child: tuple) -> tuple:
    """The fold's state with one more child, given by its summary."""
    s0, s1, gain, inc, exc, h1, h2, dia, leaves = state
    c0, c1, c2, ci, ce, ch, cd, cl = child
    if gain is None or c0 - c1 > gain:
        gain = c0 - c1
    ch += 1
    if ch > h1:
        h1, h2 = ch, h1
    elif ch > h2:
        h2 = ch
    return (
        s0 + c1,
        s1 + c2,
        gain,
        inc + ce,
        exc + (ci if ci > ce else ce),
        h1,
        h2,
        cd if cd > dia else dia,
        leaves + cl,
    )


def _finish(state: tuple) -> tuple:
    """A vertex's summary from the fold's state over its (one or more)
    children."""
    s0, s1, gain, inc, exc, h1, h2, dia, leaves = state
    b2 = 1 + s0 + gain
    if h1 + h2 > dia:
        dia = h1 + h2
    return s0, s1, b2 if b2 > s1 else s1, inc, exc, h1, dia, leaves


def _forest(forest: bytes) -> tuple:
    """The fold's state over a non-empty forest: its first child's summary
    folded onto its siblings' cached state.

    A forest is children's blocks as they stand in the code, each one byte
    at the children's level, then that child's descendants.
    """
    end = forest.find(forest[0], 1)
    if end < 0:
        end = len(forest)
    return _step(_siblings(forest[end:]), _subtree(forest[1:end]))


@cache
def _siblings(forest: bytes) -> tuple:
    """The fold's state over ``forest``, what follows a first child: built
    one sibling at a time, each suffix once until the cache is cleared."""
    return _forest(forest) if forest else _NO_CHILD


@cache
def _subtree(block: bytes) -> tuple:
    """The summary of the vertex whose descendants are ``block``.

    ``block`` holds the descendants' levels as they stand in the code, so a
    non-empty block's bytes fix its depth and equal blocks are equal rooted
    subtrees; the empty block is a leaf, whose summary is the same at every
    depth.
    """
    return _finish(_forest(block)) if block else _LEAF


def run_kernel(head: bytes, forests: list[bytes]) -> list[tuple]:
    """``(n, p, d, im, alpha)`` of each tree ``head + forest`` of a run of
    :func:`~treereg.trees.forest_runs`.

    A memoized fold over rooted subtrees: the root's first child, whose
    block follows its level-1 byte in ``head``, has its summary from
    :func:`_subtree` once per run, and each forest, the root's other
    children, its fold state from :func:`_siblings`, keyed by the forest
    itself (a table entry of :func:`~treereg.trees.forest_runs`, so the
    cache holds no copy and each hashes once) and built one sibling at a
    time.  A root with no forest has one child, and so is a pendant.  Each
    distinct block and forest is folded once until the caches are cleared
    (``census.run_verify`` clears both at the start of every sweep).  The
    recurrences are those of :func:`~treereg.invariants._level_pass`,
    which stays the reference and the witness path.  Nothing is validated.
    The fold recurses once per level and once per sibling, which suits
    every order a sweep reaches; a vertex with more than about 300
    children passes Python's default recursion limit, and
    :func:`record_for_code` takes such a tree.
    """
    if len(head) == 1:
        return [(1, 0, 0, 0, 1)]
    n = len(head) + len(forests[0])
    first = _subtree(head[2:])
    keys = []
    for forest in forests:
        _, _, im, inc, exc, _, d, leaves = _finish(_step(_siblings(forest), first))
        keys.append((n, leaves + (not forest), d, im, inc if inc > exc else exc))
    return keys


def record_for_code(levels: Sequence[int], with_oracle: bool = False) -> InvariantRecord:
    """The record of the tree a level sequence encodes, in O(n) and no Graph.

    :func:`~treereg.invariants._level_pass` validates the sequence and
    gives the invariants, by the recurrences :func:`run_kernel` folds, and
    the witnesses.  Vertex v is position v of the sequence, so the labels, and
    with them the witnesses, are those of
    :func:`~treereg.trees.graph_from_code`; ``tree_code`` is the input as
    text.  :func:`record_for_tree` is this record on a labeled tree's
    preorder.  With ``with_oracle`` and n <= FOREST_BETTI_ORDER_CAP, the
    validated sequence goes on to :func:`~treereg.homology.forest_betti_table`.
    """
    n, p, d, im, alpha, matching, independent = _level_pass(levels)
    reg = None
    if with_oracle and n <= FOREST_BETTI_ORDER_CAP:
        reg = forest_betti_table((levels,)).regularity()
    return InvariantRecord(code_text(levels), n, p, d, im, alpha, reg, matching, independent)


@dataclass(frozen=True)
class Violation:
    """A failed inequality for one tree; data, not an exception."""

    tree_code: str
    check: str
    detail: str

    def to_json_dict(self) -> dict:
        return {"tree_code": self.tree_code, "check": self.check, "detail": self.detail}


def verify_record(r: InvariantRecord) -> list[Violation]:
    """All inequality failures for a fully populated record (empty = sound)."""
    out: list[Violation] = []

    def bad(check: str, detail: str) -> None:
        out.append(Violation(r.tree_code, check, detail))

    b = r.bounds
    if b is not None:
        if not b.lb_tree <= r.im:
            bad(
                "tree_lower_bound",
                f"floor((n-p+d+5)/6) = {b.lb_tree} > im = {r.im}",
            )
        if not r.im <= b.ub_tree:
            bad(
                "tree_upper_bound",
                f"im = {r.im} > min(n-p, floor((2n-p)/3)) = {b.ub_tree}",
            )
        if not b.w_lb <= r.alpha:
            bad("alpha_lower_bound", f"ceil(n/2) = {b.w_lb} > alpha = {r.alpha}")
        if not r.alpha <= min(b.wub, b.w_ub_triv):
            bad(
                "whisker_upper_bound",
                f"alpha = {r.alpha} > min(wub, n-1) = {min(b.wub, b.w_ub_triv)}",
            )
    if r.reg is not None and r.reg != r.im:
        bad(
            "regularity_equals_induced_matching",
            f"reg = {r.reg} != im = {r.im}",
        )
    return out
