"""Bundled reference tables over small tree families.

Each builder recomputes every cell from scratch (enumeration, invariant
DPs, homology oracle, bound formulas); nothing numeric is hardcoded except
the row layout of the bundled tables, which fixes how isomorphism classes
map to row positions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bounds import bound_parameters, evaluate_bounds, record_for_code, record_for_tree
from .graphs import TreeWitness, from_edge_list, multi_whisker, WhiskerVector
from .homology import regularity
from .trees import code_bytes, graph_from_code


@dataclass(frozen=True)
class Table:
    number: int
    title: str
    headers: tuple[str, ...]
    rows: tuple[tuple, ...]

    def render_text(self) -> str:
        cells = [tuple(str(c) for c in row) for row in self.rows]
        widths = [
            max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
            for i, h in enumerate(self.headers)
        ]
        lines = [self.title]
        lines.append("  ".join(h.ljust(w) for h, w in zip(self.headers, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for r in cells:
            lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
        return "\n".join(lines)

    def to_csv(self) -> str:
        out = [",".join(self.headers)]
        for row in self.rows:
            out.append(",".join(str(c) for c in row))
        return "\n".join(out) + "\n"


# Row positions of the order-7 isomorphism classes, keyed by (p, d, im).
# Classes sharing a key also share every numeric column, so the members of
# a key are assigned to its row slots in ascending code order.
_TABLE1_ROW_SLOTS: dict[tuple[int, int, int], tuple[int, ...]] = {
    (2, 6, 2): (1,),
    (3, 5, 2): (2, 3),
    (4, 4, 2): (4, 5, 6, 10),
    (5, 3, 1): (7, 9),
    (3, 4, 3): (8,),
    (6, 2, 1): (11,),
}

# Row positions of the whiskered-tree table, keyed by (n, p, d) of the base
# tree; unique for orders 2..5.
_TABLE2_ROW_BY_NPD: dict[tuple[int, int, int], int] = {
    (2, 2, 1): 1,
    (3, 2, 2): 2,
    (4, 2, 3): 3,
    (4, 3, 2): 4,
    (5, 2, 4): 5,
    (5, 3, 3): 6,
    (5, 4, 2): 7,
}

TABLE3_ORDER = 100
TABLE3_PENDANTS = (2, 5, 10, 20, 30, 40, 50, 60, 70, 80, 90, 95, 99)

# The two order-9 example trees: the 4-leg spider with legs of length 2,
# and the tree with a degree-4 center, two pendant pairs split across the
# two branch vertices, and one leg of length 2.
TABLE4_TREES = (
    ((0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6), (0, 7), (7, 8)),
    ((0, 1), (0, 3), (0, 5), (0, 7), (5, 6), (6, 2), (6, 4), (7, 8)),
)
TABLE4_WHISKERS = 2


def build_table1() -> Table:
    """All 11 trees of order 7: lower bound, regularity, upper bound."""
    placed: dict[int, tuple] = {}
    used: dict[tuple[int, int, int], int] = {}
    for code in code_bytes(7):  # ascending code order
        r = record_for_code(code, with_oracle=True)
        key = (r.p, r.d, r.im)
        slots = _TABLE1_ROW_SLOTS[key]
        slot = slots[used.get(key, 0)]
        used[key] = used.get(key, 0) + 1
        placed[slot] = (slot, r.tree_code, r.p, r.d, r.bounds.lb_tree, r.reg, r.bounds.ub_tree)
    rows = tuple(placed[i] for i in range(1, 12))
    return Table(
        number=1,
        title="Trees of order 7: regularity against the tree bounds",
        headers=("row", "tree_code", "p", "d", "lb", "reg", "ub"),
        rows=rows,
    )


def build_table2() -> Table:
    """Trees of orders 2..5, whiskered once per vertex: regularity vs bound."""
    placed: dict[int, tuple] = {}
    for n in range(2, 6):
        for code in code_bytes(n):
            r = record_for_code(code)
            row = _TABLE2_ROW_BY_NPD[(r.n, r.p, r.d)]
            whiskered = multi_whisker(graph_from_code(code), WhiskerVector.ones(n))
            reg_w = regularity(whiskered)
            placed[row] = (
                row,
                r.tree_code,
                r.n,
                bound_parameters(r.n, r.p),
                r.d,
                r.alpha,
                reg_w,
                r.bounds.wub,
            )
    rows = tuple(placed[i] for i in range(1, 8))
    return Table(
        number=2,
        title="Whiskered trees, base orders 2..5: regularity vs whisker bound",
        headers=("row", "tree_code", "n", "p", "d", "alpha", "reg_whiskered", "wub"),
        rows=rows,
    )


def build_table3() -> Table:
    """Both tree upper bounds at order 100 across a pendant-count sweep."""
    rows = []
    for p in TABLE3_PENDANTS:
        b = evaluate_bounds(TABLE3_ORDER, p, 2)
        rows.append((p, b.ub_tree_np, b.ub_tree_23))
    return Table(
        number=3,
        title=f"Upper bound comparison at n = {TABLE3_ORDER}",
        headers=("p", "n_minus_p", "two_thirds"),
        rows=tuple(rows),
    )


def build_table4() -> Table:
    """Two order-9 trees, whiskered twice per vertex: regularity vs both terms."""
    rows = []
    for idx, edges in enumerate(TABLE4_TREES, start=1):
        t = TreeWitness(from_edge_list(edges, 9))
        r = record_for_tree(t)
        vec = WhiskerVector.constant(9, TABLE4_WHISKERS)
        whiskered = multi_whisker(t.graph, vec)
        reg_w = regularity(whiskered)
        if reg_w != r.alpha:
            raise AssertionError(
                f"whisker identity failed on row {idx}: reg = {reg_w}, alpha = {r.alpha}"
            )
        rows.append((idx, r.tree_code, r.p, r.d, reg_w, r.bounds.wub_d, r.bounds.wub_p))
    return Table(
        number=4,
        title="Two order-9 trees, two whiskers per vertex: regularity vs both bound terms",
        headers=("row", "tree_code", "p", "d", "reg_whiskered", "wub_d", "wub_p"),
        rows=tuple(rows),
    )


def build_table(which: int) -> Table:
    builders = {1: build_table1, 2: build_table2, 3: build_table3, 4: build_table4}
    if which not in builders:
        raise ValueError(f"no table {which}; choose one of 1, 2, 3, 4")
    return builders[which]()
