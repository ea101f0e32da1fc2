"""Seeded inputs and output checks for the treereg benchmark.

Each check returns the number of items whose output is missing or wrong, so
0 means the whole output is correct.  The checks compare against pinned
digests in ``reference.json`` and against this module's own tree
canonicalizer and independent-set enumeration; the only thing taken from the
package under test is its induced-matching DP, which the oracle check
compares the Betti table's regularity with.
"""

from __future__ import annotations

import hashlib
import json
import random
from math import comb
from pathlib import Path
from typing import Sequence

REFERENCE = json.loads(Path(__file__).with_name("reference.json").read_text())

Edges = list[tuple[int, int]]


def tree_count(order: int) -> int:
    return REFERENCE["tree_counts"][str(order)]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# --- trees as level sequences ------------------------------------------------


def level_edges(levels: Sequence[int]) -> Edges | None:
    """Edges of the tree with this level sequence, or None if it is not one."""
    if not levels or levels[0] != 0:
        return None
    edges = []
    path = [0]  # path[k] is the latest vertex at level k
    for v in range(1, len(levels)):
        lvl = levels[v]
        if not 1 <= lvl <= len(path):
            return None
        del path[lvl:]
        edges.append((path[-1], v))
        path.append(v)
    return edges


def _rooted(adj: list[list[int]], v: int, parent: int) -> tuple[int, ...]:
    kids = sorted((_rooted(adj, u, v) for u in adj[v] if u != parent), reverse=True)
    return (0,) + tuple(x + 1 for kid in kids for x in kid)


def canonical_levels(n: int, edges: Edges) -> tuple[int, ...]:
    """The package's code convention, computed independently of the package.

    Root at the center, order children by descending subtree sequence, and
    for two centers take the larger of the two sequences.
    """
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    degree = [len(a) for a in adj]
    layer = [v for v in range(n) if degree[v] <= 1]
    left = n
    while left > 2:
        left -= len(layer)
        nxt = []
        for v in layer:
            for u in adj[v]:
                degree[u] -= 1
                if degree[u] == 1:
                    nxt.append(u)
        layer = nxt
    return max(_rooted(adj, c, -1) for c in layer)


def all_trees(order: int) -> list[tuple[int, ...]]:
    """Canonical level sequences of every free tree of the given order."""
    found = set()

    def grow(seq: list[int]) -> None:
        if len(seq) == order:
            found.add(canonical_levels(order, level_edges(seq)))
            return
        for lvl in range(1, seq[-1] + 2):
            seq.append(lvl)
            grow(seq)
            seq.pop()

    grow([0])
    return sorted(found)


# --- oracle inputs -----------------------------------------------------------


def _relabel(edges: Edges, perm: list[int]) -> Edges:
    return sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges)


def oracle_tree_inputs(order: int, seed: int) -> list[Edges]:
    """Every tree of the order, each relabeled by a seeded permutation, shuffled."""
    rng = random.Random(seed)
    graphs = []
    for levels in all_trees(order):
        perm = list(range(order))
        rng.shuffle(perm)
        graphs.append(_relabel(level_edges(levels), perm))
    rng.shuffle(graphs)
    return graphs


def _random_labeled_tree(order: int, rng: random.Random) -> Edges:
    """Uniform labeled tree: decode a random Pruefer sequence."""
    seq = [rng.randrange(order) for _ in range(order - 2)]
    degree = [1] * order
    for x in seq:
        degree[x] += 1
    edges = []
    for x in seq:
        leaf = degree.index(1)
        edges.append((leaf, x))
        degree[leaf] -= 1
        degree[x] -= 1
    u, v = (i for i in range(order) if degree[i] == 1)
    edges.append((u, v))
    return edges


def oracle_cyclic_inputs(order: int, count: int, seed: int) -> list[Edges]:
    """Distinct labeled unicyclic graphs: a random tree plus one chord."""
    rng = random.Random(seed)
    seen = set()
    graphs = []
    while len(graphs) < count:
        edges = {tuple(sorted(e)) for e in _random_labeled_tree(order, rng)}
        chord = tuple(sorted(rng.sample(range(order), 2)))
        if chord in edges:
            continue
        edges.add(chord)
        key = frozenset(edges)
        if key not in seen:
            seen.add(key)
            graphs.append(sorted(edges))
    return graphs


# --- output checks -----------------------------------------------------------


def check_sweep(csv: bytes | None, violations: bytes | None, max_order: int) -> int:
    """Trees whose CSV record is missing or wrong, or that report a violation.

    The records must be the pinned header followed by the pinned block of
    rows of each order 1..max_order, in that order.  When the whole-file
    digest is pinned for this order and matches, nothing else is read.
    """
    counts = [tree_count(k) for k in range(1, max_order + 1)]
    total = sum(counts)
    if csv is None or violations is None:
        return total
    pinned = REFERENCE["sweep_csv_sha256"].get(str(max_order))
    if pinned == sha256(csv) and not violations:
        return 0
    lines = csv.split(b"\n")
    if lines[-1] == b"":
        lines.pop()
    if not lines or lines[0] != REFERENCE["csv_header"].encode():
        return total
    rows = lines[1:]
    failed = 0
    at = 0
    for order, count in enumerate(counts, start=1):
        block = b"".join(row + b"\n" for row in rows[at : at + count])
        if sha256(block) != REFERENCE["sweep_order_sha256"][str(order)]:
            failed += count
        at += count
    failed += len(rows) - min(at, len(rows))  # rows past the last order
    flagged = set()
    for line in violations.splitlines():
        try:
            flagged.add(json.loads(line)["tree_code"])
        except (ValueError, KeyError, TypeError):
            flagged.add(line)
    return min(total, failed + len(flagged))


def check_enumerate(stdout: bytes | None, order: int) -> int:
    """Codes missing from or wrong in `treereg enumerate --codes-only` output.

    Unless the output matches its pinned digest, every line must be the
    canonical code of an order-`order` tree, strictly above the line before;
    with the right number of such lines that is exactly the set of all trees.
    """
    expected = tree_count(order)
    if stdout is None:
        return expected
    if REFERENCE["enumerate_sha256"].get(str(order)) == sha256(stdout):
        return 0
    lines = stdout.decode(errors="replace").splitlines()
    good = 0
    prev: tuple[int, ...] = ()
    for line in lines:
        try:
            levels = tuple(int(tok) for tok in line.split(" "))
        except ValueError:
            continue
        edges = level_edges(levels)
        if (
            len(levels) != order
            or " ".join(map(str, levels)) != line
            or edges is None
            or levels <= prev
            or canonical_levels(order, edges) != levels
        ):
            continue
        prev = levels
        good += 1
    return min(expected, max(len(lines), expected) - good)


def _independent_set_sizes(n: int, edges: Edges) -> list[int]:
    """How many independent sets of each size the graph has."""
    nbr = [0] * n
    for u, v in edges:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    sizes = [0] * (n + 1)
    stack = [(0, 0, 0)]
    while stack:
        start, mask, size = stack.pop()
        sizes[size] += 1
        for v in range(start, n):
            if not nbr[v] & mask:
                stack.append((v + 1, mask | 1 << v, size + 1))
    return sizes


def hilbert_numerator(n: int, edges: Edges) -> list[int]:
    """Coefficients of sum over independent sets F of t^|F| (1-t)^(n-|F|)."""
    out = [0] * (n + 1)
    for size, count in enumerate(_independent_set_sizes(n, edges)):
        for k in range(n - size + 1):
            out[size + k] += count * comb(n - size, k) * (-1) ** k
    return out


def betti_numerator(n: int, entries: Sequence[Sequence[int]]) -> list[int]:
    """Coefficients of sum over Betti entries of (-1)^i beta_{i,j} t^j."""
    out = [0] * (n + 1)
    for i, j, b in entries:
        if not 0 <= j <= n:
            return []
        out[j] += (-1) ** i * b
    return out


def check_betti(
    n: int, entries: Sequence[Sequence[int]], numerator: list[int], im: int, forest: bool
) -> bool:
    """One Betti table against its graph's Hilbert numerator and im.

    The table's sum of (-1)^i beta_{i,j} t^j must equal the numerator, and
    its regularity must equal im on a forest and be at least im otherwise.
    """
    if betti_numerator(n, entries) != numerator:
        return False
    reg = max(j - i for i, j, b in entries if b)
    return reg == im if forest else im <= reg
