"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v`` (the summary lines bypass
capture).  Every numeric comparison is exact; runtime budgets are asserted
where the criterion states one.
"""

import json
import random
import time
from collections import Counter
from contextlib import contextmanager
from itertools import product

import pytest

from treereg import census
from treereg.bounds import record_for_tree, verify_record
from treereg.cli import main as cli_main
from treereg.graphs import (
    Graph,
    TreeWitness,
    WhiskerVector,
    multi_whisker,
    path_graph,
)
from treereg.homology import regularity
from treereg.invariants import independence_number, induced_matching_number
from treereg.tables import build_table
from treereg.trees import code_bytes, count_trees, enumerate_trees, graph_from_code

from conftest import (
    Killed,
    delete_closed_neighborhood,
    delete_vertex,
    disjoint_union,
    prufer_tree_ids,
    random_tree,
    tree_id,
)
from test_tables import (
    TABLE1_EXPECTED,
    TABLE2_EXPECTED,
    TABLE3_EXPECTED,
    TABLE4_EXPECTED,
)

TREE_COUNTS_1_TO_9 = (1, 1, 1, 2, 3, 6, 11, 23, 47)


@pytest.fixture
def report(capfd):
    @contextmanager
    def criterion(num: int, desc: str, budget: float | None = None):
        t0 = time.time()
        try:
            yield
            elapsed = time.time() - t0
            if budget is not None and elapsed >= budget:
                raise AssertionError(
                    f"runtime {elapsed:.1f}s exceeds the {budget:.0f}s budget"
                )
        except BaseException:
            with capfd.disabled():
                print(f"[criterion {num}] FAIL: {desc} ({time.time() - t0:.1f}s)")
            raise
        with capfd.disabled():
            print(f"[criterion {num}] PASS: {desc} ({elapsed:.1f}s)")

    return criterion


def test_criterion_1_table1_reproduction(report, tmp_path):
    with report(1, "table 1: all 11 order-7 rows match", budget=5.0):
        assert cli_main(["tables", "--which", "1",
                         "--out", str(tmp_path / "t1.csv")]) == 0
        table = build_table(1)
        assert len(table.rows) == 11
        for row, code, p, d, lb, reg, ub in table.rows:
            assert (p, d, lb, reg, ub) == TABLE1_EXPECTED[row], f"row {row}"
        regs = Counter(row[5] for row in table.rows)
        assert regs == Counter({1: 3, 2: 7, 3: 1})
        by_pd = {(row[2], row[3]): (row[4], row[5], row[6]) for row in table.rows
                 if (row[2], row[3]) in ((2, 6), (3, 4), (6, 2))}
        assert by_pd[(2, 6)] == (2, 2, 4)
        assert by_pd[(3, 4)] == (2, 3, 3)
        assert by_pd[(6, 2)] == (1, 1, 1)


def test_criterion_2_table2_reproduction(report):
    with report(2, "table 2: whiskered regularities (1,2,2,3,3,3,4)", budget=60.0):
        table = build_table(2)
        assert [row[6] for row in table.rows] == [1, 2, 2, 3, 3, 3, 4]
        for row, code, n, p, d, alpha, reg_w, wub in table.rows:
            assert (n, p, d, reg_w, wub) == TABLE2_EXPECTED[row], f"row {row}"
            assert reg_w == alpha == wub, f"row {row}"


def test_criterion_3_table3_reproduction(report):
    with report(3, "table 3: both upper bounds at n=100 for 13 pendant counts",
                budget=5.0):
        table = build_table(3)
        assert len(table.rows) == 13
        for p, np_, tt in table.rows:
            assert (np_, tt) == TABLE3_EXPECTED[p], f"p={p}"


def test_criterion_4_table4_reproduction(report):
    with report(4, "table 4: order-9 trees, reg of the double-whiskered tree "
                   "equals alpha", budget=5.0):
        table = build_table(4)  # builder itself asserts reg(T_a) == alpha(T)
        assert len(table.rows) == 2
        for row, code, p, d, reg_w, wub_d, wub_p in table.rows:
            assert (p, d, reg_w, wub_d, wub_p) == TABLE4_EXPECTED[row], f"row {row}"


def test_criterion_5_oracle_equivalence(report):
    with report(5, "regularity equals induced matching for all 201 trees of "
                   "order <= 10", budget=600.0):
        checked = 0
        for n in range(1, 11):
            for t in enumerate_trees(n):
                assert regularity(t.graph) == induced_matching_number(t.graph)[0], (
                    f"mismatch on {t.graph.edges()}"
                )
                checked += 1
        assert checked == sum(TREE_COUNTS_1_TO_9) + 106  # 95 + 106 = 201


def test_criterion_6_exhaustive_verification(report, tmp_path):
    with report(6, "verify --max-order 16: zero violations over all trees of "
                   "orders 2..16", budget=600.0):
        csv = tmp_path / "records.csv"
        vio = tmp_path / "violations.jsonl"
        code = cli_main(["verify", "--max-order", "16",
                         "--out", str(csv), "--violations", str(vio)])
        assert code == 0
        assert vio.read_text() == ""
        rows = csv.read_text().splitlines()
        expected = sum(count_trees(n) for n in range(1, 17))  # verify streams 1..N
        assert len(rows) == 1 + expected


def test_criterion_7_identity_property_suites(report):
    with report(7, "deletion sandwich, union additivity, whisker identities, "
                   "isolated-vertex invariance, path formula"):
        # Deletion sandwich: every tree of order <= 9, every vertex.
        for n in range(2, 10):
            for t in enumerate_trees(n):
                g = t.graph
                reg = regularity(g)
                for v in range(n):
                    reg_del = regularity(delete_vertex(g, v))
                    reg_nbhd = regularity(delete_closed_neighborhood(g, v))
                    assert reg_del <= reg <= max(reg_nbhd + 1, reg_del)

        # Additivity over disjoint unions of random trees (each has an edge).
        rng = random.Random(987654)
        for _ in range(60):
            n1, n2 = rng.randrange(2, 7), rng.randrange(2, 7)
            if n1 + n2 > 12:
                continue
            g1 = random_tree(n1, rng.randrange(1 << 30)).graph
            g2 = random_tree(n2, rng.randrange(1 << 30)).graph
            assert regularity(disjoint_union(g1, g2)) == regularity(g1) + regularity(g2)

        # Whisker identity: alpha of the base equals im of the whiskered tree,
        # for the all-ones vector and for random vectors with entries 1..3.
        rng = random.Random(13579)
        for n in range(2, 10):
            for t in enumerate_trees(n):
                alpha = independence_number(t.graph)[0]
                ones = multi_whisker(t.graph, WhiskerVector.ones(n))
                assert induced_matching_number(ones)[0] == alpha
                vec = tuple(rng.choice((1, 2, 3)) for _ in range(n))
                assert induced_matching_number(multi_whisker(t.graph, vec))[0] == alpha

        # Whisker-vector independence of regularity (all {1,2} vectors).
        for n in range(2, 5):
            for t in enumerate_trees(n):
                base = regularity(multi_whisker(t.graph, WhiskerVector.ones(n)))
                for vec in product((1, 2), repeat=n):
                    if n + sum(vec) <= 12:
                        assert regularity(multi_whisker(t.graph, vec)) == base

        # Isolated-vertex invariance.
        for n in range(2, 9):
            for t in enumerate_trees(n):
                extended = disjoint_union(t.graph, Graph(1, ((),)))
                assert regularity(extended) == regularity(t.graph)

        # Path formula.
        for n in range(2, 13):
            assert regularity(path_graph(n)) == (n + 1) // 3


def test_criterion_8_enumeration_correctness(report):
    with report(8, "tree counts 1..9 and full code-set match against the "
                   "all-Pruefer oracle", budget=300.0):
        ids = {(): 0}
        for n, expected in enumerate(TREE_COUNTS_1_TO_9, start=1):
            assert count_trees(n) == expected
            codes = code_bytes(n)
            assert len(codes) == expected
            generated = {tree_id(graph_from_code(c).adjacency, ids) for c in codes}
            assert len(generated) == expected, f"n={n}: isomorphic codes"
            assert generated == prufer_tree_ids(n, ids), f"n={n}"


def test_criterion_9_checkpoint_resume_determinism(
    report, tmp_path, monkeypatch, kill_at_dump
):
    with report(9, "verify killed mid-flight and resumed yields byte-identical "
                   "CSV"):
        monkeypatch.setattr(census, "CHECKPOINT_EVERY", 7)
        ref = tmp_path / "ref.csv"
        assert cli_main(["verify", "--max-order", "9", "--out", str(ref),
                         "--violations", str(tmp_path / "ref.jsonl")]) == 0
        crash = tmp_path / "crash.csv"
        ckpt = tmp_path / "ckpt.json"
        kill_at_dump(11)  # order 8's third batch, which ends 46 trees in
        with pytest.raises(Killed):
            cli_main(["verify", "--max-order", "9", "--out", str(crash),
                      "--violations", str(tmp_path / "c.jsonl"),
                      "--checkpoint", str(ckpt)])
        assert crash.read_bytes() != ref.read_bytes()
        assert cli_main(["verify", "--max-order", "9", "--out", str(crash),
                         "--violations", str(tmp_path / "c.jsonl"),
                         "--checkpoint", str(ckpt)]) == 0
        assert crash.read_bytes() == ref.read_bytes()
        assert json.loads(ckpt.read_text())["status"] == "complete"
        # a record with a forced failure still trips the exit-code contract
        bad = record_for_tree(TreeWitness(path_graph(7)))
        assert verify_record(bad) == []


def _degree_count_and_two_sweeps(edges, n):
    """p by degree count and d by a BFS from the vertex farthest from 0."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)

    def farthest(source):
        dist = [-1] * n
        dist[source] = 0
        queue = [source]
        for v in queue:
            for u in adj[v]:
                if dist[u] < 0:
                    dist[u] = dist[v] + 1
                    queue.append(u)
        far = max(range(n), key=dist.__getitem__)
        return far, dist[far]

    return sum(len(a) == 1 for a in adj), farthest(farthest(0)[0])[1]


def test_criterion_10_large_labeled_trees(report, tmp_path, capfd):
    n = 10_000
    random_edges = random_tree(n, 10_000).graph.edges()
    # (name, edges, (p, d), (im, alpha) where known in closed form)
    cases = [
        ("path", [(i, i + 1) for i in range(n - 1)], (2, n - 1), (3333, 5000)),
        ("star", [(0, i) for i in range(1, n)], (n - 1, 2), (1, n - 1)),
        ("random", random_edges, _degree_count_and_two_sweeps(random_edges, n), None),
    ]
    for name, edges, _, _ in cases:
        (tmp_path / name).write_text("".join(f"{u} {v}\n" for u, v in edges))
    capfd.readouterr()
    with report(10, "invariants --edges-file on a 10,000-vertex path, star and "
                    "random tree", budget=10.0):
        for name, edges, pd, im_alpha in cases:
            assert cli_main(["invariants", "--edges-file", str(tmp_path / name),
                             "--json"]) == 0
            base = json.loads(capfd.readouterr().out)["base"]
            assert (base["n"], base["p"], base["d"]) == (n, *pd), name
            if im_alpha is not None:
                assert (base["im"], base["alpha"]) == im_alpha, name
            # each witness is as large as claimed and valid on the input: an
            # induced matching touches no vertex twice and no other edge joins
            # two of its edges; an independent set holds no edge
            owner = [-1] * n
            for i, (u, v) in enumerate(base["im_witness"]):
                assert owner[u] < 0 and owner[v] < 0, name
                owner[u] = owner[v] = i
            assert len(base["im_witness"]) == base["im"], name
            assert all(owner[u] < 0 or owner[v] < 0 or owner[u] == owner[v]
                       for u, v in edges), name
            chosen = set(base["alpha_witness"])
            assert len(chosen) == base["alpha"], name
            assert not any(u in chosen and v in chosen for u, v in edges), name
