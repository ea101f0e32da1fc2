"""Canonical codes, enumeration, counting, and random generation."""

import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from treereg.census import CHECKPOINT_EVERY
from treereg.graphs import TreeWitness, from_edge_list, path_graph
from treereg.trees import (
    _code_levels,
    canonical_code,
    code_batches,
    code_bytes,
    code_text,
    code_texts,
    count_trees,
    enumerate_trees,
    forest_runs,
    graph_from_code,
    max_order_cap,
    tree_from_code,
)
from treereg.tables import TABLE4_TREES

from conftest import (
    code_run,
    leaf_extension_codes,
    prufer_to_edges,
    prufer_tree_ids,
    random_tree,
    relabel,
    star_graph,
    tree_id,
    tree_witnesses,
)

KNOWN_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106}


class TestCanonicalCode:
    def test_p4_under_reversed_labeling(self):
        g1 = path_graph(4)
        g2 = relabel(g1, [3, 2, 1, 0])
        assert canonical_code(TreeWitness(g1)) == canonical_code(TreeWitness(g2))

    def test_star_vs_path_distinct(self):
        assert canonical_code(TreeWitness(star_graph(3))) != canonical_code(
            TreeWitness(path_graph(4))
        )

    def test_table4_trees_distinct(self):
        codes = {
            canonical_code(TreeWitness(from_edge_list(edges, 9)))
            for edges in TABLE4_TREES
        }
        assert len(codes) == 2

    def test_non_tree_rejected(self):
        with pytest.raises(ValueError, match="not a tree"):
            canonical_code(from_edge_list([(0, 1), (1, 2), (0, 2)], 3))

    @given(tree_witnesses(max_order=10), st.data())
    def test_invariant_under_relabeling(self, t, data):
        perm = data.draw(st.permutations(range(t.order)))
        assert canonical_code(t) == canonical_code(
            TreeWitness(relabel(t.graph, list(perm)))
        )

    @given(tree_witnesses(max_order=12))
    def test_code_length_is_order(self, t):
        assert len(canonical_code(t)) == t.order

    @given(tree_witnesses(max_order=12))
    def test_rebuild_round_trip(self, t):
        code = canonical_code(t)
        assert canonical_code(tree_from_code(code)) == code

    @pytest.mark.parametrize("seed", range(4))
    def test_large_trees_keep_their_class_under_relabeling(self, seed):
        rng = random.Random(seed)
        n = rng.randrange(500, 2001)
        g = random_tree(n, seed).graph
        perm = list(range(n))
        rng.shuffle(perm)
        code = canonical_code(g)
        assert canonical_code(relabel(g, perm)) == code
        ids = {(): 0}
        assert tree_id(graph_from_code(code).adjacency, ids) == tree_id(g.adjacency, ids)

    def test_text_round_trip(self):
        code = canonical_code(TreeWitness(path_graph(5)))
        text = code_text(code)
        assert text == "0 1 2 1 2"
        assert tuple(map(int, text.split())) == code

    def test_invalid_level_sequence(self):
        with pytest.raises(ValueError, match="level"):
            graph_from_code((0, 2))
        with pytest.raises(ValueError, match="start at 0"):
            graph_from_code((1, 2))


class TestEnumeration:
    @pytest.mark.parametrize("n,count", sorted(KNOWN_COUNTS.items()))
    def test_known_counts(self, n, count):
        assert len(code_bytes(n)) == count

    @pytest.mark.parametrize("n,count", sorted(KNOWN_COUNTS.items()))
    def test_count_without_materializing(self, n, count):
        assert count_trees(n) == count

    def test_strictly_increasing_codes(self):
        for n in range(1, 15):
            codes = [tuple(b) for b in code_bytes(n)]
            assert all(a < b for a, b in zip(codes, codes[1:])), f"n={n}"

    @pytest.mark.parametrize("n", range(1, 17))
    def test_layout_code_matches_the_adjacency_canonicalizer(self, n):
        # each code laid out from rooted blocks is the adjacency
        # canonicalizer's code of the tree it spells
        for code in code_bytes(n):
            assert _code_levels(graph_from_code(code).adjacency) == tuple(code)

    @pytest.mark.parametrize("n", range(1, 19))
    def test_code_bytes_are_strictly_ascending_and_counted(self, n):
        codes = code_bytes(n)
        assert all(type(b) is bytes for b in codes)
        assert len(codes) == count_trees(n)
        assert all(a < b for a, b in zip(codes, codes[1:]))

    @pytest.mark.parametrize("n", range(1, 17))
    def test_matches_leaf_extension_oracle(self, n):
        assert {tuple(c) for c in code_bytes(n)} == leaf_extension_codes(n)

    @pytest.mark.parametrize("n", range(1, 19))
    def test_runs_ascend_by_first_block_and_count_every_tree(self, n):
        # a code's first block runs from its byte 1 up to its next level 1
        def first_block(code):
            end = code.find(1, 2)
            return code[1:] if end < 0 else code[1:end]

        runs = [[head + f for f in forests] for head, forests in forest_runs(n, {})]
        codes = [code for run in runs for code in run]
        assert all(a < b for a, b in zip(codes, codes[1:]))
        assert all(run and len({first_block(code) for code in run}) == 1 for run in runs)
        assert len({first_block(run[0]) for run in runs}) == len(runs)
        assert len(codes) == count_trees(n)

    def test_order_20_runs(self):
        sizes = [len(forests) for _, forests in forest_runs(20, {})]
        assert (len(sizes), max(sizes), sum(sizes)) == (54_548, 7_566, 823_065)

    def test_runs_of_order_18_hold_no_order_in_memory(self):
        # the forest tables and one run's joined codes at a time, against
        # 8.7 MB for the order's list of codes
        tracemalloc.start()
        try:
            for head, forests in forest_runs(18, {}):
                [head + forest for forest in forests]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000

    def test_one_set_of_tables_serves_every_order(self):
        tables = {}
        for n in range(1, 19):
            runs = list(forest_runs(n, tables))
            assert [head + f for head, fs in runs for f in fs] == code_bytes(n), n
            # a run's forests are its tables' own entries, not copies (order
            # 1 is the root alone, from no table)
            entries = {id(forest) for table in tables.values() for forest in table}
            assert n == 1 or all(id(f) in entries for _, fs in runs for f in fs), n

    def test_shared_tables_of_orders_1_to_18_hold_no_order_in_memory(self):
        # the order-18 walk's own bound: nearly every table of a smaller
        # order is one of order 18's too
        tracemalloc.start()
        try:
            tables = {}
            for n in range(1, 19):
                for _ in forest_runs(n, tables):
                    pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000

    @pytest.mark.parametrize("size", [1, 7, 100])
    def test_batches_are_whole_runs_of_at_least_size_codes(self, size):
        runs = list(forest_runs(12, {}))
        batches = list(code_batches(iter(runs), size))
        # each batch is whole runs, in order
        assert [run for batch in batches for run in batch] == runs
        codes = [[head + f for head, fs in batch for f in fs] for batch in batches]
        assert [code for batch in codes for code in batch] == code_bytes(12)
        assert all(len(batch) >= size for batch in codes[:-1])
        assert list(code_batches(iter([]), size)) == []

    def test_code_text_of_bytes_joins_every_level(self):
        # the order-20 path is the one cap-order code with a two-digit level
        path20 = bytes(canonical_code(path_graph(20)))
        assert max(path20) == 10
        for code in [path20] + [c for n in range(1, 15) for c in code_bytes(n)]:
            assert code_text(code) == " ".join(map(str, code))
            assert code_text(tuple(code)) == code_text(code)

    @pytest.mark.parametrize("n", range(1, 19))
    def test_code_texts_join_every_level(self, n):
        expected = [" ".join(map(str, c)) for c in code_bytes(n)]
        for size in (5, CHECKPOINT_EVERY):
            batches = code_batches(forest_runs(n, {}), size)
            assert [text for batch in batches for text in code_texts(batch)] == expected

    def test_code_texts_fall_back_for_a_two_digit_level(self):
        # the order-20 path, alone and amid runs of one-digit codes, whose
        # batch would otherwise come out as hex
        path20 = bytes(canonical_code(path_graph(20)))
        assert max(path20) == 10
        runs = list(forest_runs(9, {}))
        batch = runs[:2] + [code_run(path20)] + runs[-2:]
        for runs in ([code_run(path20)], batch):
            expected = [" ".join(map(str, h + f)) for h, fs in runs for f in fs]
            assert code_texts(runs) == expected

    def test_code_texts_of_one_code_and_of_none(self):
        assert code_texts([code_run(bytes([0, 1, 2, 1, 1]))]) == ["0 1 2 1 1"]
        assert code_texts([(b"\0", [b""])]) == ["0"]
        assert code_texts([]) == []

    def test_code_texts_of_any_codes_as_one_run_with_no_head(self):
        codes = code_bytes(7)[::3] + code_bytes(5)
        assert code_texts([(b"", codes)]) == [" ".join(map(str, c)) for c in codes]

    def test_bicentral_layout_is_rerooted(self):
        # the fork's centers root it as 0 1 2 1 1 and 0 1 2 2 1; the code is
        # the larger, with the other half as the first block
        star, path, fork = (0, 1, 1, 1, 1), (0, 1, 2, 1, 2), (0, 1, 2, 2, 1)
        assert code_bytes(5) == [bytes(star), bytes(path), bytes(fork)]

    def test_witness_orders(self):
        assert all(t.order == 7 for t in enumerate_trees(7))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_prufer_dedup_oracle(self, n):
        ids = {(): 0}
        generated = {tree_id(graph_from_code(c).adjacency, ids) for c in code_bytes(n)}
        assert len(generated) == count_trees(n)
        assert generated == prufer_tree_ids(n, ids)

    def test_the_oracle_canonicalizer_matches_the_code_canonicalizer(self):
        # every tree of orders 1-12, as built from its code and relabeled:
        # equal ids exactly when _code_levels gives equal codes
        rng = random.Random(12)
        ids = {(): 0}
        code_of_id = {}
        total = 0
        for n in range(1, 13):
            for code in code_bytes(n):
                g = graph_from_code(code)
                perm = list(range(n))
                rng.shuffle(perm)
                for adj in (g.adjacency, relabel(g, perm).adjacency):
                    key = tree_id(adj, ids)
                    assert code_of_id.setdefault(key, tuple(code)) == _code_levels(adj)
                total += 1
        assert len(code_of_id) == total

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            code_bytes(0)
        with pytest.raises(ValueError, match="outside"):
            count_trees(max_order_cap() + 1)

    def test_env_cap_override(self, monkeypatch):
        monkeypatch.setenv("TREEREG_MAX_ORDER", "5")
        assert max_order_cap() == 5
        with pytest.raises(ValueError, match="outside"):
            code_bytes(6)
        monkeypatch.setenv("TREEREG_MAX_ORDER", "bogus")
        with pytest.raises(ValueError, match="not an integer"):
            max_order_cap()


class TestPrufer:
    def test_decode_star(self):
        edges = prufer_to_edges([0, 0], 4)
        assert sorted(tuple(sorted(e)) for e in edges) == [(0, 1), (0, 2), (0, 3)]

    def test_decode_path(self):
        edges = prufer_to_edges([1, 2], 4)
        g = from_edge_list(edges, 4)
        assert canonical_code(TreeWitness(g)) == canonical_code(TreeWitness(path_graph(4)))

    def test_bad_length(self):
        with pytest.raises(ValueError, match="length"):
            prufer_to_edges([0], 4)

    @given(st.integers(2, 30), st.data())
    @settings(max_examples=60)
    def test_decode_always_a_tree(self, n, data):
        seq = data.draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))
        TreeWitness(from_edge_list(prufer_to_edges(seq, n), n))


class TestRandomTree:
    def test_single_vertex(self):
        assert random_tree(1, 7).order == 1

    def test_two_vertices(self):
        t = random_tree(2, 99)
        assert t.graph.edges() == ((0, 1),)

    def test_deterministic(self):
        assert random_tree(9, 1234).graph == random_tree(9, 1234).graph

    def test_seed_changes_tree(self):
        trees = {canonical_code(random_tree(12, s)) for s in range(20)}
        assert len(trees) > 1

    def test_invalid_order(self):
        with pytest.raises(ValueError, match=">= 1"):
            random_tree(0, 1)
