"""Graph construction, invariants, and surgery."""

import pytest
from hypothesis import given, strategies as st

from treereg import bounds, graphs, homology, invariants
from treereg.graphs import (
    Graph,
    TreeWitness,
    _preorder,
    WhiskerVector,
    edge_spec,
    from_edge_list,
    graph_from_edge_spec,
    multi_whisker,
    parse_edge_lines,
    parse_edge_spec,
    path_graph,
)
from treereg.homology import betti_table
from treereg.invariants import independence_number, induced_matching_number
from treereg.trees import canonical_code

from conftest import (
    connected_components,
    delete_closed_neighborhood,
    delete_vertex,
    disjoint_union,
    induced_subgraph,
    spider,
    star_graph,
    structural_invariants,
    tree_witnesses,
)


class TestConstruction:
    def test_single_edge(self):
        g = from_edge_list([(0, 1)], 2)
        assert g.order == 2 and g.edges() == ((0, 1),)

    def test_path7_edges(self):
        g = from_edge_list([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)], 7)
        assert g == path_graph(7)

    def test_spider_from_edge_list(self):
        g = from_edge_list([(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)], 7)
        assert g == spider((2, 2, 2))

    def test_duplicate_and_reversed_edges_collapse(self):
        g = from_edge_list([(0, 1), (1, 0), (0, 1)], 2)
        assert g.edges() == ((0, 1),)

    def test_loop_rejected(self):
        with pytest.raises(ValueError, match=r"loop edge \(1,1\)"):
            from_edge_list([(0, 1), (1, 1)], 3)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match=r"\(0,5\)"):
            from_edge_list([(0, 5)], 3)

    def test_asymmetric_adjacency_rejected(self):
        with pytest.raises(ValueError, match="one side"):
            Graph(2, ((1,), ()))

    @pytest.mark.parametrize(
        "adjacency, edge",
        [
            (((1,), (0, 2), ()), "1-2"),
            (((2,), (), (0, 1)), "2-1"),
            (((1, 2), (0,), (1,)), "0-2"),
        ],
    )
    def test_the_missing_back_edge_is_named(self, adjacency, edge):
        with pytest.raises(ValueError, match=f"edge {edge} present only on one side"):
            Graph(3, adjacency)

    def test_unsorted_row_is_named_before_any_back_edge(self):
        with pytest.raises(ValueError, match="vertex 2 not strictly sorted"):
            Graph(3, ((2,), (2,), (1, 0)))


class TestStructuralInvariants:
    def test_path7(self):
        inv = structural_invariants(path_graph(7))
        assert (inv.n, inv.p, inv.d) == (7, 2, 6)

    def test_star6(self):
        inv = structural_invariants(star_graph(6))
        assert (inv.n, inv.p, inv.d) == (7, 6, 2)

    def test_four_leg_spider(self, four_leg_spider):
        inv = structural_invariants(four_leg_spider)
        assert (inv.n, inv.p, inv.d) == (9, 4, 4)

    def test_single_vertex(self):
        inv = structural_invariants(Graph(1, ((),)))
        assert (inv.n, inv.p, inv.d) == (1, 0, 0)

    def test_disconnected_names_two_vertices(self):
        g = from_edge_list([(0, 1), (2, 3)], 4)
        with pytest.raises(ValueError, match="0 and 2"):
            structural_invariants(g)

    @given(st.integers(3, 40))
    def test_path_round_trip(self, n):
        inv = structural_invariants(path_graph(n))
        assert inv.p == 2 and inv.d == n - 1

    def test_p2_has_two_pendants(self):
        assert structural_invariants(path_graph(2)).p == 2

    @pytest.mark.parametrize("n", range(3, 9))
    def test_cycle_diameter(self, n):
        cycle = from_edge_list([(i, (i + 1) % n) for i in range(n)], n)
        assert structural_invariants(cycle).d == n // 2

    def test_cycle_with_tail_diameter(self):
        # triangle 0-1-2 with the path 2-3-4 hanging off it
        g = from_edge_list([(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)], 5)
        assert structural_invariants(g).d == 3


class TestDeletion:
    def test_delete_middle_of_p3(self):
        g = delete_vertex(path_graph(3), 1)
        assert g.order == 2 and g.edge_count == 0

    def test_delete_endpoint_of_p7(self):
        g = delete_vertex(path_graph(7), 6)
        assert canonical_code(TreeWitness(g)) == canonical_code(TreeWitness(path_graph(6)))

    def test_delete_leaf_of_star(self):
        g = delete_vertex(star_graph(6), 3)
        assert canonical_code(TreeWitness(g)) == canonical_code(TreeWitness(star_graph(5)))

    def test_delete_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            delete_vertex(path_graph(3), 3)

    def test_closed_neighborhood_p3_middle(self):
        assert delete_closed_neighborhood(path_graph(3), 1).order == 0

    def test_closed_neighborhood_p7_endpoint(self):
        g = delete_closed_neighborhood(path_graph(7), 0)
        assert canonical_code(TreeWitness(g)) == canonical_code(TreeWitness(path_graph(5)))

    def test_closed_neighborhood_spider_center(self, three_leg_spider):
        # Independent set-removal oracle: drop N[0] by hand, keep induced edges.
        g = three_leg_spider
        banned = set(g.adjacency[0]) | {0}
        kept = [v for v in range(g.order) if v not in banned]
        rank = {v: i for i, v in enumerate(kept)}
        expected_edges = sorted(
            (rank[u], rank[v])
            for u, v in g.edges()
            if u not in banned and v not in banned
        )
        got = delete_closed_neighborhood(g, 0)
        assert sorted(got.edges()) == expected_edges
        # The survivors are the three leg tips: an edgeless graph.
        assert got.order == 3 and got.edge_count == 0

    def test_delete_vertex_spider_center_gives_disjoint_edges(self, three_leg_spider):
        g = delete_vertex(three_leg_spider, 0)
        assert g.order == 6 and g.edge_count == 3
        assert all(g.degree(v) == 1 for v in range(6))

    @given(tree_witnesses(min_order=4, max_order=9), st.data())
    def test_deletion_order_commutes_exactly(self, t, data):
        g = t.graph
        u = data.draw(st.integers(0, g.order - 1))
        v = data.draw(st.integers(0, g.order - 1).filter(lambda x: x != u))
        lo, hi = min(u, v), max(u, v)
        a = delete_vertex(delete_vertex(g, hi), lo)
        b = delete_vertex(delete_vertex(g, lo), hi - 1)
        assert a == b

    @given(tree_witnesses(min_order=4, max_order=10))
    def test_nonadjacent_leaf_deletions_commute_up_to_iso(self, t):
        g = t.graph
        leaves = [v for v in range(g.order) if g.degree(v) == 1]
        pairs = [
            (u, v)
            for i, u in enumerate(leaves)
            for v in leaves[i + 1:]
            if not g.has_edge(u, v)
        ]
        for u, v in pairs[:3]:
            a = TreeWitness(delete_vertex(delete_vertex(g, max(u, v)), min(u, v)))
            b = TreeWitness(
                delete_vertex(delete_vertex(g, min(u, v)), max(u, v) - 1)
            )
            assert canonical_code(a) == canonical_code(b)


class TestUnionAndInduced:
    def test_two_disjoint_edges(self):
        g = disjoint_union(path_graph(2), path_graph(2))
        assert g.order == 4 and g.edges() == ((0, 1), (2, 3))

    def test_union_with_empty_is_identity(self):
        g = disjoint_union(path_graph(3), Graph(0, ()))
        assert g == path_graph(3)

    def test_union_component_sizes(self):
        g = disjoint_union(path_graph(2), path_graph(3))
        assert [len(c) for c in connected_components(g)] == [2, 3]

    def test_induced_prefix_of_path(self):
        assert induced_subgraph(path_graph(7), range(4)) == path_graph(4)

    def test_induced_empty(self):
        assert induced_subgraph(path_graph(7), []).order == 0

    def test_induced_alternating_vertices(self):
        g = induced_subgraph(path_graph(7), [0, 2, 4])
        assert g.order == 3 and g.edge_count == 0

    def test_induced_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            induced_subgraph(path_graph(3), [0, 7])

    @given(tree_witnesses(max_order=10))
    def test_induced_on_full_vertex_set_is_identity(self, t):
        assert induced_subgraph(t.graph, range(t.order)) == t.graph


class TestMultiWhisker:
    def test_p2_ones_is_p4(self):
        w = multi_whisker(path_graph(2), WhiskerVector.ones(2))
        assert canonical_code(TreeWitness(w)) == canonical_code(TreeWitness(path_graph(4)))

    def test_p3_ones_order6(self):
        w = multi_whisker(path_graph(3), WhiskerVector.ones(3))
        assert w.order == 6 and w.edge_count == 5

    def test_four_leg_spider_double_whisker_order27(self, four_leg_spider):
        w = multi_whisker(four_leg_spider, WhiskerVector.constant(9, 2))
        assert w.order == 27

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            multi_whisker(path_graph(3), WhiskerVector((1, 1)))

    def test_zero_entry_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            WhiskerVector((1, 0, 1))

    @given(tree_witnesses(max_order=8), st.data())
    def test_whisker_degrees(self, t, data):
        g = t.graph
        vec = tuple(
            data.draw(st.integers(1, 3)) for _ in range(g.order)
        )
        w = multi_whisker(g, vec)
        assert w.order == g.order + sum(vec)
        assert w.edge_count == g.edge_count + sum(vec)
        for v in range(g.order):
            assert w.degree(v) == g.degree(v) + vec[v]
        for v in range(g.order, w.order):
            assert w.degree(v) == 1

    @given(tree_witnesses(max_order=10))
    def test_all_ones_doubles_order(self, t):
        w = multi_whisker(t.graph, WhiskerVector.ones(t.order))
        assert w.order == 2 * t.order
        assert w.edge_count == t.graph.edge_count + t.order


class TestParsing:
    def test_simple_spec(self):
        assert parse_edge_spec("0-1,1-2,2-3") == [(0, 1), (1, 2), (2, 3)]

    def test_spec_position_in_error(self):
        with pytest.raises(ValueError, match="position 2"):
            parse_edge_spec("0-1,oops,2-3")

    def test_spec_negative_label(self):
        with pytest.raises(ValueError, match="position 1"):
            parse_edge_spec("-1-2")

    def test_lines_both_separators(self):
        assert parse_edge_lines(["0 1", "1-2", ""]) == [(0, 1), (1, 2)]

    def test_lines_error_names_line(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_edge_lines(["0 1", "1 2 3"])

    @pytest.mark.parametrize(
        "lines, message",
        [
            (["0 1", "1 -2"], "negative label on line 2: '1 -2'"),
            (["-1 2"], "negative label on line 1: '-1 2'"),
            (["0--1"], "malformed edge on line 1: '0--1'"),
            (["0 1", "", "0 - 1"], "malformed edge on line 3: '0 - 1'"),
            (["1-x"], "non-integer label on line 1: '1-x'"),
        ],
        ids=["negative-v", "negative-u", "double-dash", "spaced-dash", "non-integer"],
    )
    def test_lines_keep_a_label_sign(self, lines, message):
        with pytest.raises(ValueError, match=message):
            parse_edge_lines(lines)

    def test_order_inference(self):
        assert graph_from_edge_spec("0-1,1-2").order == 3
        assert graph_from_edge_spec("0-1,1-2", order=5).order == 5

    def test_order_override_too_small(self):
        with pytest.raises(ValueError, match="smaller"):
            graph_from_edge_spec("0-3", order=2)

    def test_edge_spec_round_trip(self):
        g = spider((2, 1, 3))
        assert graph_from_edge_spec(edge_spec(g.edges())) == g


class TestTreeWitness:
    def test_valid_tree(self):
        assert TreeWitness(path_graph(5)).order == 5

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError, match="not a tree"):
            TreeWitness(from_edge_list([(0, 1), (2, 3)], 4))

    def test_cycle_rejected(self):
        with pytest.raises(ValueError, match="not a tree"):
            TreeWitness(from_edge_list([(0, 1), (1, 2), (0, 2)], 3))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one vertex"):
            TreeWitness(Graph(0, ()))


class TestOneWalk:
    """Each labeled-graph entry point walks its graph once: the walk that
    decides whether it is a forest also gives the level sequences."""

    FOREST = disjoint_union(spider((2, 1, 3)), path_graph(4))
    UNICYCLIC = from_edge_list([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)], 5)

    @pytest.mark.parametrize("entry, g", [
        (betti_table, FOREST),
        (betti_table, UNICYCLIC),
        (induced_matching_number, FOREST),
        (independence_number, FOREST),
        (TreeWitness, spider((2, 1, 3))),
        (lambda g: bounds.record_for_tree(TreeWitness(g)), spider((2, 1, 3))),
    ], ids=[
        "betti_table-forest",
        "betti_table-unicyclic",
        "induced_matching_number-forest",
        "independence_number-forest",
        "TreeWitness",
        "record_for_tree",
    ])
    def test_one_preorder_walk(self, entry, g, monkeypatch):
        walked = []

        def counted(h):
            walked.append(h)
            return _preorder(h)

        for module in (graphs, homology, invariants, bounds):
            if hasattr(module, "_preorder"):
                monkeypatch.setattr(module, "_preorder", counted)
        entry(g)
        assert walked == [g]
