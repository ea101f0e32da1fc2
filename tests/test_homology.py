"""Betti tables, reduced homology, and the regularity identities."""

import json
import random
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from treereg import homology
from treereg.graphs import (
    Graph,
    WhiskerVector,
    _preorder,
    from_edge_list,
    multi_whisker,
    path_graph,
)
from treereg.homology import (
    BETTI_ORDER_CAP,
    FOREST_BETTI_ORDER_CAP,
    _betti_entries,
    _forest_dp_entries,
    _independence_ranks,
    _independent_set_masks,
    betti_table,
    regularity,
)
from treereg.invariants import independence_number, induced_matching_number
from treereg.trees import _code_levels, enumerate_trees

from conftest import (
    _forest_betti_entries,
    brute_force_im,
    delete_closed_neighborhood,
    delete_vertex,
    disjoint_union,
    induced_subgraph,
    random_tree,
    spider,
    star_graph,
)


class TestCalibration:
    def test_single_edge_table(self):
        table = betti_table(path_graph(2))
        assert dict(table.entries) == {(0, 0): 1, (1, 2): 1}
        assert table.regularity() == 1

    def test_edgeless_table(self):
        table = betti_table(from_edge_list([], 3))
        assert dict(table.entries) == {(0, 0): 1}
        assert table.regularity() == 0
        assert regularity(from_edge_list([], 3)) == 0

    def test_p4_table_frozen(self):
        # Hand check: the three order-3 subsets with a disconnected
        # independence complex give (2,3) multiplicity 2; the edges give
        # (1,2) multiplicity 3; nothing else survives the cone skip.
        table = betti_table(path_graph(4))
        assert dict(table.entries) == {(0, 0): 1, (1, 2): 3, (2, 3): 2}
        assert table.regularity() == 1
        assert table.projective_dimension() == 2

    def test_json_serialization(self):
        payload = json.loads(json.dumps(betti_table(path_graph(4)).to_json_dict()))
        assert payload["entries"] == [[0, 0, 1], [1, 2, 3], [2, 3, 2]]
        assert payload["reg"] == 1 and payload["pdim"] == 2

    def test_order_cap(self):
        forest = path_graph(FOREST_BETTI_ORDER_CAP + 1)
        with pytest.raises(ValueError, match="exceeds"):
            betti_table(forest)
        # each component is under the cap; their total is over it
        half = FOREST_BETTI_ORDER_CAP // 2 + 1
        forest = disjoint_union(path_graph(half), path_graph(half))
        message = f"order {2 * half} exceeds {FOREST_BETTI_ORDER_CAP}, the forest cap"
        with pytest.raises(ValueError, match=message):
            betti_table(forest)
        n = BETTI_ORDER_CAP + 1
        cycle = from_edge_list([(v, (v + 1) % n) for v in range(n)], n)
        with pytest.raises(ValueError, match="exceeds"):
            betti_table(cycle)

    def test_each_route_at_its_cap(self):
        # reg(P_n) = reg(C_n) = floor((n + 1) / 3), and reg adds over
        # components; a cycle is never a forest.
        half = FOREST_BETTI_ORDER_CAP // 2
        forest = disjoint_union(path_graph(half), path_graph(half))
        assert regularity(forest) == 2 * ((half + 1) // 3)
        n = BETTI_ORDER_CAP
        cycle = from_edge_list([(v, (v + 1) % n) for v in range(n)], n)
        assert regularity(cycle) == 4

    @pytest.mark.parametrize("route", ["_betti_entries", "_forest_dp_entries"])
    def test_calibration_covers_each_route(self, route, monkeypatch):
        # a one-edge table shifted by one row must stop every table
        monkeypatch.setattr(homology, route, lambda g: {(0, 0): 1, (0, 2): 1})
        homology._calibrated.cache_clear()
        try:
            with pytest.raises(AssertionError, match="calibration failed"):
                betti_table(path_graph(3))
        finally:
            homology._calibrated.cache_clear()


def _components(masks: list[int], w: int) -> list[int]:
    """The connected components of the subgraph induced by w, as bitmasks."""
    comps = []
    while w:
        comp = frontier = w & -w
        while frontier:
            grow = 0
            while frontier:
                bit = frontier & -frontier
                grow |= masks[bit.bit_length() - 1]
                frontier ^= bit
            frontier = grow & w & ~comp
            comp |= frontier
        comps.append(comp)
        w &= ~comp
    return comps


@cache
def induced_subforests(max_order: int) -> list[Graph]:
    """One induced subgraph of a tree of order <= max_order per isomorphism
    class, keyed by the sorted canonical codes of its components."""
    seen: dict[tuple, Graph] = {}
    for n in range(1, max_order + 1):
        for t in enumerate_trees(n):
            g = t.graph
            masks = g.neighbor_masks()
            codes: dict[int, tuple[int, ...]] = {}
            for w in range(1, 1 << n):
                key = []
                for comp in _components(masks, w):
                    if comp not in codes:
                        verts = [v for v in range(n) if comp >> v & 1]
                        codes[comp] = _code_levels(induced_subgraph(g, verts).adjacency)
                    key.append(codes[comp])
                key = tuple(sorted(key))
                if key not in seen:
                    seen[key] = induced_subgraph(g, [v for v in range(n) if w >> v & 1])
    return list(seen.values())


def whiskered_trees(max_order: int) -> list[Graph]:
    """Each multi-whiskered tree of order <= max_order once up to isomorphism."""
    from itertools import product as iproduct

    seen: dict[tuple, Graph] = {}
    for n in range(1, max_order // 2 + 1):
        spare = max_order - 2 * n  # whiskers beyond one per vertex
        for t in enumerate_trees(n):
            for extra in iproduct(range(spare + 1), repeat=n):
                if sum(extra) <= spare:
                    w = multi_whisker(t.graph, [1 + a for a in extra])
                    seen.setdefault(_code_levels(w.adjacency), w)
    return list(seen.values())


class TestForestRoute:
    """The forest DP against the subset route of ``conftest``, and that route
    against GF(2) elimination, its independent oracle."""

    def test_matches_gf2_on_every_induced_subforest_to_order_10(self):
        forests = induced_subforests(10)
        # every forest of order <= 9 (an extra vertex joins the components
        # into a tree) and every tree of order 10
        assert len(forests) == sum((1, 2, 3, 6, 10, 20, 37, 76, 153)) + 106
        for g in forests:
            assert _forest_betti_entries(g) == _betti_entries(g), g

    def test_matches_gf2_on_whiskered_trees_to_order_12(self):
        trees = whiskered_trees(12)
        assert len(trees) == 191
        for g in trees:
            assert _forest_betti_entries(g) == _betti_entries(g), g

    def test_dp_matches_subset_route_on_every_tree_to_order_13(self):
        checked = 0
        for n in range(1, 14):
            for t in enumerate_trees(n):
                levels = [lv for _, lv in _preorder(t.graph)]
                assert _forest_dp_entries(levels) == _forest_betti_entries(t.graph), t
                checked += 1
        assert checked == 2288

    def test_dp_matches_subset_route_on_every_induced_subforest_to_order_10(self):
        for g in induced_subforests(10):
            levels = [lv for _, lv in _preorder(g)]
            assert _forest_dp_entries(levels) == _forest_betti_entries(g), g

    def test_dp_matches_subset_route_on_whiskered_trees_to_order_14(self):
        trees = whiskered_trees(14)
        assert len(trees) == 600
        for g in trees:
            levels = [lv for _, lv in _preorder(g)]
            assert _forest_dp_entries(levels) == _forest_betti_entries(g), g


def independent_sets(g: Graph) -> set[tuple[int, ...]]:
    """The independent sets of g as sorted vertex tuples."""
    return {
        tuple(v for v in range(g.order) if mask >> v & 1)
        for mask in _independent_set_masks(g.neighbor_masks())
    }


def random_graph(data) -> Graph:
    n = data.draw(st.integers(1, 7))
    all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(all_pairs), max_size=10)) if all_pairs else []
    return from_edge_list(edges, n)


def ranks(edges, n) -> list[int]:
    return _independence_ranks(from_edge_list(edges, n).neighbor_masks())


class TestIndependenceComplex:
    def test_single_edge(self):
        assert independent_sets(path_graph(2)) == {(), (0,), (1,)}

    def test_edgeless_is_full_simplex(self):
        faces = independent_sets(from_edge_list([], 3))
        assert (0, 1, 2) in faces
        assert sum(len(f) == 2 for f in faces) == 3

    def test_p3(self):
        faces = independent_sets(path_graph(3))
        assert {f for f in faces if len(f) == 1} == {(0,), (1,), (2,)}
        assert {f for f in faces if len(f) == 2} == {(0, 2)}

    def test_each_set_listed_once(self):
        masks = _independent_set_masks(path_graph(6).neighbor_masks())
        assert len(masks) == len(set(masks)) == 21  # Fibonacci F(8)

    @given(st.data())
    @settings(max_examples=40)
    def test_faces_are_exactly_independent_sets(self, data):
        g = random_graph(data)
        n = g.order
        faces = independent_sets(g)
        for subset in range(1 << n):
            verts = tuple(v for v in range(n) if subset >> v & 1)
            independent = all(
                not g.has_edge(u, v) for i, u in enumerate(verts) for v in verts[i + 1:]
            )
            assert (verts in faces) == independent


class TestReducedHomology:
    def test_two_points(self):
        assert ranks([(0, 1)], 2) == [0, 1]

    def test_full_simplex_contractible(self):
        assert ranks([], 4) == [0] * 5

    def test_hollow_square_is_circle(self):
        # Ind(2K2) with edges 02 and 13 is the 4-cycle 0-1-2-3-0.
        assert ranks([(0, 2), (1, 3)], 4) == [0, 0, 1]

    def test_empty_complex(self):
        assert _independence_ranks([]) == [1]

    def test_cone_has_no_homology(self):
        # An isolated vertex 4 is in every facet: Ind is the cone over the
        # hollow square.
        assert ranks([(0, 2), (1, 3)], 5) == [0, 0, 0, 0]

    def test_three_disjoint_edges_give_a_2_sphere(self):
        # Ind(3K2) is the boundary of the octahedron.
        assert ranks([(0, 1), (2, 3), (4, 5)], 6) == [0, 0, 0, 1]

    @given(st.data())
    @settings(max_examples=40)
    def test_euler_characteristic_consistency(self, data):
        g = random_graph(data)
        sizes = [m.bit_count() for m in _independent_set_masks(g.neighbor_masks())]
        homology = _independence_ranks(g.neighbor_masks())
        assert len(homology) == max(sizes) + 1
        euler_faces = sum((-1) ** s for s in sizes)
        euler_ranks = sum((-1) ** k * r for k, r in enumerate(homology))
        assert euler_faces == euler_ranks


class TestRegularityIdentities:
    @pytest.mark.parametrize("n", range(2, 13))
    def test_path_formula(self, n):
        assert regularity(path_graph(n)) == (n + 1) // 3

    def test_frozen_order7_values(self):
        assert regularity(path_graph(7)) == 2
        assert regularity(spider((2, 2, 2))) == 3
        assert regularity(star_graph(6)) == 1

    @pytest.mark.parametrize("n", range(1, 10))
    def test_equals_induced_matching_on_trees(self, n):
        for t in enumerate_trees(n):
            assert regularity(t.graph) == induced_matching_number(t.graph)[0]

    @pytest.mark.parametrize("n", range(2, 6))
    def test_whiskered_equals_independence(self, n):
        for t in enumerate_trees(n):
            w = multi_whisker(t.graph, WhiskerVector.ones(n))
            assert regularity(w) == independence_number(t.graph)[0]

    def test_lower_bound_on_unicyclic_graphs(self):
        rng = random.Random(4242)
        for _ in range(30):
            n = rng.randrange(4, 9)
            t = random_tree(n, rng.randrange(1 << 30)).graph
            non_edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if not t.has_edge(u, v)
            ]
            extra = rng.choice(non_edges)
            g = from_edge_list(list(t.edges()) + [extra], n)
            assert regularity(g) >= brute_force_im(g)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_deletion_sandwich(self, n):
        for t in enumerate_trees(n):
            g = t.graph
            reg = regularity(g)
            for v in range(n):
                reg_del = regularity(delete_vertex(g, v))
                reg_nbhd = regularity(delete_closed_neighborhood(g, v))
                assert reg_del <= reg <= max(reg_nbhd + 1, reg_del)

    def test_disjoint_union_additivity(self):
        rng = random.Random(77)
        for _ in range(40):
            n1, n2 = rng.randrange(2, 7), rng.randrange(2, 7)
            g1 = random_tree(n1, rng.randrange(1 << 30)).graph
            g2 = random_tree(n2, rng.randrange(1 << 30)).graph
            if n1 + n2 > 12:
                continue
            assert regularity(disjoint_union(g1, g2)) == regularity(g1) + regularity(g2)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_isolated_vertex_invariance(self, n):
        for t in enumerate_trees(n):
            g = t.graph
            extended = disjoint_union(g, Graph(1, ((),)))
            assert regularity(extended) == regularity(g)

    def test_whisker_vector_independence(self):
        # Regularity of a whiskered tree does not depend on the vector.
        from itertools import product as iproduct

        for n in range(2, 5):
            for t in enumerate_trees(n):
                base = regularity(multi_whisker(t.graph, WhiskerVector.ones(n)))
                for vec in iproduct((1, 2), repeat=n):
                    if n + sum(vec) > 12:
                        continue
                    assert regularity(multi_whisker(t.graph, vec)) == base
