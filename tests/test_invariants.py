"""Induced matching and independence numbers: DPs against the oracles."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from treereg.graphs import (
    Graph,
    WhiskerVector,
    from_edge_list,
    multi_whisker,
    path_graph,
)
from treereg.invariants import (
    BRUTE_FORCE_EDGE_CAP,
    BRUTE_FORCE_ORDER_CAP,
    IndependentSetCertificate,
    MatchingCertificate,
    independence_number,
    induced_matching_number,
)
from treereg.trees import enumerate_trees

from conftest import (
    brute_force_alpha,
    brute_force_im,
    delete_vertex,
    prufer_to_edges,
    spider,
    star_graph,
    tree_witnesses,
)


def cycle_graph(n: int) -> Graph:
    return from_edge_list([(i, (i + 1) % n) for i in range(n)], n)


class TestAgainstOracles:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_all_trees_match_brute_force(self, n):
        for t in enumerate_trees(n):
            g = t.graph
            im, im_cert = induced_matching_number(g)
            alpha, alpha_cert = independence_number(g)
            im_cert.validate(g)
            alpha_cert.validate(g)
            assert im == brute_force_im(g)
            assert alpha == brute_force_alpha(g)

    @given(st.data())
    @settings(max_examples=120)
    def test_random_graphs_match_brute_force(self, data):
        n = data.draw(st.integers(2, 9))
        all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = data.draw(st.lists(st.sampled_from(all_pairs), max_size=14))
        g = from_edge_list(edges, n)
        im, im_cert = induced_matching_number(g)
        alpha, alpha_cert = independence_number(g)
        im_cert.validate(g)
        alpha_cert.validate(g)
        assert im == brute_force_im(g)
        assert alpha == brute_force_alpha(g)


@st.composite
def shuffled_forests(draw, max_components: int = 4, max_order: int = 14) -> Graph:
    """Forests of 1..max_components random trees, labels shuffled."""
    k = draw(st.integers(1, max_components))
    edges: list[tuple[int, int]] = []
    n = 0
    for i in range(k):
        size = draw(st.integers(1, max_order - n - (k - 1 - i)))
        if size > 1:
            seq = st.lists(st.integers(0, size - 1), min_size=size - 2, max_size=size - 2)
            edges += [(u + n, v + n) for u, v in prufer_to_edges(draw(seq), size)]
        n += size
    perm = draw(st.permutations(range(n)))
    return from_edge_list([(perm[u], perm[v]) for u, v in edges], n)


class TestForests:
    @given(shuffled_forests())
    @settings(max_examples=200, deadline=None)
    def test_shuffled_forests_match_brute_force(self, g):
        im, im_cert = induced_matching_number(g)
        alpha, alpha_cert = independence_number(g)
        im_cert.validate(g)
        alpha_cert.validate(g)
        assert im == brute_force_im(g)
        assert alpha == brute_force_alpha(g)


class TestFrozenValues:
    def test_induced_matching_examples(self):
        assert induced_matching_number(path_graph(7))[0] == 2
        assert induced_matching_number(spider((2, 2, 2)))[0] == 3
        assert induced_matching_number(star_graph(6))[0] == 1

    def test_independence_examples(self):
        assert independence_number(path_graph(4))[0] == 2
        assert independence_number(star_graph(4))[0] == 4
        assert independence_number(spider((2, 2, 2, 2)))[0] == 5

    def test_brute_force_im_examples(self):
        assert brute_force_im(path_graph(2)) == 1
        assert brute_force_im(from_edge_list([], 4)) == 0
        assert brute_force_im(path_graph(7)) == 2

    def test_brute_force_alpha_examples(self):
        assert brute_force_alpha(from_edge_list([], 5)) == 5
        assert brute_force_alpha(path_graph(2)) == 1
        assert brute_force_alpha(path_graph(5)) == 3

    def test_cycles_via_branch_and_bound(self):
        assert induced_matching_number(cycle_graph(4))[0] == 1
        assert induced_matching_number(cycle_graph(7))[0] == 2
        assert independence_number(cycle_graph(5))[0] == 2
        assert independence_number(cycle_graph(7))[0] == 3


class TestCaps:
    # the messages give the count that broke the cap, then the cap
    def test_im_cap_message_points_at_oracle(self):
        big = cycle_graph(BRUTE_FORCE_EDGE_CAP + 1)
        message = rf"has {BRUTE_FORCE_EDGE_CAP + 1} edges; .* up to {BRUTE_FORCE_EDGE_CAP} edges$"
        with pytest.raises(ValueError, match=message):
            induced_matching_number(big)

    def test_alpha_cap_message_points_at_oracle(self):
        big = cycle_graph(BRUTE_FORCE_ORDER_CAP + 1)
        message = rf"has order {BRUTE_FORCE_ORDER_CAP + 1}; .* up to order {BRUTE_FORCE_ORDER_CAP}$"
        with pytest.raises(ValueError, match=message):
            independence_number(big)

    def test_brute_force_caps(self):
        big = cycle_graph(BRUTE_FORCE_ORDER_CAP + 1)
        with pytest.raises(ValueError, match="exceeds"):
            brute_force_im(big)
        with pytest.raises(ValueError, match="exceeds"):
            brute_force_alpha(big)


class TestCertificates:
    def test_tampered_matching_rejected(self):
        g = path_graph(4)
        with pytest.raises(ValueError, match="joins"):
            MatchingCertificate(frozenset({(0, 1), (2, 3)}), 2).validate(g)
        with pytest.raises(ValueError, match="share"):
            MatchingCertificate(frozenset({(0, 1), (1, 2)}), 2).validate(g)
        with pytest.raises(ValueError, match="not in graph"):
            MatchingCertificate(frozenset({(0, 2)}), 1).validate(g)

    def test_tampered_independent_set_rejected(self):
        with pytest.raises(ValueError, match="adjacent"):
            IndependentSetCertificate(frozenset({0, 1}), 2).validate(path_graph(3))

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="size"):
            MatchingCertificate(frozenset({(0, 1)}), 2)


class TestStructuralProperties:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_vertex_deletion_monotonicity(self, n):
        for t in enumerate_trees(n):
            g = t.graph
            im = induced_matching_number(g)[0]
            alpha = independence_number(g)[0]
            for v in range(n):
                h = delete_vertex(g, v)
                assert im - 1 <= induced_matching_number(h)[0] <= im
                assert independence_number(h)[0] <= alpha

    @pytest.mark.parametrize("n", range(2, 10))
    def test_whisker_identity_all_ones(self, n):
        for t in enumerate_trees(n):
            alpha = independence_number(t.graph)[0]
            w = multi_whisker(t.graph, WhiskerVector.ones(n))
            assert induced_matching_number(w)[0] == alpha

    def test_whisker_identity_random_vectors(self):
        rng = random.Random(20250810)
        for n in range(2, 10):
            for t in enumerate_trees(n):
                alpha = independence_number(t.graph)[0]
                vec = tuple(rng.choice((1, 2, 3)) for _ in range(n))
                w = multi_whisker(t.graph, vec)
                assert induced_matching_number(w)[0] == alpha

    @pytest.mark.parametrize("n", range(1, 13))
    def test_alpha_at_least_half_order(self, n):
        for t in enumerate_trees(n):
            assert independence_number(t.graph)[0] >= -(-n // 2)

    @given(tree_witnesses(min_order=2, max_order=20))
    @settings(max_examples=80)
    def test_certificates_validate_on_random_trees(self, t):
        g = t.graph
        im, im_cert = induced_matching_number(g)
        alpha, alpha_cert = independence_number(g)
        im_cert.validate(g)
        alpha_cert.validate(g)
        assert alpha >= -(-g.order // 2)
