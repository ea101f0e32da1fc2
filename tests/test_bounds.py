"""Bound formulas, records, tightness flags, and soundness checks."""

import json
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from treereg.bounds import (
    CSV_HEADER,
    InvariantRecord,
    bound_parameters,
    evaluate_bounds,
    record_for_tree,
    verify_record,
)
from treereg.graphs import Graph, TreeWitness, from_edge_list, path_graph
from treereg.homology import FOREST_BETTI_ORDER_CAP
from treereg.trees import enumerate_trees

from conftest import spider, star_graph


class TestEvaluateBounds:
    def test_order7_path_parameters(self):
        b = evaluate_bounds(7, 2, 6)
        assert b.lb_tree == 2
        assert (b.ub_tree_np, b.ub_tree_23, b.ub_tree) == (5, 4, 4)

    def test_order100(self):
        b = evaluate_bounds(100, 2, 2)
        assert (b.ub_tree_np, b.ub_tree_23) == (98, 66)

    def test_whisker_bounds_order9(self):
        b = evaluate_bounds(9, 4, 4)
        assert (b.wub_d, b.wub_p, b.wub) == (7, 6, 6)

    def test_whisker_fundamental_fields(self):
        b = evaluate_bounds(9, 4, 4)
        assert b.w_lb == 5 and b.w_ub_triv == 8

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="n must"):
            evaluate_bounds(1, 1, 1)
        with pytest.raises(ValueError, match="p must"):
            evaluate_bounds(5, 0, 2)
        with pytest.raises(ValueError, match="p must"):
            evaluate_bounds(5, 6, 2)
        with pytest.raises(ValueError, match="d must"):
            evaluate_bounds(5, 2, 5)

    @pytest.mark.parametrize("n", range(3, 40))
    def test_star_bounds_collapse_to_one(self, n):
        b = evaluate_bounds(n, n - 1, 2)
        assert b.lb_tree == 1 and b.ub_tree == 1

    @pytest.mark.parametrize("n", range(4, 40))
    def test_bistar_lower_bound_is_one(self, n):
        assert evaluate_bounds(n, n - 2, 3).lb_tree == 1

    def test_threshold_behavior_at_order_100(self):
        for p in range(2, 100):
            b = evaluate_bounds(100, p, 2)
            if p < 50:
                assert b.ub_tree_np > b.ub_tree_23
            elif p in (50, 51):
                assert b.ub_tree_np == b.ub_tree_23
            else:
                assert b.ub_tree_np < b.ub_tree_23
        b = evaluate_bounds(100, 50, 2)
        assert (b.ub_tree_np, b.ub_tree_23) == (50, 50)

    @pytest.mark.parametrize("n", range(2, 17))
    def test_path_lower_bound_tight(self, n):
        p = bound_parameters(n, 2)
        assert evaluate_bounds(n, p, n - 1).lb_tree == (n + 1) // 3

    def test_fields_are_consistent_minima_and_lb_positive(self):
        for n in range(2, 30):
            for p in range(1, n):
                for d in range(1, n):
                    b = evaluate_bounds(n, p, d)
                    assert b.ub_tree == min(b.ub_tree_np, b.ub_tree_23)
                    assert b.wub == min(b.wub_d, b.wub_p)
                    assert b.lb_tree >= 1

    def test_consistency_on_realizable_parameters(self):
        # Over triples realized by actual trees, the lower bound never
        # exceeds the upper bound -- except the raw (2,2,1) reading of the
        # single edge, which is why bound evaluation uses p=1 at n=2.
        seen = set()
        for n in range(2, 11):
            for t in enumerate_trees(n):
                r = record_for_tree(t)
                seen.add((r.n, r.p, r.d))
        bad = []
        for (n, p, d) in sorted(seen):
            b = evaluate_bounds(n, p, d)
            if not 1 <= b.lb_tree <= b.ub_tree:
                bad.append((n, p, d))
        assert bad == [(2, 2, 1)]
        fixed = evaluate_bounds(2, bound_parameters(2, 2), 1)
        assert 1 <= fixed.lb_tree <= fixed.ub_tree


class TestRecords:
    def test_path7(self):
        r = record_for_tree(TreeWitness(path_graph(7)), with_oracle=True)
        assert (r.im, r.alpha, r.reg) == (2, 4, 2)
        assert (r.bounds.lb_tree, r.bounds.ub_tree) == (2, 4)
        assert r.lb_tight and not r.ub_tight

    def test_star6_both_tight(self):
        r = record_for_tree(TreeWitness(star_graph(6)))
        assert (r.im, r.bounds.lb_tree, r.bounds.ub_tree) == (1, 1, 1)
        assert r.lb_tight and r.ub_tight

    def test_four_leg_spider_wub_not_tight(self):
        r = record_for_tree(TreeWitness(spider((2, 2, 2, 2))))
        assert (r.alpha, r.bounds.wub, r.wub_tight) == (5, 6, False)

    def test_table4_second_tree_wub_tight(self):
        edges = ((0, 1), (0, 3), (0, 5), (0, 7), (5, 6), (6, 2), (6, 4), (7, 8))
        r = record_for_tree(TreeWitness(from_edge_list(edges, 9)))
        assert (r.n, r.p, r.d, r.alpha, r.bounds.wub) == (9, 5, 5, 6, 6)
        assert r.wub_tight
        assert verify_record(r) == []

    def test_single_vertex_record(self):
        r = record_for_tree(TreeWitness(Graph(1, ((),))), with_oracle=True)
        assert (r.n, r.im, r.alpha, r.reg) == (1, 0, 1, 0)
        assert r.bounds is None
        assert not (r.lb_tight or r.ub_tight or r.wub_tight)
        assert verify_record(r) == []

    def test_oracle_cap_leaves_reg_unset(self):
        r = record_for_tree(TreeWitness(path_graph(FOREST_BETTI_ORDER_CAP + 1)), with_oracle=True)
        assert r.reg is None

    def test_witnesses_present(self):
        r = record_for_tree(TreeWitness(path_graph(5)))
        assert len(r.im_witness) == r.im
        assert len(r.alpha_witness) == r.alpha

    def test_csv_header_is_the_published_schema(self):
        assert CSV_HEADER == (
            "tree_code,n,p,d,im,alpha,reg,lb_tree,ub_tree_np,ub_tree_23,"
            "wub_d,wub_p,lb_tight,ub_tight,wub_tight"
        )

    def test_csv_row_shape(self):
        r = record_for_tree(TreeWitness(path_graph(2)), with_oracle=True)
        assert CSV_HEADER.count(",") == r.csv_row().count(",")
        assert r.csv_row() == "0 1,2,2,1,1,1,1,1,1,1,1,1,true,true,true"

    def test_jsonl_round_trip(self):
        r = record_for_tree(TreeWitness(path_graph(5)), with_oracle=True)
        payload = json.loads(r.to_jsonl())
        assert payload["n"] == 5 and payload["reg"] == 2
        assert payload["bounds"]["lb_tree"] == 2
        assert payload["im_witness"] and payload["alpha_witness"]


class TestRecordType:
    """A record's bounds and tight flags are derived from its own numbers."""

    @pytest.mark.parametrize("name", ["bounds", "lb_tight", "ub_tight", "wub_tight"])
    def test_derived_fields_are_not_arguments(self, name):
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
            InvariantRecord("0 1", 2, 2, 1, 1, 1, None, ((0, 1),), (0,), **{name: None})

    @given(st.data())
    def test_flags_are_the_comparisons_with_the_bounds(self, data):
        n = data.draw(st.integers(1, 40), "n")
        p = data.draw(st.integers(1, n), "p") if n > 1 else 0
        d = data.draw(st.integers(1, n - 1), "d") if n > 1 else 0
        im = data.draw(st.integers(0, n), "im")
        alpha = data.draw(st.integers(0, n), "alpha")
        r = InvariantRecord("", n, p, d, im, alpha, None, (), ())
        if n == 1:
            assert r.bounds is None
            assert not (r.lb_tight or r.ub_tight or r.wub_tight)
            return
        b = evaluate_bounds(n, bound_parameters(n, p), d)
        assert r.bounds == b
        assert (r.lb_tight, r.ub_tight, r.wub_tight) == (
            im == b.lb_tree, im == b.ub_tree, alpha == b.wub)

    def test_an_impossible_triple_is_refused(self):
        with pytest.raises(ValueError, match="p must"):
            InvariantRecord("", 5, 6, 2, 1, 3, None, (), ())

    def test_replace_derives_the_flags_again(self):
        r = next(r for r in map(record_for_tree, enumerate_trees(8)) if not r.lb_tight)
        tight = replace(r, im=r.bounds.lb_tree)
        assert tight.lb_tight and tight.bounds == r.bounds
        assert not replace(tight, im=r.im).lb_tight
        with pytest.raises(ValueError, match="lb_tight"):
            replace(r, lb_tight=True)


class TestVerifyRecord:
    def test_clean_record_has_no_violations(self):
        for t in enumerate_trees(7):
            assert verify_record(record_for_tree(t, with_oracle=True)) == []

    def _doctored(self, **overrides):
        return replace(record_for_tree(TreeWitness(path_graph(7))), **overrides)

    def test_lower_bound_violation_detected(self):
        r = self._doctored(im=1)  # below lb_tree = 2
        checks = [v.check for v in verify_record(r)]
        assert "tree_lower_bound" in checks

    def test_upper_bound_violation_detected(self):
        r = self._doctored(im=5)
        checks = [v.check for v in verify_record(r)]
        assert "tree_upper_bound" in checks

    def test_alpha_violations_detected(self):
        low = self._doctored(alpha=2)  # below ceil(7/2) = 4
        assert "alpha_lower_bound" in [v.check for v in verify_record(low)]
        high = self._doctored(alpha=7)  # above n-1 and wub
        assert "whisker_upper_bound" in [v.check for v in verify_record(high)]

    def test_reg_mismatch_detected(self):
        r = self._doctored(reg=3)
        checks = [v.check for v in verify_record(r)]
        assert checks == ["regularity_equals_induced_matching"]

    def test_violation_serialization(self):
        r = self._doctored(im=1)
        v = verify_record(r)[0]
        d = v.to_json_dict()
        assert d["tree_code"] == r.tree_code and d["check"] == "tree_lower_bound"


class TestExhaustiveSoundness:
    @pytest.mark.parametrize("n", range(2, 13))
    def test_no_violations_up_to_order_12(self, n):
        for t in enumerate_trees(n):
            assert verify_record(record_for_tree(t)) == []
