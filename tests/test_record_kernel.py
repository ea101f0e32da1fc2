"""The level-sequence record kernel against the Graph path it replaces."""

import gc
import json
import random
import weakref
from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

import treereg.bounds as bounds_mod
import treereg.census as census_mod
from treereg import homology
from treereg.bounds import Violation, kernel, record_for_code, record_for_tree
from treereg.cli import main
from treereg.graphs import Graph, TreeWitness
from treereg.invariants import (
    IndependentSetCertificate,
    MatchingCertificate,
    _level_pass,
)
from treereg.trees import (
    _rooted_levels,
    canonical_code,
    code_bytes,
    code_text,
    forest_runs,
    graph_from_code,
    tree_from_code,
)

from conftest import code_kernel, code_run, random_tree, relabel, structural_invariants


def assert_same_record(levels, with_oracle=False):
    fast = record_for_code(levels, with_oracle=with_oracle)
    slow = record_for_tree(tree_from_code(levels), with_oracle=with_oracle)
    assert fast.csv_row() == slow.csv_row()
    assert fast.to_jsonl() == slow.to_jsonl()


@pytest.mark.parametrize("n", range(1, 15))
def test_every_tree_matches_the_graph_path(n):
    for code in code_bytes(n):
        assert_same_record(tuple(code))


@pytest.mark.parametrize("n", range(1, 9))
def test_oracle_records_match_the_graph_path(n):
    for code in code_bytes(n):
        assert_same_record(tuple(code), with_oracle=True)
        assert record_for_code(tuple(code), with_oracle=True).reg is not None


@pytest.mark.parametrize("n", range(17, 21))
def test_oracle_reg_equals_im_on_every_500th_tree(n):
    for code in code_bytes(n)[::500]:
        r = record_for_code(code, with_oracle=True)
        assert r.reg == r.im, r.tree_code


@pytest.mark.parametrize("n", [1, 2, 12])
def test_oracle_record_builds_no_graph(n, monkeypatch):
    homology._calibrated()  # its GF(2) case is a Graph, built once per process

    def no_graph(self):
        raise AssertionError("record_for_code built a Graph")

    monkeypatch.setattr(Graph, "__post_init__", no_graph)
    for code in code_bytes(n):
        r = record_for_code(code, with_oracle=True)
        assert r.reg == r.im, r.tree_code


def assert_labeled_record_matches_the_bfs_reference(g):
    # record_for_tree and record_for_code share _level_pass, so n, p and d
    # are held to the all-pairs BFS, and the witnesses, in the input's own
    # labels, to the certificate checks
    r = record_for_tree(TreeWitness(g))
    ref = structural_invariants(g)
    assert (r.n, r.p, r.d) == (ref.n, ref.p, ref.d)
    MatchingCertificate(frozenset(r.im_witness), r.im).validate(g)
    IndependentSetCertificate(frozenset(r.alpha_witness), r.alpha).validate(g)


@pytest.mark.parametrize("n", range(2, 13))
def test_labeled_records_match_the_bfs_reference(n):
    rng = random.Random(n)
    for code in code_bytes(n):
        perm = list(range(n))
        rng.shuffle(perm)
        assert_labeled_record_matches_the_bfs_reference(
            relabel(graph_from_code(code), perm)
        )


@pytest.mark.parametrize("seed", range(12))
def test_large_labeled_records_match_the_bfs_reference(seed):
    n = random.Random(seed).randrange(2, 301)
    assert_labeled_record_matches_the_bfs_reference(random_tree(n, seed).graph)


@pytest.mark.parametrize("n", range(1, 15))
def test_code_witnesses_pass_the_certificate_checks(n):
    # held to the tree itself, not to another run of the same DP
    for code in code_bytes(n):
        record = record_for_code(tuple(code))
        g = graph_from_code(code)
        MatchingCertificate(frozenset(record.im_witness), record.im).validate(g)
        IndependentSetCertificate(
            frozenset(record.alpha_witness), record.alpha
        ).validate(g)


@pytest.mark.parametrize("n", range(1, 17))
def test_fold_matches_the_array_pass(n):
    # one kernel for the whole order, so each tree meets the others' caches
    run_kernel = kernel()
    for code in code_bytes(n):
        assert run_kernel(*code_run(code))[0] == _level_pass(code)[:5]


def assert_run_keys_match_the_array_pass(n, step):
    # every step-th tree of order n, its key from its whole run's fold, so
    # the run's first block is folded once for all of its forests, and one
    # kernel folds the whole order
    run_kernel, index = kernel(), 0
    for head, forests in forest_runs(n, {}):
        picked = range(-index % step, len(forests), step)
        if picked:
            keys = run_kernel(head, forests)
            assert len(keys) == len(forests)
            for i in picked:
                code = head + forests[i]
                assert keys[i] == _level_pass(code)[:5], code_text(code)
        index += len(forests)


@pytest.mark.parametrize("n", range(1, 15))
def test_run_fold_matches_the_array_pass(n):
    assert_run_keys_match_the_array_pass(n, 1)


@pytest.mark.parametrize("n", range(17, 21))
def test_run_fold_matches_the_array_pass_on_every_500th_tree(n):
    assert_run_keys_match_the_array_pass(n, 500)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 20), st.integers(0, 2**32 - 1), st.integers(0, 19))
def test_fold_matches_the_array_pass_at_any_root(n, seed, root):
    # rooted at any vertex, not only a center: deep, non-canonical sequences
    levels = _rooted_levels(random_tree(n, seed).graph.adjacency, root % n)
    assert code_kernel(bytes(levels)) == _level_pass(levels)[:5]


def test_each_sweep_folds_with_its_own_kernel(tmp_path, monkeypatch):
    # each in-process sweep makes one kernel, which is gone, caches and all,
    # once the sweep has returned; a --jobs parent makes none, as each
    # worker makes its own after it forks
    made = []

    def tracked():
        run_kernel = kernel()
        made.append(weakref.ref(run_kernel))
        return run_kernel

    monkeypatch.setattr(census_mod, "kernel", tracked)
    cfg = census_mod.SweepConfig(max_order=6, out_csv=tmp_path / "r.csv")
    for sweeps in (1, 2):
        census_mod.run_verify(cfg)
        gc.collect()
        assert len(made) == sweeps
        assert made[-1]() is None
    cfg.jobs = 2
    census_mod.run_verify(cfg)
    assert len(made) == 2


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 20), st.integers(0, 2**32 - 1))
def test_random_trees_match_the_graph_path(n, seed):
    assert_same_record(canonical_code(random_tree(n, seed)))


@pytest.mark.parametrize(
    "levels, message",
    [
        ((), "must start at 0"),
        ((1, 2), "must start at 0"),
        ((0, 2), "invalid level 2 at position 1"),
        ((0, 1, 1, 3), "invalid level 3 at position 3"),
        ((0, 1, 0), "invalid level 0 at position 2"),
        (b"", "must start at 0"),
        (b"\x01", "must start at 0"),
        (b"\x00\x02", "invalid level 2 at position 1"),
        (b"\x00\x01\x00", "invalid level 0 at position 2"),
    ],
)
def test_invalid_levels_are_named_as_graph_from_code_names_them(levels, message):
    with pytest.raises(ValueError, match=message) as fast:
        record_for_code(levels)
    with pytest.raises(ValueError) as slow:
        graph_from_code(levels)
    assert str(fast.value) == str(slow.value)


def test_census_jsonl_bytes_match_the_graph_path(tmp_path):
    out = tmp_path / "census.jsonl"
    assert main(["census", "--max-order", "9", "--out", str(out),
                 "--format", "jsonl"]) == 0
    expected = "".join(
        record_for_tree(tree_from_code(code)).to_jsonl() + "\n"
        for n in range(1, 10)
        for code in code_bytes(n)
    )
    assert out.read_bytes() == expected.encode()


def assert_fast_row_matches_the_record_path(levels, tails, oracle=False):
    slow = record_for_tree(tree_from_code(levels), with_oracle=oracle)
    oracle_up_to = len(levels) if oracle else 0
    run = code_run(bytes(levels))
    # the summary bucket holds the one tree, listed under each bound it meets
    bucket = {"trees": 1}
    for key in census_mod._TIGHT_KEYS:
        tight = getattr(slow, key)
        bucket[key], bucket[key + "_codes"] = int(tight), [slow.tree_code] * tight
    summary = {"total": 0, "orders": {}}
    records, last_code, text, violations = census_mod._verify_batch(
        [run], oracle_up_to, "csv", kernel(), tails, summary)
    assert (records, last_code) == (1, slow.tree_code)
    assert text == (slow.csv_row() + "\n").encode()
    assert violations == b"".join(
        json.dumps(v.to_json_dict(), sort_keys=True).encode() + b"\n"
        for v in census_mod.verify_record(slow)
    )
    assert summary == {"total": 0, "orders": {str(len(levels)): bucket}}
    # a JSONL line carries the witnesses; its violations and bucket are the
    # CSV call's, from the same cached tail
    summary = {"total": 0, "orders": {}}
    _, _, line, jsonl_violations = census_mod._verify_batch(
        [run], oracle_up_to, "jsonl", kernel(), tails, summary)
    assert line == (slow.to_jsonl() + "\n").encode()
    assert jsonl_violations == violations
    assert summary == {"total": 0, "orders": {str(len(levels)): bucket}}


@pytest.mark.parametrize("n", [1, 2, 9])
def test_a_jsonl_oracle_row_runs_the_betti_dp_once(n, monkeypatch):
    calls = []
    real = homology.forest_betti_table

    def counted(walks):
        calls.append(walks)
        return real(walks)

    monkeypatch.setattr(census_mod, "forest_betti_table", counted)
    monkeypatch.setattr(bounds_mod, "forest_betti_table", counted)
    run_kernel, tails = kernel(), {}
    for run in forest_runs(n, {}):
        calls.clear()
        census_mod._verify_batch([run], n, "jsonl", run_kernel, tails)
        assert len(calls) == len(run[1])


@pytest.fixture(params=["verify_record", "probe"])
def tails(request, monkeypatch):
    """The row tails a test's batches share, empty as each sweep's start,
    with the sweep's checker as it is, or with a probe violation on about
    half the trees whose detail carries every field the tails are keyed on
    and the tight flags."""
    real = census_mod.verify_record

    def probe(record):
        found = list(real(record))
        if (record.im + record.alpha + record.d) % 2:
            found.append(Violation(
                record.tree_code,
                "probe",
                f"n={record.n} p={record.p} d={record.d} im={record.im} "
                f"alpha={record.alpha} reg={record.reg} tight={record.lb_tight},"
                f"{record.ub_tight},{record.wub_tight}",
            ))
        return found

    if request.param == "probe":
        monkeypatch.setattr(census_mod, "verify_record", probe)
    return {}


@pytest.mark.parametrize("n", range(1, 15))
def test_fast_rows_match_the_record_path(n, tails):
    # oracle rows share the row cache with plain ones, as they do in a
    # sweep that stops the oracle below its top order
    for oracle in (False, True) if n <= 11 else (False,):
        for code in code_bytes(n):
            assert_fast_row_matches_the_record_path(code, tails, oracle)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 20), st.integers(0, 2**32 - 1))
def test_random_fast_rows_match_the_record_path(n, seed):
    assert_fast_row_matches_the_record_path(canonical_code(random_tree(n, seed)), {})


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_a_cached_violation_names_each_tree(tmp_path, monkeypatch, jobs):
    by_key = defaultdict(list)
    for code in code_bytes(8):
        by_key[code_kernel(code)[:5]].append(" ".join(map(str, code)))
    key, codes = next((k, c) for k, c in by_key.items() if len(c) >= 2)
    real = census_mod.verify_record

    def inject(record):
        found = list(real(record))
        if (record.n, record.p, record.d, record.im, record.alpha) == key:
            found.append(Violation(record.tree_code, "synthetic", "forced"))
        return found

    monkeypatch.setattr(census_mod, "verify_record", inject)
    vio = tmp_path / "v.jsonl"
    assert main(["verify", "--max-order", "8", "--jobs", jobs,
                 "--out", str(tmp_path / "r.csv"), "--violations", str(vio)]) == 1
    lines = [json.loads(line) for line in vio.read_text().splitlines()]
    assert lines == [
        {"tree_code": code, "check": "synthetic", "detail": "forced"} for code in codes
    ]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_no_csv_row_takes_the_record_path(tmp_path, monkeypatch, jobs):
    def outputs(tag):
        csv, vio = tmp_path / f"{tag}.csv", tmp_path / f"{tag}.jsonl"
        assert main(["verify", "--max-order", "10", "--oracle-up-to", "10",
                     "--jobs", jobs, "--out", str(csv), "--violations", str(vio)]) == 0
        return csv.read_bytes(), vio.read_bytes()

    expected = outputs("plain")

    def refuse(*args, **kwargs):
        raise AssertionError("a CSV row took record_for_code")

    monkeypatch.setattr(census_mod, "record_for_code", refuse)
    assert outputs("patched") == expected


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_an_oracle_row_is_cached_by_its_reg(tmp_path, monkeypatch, jobs):
    by_key = defaultdict(list)
    for code in code_bytes(8):
        by_key[code_kernel(code)].append(code)
    target, other = next(codes for codes in by_key.values() if len(codes) >= 2)[:2]
    im = code_kernel(target)[3]
    real = homology.forest_betti_table

    class Forced:
        def regularity(self):
            return im + 1

    def forced(walks):
        return Forced() if bytes(walks[0]) == target else real(walks)

    monkeypatch.setattr(census_mod, "forest_betti_table", forced)
    csv, vio = tmp_path / "r.csv", tmp_path / "v.jsonl"
    assert main(["verify", "--max-order", "8", "--oracle-up-to", "8", "--jobs", jobs,
                 "--out", str(csv), "--violations", str(vio)]) == 1
    target_text, other_text = (" ".join(map(str, code)) for code in (target, other))
    assert [json.loads(line) for line in vio.read_text().splitlines()] == [
        {"tree_code": target_text, "check": "regularity_equals_induced_matching",
         "detail": f"reg = {im + 1} != im = {im}"}
    ]
    rows = {line.split(",")[0]: line.split(",") for line in csv.read_text().splitlines()}
    assert (rows[target_text][4], rows[target_text][6]) == (str(im), str(im + 1))
    assert (rows[other_text][4], rows[other_text][6]) == (str(im), str(im))
