"""CLI behavior: subcommands, checkpoint/resume, determinism."""

import gc
import hashlib
import json
import os
import random
import re
import sys
import time
from itertools import accumulate
from pathlib import Path

import pytest

import treereg.census as census_mod
from treereg import homology
from treereg.census import CHECKPOINT_EVERY, SweepConfig, run_verify
from treereg.cli import main
from treereg.graphs import Graph, edge_spec
from treereg.homology import FOREST_BETTI_ORDER_CAP
from treereg.tables import TABLE4_TREES
from treereg.trees import (
    canonical_code,
    code_batches,
    code_bytes,
    code_text,
    count_trees,
    forest_runs,
    graph_from_code,
    max_order_cap,
    tree_from_code,
)

from conftest import Killed, relabel, star_graph

# the checkpoint layout a sweep writes and resumes
VERSION = census_mod._Checkpoint.version
# sha256 of the CSV of `verify --max-order 16`
ORDER16_SHA256 = "c0dcebee9b566c317c5dc7d73cf49b175f1932e9335ddde85e53b2ca0bb30047"


def run_cli(*argv) -> int:
    return main(list(argv))


def place(state: dict) -> tuple[int, int]:
    """The order of a checkpoint's last code and the index just past it in
    that order, from the number of records it counts."""
    order, index = 1, state["records"]
    while index > count_trees(order):
        index -= count_trees(order)
        order += 1
    return order, index


class TestInvariantsCommand:
    def test_path7_human(self, capsys):
        assert run_cli("invariants", "--edges", "0-1,1-2,2-3,3-4,4-5,5-6") == 0
        out = capsys.readouterr().out
        assert "n=7 p=2 d=6" in out
        assert "im=2" in out and "reg=2" in out
        assert "lb_tree=2" in out and "ub_tree=4" in out

    def test_whiskered_json(self, capsys):
        assert run_cli("invariants", "--edges", "0-1", "--vector", "1,1", "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["base"]["alpha"] == 1
        assert payload["whiskered"]["im"] == 1
        assert payload["whiskered"]["reg"] == 1

    def test_star_whiskered(self, capsys):
        assert run_cli(
            "invariants", "--edges", "0-1,0-2,0-3,0-4", "--vector", "1,1,1,1,1", "--json"
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["whiskered"]["im"] == 4

    def test_edges_file(self, tmp_path, capsys):
        path = tmp_path / "edges.txt"
        path.write_text("0 1\n1 2\n")
        assert run_cli("invariants", "--edges-file", str(path)) == 0
        assert "n=3" in capsys.readouterr().out

    def test_single_vertex_via_empty_edges_file(self, tmp_path, capsys):
        path = tmp_path / "empty.txt"
        path.write_text("")
        assert run_cli("invariants", "--edges-file", str(path), "--order", "1") == 0
        out = capsys.readouterr().out
        assert "n=1" in out and "alpha=1" in out
        assert run_cli("invariants", "--edges-file", str(path)) == 2
        assert "give --order" in capsys.readouterr().err
        assert run_cli("invariants", "--edges-file", str(path), "--order", "0") == 2
        assert capsys.readouterr().err == "treereg: error: --order must be at least 1, got 0\n"

    @pytest.mark.parametrize("order, message", [
        ("0", "--order must be at least 1, got 0"),
        ("-2", "--order must be at least 1, got -2"),
        ("2", "--order 2 smaller than 1 + max label 3"),
    ])
    def test_both_edge_inputs_share_one_order_rule(self, order, message, tmp_path, capsys):
        path = tmp_path / "edges.txt"
        path.write_text("0 1\n1 2\n")
        assert run_cli("invariants", "--edges", "0-1,1-2", "--order", order) == 2
        assert capsys.readouterr().err == f"treereg: error: {message}\n"
        assert run_cli("invariants", "--edges-file", str(path), "--order", order) == 2
        assert capsys.readouterr().err == f"treereg: error: {message}\n"

    def test_both_edge_inputs_print_the_same_record(self, tmp_path, capsys):
        path = tmp_path / "edges.txt"
        path.write_text("0 1\n1 2\n")
        for order in ((), ("--order", "3")):
            assert run_cli("invariants", "--edges", "0-1,1-2", *order) == 0
            inline = capsys.readouterr().out
            assert run_cli("invariants", "--edges-file", str(path), *order) == 0
            assert capsys.readouterr().out == inline

    def test_vector_error_names_the_token_and_its_position(self, capsys):
        for vector, token, position in (("1,x", "x", 2), ("", "", 1)):
            assert run_cli("invariants", "--edges", "0-1", "--vector", vector) == 2
            assert capsys.readouterr().err == (
                f"treereg: error: non-integer whisker count {token!r} at position "
                f"{position}\n"
            )

    def test_json_bytes_over_relabeled_trees_are_pinned(self, capsys):
        # every tree of orders 2-8 under a seeded relabeling: the pin holds
        # the witnesses' tie-breaks, which no value check sees
        rng = random.Random(8)
        digest = hashlib.sha256()
        for n in range(2, 9):
            for code in code_bytes(n):
                perm = list(range(n))
                rng.shuffle(perm)
                spec = edge_spec(relabel(graph_from_code(code), perm).edges())
                assert run_cli("invariants", "--edges", spec, "--json") == 0
                digest.update(capsys.readouterr().out.encode())
        assert digest.hexdigest() == (
            "d8732d62c7ea95b7169f86461f65677f06f3cf9fdfc9f3e55c374165723ada62"
        )

    def test_json_includes_betti_table(self, capsys):
        assert run_cli("invariants", "--edges", "0-1,1-2,2-3", "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["base"]["betti"]["entries"] == [[0, 0, 1], [1, 2, 3], [2, 3, 2]]
        assert payload["base"]["betti"]["reg"] == 1
        assert payload["base"]["betti"]["pdim"] == 2

    def test_parse_error_exit_code(self, capsys):
        assert run_cli("invariants", "--edges", "0-1,bad") == 2
        assert "position 2" in capsys.readouterr().err

    @pytest.mark.parametrize("both", [True, False])
    def test_exactly_one_edge_input_is_required(self, tmp_path, capsys, both):
        path = tmp_path / "edges.txt"
        path.write_text("0 1\n")
        argv = ["--edges", "0-1,1-2,2-3", "--edges-file", str(path)] if both else []
        with pytest.raises(SystemExit) as exc:
            run_cli("invariants", *argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--edges" in err and "--edges-file" in err

    def test_undecodable_edges_file_is_named(self, tmp_path, capsys):
        path = tmp_path / "edges.txt"
        path.write_bytes(b"0 1\n1 \xff2\n")
        assert run_cli("invariants", "--edges-file", str(path)) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "0xff" in err

    def test_missing_edges_file_exit_code(self, tmp_path, capsys):
        assert run_cli("invariants", "--edges-file", str(tmp_path / "no.txt")) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_edges_file_names_the_flag_and_path(
        self, tmp_path, capsys, kind
    ):
        path = tmp_path / "edges"
        if kind == "directory":
            path.mkdir()
        assert run_cli("invariants", "--edges-file", str(path)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"treereg: error: --edges-file {path}: ")

    def test_non_tree_flagged(self, capsys):
        assert run_cli("invariants", "--edges", "0-1,2-3") == 2
        assert "not a tree" in capsys.readouterr().err

    def test_regularity_printed_up_to_the_oracle_cap(self, capsys):
        # A path at the forest route's cap, above the GF(2) route's cap of
        # 12; im(P_N) = reg(P_N) = floor((N + 1) / 3), alpha(P_N) = ceil(N / 2).
        n = FOREST_BETTI_ORDER_CAP
        edges = ",".join(f"{v}-{v + 1}" for v in range(n - 1))
        assert run_cli("invariants", "--edges", edges) == 0
        reg, alpha = (n + 1) // 3, (n + 1) // 2
        assert f"im={reg} alpha={alpha} reg={reg}" in capsys.readouterr().out

    def test_whiskered_regularity_of_an_order_27_tree(self, capsys):
        # An order-9 tree with two whiskers per vertex; reg(I(T_a)) = alpha(T).
        edges = ",".join(f"{u}-{v}" for u, v in TABLE4_TREES[0])
        assert run_cli("invariants", "--edges", edges, "--vector", ",".join(["2"] * 9)) == 0
        out = capsys.readouterr().out
        assert re.search(r"^whiskered: n=27 ", out, re.M)
        alpha = re.search(r"^base invariants: im=\d+ alpha=(\d+)", out, re.M).group(1)
        assert re.search(rf"^whiskered invariants: im=\d+ alpha=\d+ reg={alpha}$", out, re.M)

    def test_json_runs_the_forest_dp_once_per_tree(self, capsys, monkeypatch):
        homology._calibrated()
        calls = []
        dp = homology._forest_dp_entries

        def counted(walks):
            calls.append(walks)
            return dp(walks)

        monkeypatch.setattr(homology, "_forest_dp_entries", counted)
        edges = ",".join(f"{u}-{v}" for u, v in TABLE4_TREES[0])
        vector = ",".join(["2"] * 9)
        assert run_cli("invariants", "--edges", edges, "--vector", vector, "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(calls) == 2
        for tree in ("base", "whiskered"):
            assert payload[tree]["reg"] == payload[tree]["betti"]["reg"]


    def test_each_tree_is_walked_once(self, capsys, monkeypatch):
        from treereg import bounds, graphs, invariants

        walked = []
        real = graphs._preorder

        def counted(g):
            walked.append(g.order)
            return real(g)

        for module in (graphs, homology, invariants, bounds):
            if hasattr(module, "_preorder"):
                monkeypatch.setattr(module, "_preorder", counted)
        assert run_cli("invariants", "--edges", "0-1,1-2,2-3", "--vector", "1,1,1,1",
                       "--json") == 0
        assert walked == [4, 8]


class TestEnumerateCommand:
    def test_codes_only(self, capsys):
        assert run_cli("enumerate", "--order", "5", "--codes-only") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        assert lines == sorted(lines)

    def test_full_output_has_edge_specs(self, capsys):
        assert run_cli("enumerate", "--order", "4") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert all("\t" in line for line in lines)

    def test_out_of_range(self, capsys):
        assert run_cli("enumerate", "--order", "0") == 2

    @pytest.mark.parametrize("past_cap", [False, True])
    def test_out_of_range_names_the_order_flag(self, capsys, past_cap):
        cap = max_order_cap()
        order = cap + 1 if past_cap else 0
        assert run_cli("enumerate", "--order", str(order)) == 2
        err = capsys.readouterr().err
        assert err == f"treereg: error: --order must be in 1..{cap}\n"

    @pytest.mark.parametrize("n", range(1, 12))
    def test_codes_are_canonical_and_edges_rebuild_them(self, n, capsys):
        assert run_cli("enumerate", "--order", str(n), "--codes-only") == 0
        codes = capsys.readouterr().out.splitlines()
        for code in codes:
            tree = tree_from_code(tuple(map(int, code.split())))
            assert code_text(canonical_code(tree)) == code
        assert run_cli("enumerate", "--order", str(n)) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split("\t")[0] for line in lines] == codes
        for line in lines:
            code, spec = line.split("\t")
            edges = tree_from_code(tuple(map(int, code.split()))).graph.edges()
            assert spec == ",".join(f"{u}-{v}" for u, v in edges)


    @pytest.mark.parametrize("argv, sha256", [
        (("--order", "13", "--codes-only"),
         "b9f0ddb4b3d6c8f4f759b81e3851ee5d9d45847e8e9fe929242faebb77302ca5"),
        (("--order", "11"),
         "8f1692b99af80399a5a9bf865aab0e5e017e1e979f673c093e24177f7b92bf0c"),
        (("--order", "14"),
         "5895564857d60d6bc875c29df28ec965c5e16dcc1bb6cb1913634bb84d3811c7"),
    ])
    def test_output_bytes_are_pinned(self, argv, sha256, capsys):
        assert run_cli("enumerate", *argv) == 0
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == sha256

    def test_edge_specs_build_no_graph(self, capsys, monkeypatch):
        assert run_cli("enumerate", "--order", "9") == 0
        expected = capsys.readouterr().out

        def refuse(*args, **kwargs):
            raise AssertionError("enumerate built a Graph")

        # every Graph is built through __post_init__, whichever module's
        # from_edge_list or constructor call makes it
        monkeypatch.setattr(Graph, "__post_init__", refuse)
        assert run_cli("enumerate", "--order", "9") == 0
        assert capsys.readouterr().out == expected


class TestTablesCommand:
    def test_table_to_file(self, tmp_path, capsys):
        out = tmp_path / "t3.csv"
        assert run_cli("tables", "--which", "3", "--out", str(out)) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "p,n_minus_p,two_thirds"
        assert lines[7] == "50,50,50"

    @pytest.mark.parametrize("kind", ["missing dir", "directory"])
    def test_unwritable_out_names_the_flag_and_path(self, tmp_path, capsys, kind):
        out = tmp_path / "missing" / "t3.csv"
        if kind == "directory":
            out = tmp_path
        assert run_cli("tables", "--which", "3", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"treereg: error: --out {out}: [Errno ")


class TestVerifyCommand:
    def test_small_run_clean(self, tmp_path, capsys):
        csv = tmp_path / "rec.csv"
        vio = tmp_path / "vio.jsonl"
        code = run_cli(
            "verify", "--max-order", "7", "--oracle-up-to", "7",
            "--out", str(csv), "--violations", str(vio),
        )
        assert code == 0
        lines = csv.read_text().splitlines()
        assert lines[0].startswith("tree_code,n,p,d,im,alpha,reg")
        assert len(lines) == 1 + (1 + 1 + 1 + 2 + 3 + 6 + 11)  # orders 1..7
        assert vio.read_text() == ""

    def test_oracle_past_the_gf2_cap_is_clean(self, tmp_path):
        # The forest route checks reg = im on all 2,288 trees of order <= 13.
        csv = tmp_path / "rec.csv"
        vio = tmp_path / "vio.jsonl"
        assert run_cli(
            "verify", "--max-order", "13", "--oracle-up-to", "13",
            "--out", str(csv), "--violations", str(vio),
        ) == 0
        rows = [line.split(",") for line in csv.read_text().splitlines()[1:]]
        assert len(rows) == 2288
        assert all(row[6] == row[4] for row in rows)  # reg == im, none empty
        assert vio.read_text() == ""

    def test_resume_is_byte_identical(self, tmp_path, monkeypatch, kill_at_dump):
        monkeypatch.setattr(census_mod, "CHECKPOINT_EVERY", 5)
        ref_csv = tmp_path / "ref.csv"
        assert run_cli(
            "verify", "--max-order", "8", "--out", str(ref_csv),
            "--violations", str(tmp_path / "ref.jsonl"),
        ) == 0
        crash_csv = tmp_path / "crash.csv"
        ckpt = tmp_path / "ckpt.json"
        kill_at_dump(9)  # the batch that ends 21 trees into order 8
        with pytest.raises(Killed):
            run_cli(
                "verify", "--max-order", "8", "--out", str(crash_csv),
                "--violations", str(tmp_path / "crash.jsonl"),
                "--checkpoint", str(ckpt),
            )
        assert ckpt.exists()
        # the interrupted file is a strict prefix-or-more of the final output
        assert crash_csv.read_bytes() != ref_csv.read_bytes()
        code = run_cli(
            "verify", "--max-order", "8", "--out", str(crash_csv),
            "--violations", str(tmp_path / "crash.jsonl"),
            "--checkpoint", str(ckpt),
        )
        assert code == 0
        assert crash_csv.read_bytes() == ref_csv.read_bytes()
        state = json.loads(ckpt.read_text())
        assert state["status"] == "complete"

    def test_resume_after_crash_on_checkpoint_boundary(
        self, tmp_path, monkeypatch, kill_at_dump
    ):
        monkeypatch.setattr(census_mod, "CHECKPOINT_EVERY", 7)
        ref = tmp_path / "ref.csv"
        assert run_cli("verify", "--max-order", "7", "--out", str(ref),
                       "--violations", str(tmp_path / "r.jsonl")) == 0
        crash = tmp_path / "crash.csv"
        ckpt = tmp_path / "ckpt.json"
        # the 3rd batch is order 7's first, so the checkpoint before it
        # sits at the end of order 6
        kill_at_dump(3)
        with pytest.raises(Killed):
            run_cli("verify", "--max-order", "7", "--out", str(crash),
                    "--violations", str(tmp_path / "c.jsonl"),
                    "--checkpoint", str(ckpt))
        state = json.loads(ckpt.read_text())
        assert place(state) == (6, len(code_bytes(6)))
        assert run_cli("verify", "--max-order", "7", "--out", str(crash),
                       "--violations", str(tmp_path / "c.jsonl"),
                       "--checkpoint", str(ckpt)) == 0
        assert crash.read_bytes() == ref.read_bytes()

    def test_resume_with_missing_csv_is_refused(
        self, tmp_path, capsys, monkeypatch, kill_at_dump
    ):
        monkeypatch.setattr(census_mod, "CHECKPOINT_EVERY", 5)
        ckpt = tmp_path / "ckpt.json"
        csv = tmp_path / "x.csv"
        common = ["--max-order", "8", "--out", str(csv),
                  "--violations", str(tmp_path / "x.jsonl"), "--checkpoint", str(ckpt)]
        kill_at_dump(6)
        with pytest.raises(Killed):
            run_cli("verify", *common)
        csv.unlink()
        assert run_cli("verify", *common) == 2
        assert "missing" in capsys.readouterr().err

    def test_resume_with_short_csv_is_refused(
        self, tmp_path, capsys, monkeypatch, kill_at_dump
    ):
        monkeypatch.setattr(census_mod, "CHECKPOINT_EVERY", 10)
        ckpt = tmp_path / "ckpt.json"
        csv = tmp_path / "x.csv"
        common = ["--max-order", "10", "--out", str(csv),
                  "--violations", str(tmp_path / "x.jsonl"),
                  "--checkpoint", str(ckpt)]
        kill_at_dump(10)  # the checkpoint counts 94 rows
        with pytest.raises(Killed):
            run_cli("verify", *common)
        expected = json.loads(ckpt.read_text())["csv_bytes"]
        assert expected > 500
        with open(csv, "r+b") as f:
            f.truncate(500)
        assert run_cli("verify", *common) == 2
        err = capsys.readouterr().err
        assert f"expects {expected} bytes" in err and "has only 500" in err
        assert csv.read_bytes().count(b"\0") == 0

    def test_resume_refuses_a_checkpoint_out_of_place(
        self, tmp_path, capsys, monkeypatch, kill_at_dump
    ):
        monkeypatch.setattr(census_mod, "CHECKPOINT_EVERY", 10)
        ckpt = tmp_path / "ckpt.json"
        csv = tmp_path / "x.csv"
        common = ["--max-order", "9", "--out", str(csv),
                  "--violations", str(tmp_path / "x.jsonl"),
                  "--checkpoint", str(ckpt)]
        # order 9 starts in the 5th batch and the 6th ends 15 trees in, so
        # the kill comes at the 7th, with ten rows past that checkpoint
        kill_at_dump(7)
        with pytest.raises(Killed):
            run_cli("verify", *common)
        state = json.loads(ckpt.read_text())
        order, index = place(state)
        assert (order, index) == (9, 15)
        assert csv.stat().st_size > state["csv_bytes"]
        real = state["last_code"]
        wrong = "0 " + " ".join(["1"] * (order - 1))  # the star, never last here
        assert wrong != real
        state["last_code"] = wrong
        ckpt.write_text(json.dumps(state))
        before = csv.read_bytes()
        assert run_cli("verify", *common) == 2
        err = capsys.readouterr().err
        assert f"order {order} index {index - 1}" in err
        assert repr(wrong) in err and repr(real) in err
        assert csv.read_bytes() == before

    @pytest.mark.parametrize("shift", [1, -1, 1000],
                             ids=["one more", "one fewer", "past the total"])
    def test_resume_refuses_a_record_count_off_its_last_code(
        self, tmp_path, capsys, monkeypatch, kill_at_dump, shift
    ):
        monkeypatch.setattr(census_mod, "CHECKPOINT_EVERY", 10)
        ckpt = tmp_path / "ckpt.json"
        common = ["--max-order", "9", "--out", str(tmp_path / "x.csv"),
                  "--violations", str(tmp_path / "x.jsonl"),
                  "--checkpoint", str(ckpt)]
        kill_at_dump(7)  # the checkpoint 15 trees into order 9
        with pytest.raises(Killed):
            run_cli("verify", *common)
        state = json.loads(ckpt.read_text())
        records = state["records"] + shift
        ckpt.write_text(json.dumps(dict(state, records=records)))
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        capsys.readouterr()
        assert run_cli("verify", *common) == 2
        # the count alone places the last code: orders 1-8 hold 48 trees,
        # and the sweep's 95 trees end at order 9's index 46
        index = records - 1 - sum(map(count_trees, range(1, 9)))
        codes = code_bytes(9)
        there = code_text(codes[index]) if index < len(codes) else None
        assert (there is None) == (records > 95)
        assert capsys.readouterr().err == (
            f"treereg: error: checkpoint {ckpt} names code {state['last_code']!r} at "
            f"order 9 index {index}, but the enumeration has {there!r} there; "
            "delete the checkpoint to start over\n"
        )
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_resume_enumerates_its_order_once(
        self, tmp_path, capsys, monkeypatch, kill_at_dump
    ):
        monkeypatch.setattr(census_mod, "CHECKPOINT_EVERY", 10)
        common = ["--max-order", "10", "--out", str(tmp_path / "x.csv"),
                  "--violations", str(tmp_path / "x.jsonl"),
                  "--checkpoint", str(tmp_path / "ckpt.json")]
        kill_at_dump(7)  # order 9's third batch, after its checkpoint at 15
        with pytest.raises(Killed):
            run_cli("verify", *common)
        enumerated = []
        monkeypatch.setattr(census_mod, "forest_runs", lambda n, tables: (
            enumerated.append(n), forest_runs(n, tables))[1])
        assert run_cli("verify", *common) == 0
        # one stream of order 9 both checks the checkpoint and is cut in batches
        assert enumerated == [9, 10]

    @pytest.mark.parametrize("resumed", [False, True])
    def test_one_set_of_tables_serves_a_run_and_dies_with_it(
        self, tmp_path, monkeypatch, kill_at_dump, resumed
    ):
        monkeypatch.setattr(census_mod, "CHECKPOINT_EVERY", 10)
        common = ["--max-order", "10", "--out", str(tmp_path / "x.csv"),
                  "--violations", str(tmp_path / "x.jsonl"),
                  "--checkpoint", str(tmp_path / "ckpt.json")]
        if resumed:
            kill_at_dump(7)  # in order 9
            with pytest.raises(Killed):
                run_cli("verify", *common)
        seen = []
        monkeypatch.setattr(census_mod, "forest_runs", lambda n, tables: (
            seen.append((n, tables)), forest_runs(n, tables))[1])
        assert run_cli("verify", *common) == 0
        orders, dicts = zip(*seen)
        # the resume walk and every later order enumerate over one dict
        assert orders == tuple(range(9 if resumed else 1, 11))
        tables = dicts[0]
        assert tables and all(t is tables for t in dicts)
        del seen, dicts
        gc.collect()
        # once the run has returned, this test holds its tables' only reference
        assert sys.getrefcount(tables) == 2

    def test_elapsed_ignores_a_wall_clock_step(self, tmp_path, monkeypatch):
        # the wall clock goes back an hour at each reading
        steps = iter(range(10**9, 0, -3600))
        monkeypatch.setattr(time, "time", lambda: float(next(steps)))
        ckpt = tmp_path / "ckpt.json"
        ck, _ = run_verify(SweepConfig(max_order=9, out_csv=tmp_path / "x.csv",
                                       checkpoint=ckpt))
        assert 0 <= ck.elapsed == json.loads(ckpt.read_text())["elapsed"] < 600

    @pytest.mark.parametrize("content, names", [
        pytest.param(b'{"version": %d, "run_id": "x"}' % VERSION,
                     ("missing keys", "records", "csv_bytes"), id="missing-keys"),
        pytest.param(b'{"version": %d, "run_id": "x", "bogus": 1}' % VERSION,
                     ("unexpected keys", "bogus"), id="unexpected-keys"),
        (b"[1, 2]", ("JSON object", "list")),
        (b"{not json", ("not valid JSON",)),
        (b"\xff\xfe{}", ("0xff", "delete it to start over")),
    ])
    def test_malformed_checkpoint_is_refused(self, tmp_path, capsys, content, names):
        ckpt = tmp_path / "ckpt.json"
        ckpt.write_bytes(content)
        csv = tmp_path / "x.csv"
        assert run_cli("verify", "--max-order", "5", "--out", str(csv),
                       "--violations", str(tmp_path / "x.jsonl"),
                       "--checkpoint", str(ckpt)) == 2
        err = capsys.readouterr().err
        assert str(ckpt) in err
        assert all(name in err for name in names)
        assert not csv.exists()

    def test_checkpoint_that_is_a_directory_is_refused(self, tmp_path, capsys):
        ckdir = tmp_path / "ckdir"
        ckdir.mkdir()
        csv, vio = tmp_path / "r.csv", tmp_path / "v.jsonl"
        assert run_cli("verify", "--max-order", "9", "--checkpoint", str(ckdir),
                       "--out", str(csv), "--violations", str(vio)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"treereg: error: checkpoint {ckdir} cannot be read: ")
        assert "Is a directory" in err
        assert not csv.exists() and not vio.exists()

    @pytest.mark.parametrize("key, value, expected, found", [
        ("elapsed", "10", "float", "str"),
        ("csv_bytes", None, "int", "NoneType"),
        ("violations_bytes", {}, "int", "dict"),
        ("last_code", [], "str", "list"),
        ("records", True, "int", "bool"),
    ])
    def test_checkpoint_value_of_the_wrong_type_is_refused(
        self, tmp_path, capsys, monkeypatch, kill_at_dump, key, value, expected, found
    ):
        monkeypatch.setattr(census_mod, "CHECKPOINT_EVERY", 5)
        ckpt = tmp_path / "ckpt.json"
        csv = tmp_path / "x.csv"
        common = ["--max-order", "8", "--out", str(csv),
                  "--violations", str(tmp_path / "x.jsonl"),
                  "--checkpoint", str(ckpt)]
        kill_at_dump(6)
        with pytest.raises(Killed):
            run_cli("verify", *common)
        state = json.loads(ckpt.read_text())
        state[key] = value
        ckpt.write_text(json.dumps(state))
        before = csv.read_bytes()
        assert run_cli("verify", *common) == 2
        err = capsys.readouterr().err
        assert str(ckpt) in err
        assert f"key {key!r} must be {expected}, found {found}" in err
        assert csv.read_bytes() == before

    @pytest.mark.parametrize("key, value, allowed", [
        ("records", 0, ">= 1"),
        ("records", -1, ">= 1"),
        ("csv_bytes", -1, ">= 0"),
        ("violations_bytes", -1, ">= 0"),
        ("violation_count", -1, ">= 0"),
    ])
    def test_checkpoint_value_out_of_range_is_refused(
        self, tmp_path, capsys, monkeypatch, kill_at_dump, key, value, allowed
    ):
        monkeypatch.setattr(census_mod, "CHECKPOINT_EVERY", 5)
        ckpt = tmp_path / "ckpt.json"
        csv = tmp_path / "x.csv"
        common = ["--max-order", "8", "--out", str(csv),
                  "--violations", str(tmp_path / "x.jsonl"),
                  "--checkpoint", str(ckpt)]
        kill_at_dump(6)
        with pytest.raises(Killed):
            run_cli("verify", *common)
        state = json.loads(ckpt.read_text())
        state[key] = value
        ckpt.write_text(json.dumps(state))
        before = csv.read_bytes()
        assert run_cli("verify", *common) == 2
        err = capsys.readouterr().err
        assert str(ckpt) in err
        assert f"key {key!r} is {value}, must be {allowed}" in err
        assert csv.read_bytes() == before

    @pytest.mark.parametrize("version", [None, 1, 3, VERSION - 1, VERSION + 1],
                             ids=["None", "1", "3", "previous", "next"])
    def test_checkpoint_of_another_version_is_refused(
        self, tmp_path, capsys, monkeypatch, kill_at_dump, version
    ):
        monkeypatch.setattr(census_mod, "CHECKPOINT_EVERY", 5)
        ckpt, csv, vio = tmp_path / "ckpt.json", tmp_path / "x.csv", tmp_path / "x.jsonl"
        common = ["--max-order", "8", "--out", str(csv), "--violations", str(vio),
                  "--checkpoint", str(ckpt)]
        kill_at_dump(6)
        with pytest.raises(Killed):
            run_cli("verify", *common)
        if version is None:
            # the layout before checkpoints were versioned
            state = {"run_id": "5f" * 16, "params": json.loads(ckpt.read_text())["params"],
                     "status": "running", "order": 6, "next_index": 5,
                     "last_completed_code": {"6": "0 1 2 1 1 1"}, "csv_bytes": 130,
                     "records": 10, "violations": [], "elapsed": 0.01}
        else:
            state = json.loads(ckpt.read_text())
            # version 3 also held the place as an order and an index in it
            order, index = place(state)
            state.update(version=version, **(
                {"order": order, "next_index": index} if version == 3 else {}))
        ckpt.write_text(json.dumps(state))
        vio.write_bytes(b'{"check": "x", "detail": "y", "tree_code": "0 1"}\n')
        before = csv.read_bytes(), vio.read_bytes()
        assert run_cli("verify", *common) == 2
        err = capsys.readouterr().err
        assert f"checkpoint {ckpt} has version {version}" in err
        assert f"resumes only version {VERSION}; delete it to start over" in err
        assert (csv.read_bytes(), vio.read_bytes()) == before

    def test_unwritable_violations_path_is_refused_before_any_tree(
        self, tmp_path, capsys
    ):
        target = tmp_path / "missing_dir" / "v.jsonl"
        kept, absent = tmp_path / "kept.csv", tmp_path / "absent.csv"
        kept.write_bytes(b"kept\n")
        for csv in (kept, absent):
            assert run_cli("verify", "--max-order", "12", "--out", str(csv),
                           "--violations", str(target)) == 2
            err = capsys.readouterr().err
            assert f"output path {target} is not writable" in err
        # --out is neither emptied nor made
        assert kept.read_bytes() == b"kept\n"
        assert not absent.exists()

    def test_unwritable_checkpoint_path_is_refused_before_any_tree(
        self, tmp_path, capsys, monkeypatch, kill_at_dump
    ):
        ckpt = tmp_path / "missing_dir" / "ck.json"
        kept, absent = tmp_path / "kept.csv", tmp_path / "absent.jsonl"
        kept.write_bytes(b"kept\n")
        assert run_cli("verify", "--max-order", "9", "--out", str(kept),
                       "--violations", str(absent), "--checkpoint", str(ckpt)) == 2
        assert f"--checkpoint {ckpt} is not writable" in capsys.readouterr().err
        # --out is not emptied and --violations is not made
        assert sorted(tmp_path.iterdir()) == [kept]
        assert kept.read_bytes() == b"kept\n"
        # a resume is refused with the rows past its checkpoint kept
        monkeypatch.setattr(census_mod, "CHECKPOINT_EVERY", 5)
        ckpt = tmp_path / "ck.json"
        csv, vio = tmp_path / "x.csv", tmp_path / "x.jsonl"
        common = ["--max-order", "8", "--out", str(csv), "--violations", str(vio),
                  "--checkpoint", str(ckpt)]
        kill_at_dump(6)
        with pytest.raises(Killed):
            run_cli("verify", *common)
        (tmp_path / "ck.json.tmp").mkdir()
        before = csv.read_bytes(), vio.read_bytes()
        assert run_cli("verify", *common) == 2
        assert f"--checkpoint {ckpt} is not writable" in capsys.readouterr().err
        assert (csv.read_bytes(), vio.read_bytes()) == before
        # a run refused for another output after the check leaves no
        # temporary file behind
        (tmp_path / "ck.json.tmp").rmdir()
        assert run_cli("verify", "--max-order", "8", "--out", str(csv),
                       "--violations", str(tmp_path / "missing_dir" / "v.jsonl"),
                       "--checkpoint", str(tmp_path / "other.json")) == 2
        assert not (tmp_path / "other.json.tmp").exists()

    def test_resume_names_each_parameter_that_differs(
        self, tmp_path, capsys, monkeypatch, kill_at_dump
    ):
        ref_csv, ref_vio = tmp_path / "ref.csv", tmp_path / "ref.jsonl"
        assert run_cli("verify", "--max-order", "13", "--out", str(ref_csv),
                       "--violations", str(ref_vio)) == 0
        csv, vio = tmp_path / "x.csv", tmp_path / "x.jsonl"
        common = ["--out", str(csv), "--violations", str(vio),
                  "--checkpoint", str(tmp_path / "ck.json")]
        # batches of at least 1000 trees: the checkpoint counts orders 1-12
        # and the start of order 13, and the next batch's rows are written
        # past it
        monkeypatch.setattr(census_mod, "CHECKPOINT_EVERY", 1000)
        kill_at_dump(2)
        with pytest.raises(Killed):
            run_cli("verify", "--max-order", "13", *common)
        capsys.readouterr()
        assert run_cli("verify", "--max-order", "14", "--oracle-up-to", "9",
                       *common) == 2
        assert capsys.readouterr().err == (
            "treereg: error: checkpoint parameters do not match this run; refusing "
            "to resume (max_order: 13 in the checkpoint, 14 in this run; "
            "oracle_up_to: 0 in the checkpoint, 9 in this run)\n"
        )
        assert run_cli("verify", "--max-order", "13", *common) == 0
        assert csv.read_bytes() == ref_csv.read_bytes()
        assert vio.read_bytes() == ref_vio.read_bytes()

    def test_resume_refuses_another_violations_path(
        self, tmp_path, capsys, monkeypatch, kill_at_dump
    ):
        monkeypatch.setattr(census_mod, "CHECKPOINT_EVERY", 5)
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        common = ["--max-order", "8", "--out", str(tmp_path / "x.csv"),
                  "--checkpoint", str(tmp_path / "ckpt.json")]
        kill_at_dump(6)
        with pytest.raises(Killed):
            run_cli("verify", *common, "--violations", str(first))
        assert run_cli("verify", *common, "--violations", str(second)) == 2
        assert "refusing to resume" in capsys.readouterr().err
        assert not second.exists()

    def test_resume_refuses_mismatched_parameters(self, tmp_path, capsys):
        ckpt = tmp_path / "ckpt.json"
        common = ["--out", str(tmp_path / "a.csv"),
                  "--violations", str(tmp_path / "a.jsonl"),
                  "--checkpoint", str(ckpt)]
        assert run_cli("verify", "--max-order", "5", *common) == 0
        assert run_cli("verify", "--max-order", "6", *common) == 2
        assert "refusing to resume" in capsys.readouterr().err

    def test_completed_checkpoint_is_idempotent(self, tmp_path):
        ckpt = tmp_path / "ckpt.json"
        csv = tmp_path / "a.csv"
        common = ["--out", str(csv), "--violations", str(tmp_path / "a.jsonl"),
                  "--checkpoint", str(ckpt)]
        assert run_cli("verify", "--max-order", "6", *common) == 0
        before = csv.read_bytes()
        assert run_cli("verify", "--max-order", "6", *common) == 0
        assert csv.read_bytes() == before

    def test_finished_checkpoint_cuts_appended_bytes(self, tmp_path, capsys):
        ckpt = tmp_path / "ckpt.json"
        csv, vio = tmp_path / "a.csv", tmp_path / "a.jsonl"
        common = ["--max-order", "6", "--out", str(csv), "--violations", str(vio),
                  "--checkpoint", str(ckpt)]
        assert run_cli("verify", *common) == 0
        finished = capsys.readouterr().out
        before = csv.read_bytes(), vio.read_bytes()
        for path in (csv, vio):
            with open(path, "ab") as f:
                f.write(b"junk\n")
        assert run_cli("verify", *common) == 0
        totals = re.compile(r"verified \d+ trees up to order \d+: \d+ violations")
        assert (totals.search(capsys.readouterr().out).group()
                == totals.search(finished).group())
        assert (csv.read_bytes(), vio.read_bytes()) == before
        assert json.loads(ckpt.read_text())["status"] == "complete"

    @pytest.mark.parametrize("change", ["out deleted", "out cut", "violations deleted"])
    def test_finished_checkpoint_is_held_to_its_files(self, tmp_path, capsys, change):
        ckpt = tmp_path / "ckpt.json"
        csv, vio = tmp_path / "a.csv", tmp_path / "a.jsonl"
        common = ["--max-order", "6", "--out", str(csv), "--violations", str(vio),
                  "--checkpoint", str(ckpt)]
        assert run_cli("verify", *common) == 0
        assert json.loads(ckpt.read_text())["status"] == "complete"
        target = vio if change == "violations deleted" else csv
        if change == "out cut":
            csv.write_bytes(csv.read_bytes()[:2])
        else:
            target.unlink()
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        capsys.readouterr()
        assert run_cli("verify", *common) == 2
        err = capsys.readouterr().err
        assert f"checkpoint {ckpt} expects " in err and f" bytes in {target}, " in err
        assert ("has only 2" if change == "out cut" else "is missing") in err
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("change", [
        "out overwritten", "index 0 at order 4", "elapsed negative",
        "violations a directory"])
    def test_finished_checkpoint_is_held_to_its_bytes_and_place(
        self, tmp_path, capsys, change
    ):
        ckpt = tmp_path / "ckpt.json"
        csv, vio = tmp_path / "a.csv", tmp_path / "a.jsonl"
        common = ["--max-order", "6", "--out", str(csv), "--violations", str(vio),
                  "--checkpoint", str(ckpt)]
        assert run_cli("verify", *common) == 0
        state = json.loads(ckpt.read_text())
        if change == "out overwritten":
            # the same length, so only the counted bytes tell
            csv.write_bytes(b"x" * state["csv_bytes"])
            expected = (f"checkpoint {ckpt} expects CRC-32 {state['csv_crc']:08x} of "
                        f"the first {state['csv_bytes']} bytes of {csv}, which have ")
        elif change == "index 0 at order 4":
            # would resume order 4 from its start, and write 11 rows again
            ckpt.write_text(json.dumps(dict(state, records=3)))
            expected = (f"checkpoint {ckpt} names code {state['last_code']!r} at order 3 "
                        f"index 0, but the enumeration has {code_text(code_bytes(3)[0])!r} "
                        "there; delete the checkpoint to start over")
        elif change == "elapsed negative":
            # as a run timed by a wall clock that stepped back could store it
            ckpt.write_text(json.dumps(dict(state, elapsed=-1.5)))
            expected = (f"checkpoint {ckpt} is malformed (key 'elapsed' is -1.5, "
                        "must be >= 0); delete it to start over")
        else:
            vio.unlink()
            vio.mkdir()
            expected = f"output path {vio} cannot be read: "
        before = {p.name: p.is_file() and p.read_bytes() for p in tmp_path.iterdir()}
        capsys.readouterr()
        assert run_cli("verify", *common) == 2
        assert expected in capsys.readouterr().err
        assert {p.name: p.is_file() and p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_outputs_are_fsynced_before_the_checkpoints_naming_them(
        self, tmp_path, monkeypatch
    ):
        import os

        from treereg.bounds import Violation

        real = census_mod.verify_record

        def inject(record):
            found = list(real(record))
            if record.n == 5 and record.p == 4:  # the 4-leaf star
                found.append(Violation(record.tree_code, "synthetic", "forced"))
            return found

        monkeypatch.setattr(census_mod, "verify_record", inject)
        # orders 1-4 are the first batch, and the star's the second
        monkeypatch.setattr(census_mod, "CHECKPOINT_EVERY", 5)
        events = []
        real_fsync, real_replace = os.fsync, os.replace
        monkeypatch.setattr(os, "fsync", lambda fd: (
            events.append(("fsync", os.fstat(fd).st_ino)), real_fsync(fd)))
        monkeypatch.setattr(os, "replace", lambda src, dst: (
            events.append(("replace", json.loads(Path(src).read_text()))),
            real_replace(src, dst)))
        csv, vio = tmp_path / "a.csv", tmp_path / "a.jsonl"
        assert run_cli("verify", "--max-order", "6", "--out", str(csv),
                       "--violations", str(vio),
                       "--checkpoint", str(tmp_path / "ckpt.json")) == 1
        replaces = [i for i, e in enumerate(events) if e[0] == "replace"]
        assert len(replaces) >= 2
        assert ("fsync", csv.stat().st_ino) in events[: replaces[0]]
        # the violations file is fsynced once, after the checkpoint before
        # the star's batch and before the first one that counts its line
        first = next(k for k, i in enumerate(replaces)
                     if events[i][1]["violations_bytes"] > 0)
        assert 0 < first
        assert events[replaces[first]][1]["violations_bytes"] == vio.stat().st_size
        vio_syncs = [i for i, e in enumerate(events) if e == ("fsync", vio.stat().st_ino)]
        assert len(vio_syncs) == 1
        assert replaces[first - 1] < vio_syncs[0] < replaces[first]

    def test_violations_flip_exit_code_and_fill_file(self, tmp_path, monkeypatch):
        from treereg.bounds import Violation

        real = census_mod.verify_record

        def inject(record):
            found = list(real(record))
            if record.n == 5 and record.p == 4:  # the 4-leaf star
                found.append(Violation(record.tree_code, "synthetic", "forced"))
            return found

        monkeypatch.setattr(census_mod, "verify_record", inject)
        vio = tmp_path / "v.jsonl"
        code = run_cli("verify", "--max-order", "5", "--out", str(tmp_path / "r.csv"),
                       "--violations", str(vio))
        assert code == 1
        lines = vio.read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["check"] == "synthetic"

    def test_a_second_run_in_one_process_checks_afresh(self, tmp_path, monkeypatch):
        # rows are cached per invariant tuple; a cache that outlived the first
        # run would replay its clean verdict for the star
        from treereg.bounds import Violation

        common = ["--max-order", "5", "--out", str(tmp_path / "r.csv")]
        first = tmp_path / "a.jsonl"
        assert run_cli("verify", *common, "--violations", str(first)) == 0
        real = census_mod.verify_record

        def inject(record):
            found = list(real(record))
            if record.n == 5 and record.p == 4:  # the 4-leaf star
                found.append(Violation(record.tree_code, "synthetic", "forced"))
            return found

        monkeypatch.setattr(census_mod, "verify_record", inject)
        vio = tmp_path / "b.jsonl"
        assert run_cli("verify", *common, "--violations", str(vio)) == 1
        lines = [json.loads(line) for line in vio.read_text().splitlines()]
        assert lines == [{"tree_code": "0 1 1 1 1", "check": "synthetic",
                          "detail": "forced"}]

    def test_unwritable_output(self, tmp_path, capsys):
        target = tmp_path / "missing_dir" / "x.csv"
        assert run_cli("verify", "--max-order", "3", "--out", str(target),
                       "--violations", str(tmp_path / "v.jsonl")) == 2
        assert "not writable" in capsys.readouterr().err
        assert not (tmp_path / "v.jsonl").exists()

    def test_out_and_violations_must_differ(self, tmp_path, capsys):
        same = tmp_path / "same"
        assert run_cli("verify", "--max-order", "3", "--out", str(same),
                       "--violations", str(same)) == 2
        assert "--out and --violations must name different files" in (
            capsys.readouterr().err)
        assert not same.exists()

    @pytest.mark.parametrize("output", ["--out", "--violations"])
    def test_checkpoint_must_differ_from_each_output(self, tmp_path, capsys, output):
        (tmp_path / "sub").mkdir()
        same = tmp_path / "same"
        paths = {"--out": tmp_path / "r.csv", "--violations": tmp_path / "v.jsonl",
                 output: same}
        # the same file, spelled another way
        assert run_cli("verify", "--max-order", "9",
                       "--out", str(paths["--out"]),
                       "--violations", str(paths["--violations"]),
                       "--checkpoint", str(tmp_path / "sub" / ".." / "same")) == 2
        assert f"{output} and --checkpoint must name different files" in (
            capsys.readouterr().err)
        assert sorted(tmp_path.iterdir()) == [tmp_path / "sub"]

    def test_checkpoint_temporary_file_must_differ_from_the_output(
        self, tmp_path, capsys
    ):
        # the checkpoint is written to ck.json.tmp, then renamed over ck.json
        assert run_cli("verify", "--max-order", "6",
                       "--out", str(tmp_path / "ck.json.tmp"),
                       "--violations", str(tmp_path / "v.jsonl"),
                       "--checkpoint", str(tmp_path / "ck.json")) == 2
        assert "--out and --checkpoint's temporary file must name different files" in (
            capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("oracle_up_to, sha256", [
        ("12", "3cd7d20bb03eed4bcdae0a73bd0a6ed29a4f86cd9fc72845275a07c6a5e546d4"),
        ("9", "eef5cf5fc53f0d6604df917cc5b3ac96ddc43d3829fb590fe75f874acbbf8bd7"),
    ])
    @pytest.mark.parametrize("run", ["jobs1", "jobs2", "resumed"])
    def test_oracle_csv_is_pinned(
        self, tmp_path, monkeypatch, kill_at_dump, oracle_up_to, sha256, run
    ):
        monkeypatch.setattr(census_mod, "CHECKPOINT_EVERY", 20)
        csv, ckpt = tmp_path / "r.csv", tmp_path / "ck.json"
        argv = ["verify", "--max-order", "12", "--oracle-up-to", oracle_up_to,
                "--out", str(csv), "--violations", str(tmp_path / "v.jsonl"),
                "--checkpoint", str(ckpt)]
        if run == "resumed":
            # a kill at the 5th batch, after the checkpoint 36 trees into
            # order 9: that batch holds the end of order 9 and the start of
            # order 10, the 9 pin's last oracle order and the first past it
            kill_at_dump(5)
            with pytest.raises(Killed):
                run_cli(*argv)
            assert place(json.loads(ckpt.read_text())) == (9, 36)
        assert run_cli(*argv, "--jobs", "2" if run == "jobs2" else "1") == 0
        assert hashlib.sha256(csv.read_bytes()).hexdigest() == sha256

    def test_oracle_up_to_beyond_the_cap_is_refused(self, tmp_path, capsys):
        out = tmp_path / "v.csv"
        assert run_cli("verify", "--max-order", "3", "--oracle-up-to",
                       str(FOREST_BETTI_ORDER_CAP + 1), "--out", str(out),
                       "--violations", str(tmp_path / "v.jsonl")) == 2
        assert f"0..{FOREST_BETTI_ORDER_CAP}" in capsys.readouterr().err
        assert not out.exists()

    def test_jobs_do_not_change_output(self, tmp_path):
        serial = tmp_path / "serial.csv"
        parallel = tmp_path / "parallel.csv"
        assert run_cli("verify", "--max-order", "8", "--out", str(serial),
                       "--violations", str(tmp_path / "s.jsonl")) == 0
        assert run_cli("verify", "--max-order", "8", "--jobs", "2",
                       "--out", str(parallel),
                       "--violations", str(tmp_path / "p.jsonl")) == 0
        assert serial.read_bytes() == parallel.read_bytes()


class TestWorkerPool:
    """``--jobs 2`` against one process, with batches of at least 7 trees
    so that batches of the next order are in flight while an order's last
    ones are written, and resumes after a kill in the middle of order 10."""

    @pytest.fixture
    def probe(self, monkeypatch):
        """A violation on about half the trees, so the violations compared
        are not empty; forked workers inherit it."""
        from treereg.bounds import Violation

        real = census_mod.verify_record

        def probe(record):
            found = list(real(record))
            if (record.im + record.alpha + record.d) % 2:
                found.append(Violation(record.tree_code, "probe", f"p={record.p}"))
            return found

        monkeypatch.setattr(census_mod, "verify_record", probe)

    @pytest.fixture
    def forked(self, monkeypatch) -> list[int]:
        """The pids of the workers a run forks, as the parent records them."""
        pids = []
        real = os.fork

        def fork():
            pid = real()
            if pid:
                pids.append(pid)
            return pid

        monkeypatch.setattr(census_mod.os, "fork", fork)
        return pids

    @staticmethod
    def reaped(pid: int) -> bool:
        """Whether ``pid`` is no child of this process any more: neither
        running nor a zombie left for a wait."""
        try:
            os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            return True
        return False

    @pytest.mark.parametrize("oracle", [[], ["--oracle-up-to", "8"]])
    def test_verify_bytes_match_one_process(self, tmp_path, monkeypatch, probe, oracle):
        monkeypatch.setattr(census_mod, "CHECKPOINT_EVERY", 7)
        outputs = {}
        for jobs in ("1", "2"):
            csv, vio = tmp_path / f"r{jobs}.csv", tmp_path / f"v{jobs}.jsonl"
            assert run_cli("verify", "--max-order", "10", "--jobs", jobs, *oracle,
                           "--checkpoint", str(tmp_path / f"ck{jobs}.json"),
                           "--out", str(csv), "--violations", str(vio)) == 1
            outputs[jobs] = csv.read_bytes(), vio.read_bytes()
        assert outputs["1"] == outputs["2"]
        assert outputs["1"][1].count(b"\n") > 50

    @staticmethod
    def reference(tmp_path) -> tuple[bytes, bytes]:
        """The CSV and violations of an uninterrupted ``--max-order 10``."""
        csv, vio = tmp_path / "ref.csv", tmp_path / "ref.jsonl"
        assert run_cli("verify", "--max-order", "10",
                       "--out", str(csv), "--violations", str(vio)) == 1
        return csv.read_bytes(), vio.read_bytes()

    @staticmethod
    def crash_mid_batch(tmp_path, monkeypatch, kill_at_dump, jobs):
        """Kill at the checkpoint of the batch that ends 64 trees into order
        10, after the one at 55; return the files and the run's arguments."""
        monkeypatch.setattr(census_mod, "CHECKPOINT_EVERY", 7)
        csv, vio = tmp_path / "x.csv", tmp_path / "x.jsonl"
        ckpt = tmp_path / "ck.json"
        common = ["--max-order", "10", "--jobs", jobs,
                  "--checkpoint", str(ckpt), "--out", str(csv), "--violations", str(vio)]
        kill_at_dump(20)  # orders 1-9 take 12 batches and end in the 13th
        with pytest.raises(Killed):
            run_cli("verify", *common)
        return csv, vio, ckpt, common

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_crash_mid_batch_resumes_both_files_byte_identical(
        self, tmp_path, monkeypatch, kill_at_dump, probe, jobs
    ):
        ref = self.reference(tmp_path)
        csv, vio, ckpt, common = self.crash_mid_batch(
            tmp_path, monkeypatch, kill_at_dump, jobs)
        assert vio.read_bytes() != ref[1]
        # a run killed between writing a batch and its checkpoint leaves
        # lines past the checkpointed offset; the resume cuts them off
        with open(vio, "ab") as f:
            f.write(b'{"check": "stray", "detail": "", "tree_code": "0"}\n')
        assert run_cli("verify", *common) == 1
        assert (csv.read_bytes(), vio.read_bytes()) == ref
        assert json.loads(ckpt.read_text())["violation_count"] == ref[1].count(b"\n")

    def test_resume_replaces_a_torn_checkpoint_write(
        self, tmp_path, monkeypatch, kill_at_dump, probe
    ):
        ref = self.reference(tmp_path)
        csv, vio, ckpt, common = self.crash_mid_batch(
            tmp_path, monkeypatch, kill_at_dump, "1")
        # a kill inside a checkpoint write leaves its temporary file half
        # written next to the previous batch's checkpoint
        tmp = tmp_path / "ck.json.tmp"
        tmp.write_bytes(b'{"version": 2, "sta')
        # the resume's first checkpoint is written in its place, whole
        kill_at_dump(2)
        with pytest.raises(Killed):
            run_cli("verify", *common)
        assert place(json.loads(ckpt.read_text())) == (10, 64)
        assert run_cli("verify", *common) == 1
        assert (csv.read_bytes(), vio.read_bytes()) == ref
        assert not tmp.exists()
        assert json.loads(ckpt.read_text())["status"] == "complete"

    @pytest.mark.parametrize("target", ["out", "violations"])
    def test_resume_refuses_a_changed_counted_byte(
        self, tmp_path, monkeypatch, kill_at_dump, capsys, probe, target
    ):
        csv, vio, ckpt, common = self.crash_mid_batch(
            tmp_path, monkeypatch, kill_at_dump, "1")
        state = json.loads(ckpt.read_text())
        path = csv if target == "out" else vio
        size = state["csv_bytes" if target == "out" else "violations_bytes"]
        data = bytearray(path.read_bytes())
        data[size // 2] ^= 1  # one bit, inside the counted bytes
        path.write_bytes(bytes(data))
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        capsys.readouterr()
        assert run_cli("verify", *common) == 2
        err = capsys.readouterr().err
        assert f"checkpoint {ckpt} expects CRC-32 " in err
        assert f" of the first {size} bytes of {path}, " in err
        assert err.endswith("; delete the checkpoint to start over\n")
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_resume_cuts_a_torn_last_row(self, tmp_path, monkeypatch, kill_at_dump, probe):
        ref = self.reference(tmp_path)
        csv, vio, _, common = self.crash_mid_batch(
            tmp_path, monkeypatch, kill_at_dump, "1")
        with open(csv, "ab") as f:
            f.write(b"0 1 2 3 4 5 6 7 8 9,10,2,")  # half a row, no newline
        assert run_cli("verify", *common) == 1
        assert (csv.read_bytes(), vio.read_bytes()) == ref

    def test_old_checkpoint_resumes_at_any_batch_size(
        self, tmp_path, monkeypatch, kill_at_dump, capsys, probe
    ):
        ref = self.reference(tmp_path)
        csv, vio, ckpt, common = self.crash_mid_batch(
            tmp_path, monkeypatch, kill_at_dump, "1")
        # only checkpoints of an older version named the batch size among
        # their parameters; one of this version that names it is refused
        state = json.loads(ckpt.read_text())
        params = dict(state["params"], checkpoint_every=1000)
        ckpt.write_text(json.dumps(dict(state, params=params)))
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        capsys.readouterr()
        assert run_cli("verify", *common) == 2
        assert capsys.readouterr().err == (
            "treereg: error: checkpoint parameters do not match this run; refusing "
            "to resume (checkpoint_every: 1000 in the checkpoint, None in this run)\n"
        )
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
        # the checkpoint of batches of 7 resumes at the default size
        ckpt.write_text(json.dumps(state))
        monkeypatch.setattr(census_mod, "CHECKPOINT_EVERY", CHECKPOINT_EVERY)
        assert run_cli("verify", *common) == 1
        assert (csv.read_bytes(), vio.read_bytes()) == ref
        assert "checkpoint_every" not in json.loads(ckpt.read_text())["params"]
        for flag in ("--checkpoint-every", "--crash-after"):
            with pytest.raises(SystemExit) as exited:
                run_cli("verify", "--max-order", "5", flag, "5")
            assert exited.value.code == 2

    def test_checkpoint_holds_offsets_and_counts_only(
        self, tmp_path, monkeypatch, kill_at_dump, probe
    ):
        _, vio, ckpt, _ = self.crash_mid_batch(tmp_path, monkeypatch, kill_at_dump, "1")
        state = json.loads(ckpt.read_text())
        assert place(state) == (10, 55)
        assert all(isinstance(value, (str, int, float))
                   for key, value in state.items() if key != "params")
        counted = vio.read_bytes()[: state["violations_bytes"]]
        assert state["violation_count"] == counted.count(b"\n") > 0

    def test_batch_size_never_changes_output_bytes(self, tmp_path, monkeypatch, probe):
        # order 15 is the smallest the default splits into several batches
        assert len(code_bytes(14)) <= CHECKPOINT_EVERY < len(code_bytes(15))
        real_dump = census_mod._Checkpoint.dump
        cuts = []
        monkeypatch.setattr(census_mod._Checkpoint, "dump", lambda ck, path: (
            cuts.append(ck.records), real_dump(ck, path)))
        outputs, layouts = set(), set()
        for size in (1000, CHECKPOINT_EVERY, 6000):
            monkeypatch.setattr(census_mod, "CHECKPOINT_EVERY", size)
            for jobs in ("1", "2"):
                csv, vio = tmp_path / "r.csv", tmp_path / "v.jsonl"
                ckpt = tmp_path / "ck.json"
                ckpt.unlink(missing_ok=True)
                cuts.clear()
                assert run_cli("verify", "--max-order", "15", "--jobs", jobs,
                               "--checkpoint", str(ckpt),
                               "--out", str(csv), "--violations", str(vio)) == 1
                layouts.add((size, tuple(cuts)))
                outputs.add((csv.read_bytes(), vio.read_bytes()))
        # each size cuts its own batches, the same with either --jobs
        assert len(layouts) == 3
        assert len(outputs) == 1

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_census_bytes_match_one_process(self, tmp_path, monkeypatch, fmt):
        # a summary is counted in process only, so it is held to itself at
        # the default batch size, one batch here, and the records to one
        # process with workers
        summaries = []
        for size in (CHECKPOINT_EVERY, 7):
            monkeypatch.setattr(census_mod, "CHECKPOINT_EVERY", size)
            summary = tmp_path / f"s{size}.json"
            run_verify(SweepConfig(max_order=10, out_csv=tmp_path / f"c{size}.{fmt}",
                                   fmt=fmt, summary_out=summary))
            summaries.append(summary.read_bytes())
        assert summaries[0] == summaries[1]
        assert json.loads(summaries[0])["orders"]["10"]["lb_tight_codes"]
        records = {}
        for jobs in (1, 2):
            out = tmp_path / f"r{jobs}.{fmt}"
            run_verify(SweepConfig(max_order=10, out_csv=out, fmt=fmt, jobs=jobs))
            records[jobs] = out.read_bytes()
        assert records[1] == records[2]

    @pytest.mark.parametrize("resumed", [False, True], ids=["fresh", "resumed"])
    def test_the_parent_takes_no_run_from_the_stream(
        self, tmp_path, monkeypatch, kill_at_dump, resumed
    ):
        if resumed:
            _, _, ckpt, common = self.crash_mid_batch(
                tmp_path, monkeypatch, kill_at_dump, "2")
            order, index = place(json.loads(ckpt.read_text()))
        else:
            monkeypatch.setattr(census_mod, "CHECKPOINT_EVERY", 7)
            common = ["--max-order", "10", "--jobs", "2", "--out", str(tmp_path / "x.csv"),
                      "--violations", str(tmp_path / "x.jsonl")]
        taken = []

        def recorded(n, tables):
            # a worker appends to its own copy of the list
            for run in forest_runs(n, tables):
                taken.append((n, run))
                yield run

        monkeypatch.setattr(census_mod, "forest_runs", recorded)
        if not resumed:
            # the wrapper sees every run that one process takes
            assert run_cli("verify", *common[:2], "--jobs", "1", *common[4:]) == 0
            assert len(taken) == sum(1 for n in range(1, 11) for _ in forest_runs(n, {}))
            taken.clear()
        assert run_cli("verify", *common) == 0
        # a resume walks its order to the checkpoint's last code, and no further
        walk = []
        if resumed:
            for run in forest_runs(order, {}):
                if index <= 0:
                    break
                walk.append((order, run))
                index -= len(run[1])
        assert taken == walk

    @pytest.mark.parametrize("max_order, size, batches", [
        (8, CHECKPOINT_EVERY, 1), (7, 10, 3), (9, 10, 10), (10, 7, 25)])
    def test_every_batch_count_ends_at_the_end_marker(
        self, tmp_path, monkeypatch, max_order, size, batches
    ):
        # batch i is read from worker i % 2 until it sends its end marker,
        # which comes from worker 1 after one batch or an odd count and from
        # worker 0 after an even count; a finished checkpoint leaves none
        monkeypatch.setattr(census_mod, "CHECKPOINT_EVERY", size)
        runs = (run for n in range(1, max_order + 1) for run in forest_runs(n, {}))
        assert len(list(code_batches(runs, size))) == batches
        outputs = {}
        for jobs in ("1", "2"):
            csv, vio = tmp_path / f"r{jobs}.csv", tmp_path / f"v{jobs}.jsonl"
            common = ["--max-order", str(max_order), "--jobs", jobs, "--out", str(csv),
                      "--violations", str(vio), "--checkpoint", str(tmp_path / f"{jobs}.json")]
            assert run_cli("verify", *common) == 0
            outputs[jobs] = csv.read_bytes(), vio.read_bytes()
        assert outputs["2"] == outputs["1"]
        assert run_cli("verify", *common) == 0
        assert (csv.read_bytes(), vio.read_bytes()) == outputs["1"]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("where", ["batch across orders", "index inside a run"])
    def test_resume_gives_the_order_16_pin(
        self, tmp_path, monkeypatch, capsys, kill_at_dump, jobs, where
    ):
        csv, ckpt = tmp_path / "x.csv", tmp_path / "ck.json"
        common = ["--max-order", "16", "--jobs", jobs, "--out", str(csv),
                  "--violations", str(tmp_path / "x.jsonl"), "--checkpoint", str(ckpt)]
        with monkeypatch.context() as m:
            if where == "batch across orders":
                kill_at_dump(4)  # the batch of order 15's end and order 16's start
            else:
                # batches of exactly CHECKPOINT_EVERY codes, cut inside a run,
                # as a sweep of this checkpoint version once cut them
                m.setattr(census_mod, "code_batches", lambda runs, size: code_batches(
                    ((head, [f]) for head, forests in runs for f in forests), size))
                kill_at_dump(3)
            with pytest.raises(Killed):
                run_cli("verify", *common)
        state = json.loads(ckpt.read_text())
        order, index = place(state)
        if where == "batch across orders":
            rows = csv.read_bytes()[state["csv_bytes"]:].splitlines()
            assert {int(row.split(b",")[1]) for row in rows} == {15, 16}
        else:
            runs = forest_runs(order, {})
            assert index not in set(accumulate(len(forests) for _, forests in runs))
            # the code after the last one, in the same run, is refused there
            codes = code_bytes(order)
            wrong, real = code_text(codes[index]), code_text(codes[index - 1])
            ckpt.write_text(json.dumps(dict(state, last_code=wrong)))
            before = csv.read_bytes()
            capsys.readouterr()
            assert run_cli("verify", *common) == 2
            assert capsys.readouterr().err == (
                f"treereg: error: checkpoint {ckpt} names code {wrong!r} at order "
                f"{order} index {index - 1}, but the enumeration has {real!r} "
                "there; delete the checkpoint to start over\n"
            )
            assert csv.read_bytes() == before
            ckpt.write_text(json.dumps(state))
        assert run_cli("verify", *common) == 0
        assert hashlib.sha256(csv.read_bytes()).hexdigest() == ORDER16_SHA256

    def test_crash_leaves_no_worker_and_resumes_byte_identical(
        self, tmp_path, monkeypatch, kill_at_dump, forked
    ):
        ref_csv, ref_vio = tmp_path / "ref.csv", tmp_path / "ref.jsonl"
        assert run_cli("verify", "--max-order", "9", "--out", str(ref_csv),
                       "--violations", str(ref_vio)) == 0
        monkeypatch.setattr(census_mod, "CHECKPOINT_EVERY", 5)
        csv, vio = tmp_path / "x.csv", tmp_path / "x.jsonl"
        common = ["--max-order", "9", "--jobs", "2", "--out", str(csv),
                  "--violations", str(vio), "--checkpoint", str(tmp_path / "ck.json")]
        real = census_mod.verify_record

        def stalls_on_order_8(record):
            # order 8's first batches are in flight when the kill comes at
            # the 4th batch, in order 7; a run that waited for them would
            # stall until the deadline, and no longer if the kill never came
            if record.n == 8:
                time.sleep(max(0.0, deadline - time.monotonic()))
            return real(record)

        with monkeypatch.context() as m:
            m.setattr(census_mod, "verify_record", stalls_on_order_8)
            kill_at_dump(4)
            started = time.monotonic()
            deadline = started + 30
            with pytest.raises(Killed):
                run_cli("verify", *common)
            assert time.monotonic() - started < 15
        assert len(forked) == 2
        assert [pid for pid in forked if not self.reaped(pid)] == []
        # the rows through the killed batch's 21st tree are written, and
        # none past it
        lines = csv.read_bytes().splitlines(keepends=True)
        assert len(lines) == 1 + 21
        assert b"".join(lines) == b"".join(ref_csv.read_bytes().splitlines(
            keepends=True)[:22])
        assert run_cli("verify", *common) == 0
        assert csv.read_bytes() == ref_csv.read_bytes()
        assert vio.read_bytes() == ref_vio.read_bytes()

    def test_worker_error_leaves_no_worker(self, tmp_path, monkeypatch, capsys, forked):
        def broken(record):
            raise ValueError(f"broken check at n={record.n}")

        monkeypatch.setattr(census_mod, "verify_record", broken)
        monkeypatch.setattr(census_mod, "CHECKPOINT_EVERY", 5)
        assert run_cli("verify", "--max-order", "9", "--jobs", "2",
                       "--out", str(tmp_path / "x.csv"),
                       "--violations", str(tmp_path / "x.jsonl")) == 2
        assert "broken check at n=" in capsys.readouterr().err
        assert len(forked) == 2
        assert [pid for pid in forked if not self.reaped(pid)] == []

    def test_a_failed_fork_leaks_no_pipe(self, tmp_path, monkeypatch, capsys, forked):
        fds = next((d for d in ("/proc/self/fd", "/dev/fd") if os.path.isdir(d)), None)
        if fds is None:
            pytest.skip("no directory lists this process's open fds")
        fork = census_mod.os.fork  # the fixture's, which records each pid
        calls = []

        def fails_second():
            calls.append(None)
            if len(calls) == 2:
                raise OSError("no second worker")
            return fork()

        monkeypatch.setattr(census_mod.os, "fork", fails_second)
        open_fds = len(os.listdir(fds))
        assert run_cli("verify", "--max-order", "9", "--jobs", "2",
                       "--out", str(tmp_path / "x.csv"),
                       "--violations", str(tmp_path / "x.jsonl")) == 2
        assert capsys.readouterr().err == "treereg: error: no second worker\n"
        assert len(forked) == 1
        assert [pid for pid in forked if not self.reaped(pid)] == []
        assert len(os.listdir(fds)) == open_fds

    def dies_on_order_8(self, tmp_path, monkeypatch, capfd, forked, die) -> None:
        """A ``--jobs 2`` sweep whose workers ``die()`` at their first tree
        of order 8 exits 2 with the dead-worker error line and nothing
        else, and leaves no worker behind."""
        real = census_mod.verify_record

        def dies(record):
            if record.n == 8:
                die()
            return real(record)

        monkeypatch.setattr(census_mod, "verify_record", dies)
        monkeypatch.setattr(census_mod, "CHECKPOINT_EVERY", 5)
        assert run_cli("verify", "--max-order", "9", "--jobs", "2",
                       "--out", str(tmp_path / "x.csv"),
                       "--violations", str(tmp_path / "x.jsonl")) == 2
        # the workers write at the fd level, where capfd sees them
        assert capfd.readouterr().err == (
            "treereg: error: a --jobs worker exited before returning its batch\n")
        assert len(forked) == 2
        assert [pid for pid in forked if not self.reaped(pid)] == []

    def test_a_dead_worker_is_refused_not_waited_for(
        self, tmp_path, monkeypatch, capfd, forked
    ):
        self.dies_on_order_8(tmp_path, monkeypatch, capfd, forked, lambda: os._exit(1))

    def test_an_interrupted_worker_prints_no_traceback(
        self, tmp_path, monkeypatch, capfd, forked
    ):
        def interrupted():
            raise KeyboardInterrupt

        self.dies_on_order_8(tmp_path, monkeypatch, capfd, forked, interrupted)

    def test_a_truncated_result_is_a_dead_worker(self):
        import pickle

        # a worker killed mid-write leaves a proper prefix of its result,
        # which ends in EOF or in the middle of a pickle
        data = pickle.dumps((3, "0101", b"1,2,3\n" * 20, b""))
        for cut in range(len(data)):
            r, w = os.pipe()
            os.write(w, data[:cut])
            os.close(w)
            with open(r, "rb") as reader, pytest.raises(
                ChildProcessError, match="^a --jobs worker exited before returning its batch$"
            ):
                census_mod._received(reader)

    def test_a_killed_run_leaves_no_worker_and_prints_nothing(self, tmp_path):
        import os
        import signal
        import subprocess
        import sys
        import time

        import treereg

        ckpt = tmp_path / "ck.json"
        src = Path(treereg.__file__).resolve().parents[1]
        with open(tmp_path / "err.txt", "wb") as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "treereg.cli", "verify", "--max-order", "20",
                 "--jobs", "2", "--out", str(tmp_path / "r.csv"),
                 "--violations", str(tmp_path / "v.jsonl"), "--checkpoint", str(ckpt)],
                env={**os.environ, "PYTHONPATH": str(src)},
                stdout=subprocess.DEVNULL, stderr=err)
        try:
            # the first checkpoint: the workers hold the next batches
            deadline = time.monotonic() + 60
            while not ckpt.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert ckpt.exists()
            children = Path(f"/proc/{proc.pid}/task/{proc.pid}/children")
            workers = children.read_text().split()
            assert len(workers) == 2
        finally:
            proc.kill()
            proc.wait(timeout=60)

        def running(pid: str) -> bool:
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except FileNotFoundError:
                return False
            return "\nState:\tZ" not in status

        deadline = time.monotonic() + 30
        while any(map(running, workers)) and time.monotonic() < deadline:
            time.sleep(0.01)
        left = [pid for pid in workers if running(pid)]
        for pid in left:
            os.kill(int(pid), signal.SIGKILL)
        assert left == []
        assert (tmp_path / "err.txt").read_bytes() == b""

    @pytest.mark.parametrize("excess", [1, 100000])
    def test_more_jobs_than_cpus_is_refused_before_any_fork(
        self, tmp_path, monkeypatch, capsys, excess
    ):
        from treereg.census import _max_jobs

        def no_fork():
            raise AssertionError("a worker was forked")

        monkeypatch.setattr(census_mod.os, "fork", no_fork)
        limit = _max_jobs()
        out = tmp_path / "x.csv"
        assert run_cli("verify", "--max-order", "5", "--jobs", str(limit + excess),
                       "--out", str(out), "--violations", str(tmp_path / "x.jsonl")) == 2
        assert f"--jobs must be in 1..{limit}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("usable, limit", [({0}, 2), ({0, 1, 2}, 3)])
    def test_jobs_limit_is_the_usable_cpus_but_never_below_two(
        self, tmp_path, monkeypatch, usable, limit
    ):
        import os

        from treereg.census import SweepConfig

        # the affinity mask, not the host's CPU count, sets the limit
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: usable, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        SweepConfig(max_order=5, out_csv=tmp_path / "x.csv", jobs=limit).validate()
        with pytest.raises(ValueError, match=f"--jobs must be in 1..{limit},"):
            SweepConfig(max_order=5, out_csv=tmp_path / "x.csv", jobs=limit + 1).validate()


class TestCensusCommand:
    def test_order4_record_count(self, tmp_path, capsys):
        out = tmp_path / "census.csv"
        assert run_cli("census", "--max-order", "4", "--out", str(out)) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 5  # header + orders 1..4: 1+1+1+2 trees
        summary = json.loads(Path(str(out) + ".summary.json").read_text())
        assert summary["total"] == 5

    def test_records_sorted_by_order_then_code(self, tmp_path):
        out = tmp_path / "census.csv"
        assert run_cli("census", "--max-order", "6", "--out", str(out)) == 0
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        keys = [(int(r[1]), tuple(int(x) for x in r[0].split())) for r in rows]
        assert keys == sorted(keys)

    def test_paths_lb_tight_and_stars_collapse(self, tmp_path):
        from treereg.graphs import TreeWitness, path_graph

        out = tmp_path / "census.jsonl"
        assert run_cli("census", "--max-order", "7", "--out", str(out),
                       "--format", "jsonl") == 0
        records = {rec["tree_code"]: rec
                   for rec in map(json.loads, out.read_text().splitlines())}
        for n in range(2, 8):
            path_code = code_text(canonical_code(TreeWitness(path_graph(n))))
            assert records[path_code]["lb_tight"], n
        for leaves in range(2, 7):
            star_code = code_text(canonical_code(TreeWitness(star_graph(leaves))))
            rec = records[star_code]
            assert rec["im"] == 1
            assert rec["bounds"]["lb_tree"] == 1 and rec["bounds"]["ub_tree"] == 1

    def test_summary_tight_counts_match_records(self, tmp_path):
        out = tmp_path / "census.jsonl"
        assert run_cli("census", "--max-order", "6", "--out", str(out),
                       "--format", "jsonl") == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        summary = json.loads(Path(str(out) + ".summary.json").read_text())
        for n_str, bucket in summary["orders"].items():
            mine = [r for r in records if r["n"] == int(n_str)]
            assert bucket["trees"] == len(mine)
            assert bucket["lb_tight"] == sum(r["lb_tight"] for r in mine)
            assert len(bucket["lb_tight_codes"]) == bucket["lb_tight"]

    def test_unwritable_summary_path_is_refused_before_any_tree(
        self, tmp_path, capsys
    ):
        kept, absent = tmp_path / "kept.csv", tmp_path / "absent.csv"
        kept.write_bytes(b"kept\n")
        for csv in (kept, absent):
            summary = Path(str(csv) + ".summary.json")
            summary.mkdir()
            assert run_cli("census", "--max-order", "12", "--out", str(csv)) == 2
            err = capsys.readouterr().err
            assert f"output path {summary} is not writable" in err
        # --out is neither emptied nor made
        assert kept.read_bytes() == b"kept\n"
        assert not absent.exists()

    def test_unwritable_output(self, tmp_path, capsys):
        target = tmp_path / "missing_dir" / "census.csv"
        assert run_cli("census", "--max-order", "3", "--out", str(target)) == 2
        assert "not writable" in capsys.readouterr().err

    def test_csv_equals_verify_csv(self, tmp_path):
        census, verify = tmp_path / "census.csv", tmp_path / "verify.csv"
        assert run_cli("census", "--max-order", "10", "--out", str(census)) == 0
        assert run_cli("verify", "--max-order", "10", "--out", str(verify),
                       "--violations", str(tmp_path / "v.jsonl")) == 0
        assert census.read_bytes() == verify.read_bytes()

    @pytest.mark.parametrize("fmt, records_sha256", [
        ("csv", "5e3db0a870e8be294844a9407dccf356b28f83408b2b3dda81187c199dcbfe6c"),
        ("jsonl", "a792ee6841c5e2ac4e40d21feebbad6b2c0c45ae71e656513361a1d0a6dd6101"),
    ])
    def test_order10_outputs_are_pinned(self, tmp_path, fmt, records_sha256):
        out = tmp_path / f"census.{fmt}"
        assert run_cli("census", "--max-order", "10", "--out", str(out),
                       "--format", fmt) == 0
        summary = Path(str(out) + ".summary.json")
        assert hashlib.sha256(out.read_bytes()).hexdigest() == records_sha256
        assert hashlib.sha256(summary.read_bytes()).hexdigest() == (
            "14ae36eaf48fa1b7790e258c6a8b2f63e3314c29901976f4b38d975b9b8e2cb1")


class TestSweepConfig:
    @pytest.mark.parametrize("extra, fields", [
        ({"summary_out": Path("s.json")}, ("checkpoint", "summary_out")),
        ({"fmt": "jsonl"}, ("checkpoint", "fmt")),
    ])
    def test_checkpoint_refuses_what_resume_cannot_restore(
        self, tmp_path, extra, fields
    ):
        cfg = SweepConfig(max_order=4, out_csv=tmp_path / "r.out",
                          checkpoint=tmp_path / "ckpt.json", **extra)
        with pytest.raises(ValueError) as err:
            run_verify(cfg)
        assert all(field in str(err.value) for field in fields)
        assert list(tmp_path.iterdir()) == []

    def test_workers_refuse_a_summary(self, tmp_path):
        # the summary is counted where each row is made, which no worker's
        # batch reaches
        cfg = SweepConfig(max_order=4, out_csv=tmp_path / "r.out",
                          summary_out=tmp_path / "s.json", jobs=2)
        with pytest.raises(ValueError) as err:
            run_verify(cfg)
        assert all(field in str(err.value) for field in ("jobs", "summary_out"))
        assert list(tmp_path.iterdir()) == []
