"""Tests of the benchmark itself, at tiny sizes.

    PYTHONPATH=src python3 -m pytest -q perfbench

Each output check must pass on the program's real output and fail once that
output is corrupted.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import probe  # noqa: E402
import run as bench  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _unit(w: bench.Workload, workdir: Path, trace=False, oracle=None) -> bench.Unit:
    return bench.run_unit(w, oracle, trace, workdir, time.perf_counter() + 120)


def _flip(data: bytes, at: int) -> bytes:
    return data[:at] + bytes([data[at] ^ 1]) + data[at + 1 :]


@pytest.fixture(scope="module")
def sweep8(tmp_path_factory) -> Path:
    workdir = tmp_path_factory.mktemp("sweep8") / "unit"
    unit = _unit(bench.Workload("sweep", 8), workdir)
    assert unit.result is not None and unit.failed == 0
    assert unit.items == 1 + 1 + 1 + 2 + 3 + 6 + 11 + 23
    return workdir


def test_sweep_check_fails_on_corrupt_records(sweep8):
    csv = (sweep8 / "records.csv").read_bytes()
    violations = (sweep8 / "violations.jsonl").read_bytes()
    total = sum(checks.tree_count(k) for k in range(1, 9))
    assert checks.check_sweep(csv, violations, 8) == 0
    assert checks.check_sweep(_flip(csv, len(csv) - 2), violations, 8) == 23
    assert checks.check_sweep(_flip(csv, 3), violations, 8) == total  # header
    dropped = csv[: csv.rindex(b"\n", 0, len(csv) - 1) + 1]
    assert checks.check_sweep(dropped, violations, 8) == 23
    assert checks.check_sweep(csv + b"0 1\n", violations, 8) == 1
    flagged = b'{"check": "x", "detail": "", "tree_code": "0 1 1"}\n'
    assert checks.check_sweep(csv, flagged, 8) == 1
    assert checks.check_sweep(None, violations, 8) == total


def test_pool_sweep_writes_the_same_bytes(sweep8, tmp_path):
    unit = _unit(bench.Workload("sweep", 8, jobs=2), tmp_path / "unit")
    assert unit.failed == 0
    assert (tmp_path / "unit" / "records.csv").read_bytes() == (
        sweep8 / "records.csv"
    ).read_bytes()


def test_traced_sweep_keeps_output_and_reports_every_layer(sweep8, tmp_path):
    w = bench.Workload("sweep", 8)
    plain = _unit(w, tmp_path / "plain")
    traced = _unit(w, tmp_path / "traced", trace=True)
    assert traced.failed == 0
    assert (tmp_path / "traced" / "records.csv").read_bytes() == (
        sweep8 / "records.csv"
    ).read_bytes()
    metrics = bench.per_layer(plain, traced)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        name: unit for name, (_, unit) in metrics.items()
    }
    shares = [metrics[f"{layer}.self_pct"][0] for layer in bench.LAYERS]
    assert 0 < sum(shares) <= 100
    assert metrics["census.bytes_written"][0] > len(checks.REFERENCE["csv_header"])


def test_tracer_times_a_lazy_result_while_it_is_consumed():
    tracer = tracing.Tracer()

    def lazy_codes(n):
        for i in range(n):
            time.sleep(0.01)
            yield i

    codes = tracer._wrap(lazy_codes, "trees.enumerate_codes", tracing._returned)
    sweep = tracer._wrap(lambda n: list(codes(n)), "census.run_verify", None)
    assert sweep(5) == list(range(5))
    calls, total_s, self_s, items = tracer.spans["trees.enumerate_codes"]
    assert (calls, items) == (1, 5)
    assert total_s >= 0.05 and self_s == total_s
    assert tracer.spans["census.run_verify"][2] < 0.01


@pytest.mark.parametrize("kind", ["sweep", "enumerate", "oracle"])
def test_setup_runs_the_program_start_up(tmp_path, kind):
    w = bench.Workload(kind, 8, jobs=2 if kind == "sweep" else 1)
    took, bare = bench.measure_setup(w, tmp_path / "setup", time.perf_counter() + 60)
    assert took > bare > 0
    if kind == "sweep":
        assert (tmp_path / "setup" / "records.csv").read_bytes().count(b"\n") == 3


def test_enumerate_check_fails_on_corrupt_codes(tmp_path):
    unit = _unit(bench.Workload("enumerate", 8), tmp_path / "unit")
    assert unit.result is not None and unit.failed == 0
    out = (tmp_path / "unit" / "stdout").read_bytes()
    lines = out.splitlines(keepends=True)
    assert len(lines) == 23
    assert checks.check_enumerate(b"".join(lines[:-1]), 8) == 1
    assert checks.check_enumerate(b"".join(lines[1:] + lines[:1]), 8) == 1
    bad_level = lines[5][:-2] + b"9\n"
    assert checks.check_enumerate(b"".join(lines[:5] + [bad_level] + lines[6:]), 8) == 1
    assert checks.check_enumerate(None, 8) == 23


def test_oracle_check_fails_on_a_wrong_betti_entry(tmp_path):
    w = bench.Workload("oracle", 7, cyclic=20)
    oracle = bench.OracleInputs.make(w, seed=5)
    assert oracle.forest.count(True) == 11 and oracle.forest.count(False) == 20
    unit = _unit(w, tmp_path / "unit", oracle=oracle)
    assert unit.result is not None and unit.failed == 0
    betti = unit.result["betti"]
    assert len(betti) == 31
    assert oracle.failed(betti) == 0
    for forest in (True, False):
        at = oracle.forest.index(forest)
        wrong = json.loads(json.dumps(betti))
        wrong[at][-1][2] += 1
        assert oracle.failed(wrong) == 1
    assert oracle.failed(betti[:-1]) == len(betti)


def test_rescale_leaves_out_the_loop_and_scales_by_its_speed():
    ref = probe.REF_S
    # A loop of 0.5 s starts every second; it runs at the reference speed for
    # 20 s, then at half of it.
    samples = [(float(t), t + 0.5, ref if t < 20 else 2 * ref) for t in range(40)]
    assert probe.rescale(samples, 0.5, 10.0) == pytest.approx((5.0, 5.0))
    assert probe.rescale(samples, 30.5, 39.0) == pytest.approx((4.5, 2.25))
    raw, scaled = probe.rescale(samples, 0.5, 39.0)
    assert raw == pytest.approx(19.5) and 19.5 / 2 < scaled < 19.5


def test_sampler_runs_the_loop_during_the_work():
    sampler = probe.Sampler()
    sampler.begin()
    end = time.perf_counter() + 0.3
    while time.perf_counter() < end:
        pass
    sampler.finish()
    assert len(sampler.samples) >= 4
    raw, ref = sampler.times()
    loops = sum(b - a for a, b, _ in sampler.samples[1:-1])
    assert raw == pytest.approx(0.3 - loops, abs=0.02)
    assert ref > 0


def test_oracle_inputs_follow_the_seed():
    trees = checks.oracle_tree_inputs(7, seed=1)
    assert len(trees) == 11 and trees == checks.oracle_tree_inputs(7, seed=1)
    assert trees != checks.oracle_tree_inputs(7, seed=2)
    cyclic = checks.oracle_cyclic_inputs(7, 20, seed=1)
    assert cyclic == checks.oracle_cyclic_inputs(7, 20, seed=1)
    assert len({frozenset(e) for e in cyclic}) == 20
    assert all(len(e) == 7 for e in cyclic)  # a tree on 7 vertices plus a chord


def test_numerators_agree_on_one_edge():
    assert checks.hilbert_numerator(2, [(0, 1)]) == [1, 0, -1]
    assert checks.betti_numerator(2, [[0, 0, 1], [1, 2, 1]]) == [1, 0, -1]


def test_end_to_end_run_prints_every_metric(monkeypatch, capsys):
    monkeypatch.setitem(bench.WORKLOADS, "tiny", bench.Workload("sweep", 6))
    assert bench.main(["--workload", "tiny", "--seed", "1", "--seconds", "1"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0 and result["attempted"] % 14 == 0  # whole sweeps
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep16",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == b""
