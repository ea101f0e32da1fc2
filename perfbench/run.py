"""End-to-end and per-layer benchmark for treereg.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a treereg source tree; the package is imported from its
``src`` directory and nothing is installed.  Every unit of work starts in a
fresh interpreter (``child.py``) with fresh output files, so neither a
completed checkpoint nor the Betti oracle's in-process cache can turn a unit
into a no-op.  Units repeat, each one closed-loop after the last, until the
time they took is as near to --seconds as whole units get it; at least one
always runs.
Every unit's output is checked (``checks.py``).

Every time in the end-to-end metrics is at a reference speed, so that the
host's changing speed does not read as a change of the program: a fixed
loop sampled between the work (``probe.py``) rescales each stretch of it to
what it would take with the loop at a fixed speed, and set-up is rescaled
by a bare interpreter's start.

With --trace 0 the last stdout line carries the end-to-end metrics:

    setup_s       the program's fixed cost per invocation: spawn of a fresh
                  interpreter until the workload's command at the smallest
                  size is done in it (a sweep to order 2 with the same
                  --jobs, enumeration of order 1), so it covers imports, CLI
                  and checkpoint set-up and the program's own pool start-up
                  and shutdown; for the oracle, imports and calibration.
                  Each spawn over a bare interpreter's start right after it,
                  times BARE_REF_S; median of SETUP_REPS spawns after one
                  warm-up spawn
    items_per_s   trees/s (sweeps), codes/s (enumeration), graphs/s (oracle):
                  all items of the run's units over their summed work time
    cpu_s         user + sys time of a unit's process tree (os.wait4),
                  rescaled like its work time, mean over the run's units
    peak_rss_mb   peak resident set of a unit's process tree (os.wait4),
                  median over the run's units

With --trace 1 the run makes one untraced and one traced unit; the traced
one has timing wrappers on treereg's layer functions (``tracing.py``) and
gives the per-layer metrics, and the pair gives the tracing overhead.
Lines before the last are a readable report: the machine, each unit, and
the workload's own names for the figures (trees_per_s, codes_per_s, the
oracle's per-graph p50/p95 on trees and on unicyclic graphs at the
reference speed, fail_ratio), and the raw figures in the machine's own
seconds with raw.speed, the reference over the raw work time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
WORK = ROOT / ".perfbench_work"

SETUP_REPS = 15
# A bare interpreter's start on the 2-vCPU Xeon this benchmark was written
# on.  Set-up is rescaled by the bare start next to it, not by probe.py's
# loop: most of it is the interpreter's own start and stdlib imports, whose
# speed on that box changed by a quarter over minutes without following the
# loop's, while set-up over bare start stayed within a few percent.
BARE_REF_S = 0.08
# Children get the caller's environment without its PYTHON* settings, which
# could unbuffer stdout, skip byte-compiling or add modules, plus a fixed hash
# seed, so that every run of a checkout starts the program the same way.
CHILD_ENV = {
    **{k: v for k, v in os.environ.items()
       if not k.startswith("PYTHON") or k == "PYTHONHOME"},
    "PYTHONHASHSEED": "0",
}
RUN_LIMIT_S = 170.0  # a run must end within 180 s
clock = time.perf_counter


class BenchError(RuntimeError):
    """The benchmark itself cannot run here; no result is printed."""


@dataclass(frozen=True)
class Workload:
    """One named input set; `size` is the max order, order, or graph order."""

    kind: str  # "sweep", "enumerate" or "oracle"
    size: int
    jobs: int = 1
    cyclic: int = 0  # oracle: this many unicyclic graphs besides all the trees
    item: str = "trees"

    def items(self) -> int:
        if self.kind == "sweep":
            return sum(checks.tree_count(k) for k in range(1, self.size + 1))
        if self.kind == "enumerate":
            return checks.tree_count(self.size)
        return checks.tree_count(self.size) + self.cyclic


WORKLOADS = {
    "sweep16": Workload("sweep", 16),
    "sweep16_jobs2": Workload("sweep", 16, jobs=2),
    "enumerate17": Workload("enumerate", 17, item="codes"),
    "oracle11": Workload("oracle", 11, cyclic=300, item="graphs"),
}


@dataclass
class OracleInputs:
    """Seeded graphs plus what each one's Betti table must agree with.

    All trees of the order and the unicyclic graphs are shuffled together, so
    that a drift in the machine's speed during a unit falls on both kinds.
    """

    order: int
    graphs: list
    forest: list  # per graph: is it a tree
    numerators: list
    ims: list

    @classmethod
    def make(cls, w: Workload, seed: int) -> "OracleInputs":
        import random

        from treereg import from_edge_list, induced_matching_number

        both = [(e, True) for e in checks.oracle_tree_inputs(w.size, seed)]
        both += [(e, False) for e in checks.oracle_cyclic_inputs(w.size, w.cyclic, seed)]
        random.Random(seed).shuffle(both)
        graphs = [e for e, _ in both]
        return cls(
            order=w.size,
            graphs=graphs,
            forest=[f for _, f in both],
            numerators=[checks.hilbert_numerator(w.size, e) for e in graphs],
            ims=[induced_matching_number(from_edge_list(e, w.size))[0] for e in graphs],
        )

    def failed(self, betti: list | None) -> int:
        if betti is None or len(betti) != len(self.graphs):
            return len(self.graphs)
        bad = 0
        for entries, numerator, im, forest in zip(
            betti, self.numerators, self.ims, self.forest
        ):
            try:
                ok = checks.check_betti(self.order, entries, numerator, im, forest)
            except (TypeError, ValueError):
                ok = False
            bad += not ok
        return bad


@dataclass
class Unit:
    traced: bool
    items: int
    failed: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    result: dict | None  # the child's report; None if it failed

    @property
    def work_s(self) -> float:
        return self.result["work_s"]

    @property
    def ref_s(self) -> float:
        return self.result["ref_s"]


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _spawn(
    args: list[str], cwd: Path, stdout, stderr, timeout: float
) -> tuple[subprocess.Popen, threading.Timer]:
    """Start a fresh interpreter with args in its own process group, killed
    if it outlives timeout."""
    proc = subprocess.Popen(
        [sys.executable, *args],
        cwd=cwd,
        stdout=stdout,
        stderr=stderr,
        env=CHILD_ENV,
        start_new_session=True,
    )
    killer = threading.Timer(max(timeout, 1.0), _kill_group, (proc.pid,))
    killer.start()
    return proc, killer


def _sweep_args(w: Workload, max_order: int, workdir: Path) -> list[str]:
    return ["verify", "--max-order", str(max_order), "--jobs", str(w.jobs),
            "--checkpoint", str(workdir / "checkpoint.json"),
            "--out", str(workdir / "records.csv"),
            "--violations", str(workdir / "violations.jsonl")]


def measure_setup(w: Workload, workdir: Path, deadline: float) -> tuple[float, float]:
    """Seconds from spawning a fresh interpreter until its set-up run exits,
    and the same for a bare interpreter (`python -c pass`) spawned next."""
    workdir.mkdir(parents=True)
    if w.kind == "sweep":
        args = _sweep_args(w, 2, workdir)
    elif w.kind == "enumerate":
        args = ["enumerate", "--order", "1", "--codes-only"]
    else:
        args = []
    took = []
    for argv in ([str(CHILD), "setup", *args], ["-c", "pass"]):
        start = clock()
        proc, killer = _spawn(argv, workdir, subprocess.DEVNULL,
                              subprocess.DEVNULL, deadline - clock())
        try:
            proc.wait()  # no timeout: Popen.wait(timeout) polls in 50 ms steps
        finally:
            killer.cancel()
        took.append(clock() - start)
        if proc.returncode != 0:
            raise BenchError(f"set-up child {argv[1]} failed with exit code "
                             f"{proc.returncode}")
    return took[0], took[1]


def run_unit(
    w: Workload, oracle: OracleInputs | None, trace: bool, workdir: Path, deadline: float
) -> Unit:
    """Run one unit in a fresh interpreter and check everything it wrote."""
    workdir.mkdir(parents=True)
    result_path = workdir / "result.json"
    out_path = workdir / "stdout"
    head = [str(result_path), str(int(trace))]
    if w.kind == "sweep":
        args = ["cli", *head, *_sweep_args(w, w.size, workdir)]
    elif w.kind == "enumerate":
        args = ["cli", *head, "enumerate", "--order", str(w.size), "--codes-only"]
    else:
        input_path = workdir / "graphs.json"
        input_path.write_text(json.dumps([[oracle.order, e] for e in oracle.graphs]))
        args = ["oracle", str(input_path), *head]
    start = clock()
    with open(out_path, "wb") as out, open(workdir / "stderr", "wb") as err:
        proc, killer = _spawn([str(CHILD), *args], workdir, out, err, deadline - clock())
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    wall_s = clock() - start
    result = None
    if proc.returncode == 0 and result_path.exists():
        result = json.loads(result_path.read_text())

    def read(name: str) -> bytes | None:
        path = workdir / name
        return path.read_bytes() if result is not None and path.exists() else None

    if w.kind == "sweep":
        failed = checks.check_sweep(read("records.csv"), read("violations.jsonl"), w.size)
    elif w.kind == "enumerate":
        failed = checks.check_enumerate(read("stdout"), w.size)
    else:
        failed = oracle.failed(result and result["betti"])
    if result is not None and w.kind == "sweep":
        result["bytes_written"] = sum(
            (workdir / name).stat().st_size
            for name in ("records.csv", "violations.jsonl")
            if (workdir / name).exists()
        )
    return Unit(
        traced=trace,
        items=w.items(),
        failed=failed,
        wall_s=wall_s,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        result=result,
    )


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(setups: list[tuple[float, float]], units: list[Unit]) -> dict:
    """The gated metrics, every time at the reference speed.

    The rate is over all of the run's units; each unit's CPU is rescaled by
    the ratio of its reference to its raw work time.
    """
    done = [u for u in units if u.result is not None]
    ref_s = sum(u.ref_s for u in done)
    return {
        "setup_s": (_median([raw / bare for raw, bare in setups]) * BARE_REF_S, "s"),
        "items_per_s": (sum(u.items for u in done) / ref_s if ref_s else 0.0, "1/s"),
        "cpu_s": (statistics.fmean([u.cpu_s * u.ref_s / u.work_s for u in done])
                  if done else 0.0, "s"),
        "peak_rss_mb": (_median([u.rss_mb for u in done]), "MB"),
    }


def raw_figures(setups: list[tuple[float, float]], units: list[Unit]) -> dict:
    """The same figures in the machine's own seconds, for the report."""
    done = [u for u in units if u.result is not None]
    work_s = sum(u.work_s for u in done)
    return {
        "raw.setup_s": (_median([raw for raw, _ in setups]), "s"),
        "raw.bare_start_s": (_median([bare for _, bare in setups]), "s"),
        "raw.items_per_s": (sum(u.items for u in done) / work_s if work_s else 0.0, "1/s"),
        "raw.cpu_s": (statistics.fmean([u.cpu_s for u in done]) if done else 0.0, "s"),
        "raw.speed": (sum(u.ref_s for u in done) / work_s if work_s else 0.0, "x"),
    }


LAYERS = ("trees", "graphs", "invariants", "bounds", "census", "homology", "gf2", "cli")

# metric name -> (span, count items instead of calls); rates use self time.
RATES = {
    "trees.enumerate_codes.codes_per_s": ("trees.enumerate_codes", True),
    "trees.tree_from_code.calls_per_s": ("trees.tree_from_code", False),
    "trees.canonical_code.calls_per_s": ("trees.canonical_code", False),
    "graphs.structural_invariants.calls_per_s": ("graphs.structural_invariants", False),
    "invariants.induced_matching_number.calls_per_s": (
        "invariants.induced_matching_number", False),
    "invariants.independence_number.calls_per_s": (
        "invariants.independence_number", False),
    "bounds.record_for_tree.calls_per_s": ("bounds.record_for_tree", False),
    "bounds.evaluate_bounds.calls_per_s": ("bounds.evaluate_bounds", False),
    "bounds.verify_record.calls_per_s": ("bounds.verify_record", False),
    "homology.betti_table.calls_per_s": ("homology.betti_table", False),
    "gf2.rank.rows_per_s": ("gf2.rank", True),
}


def per_layer(plain: Unit, traced: Unit) -> dict:
    """Per-layer figures from the traced unit; shares are of the time it ran."""
    r = traced.result
    if r is None or plain.result is None:
        return {}
    spans = r["spans"]
    wall = r["elapsed_s"]  # the span clocks ran during the loop samples too

    def span(name: str) -> list:
        return spans.get(name, [0, 0.0, 0.0, 0])

    out = {"cli.import_s": (_median([plain.result["import_s"], r["import_s"]]), "s")}
    for layer in LAYERS:
        self_s = sum(s[2] for name, s in spans.items() if name.split(".")[0] == layer)
        out[f"{layer}.self_pct"] = (100.0 * self_s / wall, "%")
    for metric, (name, by_items) in RATES.items():
        calls, _, self_s, items = span(name)
        out[metric] = ((items if by_items else calls) / self_s if self_s else 0.0, "1/s")
    out["gf2.rank.calls"] = (span("gf2.rank")[0], "count")
    out["gf2.rank.rows"] = (span("gf2.rank")[3], "count")
    out["census.bytes_written"] = (
        r.get("bytes_written", 0) + span("census.checkpoint_dump")[3], "bytes")
    out["census.pool_map_pct"] = (100.0 * span("pool.map")[1] / wall, "%")
    out["proc.parent_cpu_pct"] = (100.0 * r["cpu_self_s"] / wall, "%")
    out["proc.worker_cpu_pct"] = (100.0 * r["cpu_children_s"] / wall, "%")
    out["trace.wall_s"] = (r["work_s"], "s")
    out["trace.overhead_pct"] = (100.0 * (traced.ref_s / plain.ref_s - 1.0), "%")
    return out


def machine() -> str:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return (
        f"machine: nproc={len(os.sched_getaffinity(0))} "
        f"python={platform.python_version()} cpu={cpu}"
    )


def report(
    w: Workload, oracle: OracleInputs | None, units: list[Unit], metrics: dict
) -> None:
    for i, u in enumerate(units, 1):
        work = f"{u.work_s:.3f} s (ref {u.ref_s:.3f} s)" if u.result is not None else "-"
        print(f"unit {i}: work {work}, wall {u.wall_s:.3f} s, cpu {u.cpu_s:.3f} s, "
              f"rss {u.rss_mb:.1f} MB, failed {u.failed}/{u.items}")
    for metric, (value, unit) in metrics.items():
        print(f"{metric:48s} {value:14.6f} {unit}")
    if "items_per_s" in metrics:
        print(f"{w.item + '_per_s':48s} {metrics['items_per_s'][0]:14.6f} 1/s")
    if oracle is not None:
        for kind, forest in (("tree", True), ("cyclic", False)):
            times = [t for u in units if u.result and not u.traced
                     for t, f in zip(u.result["times_ms"], oracle.forest) if f == forest]
            for q in (50, 95):
                print(f"{f'oracle_{kind}_ms_p{q}':48s} {_percentile(times, q):14.6f} ms"
                      f"  ({len(times)} graphs)")
    attempted = sum(u.items for u in units)
    print(f"{'fail_ratio':48s} {sum(u.failed for u in units) / attempted:14.6f}")
    for u in units:
        if u.result and u.result.get("missing"):
            print("not traced (absent in this version):", " ".join(u.result["missing"]))


def run(name: str, seed: int, seconds: int, trace: bool) -> dict:
    w = WORKLOADS[name]
    started = clock()
    deadline = started + RUN_LIMIT_S
    oracle = OracleInputs.make(w, seed) if w.kind == "oracle" else None
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    units: list[Unit] = []
    raw: dict = {}
    try:
        if trace:
            units.append(run_unit(w, oracle, False, workdir / "plain", deadline))
            units.append(run_unit(w, oracle, True, workdir / "traced", deadline))
            metrics = per_layer(units[0], units[1])
        else:
            # The first spawn is a warm-up: it byte-compiles the package once.
            setups = [measure_setup(w, workdir / f"setup{i}", deadline)
                      for i in range(SETUP_REPS + 1)][1:]
            begun = clock()
            while True:
                units.append(run_unit(w, oracle, False, workdir / str(len(units)), deadline))
                spent = clock() - begun
                typical = _median([u.wall_s for u in units])
                # Another unit runs if it brings the measured time nearer to
                # --seconds; the run may end up half a unit past it.
                if spent + typical / 2 >= seconds or clock() + 1.5 * typical > deadline:
                    break
            metrics = end_to_end(setups, units)
            raw = raw_figures(setups, units)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run is still using it
            pass
    print(f"perfbench workload={name} seed={seed} seconds={seconds} trace={int(trace)}")
    print(machine())
    report(w, oracle, units, {**metrics, **raw})
    attempted = sum(u.items for u in units)
    failed = sum(u.failed for u in units)
    return {
        "correct": failed == 0 and all(u.result is not None for u in units),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "treereg" / "__init__.py").is_file():
        print(f"perfbench: no treereg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
