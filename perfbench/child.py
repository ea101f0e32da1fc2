"""One benchmark unit, run in a fresh interpreter by run.py.

    child.py setup [ARG...]
        run `treereg ARG...` in this process, a command with next to no work
        that still goes through the program's own start-up (CLI, checkpoint,
        worker pool); with no ARG, import treereg and calibrate the oracle.
    child.py cli RESULT TRACE ARG...
        run `treereg ARG...` in this process; its output goes to our stdout.
    child.py oracle INPUT RESULT TRACE
        time homology.betti_table on each graph of INPUT (JSON list of
        [order, edges]); every graph is built before the timer starts, and
        each one's time is at the reference speed.

RESULT is a JSON file for run.py: work time, raw and at the reference speed
(probe.py), elapsed time with the loop samples, import time, this process's CPU and its reaped children's CPU,
and with TRACE=1 the span totals.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import probe

clock = time.perf_counter
SRC = Path(__file__).resolve().parent.parent / "src"


def _import_treereg() -> float:
    sys.path.insert(0, str(SRC))
    start = clock()
    import treereg.cli

    took = clock() - start
    if Path(treereg.__file__).resolve().parent != SRC / "treereg":
        raise SystemExit(f"imported treereg from {treereg.__file__}, not {SRC}")
    return took


def _setup(argv: list[str]) -> None:
    _import_treereg()
    if argv:
        import treereg.cli

        raise SystemExit(treereg.cli.main(argv))
    from treereg import homology, path_graph

    homology.betti_table(path_graph(2))


def _tracer(trace: bool):
    if not trace:
        return None
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    return tracer


def _finish(result_path: str, result: dict, tracer) -> None:
    import json
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    result["cpu_self_s"] = own.ru_utime + own.ru_stime
    result["cpu_children_s"] = kids.ru_utime + kids.ru_stime
    if tracer is not None:
        result["spans"] = tracer.spans
        result["missing"] = tracer.missing
    Path(result_path).write_text(json.dumps(result))


def _cli(result_path: str, trace: bool, argv: list[str]) -> None:
    import_s = _import_treereg()
    import treereg.cli

    tracer = _tracer(trace)
    sampler = probe.Sampler()
    sampler.begin()
    rc = treereg.cli.main(argv)
    sys.stdout.flush()
    sampler.finish()
    work_s, ref_s = sampler.times()
    result = {"rc": rc, "work_s": work_s, "ref_s": ref_s,
              "elapsed_s": sampler.end - sampler.start, "import_s": import_s}
    _finish(result_path, result, tracer)


def _oracle(input_path: str, result_path: str, trace: bool) -> None:
    import json

    import_s = _import_treereg()
    from treereg import from_edge_list, homology, path_graph

    graphs = [
        from_edge_list([tuple(e) for e in edges], order)
        for order, edges in json.loads(Path(input_path).read_text())
    ]
    homology.betti_table(path_graph(2))  # calibration, outside the timer
    tracer = _tracer(trace)
    spans = []
    tables = []
    sampler = probe.Sampler()
    sampler.begin()
    for g in graphs:
        t0 = clock()
        tables.append(homology.betti_table(g))
        spans.append((t0, clock()))
    sampler.finish()
    work_s, ref_s = sampler.times()
    times_ms = [probe.rescale(sampler.samples, t0, t1)[1] * 1000.0 for t0, t1 in spans]
    betti = [sorted([i, j, b] for (i, j), b in t.entries.items() if b) for t in tables]
    result = {
        "rc": 0,
        "work_s": work_s,
        "ref_s": ref_s,
        "elapsed_s": sampler.end - sampler.start,
        "import_s": import_s,
        "times_ms": times_ms,
        "betti": betti,
    }
    _finish(result_path, result, tracer)


def main(argv: list[str]) -> None:
    mode = argv[0]
    if mode == "setup":
        _setup(argv[1:])
    elif mode == "cli":
        _cli(argv[1], argv[2] == "1", argv[3:])
    elif mode == "oracle":
        _oracle(argv[1], argv[2], argv[3] == "1")
    else:
        raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
