"""treereg command line: invariants, tables, verify, census, enumerate."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import census as census_mod
from . import trees
from .bounds import record_for_tree
from .homology import FOREST_BETTI_ORDER_CAP, forest_betti_table
from .graphs import (
    TreeWitness,
    WhiskerVector,
    edge_spec,
    graph_from_edge_spec,
    graph_from_edges,
    multi_whisker,
    parse_edge_lines,
)
from .tables import build_table


def _record_lines(label: str, record) -> list[str]:
    lines = [
        f"{label}: n={record.n} p={record.p} d={record.d} code='{record.tree_code}'",
        f"{label} invariants: im={record.im} alpha={record.alpha}"
        + (f" reg={record.reg}" if record.reg is not None else ""),
    ]
    b = record.bounds
    if b is not None:
        lines.append(
            f"{label} bounds: lb_tree={b.lb_tree} ub_tree={b.ub_tree} "
            f"[n-p={b.ub_tree_np}, floor((2n-p)/3)={b.ub_tree_23}] "
            f"wub={b.wub} [ceil((2n-d-1)/2)={b.wub_d}, floor((2n+p-2)/3)={b.wub_p}]"
        )
        lines.append(
            f"{label} tight: lb={str(record.lb_tight).lower()} "
            f"ub={str(record.ub_tight).lower()} wub={str(record.wub_tight).lower()}"
        )
    return lines


def _oracle_record(graph) -> tuple:
    """A tree's record, with reg read off its Betti table, and that table."""
    witness = TreeWitness(graph)
    record = record_for_tree(witness)
    if graph.order > FOREST_BETTI_ORDER_CAP:
        return record, None
    _, levels = witness.walk
    table = forest_betti_table([levels])
    return replace(record, reg=table.regularity()), table


def _cmd_invariants(args: argparse.Namespace) -> int:
    if args.edges_file is not None:
        try:
            text = Path(args.edges_file).read_text(encoding="utf-8")
        except (UnicodeDecodeError, OSError) as exc:
            raise ValueError(f"--edges-file {args.edges_file}: {exc}") from None
        graph = graph_from_edges(parse_edge_lines(text.splitlines()), args.order)
    else:
        graph = graph_from_edge_spec(args.edges, args.order)
    results = {"base": _oracle_record(graph)}
    if args.vector is not None:
        entries = []
        for pos, token in enumerate(args.vector.split(","), start=1):
            try:
                entries.append(int(token))
            except ValueError:
                raise ValueError(
                    f"non-integer whisker count {token!r} at position {pos}"
                ) from None
        wgraph = multi_whisker(graph, WhiskerVector(tuple(entries)))
        results["whiskered"] = _oracle_record(wgraph)
    if args.json:
        payload = {}
        for label, (record, table) in results.items():
            payload[label] = record.to_json_dict()
            if table is not None:
                payload[label]["betti"] = table.to_json_dict()
        print(json.dumps(payload, indent=1, sort_keys=True))
    else:
        for label, (record, _) in results.items():
            for line in _record_lines(label, record):
                print(line)
    return 0


def _cmd_tables(args: argparse.Namespace) -> int:
    table = build_table(args.which)
    print(table.render_text())
    if args.out:
        try:
            Path(args.out).write_text(table.to_csv())
        except OSError as exc:
            raise ValueError(f"--out {args.out}: {exc}") from None
        print(f"wrote {args.out}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    # the one-vertex tree carries no bounds, so a sweep that stops there
    # would check nothing
    cap = trees.max_order_cap()
    if not 2 <= args.max_order <= cap:
        raise ValueError(f"--max-order must be in 2..{cap}")
    cfg = census_mod.SweepConfig(
        max_order=args.max_order,
        oracle_up_to=args.oracle_up_to,
        out_csv=Path(args.out),
        violations_out=Path(args.violations),
        checkpoint=Path(args.checkpoint) if args.checkpoint else None,
        jobs=args.jobs,
    )
    ck, _ = census_mod.run_verify(cfg)
    print(
        f"verified {ck.records} trees up to order {args.max_order}: "
        f"{ck.violation_count} violations ({ck.elapsed:.1f}s)"
    )
    print(f"records: {args.out}")
    print(f"violations: {args.violations}")
    return 0 if not ck.violation_count else 1


def _cmd_census(args: argparse.Namespace) -> int:
    cfg = census_mod.SweepConfig(
        max_order=args.max_order,
        out_csv=Path(args.out),
        fmt=args.format,
        summary_out=Path(args.out + ".summary.json"),
    )
    _, summary = census_mod.run_verify(cfg)
    for n_str, bucket in sorted(summary["orders"].items(), key=lambda kv: int(kv[0])):
        print(
            f"order {n_str}: {bucket['trees']} trees, "
            f"lb_tight={bucket['lb_tight']} ub_tight={bucket['ub_tight']} "
            f"wub_tight={bucket['wub_tight']}"
        )
    print(f"wrote {summary['total']} records to {args.out}")
    print(f"summary: {args.out}.summary.json")
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    cap = trees.max_order_cap()
    if not 1 <= args.order <= cap:
        raise ValueError(f"--order must be in 1..{cap}")
    # code_texts writes a batch's texts straight from its runs, and each
    # edge spec comes from its code's parents: no Graph
    write = sys.stdout.write
    runs = trees.forest_runs(args.order, {})
    for batch in trees.code_batches(runs, census_mod.CHECKPOINT_EVERY):
        texts = trees.code_texts(batch)
        if not args.codes_only:
            codes = [head + forest for head, forests in batch for forest in forests]
            specs = map(edge_spec, map(trees.code_edges, codes))
            texts = [text + "\t" + spec for text, spec in zip(texts, specs)]
        write("\n".join(texts) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treereg",
        description=(
            "Exact invariants, edge-ideal regularity, and bound verification "
            "for trees and multi-whiskered trees."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_inv = sub.add_parser("invariants", help="invariants and bounds of one tree")
    edges = p_inv.add_mutually_exclusive_group(required=True)
    edges.add_argument("--edges", help="comma-separated u-v tokens, e.g. 0-1,1-2")
    edges.add_argument("--edges-file",
                       help="file with one 'u v' or 'u-v' pair per line")
    p_inv.add_argument("--order", type=int, help="override 1 + max label")
    p_inv.add_argument("--vector", help="whisker counts a1,a2,... (one per vertex)")
    p_inv.add_argument("--json", action="store_true", help="machine-readable output")
    p_inv.set_defaults(func=_cmd_invariants)

    p_tab = sub.add_parser("tables", help="print a bundled reference table")
    p_tab.add_argument("--which", type=int, required=True, choices=(1, 2, 3, 4))
    p_tab.add_argument("--out", help="also write the table as CSV")
    p_tab.set_defaults(func=_cmd_tables)

    p_ver = sub.add_parser("verify", help="exhaustively check all bounds")
    p_ver.add_argument("--max-order", type=int, required=True)
    p_ver.add_argument("--oracle-up-to", type=int, default=0,
                       help="also check reg = im by the homology oracle's tree "
                       f"DP up to this order (max {FOREST_BETTI_ORDER_CAP})")
    p_ver.add_argument("--checkpoint", help="JSON checkpoint file for resume")
    p_ver.add_argument("--jobs", type=int, default=1, help="worker processes")
    p_ver.add_argument("--out", default="treereg_verify.csv",
                       help="records CSV (default: %(default)s)")
    p_ver.add_argument("--violations", default="treereg_violations.jsonl",
                       help="violations JSONL (default: %(default)s)")
    p_ver.set_defaults(func=_cmd_verify)

    p_cen = sub.add_parser("census", help="records for every tree up to an order")
    p_cen.add_argument("--max-order", type=int, required=True)
    p_cen.add_argument("--out", required=True)
    p_cen.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p_cen.set_defaults(func=_cmd_census)

    p_enum = sub.add_parser("enumerate", help="all non-isomorphic trees of an order")
    p_enum.add_argument("--order", type=int, required=True)
    p_enum.add_argument("--codes-only", action="store_true")
    p_enum.set_defaults(func=_cmd_enumerate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"treereg: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
