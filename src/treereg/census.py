"""Exhaustive verification and census runs with checkpoint/resume.

Trees stream in (order, code) order, so output is deterministic; with
worker processes the per-batch results are collected in submission order,
which keeps the emitted bytes identical to a serial run.  The checkpoint is
a single JSON file written atomically after every batch, and both it and
the records it counts are fsynced first; so is the violations file before
the final checkpoint marks the run complete.  Resuming truncates the records CSV
back to the last checkpointed byte offset, so a resumed run finishes with
byte-identical output; a CSV shorter than that offset is refused.

Records come from the level sequence itself (:func:`record_for_code`), with
no Graph built unless the homology oracle runs.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .bounds import CSV_HEADER, ORACLE_ORDER_CAP, record_for_code, verify_record
from .trees import enumerate_codes, max_order_cap

MIN_ORDER = 1


class CrashRequested(RuntimeError):
    """Raised by the deterministic abort hook used to exercise resume."""


@dataclass
class VerifyConfig:
    max_order: int
    out_csv: Path
    violations_out: Path
    oracle_up_to: int = 0
    checkpoint: Optional[Path] = None
    jobs: int = 1
    checkpoint_every: int = 1000
    crash_after: Optional[int] = None

    def validate(self) -> None:
        cap = max_order_cap()
        if not 2 <= self.max_order <= cap:
            raise ValueError(f"--max-order must be in 2..{cap}")
        if not 0 <= self.oracle_up_to <= ORACLE_ORDER_CAP:
            raise ValueError(f"--oracle-up-to must be in 0..{ORACLE_ORDER_CAP}")
        if self.jobs < 1:
            raise ValueError("--jobs must be >= 1")
        if self.checkpoint_every < 1:
            raise ValueError("--checkpoint-every must be >= 1")

    def params(self) -> dict:
        return {
            "max_order": self.max_order,
            "oracle_up_to": self.oracle_up_to,
            "checkpoint_every": self.checkpoint_every,
            "out_csv": str(self.out_csv),
        }


@dataclass
class VerifyReport:
    records: int
    violations: list[dict]
    elapsed: float
    complete: bool


@dataclass
class _Checkpoint:
    run_id: str
    params: dict
    status: str
    order: int
    next_index: int
    last_completed_code: dict[str, str]
    csv_bytes: int
    records: int
    violations: list[dict]
    elapsed: float

    @classmethod
    def fresh(cls, params: dict, order: int) -> "_Checkpoint":
        return cls(
            run_id=uuid.uuid4().hex,
            params=params,
            status="running",
            order=order,
            next_index=0,
            last_completed_code={},
            csv_bytes=0,
            records=0,
            violations=[],
            elapsed=0.0,
        )

    def dump(self, path: Path) -> None:
        tmp = path.with_suffix(path.suffix + ".tmp")
        with open(tmp, "w", encoding="utf-8") as f:
            f.write(json.dumps(self.__dict__, indent=1, sort_keys=True))
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)

    @classmethod
    def load(cls, path: Path) -> "_Checkpoint":
        return cls(**json.loads(path.read_text()))


def _verify_one(args: tuple[tuple[int, ...], int]) -> tuple[str, list[dict]]:
    """Worker: one tree code to its CSV row plus any violations."""
    levels, oracle_up_to = args
    record = record_for_code(levels, with_oracle=len(levels) <= oracle_up_to)
    violations = [v.to_json_dict() for v in verify_record(record)]
    return record.csv_row(), violations


def run_verify(cfg: VerifyConfig) -> VerifyReport:
    """Stream all trees of orders 1..max_order through the bound checks.

    The one-vertex tree carries no bounds, so its checks are vacuous; every
    order >= 2 exercises the full inequality set.
    """
    cfg.validate()
    started = time.time()
    ck: Optional[_Checkpoint] = None
    if cfg.checkpoint is not None and cfg.checkpoint.exists():
        ck = _Checkpoint.load(cfg.checkpoint)
        if ck.params != cfg.params():
            raise ValueError(
                "checkpoint parameters do not match this run; refusing to resume "
                f"(checkpoint: {ck.params}, run: {cfg.params()})"
            )
        if ck.status == "complete":
            return VerifyReport(ck.records, ck.violations, ck.elapsed, True)
    header = (CSV_HEADER + "\n").encode()
    if ck is None:
        ck = _Checkpoint.fresh(cfg.params(), MIN_ORDER)
        out = open(cfg.out_csv, "wb")
        out.write(header)
        out.flush()
        ck.csv_bytes = out.tell()
    else:
        if not cfg.out_csv.exists():
            raise ValueError(
                f"checkpoint {cfg.checkpoint} expects records at {cfg.out_csv}, "
                "which is missing; delete the checkpoint to start over"
            )
        size = cfg.out_csv.stat().st_size
        if size < ck.csv_bytes:
            raise ValueError(
                f"checkpoint {cfg.checkpoint} expects {ck.csv_bytes} bytes of "
                f"records in {cfg.out_csv}, which has only {size}; delete the "
                "checkpoint to start over"
            )
        with open(cfg.out_csv, "r+b") as trunc:
            trunc.truncate(ck.csv_bytes)
        out = open(cfg.out_csv, "ab")
    base_elapsed = ck.elapsed

    pool = None
    if cfg.jobs > 1:
        pool = multiprocessing.get_context("fork").Pool(cfg.jobs)
    try:
        for n in range(MIN_ORDER, cfg.max_order + 1):
            if n < ck.order:
                continue
            codes = enumerate_codes(n)
            i = ck.next_index if n == ck.order else 0
            while i < len(codes):
                batch = codes[i : i + cfg.checkpoint_every]
                args = [(c.levels, cfg.oracle_up_to) for c in batch]
                if pool is not None:
                    results = pool.map(_verify_one, args)
                else:
                    results = [_verify_one(a) for a in args]
                for row, violations in results:
                    out.write((row + "\n").encode())
                    ck.records += 1
                    ck.violations.extend(violations)
                    if cfg.crash_after is not None and ck.records >= cfg.crash_after:
                        raise CrashRequested(
                            f"aborting after {ck.records} records as requested"
                        )
                out.flush()
                i += len(batch)
                ck.order = n
                ck.next_index = i
                ck.last_completed_code[str(n)] = batch[-1].to_text()
                ck.csv_bytes = out.tell()
                ck.elapsed = base_elapsed + (time.time() - started)
                if cfg.checkpoint is not None:
                    # the records must be on disk before the offset that names them
                    os.fsync(out.fileno())
                    ck.dump(cfg.checkpoint)
    finally:
        out.close()
        if pool is not None:
            pool.close()
            pool.join()

    with open(cfg.violations_out, "w", encoding="utf-8") as vf:
        for v in ck.violations:
            vf.write(json.dumps(v, sort_keys=True) + "\n")
        if cfg.checkpoint is not None:
            # a complete checkpoint is never resumed, so the violations it
            # vouches for must be on disk first
            vf.flush()
            os.fsync(vf.fileno())
    ck.status = "complete"
    ck.elapsed = base_elapsed + (time.time() - started)
    if cfg.checkpoint is not None:
        ck.dump(cfg.checkpoint)
    return VerifyReport(ck.records, ck.violations, ck.elapsed, True)


@dataclass
class CensusConfig:
    max_order: int
    out_path: Path
    fmt: str = "csv"

    def validate(self) -> None:
        cap = max_order_cap()
        if not MIN_ORDER <= self.max_order <= cap:
            raise ValueError(f"--max-order must be in {MIN_ORDER}..{cap}")
        if self.fmt not in ("csv", "jsonl"):
            raise ValueError(f"--format must be csv or jsonl, got {self.fmt}")


def _tight_bucket() -> dict:
    return {
        "trees": 0,
        "lb_tight": 0,
        "ub_tight": 0,
        "wub_tight": 0,
        "lb_tight_codes": [],
        "ub_tight_codes": [],
        "wub_tight_codes": [],
    }


def run_census(cfg: CensusConfig) -> dict:
    """Write one record per tree, sorted by (order, code); return the summary."""
    cfg.validate()
    summary: dict = {"total": 0, "orders": {}}
    try:
        out = open(cfg.out_path, "w", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise ValueError(f"output path {cfg.out_path} is not writable: {exc}") from exc
    with out:
        if cfg.fmt == "csv":
            out.write(CSV_HEADER + "\n")
        for n in range(MIN_ORDER, cfg.max_order + 1):
            bucket = _tight_bucket()
            for code in enumerate_codes(n):
                record = record_for_code(code.levels)
                out.write(
                    (record.csv_row() if cfg.fmt == "csv" else record.to_jsonl())
                    + "\n"
                )
                bucket["trees"] += 1
                summary["total"] += 1
                for flag, key in (
                    (record.lb_tight, "lb_tight"),
                    (record.ub_tight, "ub_tight"),
                    (record.wub_tight, "wub_tight"),
                ):
                    if flag:
                        bucket[key] += 1
                        bucket[key + "_codes"].append(record.tree_code)
            summary["orders"][str(n)] = bucket
    summary_path = Path(str(cfg.out_path) + ".summary.json")
    summary_path.write_text(json.dumps(summary, indent=1, sort_keys=True))
    return summary
