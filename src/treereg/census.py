"""The one sweep behind `treereg verify` and `treereg census`.

Every tree of orders 1..max_order goes enumeration -> record -> output
line, plus its bound violations and, for a census, its place in the
tightness summary; the records file holds CSV rows (resumable from a
checkpoint) or JSONL records.

Trees stream in (order, code) order, so output is deterministic.  One
stream of batches, each of whole first-block runs and at least
:data:`CHECKPOINT_EVERY` codes, runs across every order, enumerated over
one set of forest tables that the run, its resume walk included, shares
and drops as it ends.  :func:`_verify_batch` turns a batch into its tree
count, its last code's text and two byte strings, its joined output lines
and violation JSONL lines, appended to the two files as they come.  A
batch is the unit of durable commit, and its size never changes the output
bytes.  A census's summary is counted in process as each row is made, so a
run with a summary is refused workers.  Without workers a batch runs in
process.  With ``jobs`` workers, each is forked after the resume, walks the
stream it inherits over its own copy of the tables, and keeps every
``jobs``-th batch, whose results it sends over its own one-way pipe; the
parent sends nothing, reads the results in batch order and writes them, so
the bytes equal a serial run's.  The workers share no lock, so the run
kills them at its end or on any error without waiting.  Both files, and a
census's summary, are opened before any is truncated or any tree is swept,
so an unwritable one leaves the others as they were; before them, the
checkpoint's temporary file is made and removed again, so an unwritable
checkpoint path touches no output either.  The checkpoint is a single
versioned JSON file of offsets, counts and the CRC-32 of each file's bytes
up to its offset, written atomically after every batch once it and each
file whose offset it advances are fsynced; it and its temporary file must
be neither output, and it resumes whatever batch size wrote it.  Its one
record of the sweep's place is ``records``, the number of trees written:
the orders before the last of them are skipped by :func:`count_trees`,
with no enumeration.  Every run is a resume, and
:meth:`_Checkpoint.resume` is where a run learns what it resumes: a fresh
run resumes the empty checkpoint, and a finished one resumes with no
batch left.  Every run opens its files in one call and
cuts each back to its offset (0 when fresh), so a resumed run finishes
with byte-identical output, and a finished rerun drops whatever was
appended past the offsets.  A loaded checkpoint is refused before any file
is touched when it is not a well-formed checkpoint of this version, when
its parameters differ from the run's (the refusal names each one that
differs), when a file is missing, shorter than its offset or holds other
bytes before it (each is read up to its offset for their CRC-32), or when
its last code is not the enumeration's tree number ``records``; the sweep
goes on from there in the same stream of runs.

Trees travel as runs (:func:`forest_runs`), a head and its forests, from
enumeration to the written bytes, and a code, ``head + forest``, is joined
only at the oracle's orders and for a JSONL line.  Records come from the
level sequence itself, with no Graph built, the homology oracle's included.
Every tree, in either format, has its violations, the bounds it meets, and
its CSV row after the code text, from a tail that depends only on its key,
(n, p, d, im, alpha) and, at the oracle's orders, reg.  :func:`code_texts`
joins a whole batch's texts straight from its runs in a few C-level byte
operations (a batch with a two-digit level texts each code instead), and
the sweep's :func:`kernel` folds each key from its run's first rooted
subtree, summarized once per run, and its forest's state, one cache holding
each distinct subtree and forest once per sweep; at the oracle's orders the
forest DP's reg of the level sequence is appended to it.  Each distinct
tail, with its violations and the names of the bounds it meets, is built
once per sweep from an :class:`InvariantRecord` of the key, which derives
its bounds and flags itself, by ``csv_row`` and :func:`verify_record`, so
the row format and the inequalities each stay in one place.  The format
picks only the line: a JSONL line, which carries witnesses, is the
:func:`record_for_code` record, and at the oracle's orders the key takes
its reg from that record.  The kernel and the tails belong to the process
that verifies batches, the sweep or each worker after it forks, and are
freed with it, so nothing is cleared between runs or outlives one.  A
worker is a plain ``os.fork`` with one ``os.pipe``, onto which it pickles
its results, since a pickle frames itself; ``pickle`` and ``signal`` are
imported only when a sweep starts workers.
"""

from __future__ import annotations

import json
import os
import time
import zlib
from dataclasses import dataclass, fields
from itertools import chain, combinations, cycle, islice
from pathlib import Path
from typing import BinaryIO, Callable, Iterator, Optional, get_origin, get_type_hints

from .bounds import (
    CSV_HEADER,
    InvariantRecord,
    Violation,
    kernel,
    record_for_code,
    verify_record,
)
from .homology import FOREST_BETTI_ORDER_CAP, forest_betti_table
from .trees import (
    Run,
    code_batches,
    code_text,
    code_texts,
    count_trees,
    forest_runs,
    max_order_cap,
)

MIN_ORDER = 1
# The fewest codes in a batch of whole first-block runs: the unit of durable
# commit (outputs fsynced, checkpoint replaced), one worker's result and the
# unit of `enumerate`'s writes, so its fixed cost is paid once per batch.
# Larger batches save little more time, and their transient rows (about
# 250 B a tree) raise the peak resident set (BENCH_batch.json).  The size
# never changes output bytes.
CHECKPOINT_EVERY = 4096


def _max_jobs() -> int:
    """The largest ``--jobs`` a sweep accepts: the CPUs this process may
    run on (its affinity mask where the platform has one), but never below
    2, so a ``--jobs 2`` run works on any host."""
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count() or 1
    return max(2, usable)


@dataclass
class SweepConfig:
    """One sweep over every tree of orders 1..max_order.

    ``fmt`` picks CSV rows or JSONL records for ``out_csv``; the violations
    file and the tightness summary are written only when their paths are set.
    """

    max_order: int
    out_csv: Path
    fmt: str = "csv"
    violations_out: Optional[Path] = None
    summary_out: Optional[Path] = None
    oracle_up_to: int = 0
    checkpoint: Optional[Path] = None
    jobs: int = 1

    def validate(self) -> None:
        cap = max_order_cap()
        if not MIN_ORDER <= self.max_order <= cap:
            raise ValueError(f"--max-order must be in {MIN_ORDER}..{cap}")
        if self.fmt not in ("csv", "jsonl"):
            raise ValueError(f"--format must be csv or jsonl, got {self.fmt}")
        if not 0 <= self.oracle_up_to <= FOREST_BETTI_ORDER_CAP:
            raise ValueError(f"--oracle-up-to must be in 0..{FOREST_BETTI_ORDER_CAP}")
        # checked before any worker forks
        limit = _max_jobs()
        if not 1 <= self.jobs <= limit:
            raise ValueError(
                f"--jobs must be in 1..{limit}, the usable CPU count (at least 2)"
            )
        # two handles on one file would interleave their bytes, and a
        # checkpoint's atomic replace would swap out an output still open
        paths = {
            "--out": self.out_csv,
            "--violations": self.violations_out,
            "--checkpoint": self.checkpoint,
            "summary_out": self.summary_out,
        }
        if self.checkpoint is not None:
            paths["--checkpoint's temporary file"] = _Checkpoint.temporary(
                self.checkpoint)
        named = [(name, p.resolve()) for name, p in paths.items() if p is not None]
        for (name, path), (other, other_path) in combinations(named, 2):
            if path == other_path:
                raise ValueError(f"{name} and {other} must name different files")
        # a resume restores neither the tightness buckets nor the format
        if self.checkpoint is not None and self.summary_out is not None:
            raise ValueError("checkpoint cannot be combined with summary_out")
        # the summary is counted in process, where no worker's batch reaches
        if self.jobs > 1 and self.summary_out is not None:
            raise ValueError("jobs > 1 cannot be combined with summary_out")
        if self.checkpoint is not None and self.fmt != "csv":
            raise ValueError(f"checkpoint cannot be combined with fmt={self.fmt!r}")

    def params(self) -> dict:
        return {
            "max_order": self.max_order,
            "oracle_up_to": self.oracle_up_to,
            "out_csv": str(self.out_csv),
            "violations_out": str(self.violations_out),
        }


@dataclass
class _Checkpoint:
    params: dict
    status: str = "running"  # for readers; the sweep never reads it
    last_code: str = ""
    csv_bytes: int = 0
    csv_crc: int = 0  # zlib.crc32 of the first csv_bytes bytes
    records: int = 0  # the sweep's place: the trees it has written
    violations_bytes: int = 0
    violations_crc: int = 0
    violation_count: int = 0
    elapsed: float = 0.0
    version: int = 4  # the layout this sweep writes, and the only one it resumes

    @staticmethod
    def temporary(path: Path) -> Path:
        """The file :meth:`dump` writes before it replaces ``path`` with it."""
        return path.with_suffix(path.suffix + ".tmp")

    def dump(self, path: Path) -> None:
        tmp = self.temporary(path)
        with open(tmp, "w", encoding="utf-8") as f:
            f.write(json.dumps(self.__dict__, indent=1, sort_keys=True))
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)

    @classmethod
    def resume(
        cls, cfg: SweepConfig
    ) -> tuple["_Checkpoint", dict[Path, int], Iterator[Run]]:
        """The checkpoint ``cfg`` resumes, each output path's offset in it,
        and the runs of every tree after its ``records`` trees, through
        ``cfg.max_order``, enumerated over one set of forest tables.

        Without a checkpoint file that is the empty checkpoint, whose
        offsets are all 0.  A loaded one is refused (``ValueError``) before
        any output is touched unless it is a well-formed checkpoint of this
        version with this run's parameters, each file it counts holds its
        offset's bytes with their CRC-32, and the enumeration's tree number
        ``records`` is its last code.  Whole orders before that tree are
        skipped by their :func:`count_trees`, and only its own order is
        walked.  Last, a checkpoint path is refused unless its temporary
        file can be made; the file is removed again, with any a killed dump
        left there.
        """
        path = cfg.checkpoint
        paths = [p for p in (cfg.out_csv, cfg.violations_out, cfg.summary_out) if p]
        tables: dict = {}
        order = MIN_ORDER
        if path is None or not path.exists():
            ck, sizes = cls(cfg.params()), dict.fromkeys(paths, 0)
            runs = forest_runs(order, tables)
        else:

            def refused(text: str, it: str = "it") -> ValueError:
                return ValueError(f"checkpoint {path} {text}; delete {it} to start over")

            try:
                data = json.loads(path.read_text(encoding="utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise refused(f"is not valid JSON: {exc}") from None
            except OSError as exc:
                raise ValueError(f"checkpoint {path} cannot be read: {exc}") from None
            if not isinstance(data, dict):
                raise ValueError(
                    f"checkpoint {path} must hold a JSON object, not {type(data).__name__}"
                )
            if data.get("version") != cls.version:
                raise refused(
                    f"has version {data.get('version')}, but this sweep resumes "
                    f"only version {cls.version}"
                )
            keys = {f.name for f in fields(cls)}
            missing, unexpected = sorted(keys - data.keys()), sorted(data.keys() - keys)
            if missing or unexpected:
                raise refused(
                    f"is malformed (missing keys: {missing}, unexpected keys: {unexpected})"
                )
            run = cfg.params()
            for key, hint in get_type_hints(cls).items():
                expected = get_origin(hint) or hint
                value = data[key]
                # an int stands for a float, as in JSON; a bool is no int here
                ok = isinstance(value, (int, float) if expected is float else expected)
                if not ok or isinstance(value, bool):
                    raise refused(
                        f"is malformed (key {key!r} must be {expected.__name__}, "
                        f"found {type(value).__name__})"
                    )
                if key == "params" and value != run:
                    differ = "; ".join(
                        f"{k}: {value.get(k)} in the checkpoint, {run.get(k)} in this run"
                        for k in sorted(value.keys() | run.keys())
                        if value.get(k) != run.get(k)
                    )
                    raise ValueError(
                        "checkpoint parameters do not match this run; "
                        f"refusing to resume ({differ})"
                    )
                # counts, offsets and time are >= 0, and a sweep dumps only
                # after a batch, so it has written at least one record
                low = 1 if key == "records" else 0
                if expected in (int, float) and key != "version" and value < low:
                    raise refused(f"is malformed (key {key!r} is {value}, must be >= {low})")
            ck = cls(**data)
            # validate() keeps summary_out out of a checkpointed run
            sizes = dict(zip(paths, (ck.csv_bytes, ck.violations_bytes)))
            for (out, size), crc in zip(sizes.items(), (ck.csv_crc, ck.violations_crc)):
                read, found = 0, 0
                try:
                    with open(out, "rb") as f:
                        while read < size and (chunk := f.read(min(size - read, 1 << 20))):
                            read, found = read + len(chunk), zlib.crc32(chunk, found)
                except FileNotFoundError:
                    read = None
                except OSError as exc:
                    raise ValueError(f"output path {out} cannot be read: {exc}") from None
                if read is None or read < size:
                    has = "is missing" if read is None else f"has only {read}"
                    raise refused(f"expects {size} bytes in {out}, which {has}", "the checkpoint")
                if found != crc:
                    raise refused(
                        f"expects CRC-32 {crc:08x} of the first {size} bytes of {out}, "
                        f"which have {found:08x}",
                        "the checkpoint",
                    )
            # skip the orders before the last code by count, then walk its
            # order's runs to it; a count past the sweep's end finds none
            index = ck.records - 1
            while order < cfg.max_order and index >= count_trees(order):
                index -= count_trees(order)
                order += 1
            runs, i, there = forest_runs(order, tables), index, None
            for head, forests in runs:
                if i < len(forests):
                    there = code_text(head + forests[i])
                    if i + 1 < len(forests):
                        runs = chain([(head, forests[i + 1 :])], runs)
                    break
                i -= len(forests)
            if there != ck.last_code:
                raise refused(
                    f"names code {ck.last_code!r} at order {order} index {index}, "
                    f"but the enumeration has {there!r} there",
                    "the checkpoint",
                )
        if path is not None:
            tmp = cls.temporary(path)
            try:
                open(tmp, "ab").close()
                tmp.unlink()
            except OSError as exc:
                raise ValueError(f"--checkpoint {path} is not writable: {exc}") from None
        later = (forest_runs(n, tables) for n in range(order + 1, cfg.max_order + 1))
        return ck, sizes, chain(runs, *later)


_TIGHT_KEYS = ("lb_tight", "ub_tight", "wub_tight")


def _tight_bucket() -> dict:
    """An order's summary: its trees, and the count and codes of each bound's
    tight trees."""
    bucket: dict = {"trees": 0, **dict.fromkeys(_TIGHT_KEYS, 0)}
    return bucket | {key + "_codes": [] for key in _TIGHT_KEYS}


# A CSV row after its code, the row's violations as (check, detail) pairs,
# and the names in _TIGHT_KEYS of the bounds it meets.
_Tail = tuple[str, list[tuple[str, str]], tuple[str, ...]]


def _row_tail(key: tuple) -> _Tail:
    reg = key[5] if len(key) > 5 else None
    record = InvariantRecord("", *key[:5], reg, (), ())
    checks = [(v.check, v.detail) for v in verify_record(record)]
    return record.csv_row(), checks, tuple(k for k in _TIGHT_KEYS if getattr(record, k))


def _jsonl(v: Violation) -> str:
    return json.dumps(v.to_json_dict(), sort_keys=True) + "\n"


def _verify_batch(
    runs: list[Run], oracle_up_to: int, fmt: str, kernel: Callable[..., list[tuple]],
    tails: dict[tuple, _Tail], summary: Optional[dict] = None,
) -> tuple[int, str, bytes, bytes]:
    """One batch of runs to its tree count, its last code's text, its
    output lines and its violations' JSONL lines, each joined, each line
    ending in a newline; in process, each tree is also counted in
    ``summary``.

    ``kernel`` is the sweep's fold and ``tails`` its row tails, which the
    process that verifies the sweep's batches makes once, so no sweep
    reuses what another's :func:`verify_record` found.  A run is one order,
    so the oracle is decided once per run.  Every tree takes one path: its
    ``kernel`` key, with the forest DP's reg appended at the oracle's
    orders, picks its tail in ``tails``, made once per key, and its
    violations and the bounds it meets come from that tail.
    ``fmt`` picks only the line: the code text plus the tail for CSV, or
    for JSONL the :func:`record_for_code` record, which carries witnesses
    and, at the oracle's orders, the key's reg, so the DP runs once a tree.
    A code, ``head + forest``, is built only for the oracle and for JSONL.
    """
    jsonl = fmt == "jsonl"
    lines: list[str] = []
    violations: list[str] = []
    # zip takes each forest before its text, so a run's zip stops at its end
    texts = iter(code_texts(runs))
    for head, forests in runs:
        n = len(head) + len(forests[0])
        oracle = n <= oracle_up_to
        bucket = None
        if summary is not None:
            bucket = summary["orders"].setdefault(str(n), _tight_bucket())
            bucket["trees"] += len(forests)
        for forest, code, key in zip(forests, texts, kernel(head, forests)):
            if jsonl:
                record = record_for_code(head + forest, oracle)
                if oracle:
                    key += (record.reg,)
            elif oracle:
                key += (forest_betti_table((head + forest,)).regularity(),)
            # inline: behind one bounds function, a call per tree, the
            # lookup gained nothing (_verify_batch over orders 2-16, median
            # of 10 alternating runs in one process, 2-vCPU Xeon: 2.53 ->
            # 2.77 us per tree, and 4.08 -> 4.21)
            tail = tails.get(key)
            if tail is None:
                tail = tails[key] = _row_tail(key)
            row, checks, tight = tail
            lines.append(record.to_jsonl() if jsonl else code + row)
            for check, detail in checks:
                violations.append(_jsonl(Violation(code, check, detail)))
            if bucket is not None:
                for name in tight:
                    bucket[name] += 1
                    bucket[name + "_codes"].append(code)
    # one line a tree, and ``code`` is the batch's last
    trees = len(lines)
    lines.append("")
    return trees, code, "\n".join(lines).encode(), "".join(violations).encode()


def _serve(w: int, parents: list[int], batches: Iterator[list[Run]], cfg: SweepConfig) -> None:
    """A worker: each of its ``batches`` is pickled onto the pipe's write
    end ``w`` as its :func:`_verify_batch` result, in order, then ``None``;
    a batch that raises goes as its exception instead, and ends the worker.
    It first closes its copies of the parent's read ends, ``parents``, so
    that a write fails once the parent is gone, and it then exits quietly.
    It makes its own kernel and row tails, so the parent makes none."""
    import pickle  # loaded by the parent before it forked

    for fd in parents:
        os.close(fd)
    fold, tails = kernel(), {}
    try:
        with open(w, "wb") as out:
            try:
                for batch in batches:
                    pickle.dump(_verify_batch(batch, cfg.oracle_up_to, cfg.fmt, fold, tails), out)
                    out.flush()
                result = None
            except Exception as exc:  # the parent raises it
                result = exc
            pickle.dump(result, out)
    except OSError:
        pass  # the parent is gone


def _start_workers(cfg: SweepConfig, workers: list, batches: Iterator[list[Run]]) -> None:
    """Fork ``cfg.jobs`` workers into ``workers``, each as its pid and the
    read end of its own one-way pipe, opened as a file.  Worker ``k``
    inherits ``batches`` where the resume left it, walks it over its own
    copy of the forest tables and serves batch ``k`` and every
    ``cfg.jobs``-th one after it (:func:`_serve`), so the parent sends
    nothing.  They share no lock or queue, so killing one, mid-write or
    not, leaves nothing another waits on.  A worker leaves only by
    ``os._exit``, so it never unwinds into its parent's frames, which would
    flush the parent's buffered output a second time and kill the other
    workers."""
    import pickle  # only workers need it; imported once, before any fork

    for k in range(cfg.jobs):
        r, w = os.pipe()
        share = islice(batches, k, None, cfg.jobs)
        try:
            pid = os.fork()
        except OSError:
            os.close(r)
            os.close(w)
            raise
        if pid == 0:
            try:
                _serve(w, [reader.fileno() for _, reader in workers] + [r], share, cfg)
            finally:
                os._exit(0)
        workers.append((pid, open(r, "rb")))
        os.close(w)


def _received(reader: BinaryIO) -> Optional[tuple]:
    """A worker's next result, or its ``None`` past its last batch, raised
    if it is an exception.  A worker that died, before or in the middle of
    a result, leaves the pipe at its end or a truncated pickle there."""
    import pickle

    try:
        result = pickle.load(reader)
    except (EOFError, pickle.UnpicklingError):
        raise ChildProcessError("a --jobs worker exited before returning its batch") from None
    if isinstance(result, Exception):
        raise result
    return result


def _results(
    cfg: SweepConfig, workers: list, batches: Iterator[list[Run]], summary: Optional[dict]
) -> Iterator[tuple[int, str, bytes, bytes]]:
    """Each batch's :func:`_verify_batch` result, in batch order.

    In process without workers, over one kernel and row tails made here,
    and only then counted into ``summary``.  With them, batch ``i`` is
    read from worker ``i % len(workers)`` until one sends ``None``.  A
    worker sends its own batches in order and nothing else, so the one
    read from always has its next result coming, and the others carry on
    meanwhile, each to one result ahead.
    """
    if not workers:
        fold, tails = kernel(), {}
        for batch in batches:
            yield _verify_batch(batch, cfg.oracle_up_to, cfg.fmt, fold, tails, summary)
        return
    for _, reader in cycle(workers):
        result = _received(reader)
        if result is None:
            return
        yield result


def _open_outputs(sizes: dict[Path, int]) -> list:
    """Each output file opened to append and cut back to its size in
    ``sizes``.  Every file is opened before any is cut, so when one cannot
    be opened the others keep their bytes and none is left newly made."""
    files, made = [], []
    try:
        for path in sizes:
            existed = path.exists()
            files.append(open(path, "ab"))
            if not existed:
                made.append(path)
    except OSError as exc:
        for f in files:
            f.close()
        for made_path in made:
            made_path.unlink()
        raise ValueError(f"output path {path} is not writable: {exc}") from exc
    for f, size in zip(files, sizes.values()):
        f.seek(size)
        f.truncate()
    return files


def run_verify(cfg: SweepConfig) -> tuple[_Checkpoint, Optional[dict]]:
    """Stream all trees of orders 1..max_order through the bound checks.

    Returns the run's final checkpoint state (records, violations, elapsed)
    and, when ``cfg.summary_out`` is set, the per-order tightness summary
    written there: tree counts and the codes attaining each bound exactly.
    """
    cfg.validate()
    started = time.monotonic()
    # a fresh run resumes the empty checkpoint; the resumed order's runs
    # are enumerated once, to check the checkpoint and to cut its batches,
    # and every order's over one set of tables, which goes with the stream
    # (into each --jobs worker, as its own copy)
    ck, sizes, runs = _Checkpoint.resume(cfg)
    files = _open_outputs(sizes)
    out = files[0]
    if cfg.fmt == "csv" and not ck.csv_bytes:
        header = (CSV_HEADER + "\n").encode()
        out.write(header)
        ck.csv_crc = zlib.crc32(header)
    vio = files[1] if cfg.violations_out is not None else None
    base_elapsed = ck.elapsed
    summary = {"total": 0, "orders": {}} if cfg.summary_out is not None else None

    workers: list = []
    try:
        batches = code_batches(runs, CHECKPOINT_EVERY)
        if cfg.jobs > 1:
            _start_workers(cfg, workers, batches)
        for records, last_code, text, violations in _results(cfg, workers, batches, summary):
            out.write(text)
            out.flush()
            ck.csv_crc = zlib.crc32(text, ck.csv_crc)
            ck.records += records
            ck.violation_count += violations.count(b"\n")
            grew = vio is not None and violations
            if grew:
                vio.write(violations)
                vio.flush()
                ck.violations_bytes = vio.tell()
                ck.violations_crc = zlib.crc32(violations, ck.violations_crc)
            ck.last_code = last_code
            ck.csv_bytes = out.tell()
            ck.elapsed = base_elapsed + (time.monotonic() - started)
            if cfg.checkpoint is not None:
                # the outputs must be on disk before the offsets that name them
                os.fsync(out.fileno())
                if grew:
                    os.fsync(vio.fileno())
                ck.dump(cfg.checkpoint)
        if summary is not None:
            summary["total"] = ck.records
            # the summary's file is the last one opened
            files[-1].write(json.dumps(summary, indent=1, sort_keys=True).encode())
    finally:
        for f in files:
            f.close()
        # a worker holds nothing the run still needs, at the end or after an
        # error, so none is waited for: each is killed, then reaped
        if workers:
            import signal  # like pickle, loaded only by a run with workers
        for pid, reader in workers:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            reader.close()

    ck.status = "complete"
    ck.elapsed = base_elapsed + (time.monotonic() - started)
    if cfg.checkpoint is not None:
        ck.dump(cfg.checkpoint)
    return ck, summary
