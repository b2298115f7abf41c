"""Deterministic workload generators and the external trace format.

All generators are pure functions of their parameters and seed: the same
arguments always yield the byte-identical event sequence, on any platform.
They return single-use iterators, so build a fresh one per replay.

Traces can also be loaded from CSV (see ``parse_trace``); the schema is
``seq,op,file,offset,len,thread,cgroup`` with ops get/scan/read/write/delete
and all other fields base-10 integers. An access event covers the page range
floor(offset/4096) ..= floor((offset+len-1)/4096) at replay.
"""

from __future__ import annotations

import csv
import os
import random
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterable, Iterator

PAGE_SIZE = 4096

#: Default record size; about four keys per page, so key skew shows up as
#: page skew.
DEFAULT_VALUE_SIZE = 1024

#: Fixed-width key slotting: file = key // keys_per_file,
#: offset = (key % keys_per_file) * value_size.
DEFAULT_KEYS_PER_FILE = 4096


class Op(Enum):
    GET = "get"
    SCAN = "scan"
    READ = "read"
    WRITE = "write"
    DELETE = "delete"


_OPS_BY_NAME = {op.value: op for op in Op}


@dataclass(slots=True)
class TraceEvent:
    seq: int
    op: Op
    cgroup: int
    file: int
    offset_bytes: int
    len_bytes: int
    thread: int

    def page_range(self) -> range:
        first = self.offset_bytes // PAGE_SIZE
        last = (self.offset_bytes + self.len_bytes - 1) // PAGE_SIZE
        return range(first, last + 1)


class TraceFormatError(ValueError):
    """A trace file line could not be parsed."""


def need_int(name: str, value, minimum: int | None = 1) -> int:
    """Return ``value`` if it is an int (a bool is not) of at least
    ``minimum`` (any int if None); otherwise raise TypeError or ValueError
    naming ``name``."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError("%s must be an int, got %r" % (name, value))
    if minimum is not None and value < minimum:
        raise ValueError("%s must be >= %d" % (name, minimum))
    return value


def need_real(name: str, value):
    """Return ``value`` if it is an int or a float (a bool is not);
    otherwise raise TypeError naming ``name``. The caller checks the range."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise TypeError("%s must be a number, got %r" % (name, value))
    return value


def thread_ids(name: str, value) -> tuple:
    """One thread id, or an iterable of them, as a tuple of ints >= 0."""
    ids = value if isinstance(value, Iterable) else (value,)
    return tuple(need_int(name, tid, 0) for tid in ids)


def _check_zipfian(keyspace: int, theta: float, name="keyspace") -> None:
    """Raise what ``zipf_cdf`` would raise for these parameters, without
    building its table."""
    need_int(name, keyspace)
    if not need_real("theta", theta) >= 0:  # NaN too
        raise ValueError("theta must be >= 0")


def zipf_cdf(keyspace: int, theta: float = 0.99) -> list:
    """Cumulative weights of ranks 0..keyspace-1, rank r weighing
    1/(r+1)**theta; theta=0 is the uniform distribution. A rank is drawn as
    ``bisect_right(cdf, rng.random() * cdf[-1])``."""
    _check_zipfian(keyspace, theta)
    cdf = []
    total = 0.0
    for rank in range(1, keyspace + 1):
        total += 1.0 / rank ** theta
        cdf.append(total)
    return cdf


@lru_cache(maxsize=1, typed=True)
def _zipf_table(keyspace: int, theta: float) -> list:
    """``zipf_cdf(keyspace, theta)``, kept for the most recent pair only,
    so the repeated runs of one workload build it once per process. Every
    reader shares the list and must not change it.

    The kept table stays resident after its streams end, about 32 bytes
    per key. A stream with a new pair builds its table while the old one
    is still kept, so for that moment the process holds both."""
    return zipf_cdf(keyspace, theta)


YCSB_VARIANTS = ("A", "C", "Uniform", "UniformRW")


def gen_ycsb(variant: str, keyspace: int, count: int, seed: int,
             value_size: int = DEFAULT_VALUE_SIZE, cgroup: int = 0,
             thread: int = 0,
             keys_per_file: int = DEFAULT_KEYS_PER_FILE,
             theta: float = 0.99) -> Iterator[TraceEvent]:
    """Key-value benchmark stream over a flat keyspace.

    Variants: A = 50% read / 50% update with Zipfian keys, C = read-only
    Zipfian, Uniform = read-only uniform, UniformRW = 50/50 uniform.
    Updates are in-place page writes.

    Every parameter but ``seed`` is checked here, ``theta`` for every
    variant, so ``ScenarioConfig.validate`` reports them. The Zipfian table
    is built on the first read, so a stream that is never read costs
    nothing, and once per (keyspace, theta) per process: only the most
    recent table is kept, and streams that follow with the same pair reuse
    it. Each key is drawn in the generator's own frame from the
    ``zipf_cdf`` table, and slotted as ``DEFAULT_KEYS_PER_FILE`` describes.
    """
    if variant not in YCSB_VARIANTS:
        raise ValueError("unknown YCSB variant %r (expected one of %s)"
                         % (variant, ", ".join(YCSB_VARIANTS)))
    need_int("count", count)
    need_int("value_size", value_size)
    need_int("keys_per_file", keys_per_file)
    need_int("cgroup", cgroup, 0)
    need_int("thread", thread, 0)
    _check_zipfian(keyspace, theta)
    zipfian = variant in ("A", "C")
    writes = variant in ("A", "UniformRW")

    def events():
        rng = random.Random(seed)
        rand = rng.random
        if zipfian:
            cumulative = _zipf_table(keyspace, theta)
            total = cumulative[-1]
        read, write = Op.READ, Op.WRITE
        for seq in range(count):
            if zipfian:
                key = bisect_right(cumulative, rand() * total)
            else:
                key = rng.randrange(keyspace)
            op = write if writes and rand() < 0.5 else read
            yield TraceEvent(seq, op, cgroup, key // keys_per_file,
                             key % keys_per_file * value_size, value_size,
                             thread)

    return events()


def gen_filesearch(corpus_files: int, file_pages: int, passes: int,
                   threads: int = 1, seed: int = 0,
                   cgroup: int = 0) -> Iterator[TraceEvent]:
    """Repeated full scans of a corpus: each pass reads every page of every
    file in a fixed order, with thread ids round-robined across files."""
    need_int("corpus_files", corpus_files)
    need_int("file_pages", file_pages)
    need_int("passes", passes)
    need_int("threads", threads)
    need_int("cgroup", cgroup, 0)
    del seed  # scans are deterministic; kept for interface uniformity

    def events():
        read = Op.READ
        seq = 0
        for _ in range(passes):
            for file in range(corpus_files):
                thread = file % threads
                for page in range(file_pages):
                    yield TraceEvent(seq, read, cgroup, file,
                                     page * PAGE_SIZE, PAGE_SIZE, thread)
                    seq += 1

    return events()


def gen_getscan(count: int, get_keyspace: int,
                get_fraction: float = 0.9995,
                scan_fraction: float = 0.0005,
                scan_len_pages: int = 512,
                scan_region_pages: int | None = None,
                get_threads=(0, 1, 2, 3),
                scan_threads=(100, 101),
                value_size: int = DEFAULT_VALUE_SIZE,
                keys_per_file: int = DEFAULT_KEYS_PER_FILE,
                theta: float = 0.99, seed: int = 0,
                cgroup: int = 0) -> Iterator[TraceEvent]:
    """Point-read traffic with occasional long sequential scans.

    Gets are Zipfian point reads issued from ``get_threads``. Scans are
    ``scan_len_pages``-long sequential reads over a cold region disjoint
    from the get keyspace, issued from ``scan_threads``; scan start
    positions advance through the region so consecutive scans never
    overlap. The region defaults to four scan lengths and is rounded up to
    a whole number of scan slots. Each thread parameter is a thread id or
    a non-empty iterable of them, and the two share no id.
    """
    need_int("count", count)
    need_int("scan_len_pages", scan_len_pages)
    need_int("value_size", value_size)
    need_int("keys_per_file", keys_per_file)
    need_int("cgroup", cgroup, 0)
    need_real("get_fraction", get_fraction)
    need_real("scan_fraction", scan_fraction)
    if not abs(get_fraction + scan_fraction - 1.0) <= 1e-9:  # NaN too
        raise ValueError("get_fraction and scan_fraction must sum to 1")
    get_threads = thread_ids("get_threads", get_threads)
    scan_threads = thread_ids("scan_threads", scan_threads)
    if not get_threads or not scan_threads:
        raise ValueError("get_threads and scan_threads must be non-empty")
    if not set(get_threads).isdisjoint(scan_threads):
        raise ValueError("get_threads and scan_threads must be disjoint")
    if scan_region_pages is None:
        scan_region_pages = 4 * scan_len_pages
    need_int("scan_region_pages", scan_region_pages)
    slots = max(2, -(-scan_region_pages // scan_len_pages))
    _check_zipfian(get_keyspace, theta, "get_keyspace")
    scan_file = get_keyspace // keys_per_file + 1

    def events():
        rng = random.Random(seed)
        rand, choice = rng.random, rng.choice
        # Gets are drawn as in gen_ycsb, from a table built on first read.
        cumulative = _zipf_table(get_keyspace, theta)
        total = cumulative[-1]
        get, scan = Op.GET, Op.SCAN
        slot = 0
        for seq in range(count):
            if rand() < scan_fraction:
                offset = slot * scan_len_pages * PAGE_SIZE
                slot = (slot + 1) % slots
                yield TraceEvent(seq, scan, cgroup, scan_file, offset,
                                 scan_len_pages * PAGE_SIZE,
                                 choice(scan_threads))
            else:
                key = bisect_right(cumulative, rand() * total)
                yield TraceEvent(seq, get, cgroup, key // keys_per_file,
                                 key % keys_per_file * value_size, value_size,
                                 choice(get_threads))

    return events()


TRACE_HEADER = ("seq", "op", "file", "offset", "len", "thread", "cgroup")

#: Trace fields that name an entity or a position and so cannot be negative.
_NON_NEGATIVE = ("file", "offset", "thread", "cgroup")


def _row_error(lineno: int, row: list) -> TraceFormatError:
    """The TraceFormatError of the first check in ``parse_trace``'s order
    that ``row``, a non-empty row that fails one, fails."""
    if len(row) != len(TRACE_HEADER):
        return TraceFormatError("line %d: expected %d fields, got %d"
                                % (lineno, len(TRACE_HEADER), len(row)))
    if row[1].strip().lower() not in _OPS_BY_NAME:
        return TraceFormatError("line %d: field op: unknown op %r"
                                % (lineno, row[1]))
    values = {}
    for field, raw in zip(TRACE_HEADER, row):
        if field == "op":
            continue
        try:
            values[field] = int(raw)
        except ValueError:
            return TraceFormatError("line %d: field %s: not an integer: %r"
                                    % (lineno, field, raw))
    for field in _NON_NEGATIVE:
        if values[field] < 0:
            return TraceFormatError("line %d: field %s: must be >= 0, got %d"
                                    % (lineno, field, values[field]))
    return TraceFormatError(
        "line %d: field len: must be >= 1 for access ops" % lineno)


def parse_trace(path) -> Iterator[TraceEvent]:
    """Stream events from a trace CSV, in constant memory. Raises
    TraceFormatError naming the offending line and field on malformed
    input. The header is checked eagerly; the stream reopens the file when
    first read, so a stream that is never read holds no open file. The
    file is read as UTF-8, with or without a byte-order mark. Empty rows
    are skipped.

    Each row is read in one pass, whose checks run in this order: the
    field count; the op, by its exact name and then with case and
    surrounding whitespace ignored; the six integers in header order; and
    one combined test of the non-negative fields (file, offset, thread,
    cgroup, reported in that order) and of ``len``, which must be at
    least 1 for every op but delete. The first check a row fails is the
    one its error names. ``path`` is a path, never a file descriptor."""
    if not isinstance(path, (str, bytes, os.PathLike)):
        raise TypeError("path must be a str or os.PathLike, got %r" % (path,))
    with open(path, newline="", encoding="utf-8-sig") as fh:
        header = next(csv.reader([fh.readline()]), None)
    if header is None or tuple(h.strip() for h in header) != TRACE_HEADER:
        raise TraceFormatError(
            "line 1: expected header %s" % ",".join(TRACE_HEADER))

    def events():
        ops, delete = _OPS_BY_NAME, Op.DELETE
        with open(path, newline="", encoding="utf-8-sig") as fh:
            fh.readline()
            for lineno, row in enumerate(csv.reader(fh), start=2):
                try:
                    seq, op, file, offset, length, thread, cgroup = row
                    op = ops.get(op) or ops[op.strip().lower()]
                    seq = int(seq)
                    file = int(file)
                    offset = int(offset)
                    length = int(length)
                    thread = int(thread)
                    cgroup = int(cgroup)
                except (ValueError, KeyError):
                    if not row:
                        continue
                else:
                    if ((file | offset | thread | cgroup) >= 0
                            and (length >= 1 or op is delete)):
                        yield TraceEvent(seq, op, cgroup, file, offset,
                                         length, thread)
                        continue
                raise _row_error(lineno, row)

    return events()


def write_trace(path, events: Iterable[TraceEvent]) -> int:
    """Write events to a trace CSV; returns the number written."""
    count = 0
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_HEADER)
        for ev in events:
            writer.writerow((ev.seq, ev.op.value, ev.file, ev.offset_bytes,
                             ev.len_bytes, ev.thread, ev.cgroup))
            count += 1
    return count
