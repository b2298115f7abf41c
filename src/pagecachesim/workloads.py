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
import random
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
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


class ZipfianSampler:
    """Sample ranks 0..keyspace-1 with probability proportional to
    1/(rank+1)**theta. theta=0 degenerates to the uniform distribution."""

    def __init__(self, keyspace: int, theta: float = 0.99):
        _check_zipfian(keyspace, theta)
        self.keyspace = keyspace
        self.theta = theta
        cumulative = []
        total = 0.0
        for rank in range(1, keyspace + 1):
            total += 1.0 / rank ** theta
            cumulative.append(total)
        self._cumulative = cumulative
        self._total = total

    def sample(self, rng: random.Random) -> int:
        u = rng.random() * self._total
        return bisect_right(self._cumulative, u)

    def probability(self, rank: int) -> float:
        """Exact sampling probability of rank (0-based)."""
        weight = 1.0 / (rank + 1) ** self.theta
        return weight / self._total


def _check_keyspace(keyspace: int) -> None:
    """Raise ValueError for a keyspace below 1, TypeError for one that is
    not an integer."""
    if keyspace < 1:
        raise ValueError("keyspace must be >= 1")
    range(keyspace)  # a non-integer keyspace raises TypeError here


def _check_zipfian(keyspace: int, theta: float) -> None:
    """Raise what building a ZipfianSampler would raise for these
    parameters, without building its table."""
    _check_keyspace(keyspace)
    if theta < 0:
        raise ValueError("theta must be >= 0")


YCSB_VARIANTS = ("A", "C", "Uniform", "UniformRW")


def gen_ycsb(variant: str, keyspace: int, value_size: int,
             count: int, seed: int, cgroup: int = 0,
             thread: int = 0,
             keys_per_file: int = DEFAULT_KEYS_PER_FILE,
             theta: float = 0.99) -> Iterator[TraceEvent]:
    """Key-value benchmark stream over a flat keyspace.

    Variants: A = 50% read / 50% update with Zipfian keys, C = read-only
    Zipfian, Uniform = read-only uniform, UniformRW = 50/50 uniform.
    Updates are in-place page writes.

    Parameters, ``keyspace`` for every variant, are checked here, so
    ``ScenarioConfig.validate`` reports them. The Zipfian table is built
    on the first read, so a stream that is never read costs nothing. Each
    key is drawn in the generator's own frame with the same ``rng`` call
    as ``ZipfianSampler.sample``, and slotted as ``DEFAULT_KEYS_PER_FILE``
    describes.
    """
    if variant not in YCSB_VARIANTS:
        raise ValueError("unknown YCSB variant %r (expected one of %s)"
                         % (variant, ", ".join(YCSB_VARIANTS)))
    if count < 1:
        raise ValueError("count must be >= 1")
    zipfian = variant in ("A", "C")
    writes = variant in ("A", "UniformRW")
    if zipfian:
        _check_zipfian(keyspace, theta)
    else:
        _check_keyspace(keyspace)

    def events():
        rng = random.Random(seed)
        rand = rng.random
        if zipfian:
            sampler = ZipfianSampler(keyspace, theta)
            cumulative, total = sampler._cumulative, sampler._total
        read, write = Op.READ, Op.WRITE
        for seq in range(count):
            if zipfian:
                key = bisect_right(cumulative, rand() * total)
            else:
                key = rng.randrange(keyspace)
            op = write if writes and rand() < 0.5 else read
            file, slot = divmod(key, keys_per_file)
            yield TraceEvent(seq, op, cgroup, file, slot * value_size,
                             value_size, thread)

    return events()


def gen_filesearch(corpus_files: int, file_pages: int, passes: int,
                   threads: int = 1, seed: int = 0,
                   cgroup: int = 0) -> Iterator[TraceEvent]:
    """Repeated full scans of a corpus: each pass reads every page of every
    file in a fixed order, with thread ids round-robined across files."""
    if passes < 1:
        raise ValueError("passes must be >= 1")
    if corpus_files < 1 or file_pages < 1:
        raise ValueError("corpus must contain at least one page")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    del seed  # scans are deterministic; kept for interface uniformity

    def events():
        seq = 0
        for _ in range(passes):
            for file in range(corpus_files):
                thread = file % threads
                for page in range(file_pages):
                    yield TraceEvent(seq, Op.READ, cgroup, file,
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
    a whole number of scan slots.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if abs(get_fraction + scan_fraction - 1.0) > 1e-9:
        raise ValueError("get_fraction and scan_fraction must sum to 1")
    if scan_len_pages < 1:
        raise ValueError("scan_len_pages must be >= 1")
    if not set(get_threads).isdisjoint(scan_threads):
        raise ValueError("get_threads and scan_threads must be disjoint")
    if scan_region_pages is None:
        scan_region_pages = 4 * scan_len_pages
    slots = max(2, -(-scan_region_pages // scan_len_pages))
    _check_zipfian(get_keyspace, theta)
    get_threads = tuple(get_threads)
    scan_threads = tuple(scan_threads)
    scan_file = get_keyspace // keys_per_file + 1

    def events():
        rng = random.Random(seed)
        rand, choice = rng.random, rng.choice
        # Gets are drawn as in gen_ycsb, from a table built on first read.
        sampler = ZipfianSampler(get_keyspace, theta)
        cumulative, total = sampler._cumulative, sampler._total
        slot = 0
        for seq in range(count):
            if rand() < scan_fraction:
                offset = slot * scan_len_pages * PAGE_SIZE
                slot = (slot + 1) % slots
                yield TraceEvent(seq, Op.SCAN, cgroup, scan_file, offset,
                                 scan_len_pages * PAGE_SIZE,
                                 choice(scan_threads))
            else:
                file, key_slot = divmod(
                    bisect_right(cumulative, rand() * total), keys_per_file)
                yield TraceEvent(seq, Op.GET, cgroup, file,
                                 key_slot * value_size, value_size,
                                 choice(get_threads))

    return events()


TRACE_HEADER = ("seq", "op", "file", "offset", "len", "thread", "cgroup")

#: Trace fields that name an entity or a position and so cannot be negative.
_NON_NEGATIVE = ("file", "offset", "thread", "cgroup")


def _check_row(lineno: int, row: list) -> TraceEvent | None:
    """Parse one trace row step by step: field count, op (case and
    surrounding whitespace ignored), integers in header order, signs, then
    ``len``. Raises TraceFormatError at the first step a row fails;
    returns None for an empty row."""
    if not row:
        return None
    if len(row) != len(TRACE_HEADER):
        raise TraceFormatError("line %d: expected %d fields, got %d"
                               % (lineno, len(TRACE_HEADER), len(row)))
    op = _OPS_BY_NAME.get(row[1].strip().lower())
    if op is None:
        raise TraceFormatError("line %d: field op: unknown op %r"
                               % (lineno, row[1]))
    values = {}
    for field, raw in zip(TRACE_HEADER, row):
        if field == "op":
            continue
        try:
            values[field] = int(raw)
        except ValueError:
            raise TraceFormatError("line %d: field %s: not an integer: %r"
                                   % (lineno, field, raw)) from None
    for field in _NON_NEGATIVE:
        if values[field] < 0:
            raise TraceFormatError("line %d: field %s: must be >= 0, got %d"
                                   % (lineno, field, values[field]))
    if op is not Op.DELETE and values["len"] < 1:
        raise TraceFormatError(
            "line %d: field len: must be >= 1 for access ops" % lineno)
    return TraceEvent(values["seq"], op, values["cgroup"], values["file"],
                      values["offset"], values["len"], values["thread"])


def parse_trace(path) -> Iterator[TraceEvent]:
    """Stream events from a trace CSV, in constant memory. Raises
    TraceFormatError naming the offending line and field on malformed
    input. The header is checked eagerly; the stream reopens the file when
    first read, so a stream that is never read holds no open file.

    Each row is parsed in one pass: unpack the seven fields, look the op
    up by its exact name, convert the integers, and run one combined check
    of the signs and of ``len``. A row that fails any of these steps, or
    spells its op in another case or with spaces around it, is handed to
    ``_check_row``, which either parses it or raises the error the row
    reports first."""
    with open(path, newline="") as fh:
        header = next(csv.reader([fh.readline()]), None)
    if header is None or tuple(h.strip() for h in header) != TRACE_HEADER:
        raise TraceFormatError(
            "line 1: expected header %s" % ",".join(TRACE_HEADER))

    def events():
        ops, delete = _OPS_BY_NAME, Op.DELETE
        with open(path, newline="") as fh:
            fh.readline()
            for lineno, row in enumerate(csv.reader(fh), start=2):
                try:
                    seq, op, file, offset, length, thread, cgroup = row
                    op = ops[op]
                    seq = int(seq)
                    file = int(file)
                    offset = int(offset)
                    length = int(length)
                    thread = int(thread)
                    cgroup = int(cgroup)
                except (ValueError, KeyError):
                    pass
                else:
                    if ((file | offset | thread | cgroup) >= 0
                            and (length >= 1 or op is delete)):
                        yield TraceEvent(seq, op, cgroup, file, offset,
                                         length, thread)
                        continue
                ev = _check_row(lineno, row)
                if ev is not None:
                    yield ev

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
