"""Straight-line reference parser for the trace CSV format.

Every row goes through every check in the documented order, with no fast
path: field count, op (case and surrounding whitespace ignored), the six
integers in header order, the non-negative fields in header order, then
``len >= 1`` for access ops. Differential tests compare ``parse_trace``
with it.
"""

import csv

from pagecachesim import Op

FIELDS = ("seq", "op", "file", "offset", "len", "thread", "cgroup")
OPS = {"get": Op.GET, "scan": Op.SCAN, "read": Op.READ, "write": Op.WRITE,
       "delete": Op.DELETE}


def reference_parse(path):
    """Returns (events, error): the rows parsed before the first bad row
    as (seq, op, cgroup, file, offset, len, thread) tuples, and that row's
    TraceFormatError message, or None if every row parsed."""
    events = []
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) == 0:
            continue
        if len(row) != 7:
            return events, ("line %d: expected 7 fields, got %d"
                            % (lineno, len(row)))
        op = OPS.get(row[1].strip().lower())
        if op is None:
            return events, "line %d: field op: unknown op %r" % (lineno,
                                                                 row[1])
        value = {}
        for index, name in enumerate(FIELDS):
            if name == "op":
                continue
            try:
                value[name] = int(row[index])
            except ValueError:
                return events, ("line %d: field %s: not an integer: %r"
                                % (lineno, name, row[index]))
        for name in ("file", "offset", "thread", "cgroup"):
            if value[name] < 0:
                return events, ("line %d: field %s: must be >= 0, got %d"
                                % (lineno, name, value[name]))
        if op is not Op.DELETE and value["len"] < 1:
            return events, ("line %d: field len: must be >= 1 for access ops"
                            % lineno)
        events.append((value["seq"], op, value["cgroup"], value["file"],
                       value["offset"], value["len"], value["thread"]))
    return events, None
