#!/usr/bin/env python3
"""Line coverage of ``src/pagecachesim`` under its test suite.

Runs pytest in this process, as ``python -m pytest`` would, under a
``sys.settrace`` hook that traces only frames whose code lies in the
package directory, then prints the executable lines that never ran. A
module's executable lines are those its code objects, nested ones
included, map instructions to (``co_lines``). Run it from the repository
root; the arguments after ``--`` go to pytest:

    python3 tools/line_cover.py -- -q -p no:cacheprovider

The package lies at ``src/pagecachesim`` beside the tool's own
``tools/`` directory; ``src`` goes first on ``sys.path``, so the tests
import that copy.
Tracing makes the suite about 7 times slower, so the tool stays outside
the tier-1 run. It imports only the standard library; the pytest it runs
is the one the tests need anyway.

Output: one line per module with never-run lines, as
``<file>: <line>, <first>-<last>, ...``, then a total. Lines listed in
``EXPECTED`` are reported apart and not counted. If pytest failed, its
exit status and the ids of the tests that failed (or could not be
collected) follow, apart from the line result: a test that fails only
under the trace hook, such as a wall-clock budget, shows there and not
as missed lines. Exit status: 0 if pytest passed and every line ran; 1
for lines that never ran, 2 for a failed pytest run, 3 for both.
"""

from __future__ import annotations

import argparse
import os
import runpy
import sys
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "src", "pagecachesim")

#: Lines no in-process test can run, by their stripped source text.
EXPECTED = {
    # cli.py run as a script; tests call main() directly
    "sys.exit(main())",
}


def executable_lines(path: str) -> set:
    """Line numbers of ``path`` that some instruction maps to."""
    with open(path, encoding="utf-8") as fh:
        code = compile(fh.read(), path, "exec")
    lines = set()
    stack = [code]
    while stack:
        co = stack.pop()
        # line 0 is a module's entry, which no trace event reports
        lines.update(line for _, _, line in co.co_lines() if line)
        stack.extend(c for c in co.co_consts if isinstance(c, types.CodeType))
    return lines


def in_package(source: str):
    """A test of a frame's ``co_filename``: whether the file lies in the
    ``source`` directory. It remembers each file name's answer."""
    prefix = os.path.join(source, "")
    inside: dict = {}  # co_filename -> whether it lies in the package

    def test(filename: str) -> bool:
        traced = inside.get(filename)
        if traced is None:
            traced = inside[filename] = os.path.abspath(
                filename).startswith(prefix)
        return traced

    return test


def failure_plugin(failed: list) -> types.ModuleType:
    """A pytest plugin module that appends to ``failed`` the id of each
    test or collector that fails, once each, in report order."""
    # built, not imported, so pytest must not try to rewrite its asserts
    plugin = types.ModuleType("_line_cover_failures", "PYTEST_DONT_REWRITE")

    def record(report):
        if report.failed and report.nodeid not in failed:
            failed.append(report.nodeid)

    plugin.pytest_runtest_logreport = record
    plugin.pytest_collectreport = record
    return plugin


def trace_run(source: str, pytest_args: list) -> tuple:
    """Run pytest under the hook; returns (exit status, {path: lines run},
    ids of the tests that failed)."""
    ran: dict = {}
    failed: list = []
    plugin = failure_plugin(failed)

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    inside = in_package(source)

    def hook(frame, event, arg):
        filename = frame.f_code.co_filename
        if not inside(filename):
            return None
        ran.setdefault(filename, set()).add(frame.f_lineno)
        return local

    argv = sys.argv
    # -p imports the plugin by name, and finds it in sys.modules
    sys.modules[plugin.__name__] = plugin
    sys.argv = ["pytest", "-p", plugin.__name__] + pytest_args
    sys.settrace(hook)
    try:
        runpy.run_module("pytest", run_name="__main__", alter_sys=True)
        status = 0
    except SystemExit as exc:
        status = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.settrace(None)
        sys.argv = argv
        del sys.modules[plugin.__name__]
    by_path: dict = {}
    for filename, lines in ran.items():
        by_path.setdefault(os.path.abspath(filename), set()).update(lines)
    return status, by_path, failed


def spans(lines) -> str:
    """``1, 3-5, 9`` for [1, 3, 4, 5, 9]."""
    out = []
    for line in sorted(lines):
        if out and out[-1][1] == line - 1:
            out[-1][1] = line
        else:
            out.append([line, line])
    return ", ".join(str(a) if a == b else "%d-%d" % (a, b) for a, b in out)


def never_run(source: str, ran: dict) -> tuple:
    """({module file: missed lines}, {module file: expected lines},
    executable line count) over the ``.py`` files of ``source``."""
    missed, expected, total = {}, {}, 0
    for name in sorted(os.listdir(source)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(source, name)
        lines = executable_lines(path)
        total += len(lines)
        left = lines - ran.get(path, set())
        if not left:
            continue
        with open(path, encoding="utf-8") as fh:
            text = fh.read().splitlines()
        known = {n for n in left if text[n - 1].strip() in EXPECTED}
        if left - known:
            missed[name] = left - known
        if known:
            expected[name] = known
    return missed, expected, total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("pytest_args", nargs="*",
                        help="arguments for pytest, after --")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.dirname(SOURCE))
    status, ran, failed = trace_run(SOURCE, args.pytest_args)
    missed, expected, total = never_run(SOURCE, ran)
    for name, lines in missed.items():
        print("%s: %s" % (name, spans(lines)))
    for name, lines in expected.items():
        print("expected: %s: %s" % (name, spans(lines)))
    count = sum(map(len, missed.values()))
    print("%d of %d executable lines never ran" % (count, total))
    if status:
        print("pytest exited with status %d, %d failed" % (status,
                                                            len(failed)))
        for nodeid in failed:
            print("failed: %s" % nodeid)
    return (1 if count else 0) | (2 if status else 0)


if __name__ == "__main__":
    sys.exit(main())
