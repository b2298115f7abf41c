#!/usr/bin/env python3
"""Deterministic work count of one benchmark cell, per function and layer.

Replays one policy x workload cell of ``perfbench/run.py`` (same stream,
cache size and policy parameters) once, under a ``sys.settrace`` hook that
traces only frames whose code lies in ``src/pagecachesim`` (the frame
filter of ``line_cover.py``) and counts, per function, the bytecode
instructions it executed (``opcode`` trace events) and the times a frame
of it was entered (generator resumptions included). A ``sys.setprofile``
hook with the same filter counts, per function, the builtin calls it made
(``c_call`` profile events: ``len``, ``isinstance``, a ``dict.get``; not
a call of a type such as ``enumerate``). Instructions run in the
standard library or in C code count only as the one instruction that
called them. The counts do not depend on the host's speed or load:
two runs of one tree print the same output, so a change that removes work
shows in them even where wall time cannot resolve it. A change that
makes each instruction cheaper does not show; time that with
``tools/ab_pairs.py``. Run it from the repository root:

    python3 tools/work_count.py --workload ycsb-c-zipf --policy lhd

The cell is ``harness.run`` on the cell's scenario, validation and the
report included. The workload is built once before the traced run, as
the benchmark's page count needs it, so a table the generators cache
(the Zipfian CDF) is already built. The output gives each layer's
opcodes, calls, builtin calls (``c_calls``) and opcodes per page, then
every function that ran, busiest first; ``LAYERS`` maps functions to
layers. Tracing makes a replay 20 to 25 times slower (about 1 s for a
bench cell). Standard library only.

``all`` as the workload, the policy or both counts every cell they name,
each in a subprocess of its own, so a row is what a single-cell run of
that cell prints whatever ran before it (caches such as the Zipfian
table's would otherwise carry over from cell to cell). It prints one row
per cell: opcodes, calls and builtin calls per page, in total and per
layer:

    python3 tools/work_count.py --workload all --policy all
"""

from __future__ import annotations

import argparse
import fnmatch
import importlib.util
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src", "pagecachesim")
PERFBENCH = os.path.join(ROOT, "perfbench")


#: (layer, patterns over ``module:qualname``), first match wins; a
#: function no pattern matches counts as set-up. A policy's private
#: helpers count with its hooks.
LAYERS = (
    ("workload generation", (
        "workloads:gen_*", "workloads:*zipf*", "workloads:*trace*",
        "workloads:_row_error", "workloads:TraceEvent.*",
        "harness:build_events")),
    ("eviction round", (
        "core:Simulator._drive", "core:Simulator.default_evict",
        "core:Simulator._demote_head", "core:Simulator._remove_folio",
        "core:_proposed_before",
        "policy_api:PolicyCgroup.list_iterate",
        "policy_api:PolicyCgroup._score_pass",
        "policy_api:PolicyCgroup.list_length", "policy_api:EvictionContext.*",
        "policies:*.evict_folios*", "policies:_evict_all",
        "policies:LhdPolicy.policy_init.<locals>.score",
        "policies:LfuPolicy.policy_init.<locals>.admit",
        "policies:S3FifoPolicy.policy_init.<locals>.judge*")),
    ("hook dispatch", (
        "policies:*.folio_*", "policies:*.run_deferred",
        "policies:*.reconfigure", "policies:*._[!_]*",
        "policy_api:PolicyHooks.folio_*", "policy_api:PolicyHooks.run_deferred",
        "policy_api:PolicyCgroup.list_add",
        "policy_api:PolicyCgroup.list_move",
        "policy_api:PolicyCgroup.list_del",
        "policy_api:PolicyCgroup.request_deferred")),
    ("core access path", (
        "core:Simulator.access_page", "core:Simulator.run_deferred",
        "core:Simulator.remove_file", "core:Folio.__init__",
        "harness:replay")),
    ("reporting", (
        "harness:collect_metrics*", "harness:_check_conservation",
        "core:CgroupStats.[!_]*",
        "harness:Report.*", "harness:Metrics.*", "harness:_cell",
        "harness:_ratio")),
)
SETUP = "set-up"


def load(name: str, path: str):
    """The Python file at ``path`` as a module called ``name``."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def count_work(source: str, fn) -> dict:
    """Call ``fn()`` under the hooks. Returns ``{code object: [opcodes,
    calls, builtin calls]}`` for the functions of ``source`` that ran."""
    inside = load("line_cover",
                  os.path.join(HERE, "line_cover.py")).in_package(source)
    counts: dict = {}

    def counted(code) -> list:
        acc = counts.get(code)
        if acc is None:
            acc = counts[code] = [0, 0, 0]
        return acc

    def hook(frame, event, arg):
        code = frame.f_code
        if not inside(code.co_filename):
            return None
        acc = counted(code)
        acc[1] += 1
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True

        def local(frame, event, arg):
            if event == "opcode":
                acc[0] += 1
            return local

        return local

    def profile(frame, event, arg):
        # the frame of a c_call event is the caller's
        if event == "c_call":
            code = frame.f_code
            if inside(code.co_filename):
                counted(code)[2] += 1

    sys.setprofile(profile)
    sys.settrace(hook)
    try:
        fn()
    finally:
        sys.settrace(None)
        sys.setprofile(None)
    return counts


def layer_of(name: str) -> str:
    for layer, patterns in LAYERS:
        if any(fnmatch.fnmatchcase(name, p) for p in patterns):
            return layer
    return SETUP


def by_function(counts: dict) -> dict:
    """``{"module:qualname": [opcodes, calls, builtin calls]}``, the
    module without ``.py``; code objects that share a name are summed."""
    out: dict = {}
    for code, counted in counts.items():
        module = os.path.splitext(os.path.basename(code.co_filename))[0]
        acc = out.setdefault("%s:%s" % (module, code.co_qualname),
                             [0, 0, 0])
        for i, n in enumerate(counted):
            acc[i] += n
    return out


def report(functions: dict, pages: int) -> list:
    """The output lines: one per layer, a total, then one per function,
    most opcodes first, ties by name."""
    layers = {layer: [0, 0, 0] for layer, _ in LAYERS}
    layers[SETUP] = [0, 0, 0]
    for name, counted in functions.items():
        acc = layers[layer_of(name)]
        for i, n in enumerate(counted):
            acc[i] += n
    total = [sum(column) for column in zip(*layers.values())]
    row = "%-58s %12s %10s %10s %12s"
    lines = [row % ("layer", "opcodes", "calls", "c_calls", "opcodes/page")]
    for layer, (opcodes, calls, c_calls) in (list(layers.items())
                                             + [("total", total)]):
        lines.append(row % (layer, opcodes, calls, c_calls,
                            "%.1f" % (opcodes / pages) if pages else "-"))
    lines.append("")
    lines.append(row % ("function", "opcodes", "calls", "c_calls", "layer"))
    for name, (opcodes, calls, c_calls) in sorted(
            functions.items(), key=lambda kv: (-kv[1][0], kv[0])):
        lines.append(row % (name, opcodes, calls, c_calls, layer_of(name)))
    return lines


def layer_totals(lines: list) -> tuple:
    """(pages, {layer or "total": (opcodes, calls, builtin calls)}) from
    the output lines of a single-cell run."""
    pages = int(lines[0].split(": ")[1].split()[0])
    totals = {}
    for line in lines[2:2 + len(GROUPS)]:
        name, opcodes, calls, c_calls, _ = line.rsplit(None, 4)
        totals[name.strip()] = (int(opcodes), int(calls), int(c_calls))
    return pages, totals


#: The matrix's column groups, in order: the total, then each layer.
GROUPS = ["total"] + [layer for layer, _ in LAYERS] + [SETUP]


def matrix_header() -> str:
    """The matrix's column names: the cell, then opcodes, calls and
    builtin calls per page of each group, a layer named by its first
    word."""
    return " ".join(["%-28s" % "cell"] + ["%13s %7s %7s" % (
        group.split()[0] + ".ops", "calls", "c_calls") for group in GROUPS])


def matrix_row(cell: str, pages: int, totals: dict) -> str:
    """One cell's row under ``matrix_header``."""
    columns = ["%-28s" % cell]
    for group in GROUPS:
        opcodes, calls, c_calls = totals[group]
        columns.append("%13.1f %7.2f %7.2f" % (opcodes / pages, calls / pages,
                                               c_calls / pages))
    return " ".join(columns)


def matrix(workloads: list, policies: list, seed: int, size) -> int:
    """Count each cell in a subprocess and print its row."""
    print("work per page, seed %d, size %s"
          % (seed, "the benchmark's" if size is None else size))
    print(matrix_header())
    for workload in workloads:
        for policy in policies:
            args = [sys.executable, os.path.abspath(__file__), "--workload",
                    workload, "--policy", policy, "--seed", str(seed)]
            if size is not None:
                args += ["--size", str(size)]
            proc = subprocess.run(args, stdout=subprocess.PIPE, text=True,
                                  check=False)
            if proc.returncode:
                print("%s x %s failed with status %d"
                      % (policy, workload, proc.returncode), file=sys.stderr)
                return proc.returncode
            pages, totals = layer_totals(proc.stdout.splitlines())
            print(matrix_row("%s x %s" % (policy, workload), pages, totals))
    return 0


def main(argv=None) -> int:
    # perfbench/run.py, for its workloads and scenarios; it imports its
    # tracer from its own directory
    sys.path.insert(0, PERFBENCH)
    bench = load("perfbench_run", os.path.join(PERFBENCH, "run.py"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(bench.WORKLOADS) + ["all"])
    parser.add_argument("--policy", required=True,
                        choices=list(bench.POLICIES) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--size", type=int, default=None,
                        help="stream size (events, or passes for "
                             "filesearch-loop); default: the benchmark's")
    args = parser.parse_args(argv)
    if "all" in (args.workload, args.policy):
        return matrix(list(bench.WORKLOADS) if args.workload == "all"
                      else [args.workload],
                      list(bench.POLICIES) if args.policy == "all"
                      else [args.policy], args.seed, args.size)
    sys.path.insert(0, os.path.dirname(SOURCE))
    import pagecachesim as pkg
    if os.path.dirname(os.path.abspath(pkg.__file__)) != SOURCE:
        print("imported pagecachesim from %s, not from %s"
              % (pkg.__file__, SOURCE), file=sys.stderr)
        return 1
    cache_pages, default_size, _ = bench.WORKLOADS[args.workload]
    size = default_size if args.size is None else args.size
    with tempfile.TemporaryDirectory() as tmpdir:
        spec, pages = bench.make_workload(pkg, args.workload, args.seed,
                                          size, False, tmpdir)
        config = bench.scenario(pkg, spec, cache_pages, args.policy,
                                args.seed)
        counts = count_work(SOURCE, lambda: pkg.run(config))
    print("%s x %s, seed %d, size %d: %d pages, %d-page cache"
          % (args.policy, args.workload, args.seed, size, pages, cache_pages))
    for line in report(by_function(counts), pages):
        print(line.rstrip())
    return 0


if __name__ == "__main__":
    sys.exit(main())
