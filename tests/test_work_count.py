"""tools/work_count.py: its counts repeat exactly from run to run.

Each run is a subprocess: in this process the tool's trace hook would
replace the one of a ``line_cover`` run over this suite."""

import glob
import os
import shutil
import subprocess
import sys
import types

from conftest import load_tool

work_count = load_tool("work_count")
TOOLS = os.path.join(work_count.ROOT, "tools")

MODULE = '''\
def fib(n):
    return n if n < 2 else fib(n - 1) + fib(n - 2)


def countdown(n):
    while n:
        yield n
        n -= 1


def main():
    return fib(10) + sum(countdown(5))
'''

RUN_TOY = '''\
import sys
sys.path[:0] = ["tools", "src"]
import work_count
from pagecachesim import mod
counts = work_count.count_work(work_count.SOURCE, mod.main)
print("\\n".join(work_count.report(work_count.by_function(counts), 10)))
'''


def run(args, cwd):
    return subprocess.run([sys.executable] + args, cwd=cwd,
                          stdout=subprocess.PIPE, text=True, timeout=120,
                          check=True).stdout


def test_toy_package_counts_repeat(tmp_path):
    (tmp_path / "tools").mkdir()
    for tool in ("work_count.py", "line_cover.py"):
        shutil.copy(os.path.join(TOOLS, tool), tmp_path / "tools")
    package = tmp_path / "src" / "pagecachesim"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(MODULE)
    first = run(["-c", RUN_TOY], tmp_path)
    assert run(["-c", RUN_TOY], tmp_path) == first
    rows = {line.split()[0]: line.split()[1:3]
            for line in first.splitlines()[9:]}
    # fib(10) makes 177 calls; the generator is entered once per value
    # and once more to finish
    assert rows["mod:fib"][1] == "177"
    assert rows["mod:countdown"][1] == "6"
    assert rows.keys() == {"function", "mod:fib", "mod:countdown",
                           "mod:main"}


def test_bench_cell_counts_repeat():
    args = [os.path.join(TOOLS, "work_count.py"), "--workload",
            "ycsb-c-zipf", "--policy", "lhd", "--size", "300"]
    first = run(args, work_count.ROOT)
    assert run(args, work_count.ROOT) == first
    lines = first.splitlines()
    assert lines[0] == "lhd x ycsb-c-zipf, seed 1, size 300: 300 pages, " \
                       "512-page cache"
    layers = [line.split("  ")[0] for line in lines[2:8]]
    assert layers == ["workload generation", "eviction round",
                      "hook dispatch", "core access path", "reporting",
                      "set-up"]
    assert lines[8].split()[0] == "total"
    functions = {line.split()[0] for line in lines[11:]}
    assert {"policies:LhdPolicy.folio_accessed", "core:Simulator.access_page",
            "harness:replay"} <= functions


def test_matrix_row_is_a_single_cell_runs_totals():
    args = [os.path.join(TOOLS, "work_count.py"), "--workload",
            "ycsb-c-zipf", "--size", "300"]
    matrix = run(args + ["--policy", "all"], work_count.ROOT).splitlines()
    assert matrix[0] == "work per page, seed 1, size 300"
    assert matrix[1] == work_count.matrix_header()
    rows = {" ".join(line.split()[:3]): line.split()[3:]
            for line in matrix[2:]}
    assert list(rows) == ["%s x ycsb-c-zipf" % policy for policy in
                          ("default", "fifo", "mru", "lfu", "s3fifo", "lhd",
                           "getscan")]
    single = run(args + ["--policy", "lhd"], work_count.ROOT).splitlines()
    # total first, then the layers in the single run's order
    expected = []
    for line in [single[8]] + single[2:8]:
        _, calls, per_page = line.rsplit(None, 2)
        expected += [per_page, "%.2f" % (int(calls) / 300)]
    assert rows["lhd x ycsb-c-zipf"] == expected


def test_layers():
    assert work_count.layer_of("policies:LhdPolicy.folio_accessed") == \
        "hook dispatch"
    assert work_count.layer_of("policies:LhdPolicy._bucket") == \
        "hook dispatch"
    assert work_count.layer_of("policies:LhdPolicy.__init__") == "set-up"
    assert work_count.layer_of(
        "policies:LhdPolicy.evict_folios.<locals>.score") == "eviction round"
    assert work_count.layer_of(
        "policies:LhdPolicy.policy_init.<locals>.score") == "eviction round"
    assert work_count.layer_of("core:Simulator._remove_folio") == \
        "eviction round"
    assert work_count.layer_of("workloads:need_int") == "set-up"
    assert work_count.layer_of("policy_api:PolicyCgroup.list_move") == \
        "hook dispatch"
    assert work_count.layer_of("policy_api:PolicyHooks.folio_removed") == \
        "hook dispatch"
    assert work_count.layer_of("policy_api:PolicyHooks.policy_init") == \
        "set-up"
    assert work_count.layer_of("core:CgroupStats.accesses") == "reporting"


def test_every_exact_name_names_a_function():
    # a name no code object carries any more counts nothing (the handle's
    # _move is an alias, whose code is list_move's); a wildcard is a rule
    # for functions yet to come
    names = set()
    for path in glob.glob(os.path.join(work_count.SOURCE, "*.py")):
        module = os.path.splitext(os.path.basename(path))[0]
        with open(path) as fh:
            stack = [compile(fh.read(), path, "exec")]
        while stack:
            code = stack.pop()
            names.add("%s:%s" % (module, code.co_qualname))
            stack.extend(c for c in code.co_consts
                         if isinstance(c, types.CodeType))
    unused = [pattern for _, patterns in work_count.LAYERS
              for pattern in patterns
              if not any(c in pattern for c in "*?[") and pattern not in names]
    assert unused == []
