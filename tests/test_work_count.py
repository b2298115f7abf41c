"""tools/work_count.py: its counts repeat exactly from run to run.

Each run is a subprocess: in this process the tool's trace hook would
replace the one of a ``line_cover`` run over this suite."""

import os
import shutil
import subprocess
import sys

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


def test_layers():
    assert work_count.layer_of("policies:LhdPolicy.folio_accessed") == \
        "hook dispatch"
    assert work_count.layer_of("policies:LhdPolicy._bucket") == \
        "hook dispatch"
    assert work_count.layer_of("policies:LhdPolicy.__init__") == "set-up"
    assert work_count.layer_of(
        "policies:LhdPolicy.evict_folios.<locals>.score") == "eviction round"
    assert work_count.layer_of("workloads:need_int") == "set-up"
