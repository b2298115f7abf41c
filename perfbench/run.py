#!/usr/bin/env python3
"""Policy x workload replay benchmark for pagecachesim.

Replays one workload under all seven policy settings and prints every
metric by name with its unit; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. Run it from the repository root:

    python3 perfbench/run.py --workload ycsb-c-zipf --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

``--trace 0`` measures the end-to-end metrics with nothing installed on
the replay path. ``--trace 1`` measures the per-layer split instead: each
policy run is made once plain and once through the span wrappers of
``tracer.py``, and the two report rows must agree. See README.md in this
directory for the workloads, the metrics and the layers.

Runs are round-robin over the policies until ``--seconds`` is used up, so a
burst of machine noise spreads over all of them; each policy's figure is
the median over its runs. Timings are host seconds scaled to a reference
speed (see ``probe``); hit and miss ratios are simulated statistics of
caches that start empty.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from collections import OrderedDict
from time import perf_counter

from tracer import LIST_OPS, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

POLICIES = ("default", "fifo", "mru", "lfu", "s3fifo", "lhd", "getscan")

#: Threads the getscan stream issues scans from; the getscan policy gets
#: them on every workload (on the other two no thread scans).
SCAN_THREADS = [100, 101]

PAGE_SIZE = 4096

#: The getscan stream: gets over 8192 keys (2048 pages); one scan of
#: SCAN_PAGES pages per SCAN_EVERY events (gen_getscan's default rate of
#: 0.0005), rotating through SCAN_SLOTS disjoint slots of a cold region.
GET_KEYSPACE = 8192
SCAN_EVERY = 2000
SCAN_PAGES = 512
SCAN_SLOTS = 4

#: name -> (cache pages, stream size in the default run, stream size at the
#: ROADMAP's baseline parameters). The size is the event count, except for
#: filesearch-loop, where it is the number of passes over the corpus.
WORKLOADS = {
    "ycsb-c-zipf": (512, 10000, 100000),
    "filesearch-loop": (700, 5, 20),
    "getscan-trace": (2048, 10000, 100000),
}

#: Seconds the speed probe takes on the reference host (one 2-vCPU x86-64
#: core, Python 3.11). Timings are scaled by this over the probe's time
#: measured around them; see ``probe``.
REF_PROBE_S = 0.0027

#: Timings of the probe's work whose median is one probe.
PROBE_REPEATS = 5

#: Re-imports of the package whose median counts as its import time.
IMPORT_SAMPLES = 7


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


# -- host speed ---------------------------------------------------------------


class _Entry:
    __slots__ = ("key", "hits")

    def __init__(self, key):
        self.key = key
        self.hits = 0


def probe() -> float:
    """Seconds one fixed piece of pure-Python work takes right now.

    The work resembles the simulator's own: an LRU table of 512 entries
    (OrderedDict moves, dict lookups, attribute updates, small objects)
    driven by 3000 pseudo-random keys; the figure is the median of
    PROBE_REPEATS timings, so a burst within one does not count. On a
    shared host a CPU's speed moves by up to half within a run and between
    runs. Every timing the benchmark reports is multiplied by REF_PROBE_S
    over the mean of the probes taken just before and just after it, so a
    figure reads as host seconds at the reference speed, and the program's
    own changes are what moves it.
    """
    return statistics.median(_probe_once() for _ in range(PROBE_REPEATS))


def _probe_once() -> float:
    t0 = perf_counter()
    table = OrderedDict()
    x = 12345
    for _ in range(3000):
        x = (x * 1103515245 + 12345) & 0x7fffffff
        key = (x >> 8) & 2047
        entry = table.get(key)
        if entry is not None:
            entry.hits += 1
            table.move_to_end(key)
        else:
            table[key] = _Entry(key)
            if len(table) > 512:
                table.popitem(last=False)
    return perf_counter() - t0


def at_reference_speed(measure):
    """Call ``measure`` between two probes. Returns its result and the
    factor that scales its timings to the reference speed. Garbage is
    collected before each probe and before ``measure``, so none of them
    pays for another's."""
    gc.collect()
    before = probe()
    gc.collect()
    result = measure()
    gc.collect()
    return result, 2 * REF_PROBE_S / (before + probe())


# -- the program under test ---------------------------------------------------


def import_package():
    """Import pagecachesim from this checkout's ``src`` several times.

    Returns the package and the median import time at the reference
    speed. Each import starts from a clean slate for the package's own
    modules; the standard library modules it pulls in stay loaded after the
    first.
    """

    def timed_import():
        for name in [m for m in sys.modules
                     if m == "pagecachesim" or m.startswith("pagecachesim.")]:
            del sys.modules[name]
        t0 = perf_counter()
        pkg = importlib.import_module("pagecachesim")
        return pkg, perf_counter() - t0

    if not os.path.isfile(os.path.join(SRC, "pagecachesim", "__init__.py")):
        raise BenchError("no pagecachesim package under %s" % SRC)
    sys.path.insert(0, SRC)
    times = []
    for _ in range(IMPORT_SAMPLES):
        (pkg, seconds), scale = at_reference_speed(timed_import)
        times.append(seconds * scale)
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise BenchError("imported pagecachesim from %s, not from %s"
                         % (pkg.__file__, SRC))
    return pkg, statistics.median(times)


# -- workloads ----------------------------------------------------------------


def count_pages(events) -> int:
    """Page accesses an event stream makes, counted independently of the
    simulator's own expansion."""
    pages = 0
    for ev in events:
        if ev.op.value != "delete":
            first = ev.offset_bytes // PAGE_SIZE
            last = (ev.offset_bytes + ev.len_bytes - 1) // PAGE_SIZE
            pages += last - first + 1
    return pages


def getscan_stream(pkg, count, seed, roadmap):
    """The getscan workload's events.

    At the ROADMAP's parameters this is ``gen_getscan`` itself. Its scans
    arrive at random, so the number of scans in a stream varies by seed
    (about 50 +- 7 in 100k events), and with it a fifth of the pages; miss
    ratios then spread by a third between seeds. The benchmark's own stream
    therefore keeps the seeded Zipfian gets of ``gen_getscan`` and puts one
    512-page scan in place of every ``SCAN_EVERY``-th get: the generator's
    scan rate, file, slot rotation and scan threads, on a fixed schedule.
    """
    if roadmap:
        return pkg.gen_getscan(count=count, get_keyspace=GET_KEYSPACE,
                               seed=seed)
    gets = pkg.gen_getscan(count=count, get_keyspace=GET_KEYSPACE, seed=seed,
                           get_fraction=1.0, scan_fraction=0.0)
    scan_file = GET_KEYSPACE // pkg.workloads.DEFAULT_KEYS_PER_FILE + 1
    scan_bytes = SCAN_PAGES * PAGE_SIZE

    def events():
        for ev in gets:
            k, r = divmod(ev.seq, SCAN_EVERY)
            if r == SCAN_EVERY - 1:
                yield pkg.TraceEvent(ev.seq, pkg.Op.SCAN, ev.cgroup,
                                     scan_file, (k % SCAN_SLOTS) * scan_bytes,
                                     scan_bytes,
                                     SCAN_THREADS[k % len(SCAN_THREADS)])
            else:
                yield ev

    return events()


def make_workload(pkg, name, seed, size, roadmap, tmpdir):
    """Build the workload's input from the seed. Returns the workload spec
    the harness replays and the number of page accesses it makes."""
    WorkloadSpec = pkg.WorkloadSpec
    if name == "ycsb-c-zipf":
        spec = WorkloadSpec("ycsb-c", {"keyspace": 20480, "count": size})
    elif name == "filesearch-loop":
        spec = WorkloadSpec("filesearch", {"corpus_files": 10,
                                           "file_pages": 100,
                                           "passes": size})
    elif name == "getscan-trace":
        # The README's gen-trace -> run --trace flow: the stream is written
        # to CSV here, and the replay parses it back.
        path = os.path.join(tmpdir, "getscan.csv")
        pkg.write_trace(path, getscan_stream(pkg, size, seed, roadmap))
        spec = WorkloadSpec("trace", {"path": path})
    else:
        raise BenchError("unknown workload %r" % name)
    return spec, count_pages(pkg.build_events(spec, seed))


def scenario(pkg, spec, cache_pages, policy, seed):
    params = {"scan_threads": SCAN_THREADS} if policy == "getscan" else {}
    return pkg.ScenarioConfig(
        cgroups=[pkg.CgroupSpec(0, cache_pages * PAGE_SIZE, policy, params)],
        workload=spec, seed=seed)


# -- one policy run -----------------------------------------------------------


def timed_run(pkg, config):
    """Call ``harness.run`` and time it from outside.

    Returns (report, wall seconds, seconds before replay started, the
    simulator that replayed). Replay start is the first
    ``Simulator.access_page`` call; the shim that notices it puts the
    original method back before anything else runs, so the replay itself
    runs untouched.
    """
    sim_cls = pkg.Simulator
    original = sim_cls.access_page
    marks = []

    def first_access(sim, *args):
        sim_cls.access_page = original
        marks.append((perf_counter(), sim))
        return original(sim, *args)

    sim_cls.access_page = first_access
    t0 = perf_counter()
    try:
        report = pkg.run(config)
    finally:
        sim_cls.access_page = original
    wall = perf_counter() - t0
    if not marks:
        raise RuntimeError("replay made no Simulator.access_page call")
    return report, wall, marks[0][0] - t0, marks[0][1]


def row_problems(metrics, expected_pages, cache_pages):
    """Checks on a report row that need no second run."""
    problems = []
    if metrics.accesses != expected_pages:
        problems.append("accesses %d != %d pages in the stream"
                        % (metrics.accesses, expected_pages))
    resident = (metrics.misses - metrics.evictions_policy
                - metrics.evictions_fallback - metrics.file_removed_folios)
    if resident > cache_pages:
        problems.append("%d pages resident in a %d-page cache"
                        % (resident, cache_pages))
    return problems


def sim_problems(sim):
    """Checks on the simulator a run leaves behind. The simulator counts a
    policy hook that raises in ``hook_errors`` and carries on with its
    default eviction, so a broken hook would otherwise pass unnoticed."""
    problems = []
    for cgroup_id in sim.cgroup_ids():
        errors = sim.stats(cgroup_id).hook_errors
        if errors:
            problems.append("%d policy hook errors in cgroup %d"
                            % (errors, cgroup_id))
    try:
        sim.check_invariants()
    except Exception as exc:  # any failure of the program under test
        problems.append("check_invariants failed: %r" % (exc,))
    return problems


def csv_row(report) -> str:
    return report.to_csv().splitlines()[1]


# -- the traced split ---------------------------------------------------------

#: Hooks whose time is ``policies.hook_s``; ``evict_folios`` is reported
#: on its own.
HOOK_SPANS = ("policies.folio_added", "policies.folio_accessed",
              "policies.folio_removed", "policies.run_deferred")

#: Per-policy per-layer metrics, in report order.
LAYER_METRICS = (
    ("policy_api.list_iterate_self_s", "s", "lower"),
    ("policies.callback_s", "s", "lower"),
    ("policy_api.nodes_examined", "count", "lower"),
    ("core.eviction_rounds", "count", "lower"),
    ("policy_api.list_update_s", "s", "lower"),
    ("policies.hook_s", "s", "lower"),
    ("policies.evict_folios_self_s", "s", "lower"),
    ("core.access_self_s", "s", "lower"),
    ("core.default_evict_s", "s", "lower"),
    ("core.fallback_pages", "count", "lower"),
    ("core.misses", "count", "lower"),
    ("core.candidate_accept_ratio", "ratio", "higher"),
    ("core.candidates_proposed", "count", "lower"),
    ("core.candidates_accepted", "count", "higher"),
    ("workloads.next_s", "s", "lower"),
    ("harness.replay_self_s", "s", "lower"),
)

#: Per-workload per-layer metrics: summed over the policies' runs, except
#: ``harness.pages`` (one run's page accesses).
WORKLOAD_LAYER_METRICS = (
    ("harness.validate_s", "s", "lower"),
    ("workloads.build_s", "s", "lower"),
    ("harness.report_s", "s", "lower"),
    ("harness.pages", "count", "higher"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.unclaimed_share", "ratio", "lower"),
)

#: Spans whose self time some per-layer time metric reports. The rest of
#: a traced run's wall time (``harness.run``'s own code, policy set-up,
#: ``remove_file`` and ``run_deferred`` in the core) is unclaimed.
CLAIMED_SPANS = (("policy_api.list_iterate", "policies.callback",
                  "policies.evict_folios", "core.access",
                  "core.default_evict", "workloads.next", "harness.replay",
                  "harness.validate", "workloads.build", "harness.report")
                 + tuple("policy_api." + op for op in LIST_OPS) + HOOK_SPANS)

#: Layer metrics that are counts, and so must repeat exactly.
COUNT_METRICS = {name for name, unit, _ in LAYER_METRICS if unit == "count"}


def layer_split(tracer, policy, metrics):
    """Per-layer figures of one traced run, from its spans and report row.
    Every time is a self time (see tracer.py)."""
    cs = tracer.self_time
    if policy == "default":
        rounds = tracer.calls("core.default_evict")
    else:
        rounds = tracer.calls("policies.evict_folios")
    proposed = tracer.counts.get("candidates_proposed", 0)
    accepted = metrics.evictions_policy
    return {
        "policy_api.list_iterate_self_s": cs("policy_api.list_iterate"),
        "policies.callback_s": cs("policies.callback"),
        "policy_api.nodes_examined": tracer.counts.get("nodes_examined", 0),
        "core.eviction_rounds": rounds,
        "policy_api.list_update_s": sum(cs("policy_api." + op)
                                        for op in LIST_OPS),
        "policies.hook_s": sum(cs(name) for name in HOOK_SPANS),
        "policies.evict_folios_self_s": cs("policies.evict_folios"),
        "core.access_self_s": cs("core.access"),
        "core.default_evict_s": cs("core.default_evict"),
        "core.fallback_pages": metrics.evictions_fallback,
        "core.misses": metrics.misses,
        # 0 when nothing was proposed: the default policy proposes nothing.
        "core.candidate_accept_ratio": (accepted / proposed if proposed
                                        else 0.0),
        "core.candidates_proposed": proposed,
        "core.candidates_accepted": accepted,
        "workloads.next_s": cs("workloads.next"),
        "harness.replay_self_s": cs("harness.replay"),
    }


# -- the benchmark ------------------------------------------------------------


class Run:
    """One workload's measurement: policy runs, samples, failures."""

    def __init__(self, pkg, workload, seed, size, roadmap, tmpdir):
        self.pkg = pkg
        self.workload = workload
        self.seed = seed
        self.cache_pages = WORKLOADS[workload][0]
        self.spec, self.pages = make_workload(pkg, workload, seed, size,
                                              roadmap, tmpdir)
        self.configs = {p: scenario(pkg, self.spec, self.cache_pages, p, seed)
                        for p in POLICIES}
        self.attempted = 0
        self.failures: list[str] = []
        self.rows: dict[str, object] = {}      # policy -> Metrics
        self.csv: dict[str, str] = {}          # policy -> CSV row
        self.wall: dict[str, list] = {p: [] for p in POLICIES}
        self.scale: dict[str, list] = {p: [] for p in POLICIES}
        self.setup: dict[str, list] = {p: [] for p in POLICIES}
        self.traced_wall: dict[str, list] = {p: [] for p in POLICIES}
        self.layers: dict[str, list] = {p: [] for p in POLICIES}
        self.claimed: dict[str, list] = {p: [] for p in POLICIES}
        self.rounds = 0

    def fail(self, policy, message):
        self.failures.append("%s/%s: %s" % (self.workload, policy, message))

    def plain(self, policy):
        """One untraced policy run. Returns its report, or None on failure."""
        self.attempted += 1
        try:
            (report, wall, setup, sim), scale = at_reference_speed(
                lambda: timed_run(self.pkg, self.configs[policy]))
        except Exception as exc:  # any failure of the program under test
            self.fail(policy, "run raised %r" % (exc,))
            return None
        metrics = report.rows[0][1]
        row = csv_row(report)
        problems = (row_problems(metrics, self.pages, self.cache_pages)
                    + sim_problems(sim))
        if policy in self.csv and row != self.csv[policy]:
            problems.append("report row changed between runs:\n  %s\n  %s"
                            % (self.csv[policy], row))
        if problems:
            self.fail(policy, "; ".join(problems))
            return None
        self.rows[policy], self.csv[policy] = metrics, row
        self.wall[policy].append(wall)
        self.scale[policy].append(scale)
        self.setup[policy].append(setup * scale)
        return report

    def traced(self, policy, tracer, root):
        """One traced policy run, checked against the untraced row."""
        pkg = self.pkg
        self.attempted += 1
        tracer.reset()
        gc.collect()
        try:
            def timed():
                t0 = perf_counter()
                report = root(self.configs[policy])
                return report, perf_counter() - t0

            with tracer.installed(pkg.harness, pkg.Simulator,
                                  pkg.ScenarioConfig):
                report, wall = timed()
        except Exception as exc:  # any failure of the program under test
            self.fail(policy, "traced run raised %r" % (exc,))
            return
        problems = [p for sim in tracer.sims for p in sim_problems(sim)]
        if problems:
            self.fail(policy, "traced run: " + "; ".join(problems))
            return
        row = csv_row(report)
        if row != self.csv.get(policy):
            self.fail(policy, "traced row differs from untraced row:\n  %s\n"
                      "  %s" % (self.csv.get(policy), row))
            return
        split = layer_split(tracer, policy, report.rows[0][1])
        if self.layers[policy]:
            first = self.layers[policy][0]
            changed = [k for k in COUNT_METRICS if split[k] != first[k]]
            if changed:
                self.fail(policy, "counts changed between traced runs: %s"
                          % ", ".join(sorted(changed)))
                return
        split["harness.validate_s"] = tracer.self_time("harness.validate")
        split["workloads.build_s"] = tracer.self_time("workloads.build")
        split["harness.report_s"] = tracer.self_time("harness.report")
        self.layers[policy].append(split)
        self.traced_wall[policy].append(wall)
        self.claimed[policy].append(sum(tracer.self_time(name)
                                        for name in CLAIMED_SPANS))

    def measure(self, seconds, trace):
        """Round-robin over the policies until ``seconds`` are used; a
        round starts only if the previous one's length still fits. Each
        round makes one run per policy, so every policy gets as many runs
        and all of them sample the same stretches of host time; traced,
        each of those runs is followed by a traced one."""
        tracer = root = None
        if trace:
            tracer = Tracer()
            root = tracer.wrap("harness.run", self.pkg.run)
        start = perf_counter()
        while True:
            t0 = perf_counter()
            for policy in POLICIES:
                if self.plain(policy) is not None and trace:
                    self.traced(policy, tracer, root)
            self.rounds += 1
            if 2 * perf_counter() - start - t0 > seconds:
                break

    # -- results --------------------------------------------------------------

    def ref_wall(self, policy):
        """The policy's run times at the reference speed."""
        return [w * s for w, s in zip(self.wall[policy], self.scale[policy])]

    def end_to_end(self, import_s):
        metrics = {}
        for policy in POLICIES:
            wall = self.ref_wall(policy)
            metrics["pages_per_s." + policy] = (
                self.pages / statistics.median(wall) if wall else 0.0, "1/s")
        for policy in POLICIES:
            m = self.rows.get(policy)
            metrics["miss_ratio." + policy] = (
                m.misses / m.accesses if m else 0.0, "ratio")
        metrics["setup_s"] = (
            import_s + sum(statistics.median(self.setup[p])
                           for p in POLICIES if self.setup[p]), "s")
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mib"] = (peak_kib / 1024.0, "MiB")
        return metrics

    def per_layer(self):
        metrics = {}
        for name, unit, _ in LAYER_METRICS:
            for policy in POLICIES:
                samples = [s[name] for s in self.layers[policy]]
                value = statistics.median(samples) if samples else 0.0
                metrics["%s.%s" % (name, policy)] = (value, unit)
        for name in ("harness.validate_s", "workloads.build_s",
                     "harness.report_s"):
            metrics[name] = (sum(statistics.median(s[name] for s in
                                                   self.layers[p])
                                 for p in POLICIES if self.layers[p]), "s")
        metrics["harness.pages"] = (self.pages, "count")
        traced = sum(statistics.median(self.traced_wall[p])
                     for p in POLICIES if self.traced_wall[p])
        plain = sum(statistics.median(self.wall[p])
                    for p in POLICIES if self.traced_wall[p])
        claimed = sum(statistics.median(self.claimed[p])
                      for p in POLICIES if self.claimed[p])
        metrics["trace.overhead_s"] = (traced - plain, "s")
        metrics["trace.unclaimed_share"] = (
            (traced - claimed) / traced if traced else 0.0, "ratio")
        return metrics


def git_sha():
    """The checkout's commit, read from .git without running git; None
    outside a git repository."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed):
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(), "nproc": os.cpu_count(),
            "git_sha": git_sha(), "seed": seed}


def print_table(run, metrics, env):
    print("workload %s  seed %d  pages/run %d  cache %d pages  rounds %d"
          % (run.workload, run.seed, run.pages, run.cache_pages, run.rounds))
    print("env " + json.dumps(env, sort_keys=True))
    print("%-8s %6s %12s %12s %10s %10s %10s"
          % ("policy", "runs", "pages/s", "pages/ref-s", "hit_ratio",
             "miss_ratio", "setup_s"))
    for policy in POLICIES:
        wall, m = run.wall[policy], run.rows.get(policy)
        if not wall or m is None:
            print("%-8s %6s" % (policy, "FAILED"))
            continue
        print("%-8s %6d %12.1f %12.1f %10.4f %10.4f %10.5f"
              % (policy, len(wall), run.pages / statistics.median(wall),
                 run.pages / statistics.median(run.ref_wall(policy)),
                 m.hit_ratio, m.misses / m.accesses,
                 statistics.median(run.setup[policy])))
    print("report rows:")
    print(",".join(run.pkg.harness.CSV_COLUMNS))
    for policy in POLICIES:
        if policy in run.csv:
            print(run.csv[policy])
    print("metrics:")
    for name, (value, unit) in metrics.items():
        print("  %-40s %16.6f %s" % (name, value, unit))


def result_line(correct, attempted, failed, metrics):
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}})


def pin_to_one_cpu():
    """Keep the process on the first CPU it may use. The simulator is
    single-threaded; on a shared host the CPUs of one machine can differ
    in speed from minute to minute, and a process that migrates between
    them measures a mix."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def bench_one(args):
    pin_to_one_cpu()
    pkg, import_s = import_package()
    roadmap = args.roadmap
    size = WORKLOADS[args.workload][2 if roadmap else 1]
    env = environment(args.seed)
    scratch = tempfile.mkdtemp(prefix=".bench-", dir=ROOT)
    try:
        run = Run(pkg, args.workload, args.seed, size, roadmap, scratch)
        run.measure(args.seconds, args.trace)
    finally:
        for name in os.listdir(scratch):
            os.remove(os.path.join(scratch, name))
        os.rmdir(scratch)
    metrics = run.per_layer() if args.trace else run.end_to_end(import_s)
    print_table(run, metrics, env)
    for failure in run.failures:
        print("FAILED " + failure)
    failed = len(run.failures)
    print(result_line(failed == 0, run.attempted, failed, metrics))


def bench_all(args):
    """Each workload in a fresh process, one after another."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload",
               workload, "--seed", str(args.seed), "--seconds",
               str(args.seconds), "--trace", str(args.trace)]
        if args.roadmap:
            cmd.append("--roadmap")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              check=False)
        if proc.returncode != 0:
            raise BenchError("workload %s exited with %d"
                             % (workload, proc.returncode))
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for name, entry in result["metrics"].items():
            metrics["%s:%s" % (workload, name)] = (entry["value"],
                                                   entry["unit"])
        print()
    print(result_line(correct, attempted, failed, metrics))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--roadmap", action="store_true",
                        help="replay at the ROADMAP baseline's sizes "
                             "(100k events; 20 filesearch passes)")
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            bench_all(args)
        else:
            bench_one(args)
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
