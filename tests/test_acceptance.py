"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s``. Hit-ratio criteria use
fixed seeds and desk-scale cache sizes; the workload shapes (footprint
ratios, pass counts, request mixes) follow the experiment definitions.
"""

import random
import time

from pagecachesim import (
    CgroupSpec,
    EvictionContext,
    FifoPolicy,
    Folio,
    IterMode,
    IterOptions,
    LhdPolicy,
    PolicyCgroup,
    PolicyHooks,
    S3FifoPolicy,
    ScenarioConfig,
    Simulator,
    WorkloadSpec,
    build_events,
    compare,
    make_policy,
    registry_memory_estimate,
    replay,
    run,
    scenario_isolation,
)
from pagecachesim.core import CgroupSim
from conftest import make_sim, random_accesses
from reference_twolist import two_list_trace

GIB = 1 << 30
PAGE = 4096


def report(criterion, detail):
    print("criterion %2d PASS: %s" % (criterion, detail))


def test_c01_default_policy_matches_independent_reimplementation():
    """200 random traces of <= 10^4 events: identical eviction sequences."""
    start = time.perf_counter()
    rng = random.Random(2024)
    total_events = 0
    for trial in range(200):
        if trial % 10 == 0:
            n = rng.randrange(4000, 10001)
        else:
            n = rng.randrange(100, 1500)
        limit = rng.randrange(4, 160)
        accesses = random_accesses(rng, n, files=rng.randrange(1, 5),
                                   pages_per_file=rng.randrange(16, 200),
                                   locality=rng.random())
        total_events += n
        sim = make_sim(limit_pages=limit, record_evictions=True)
        hits = 0
        for file, page in accesses:
            if sim.access_page(0, file, page):
                hits += 1
        expect_evictions, expect_hits, expect_resident = two_list_trace(
            accesses, limit)
        assert [(f, o) for _, f, o in sim.eviction_log] == expect_evictions
        assert hits == expect_hits
        assert sim.resident_pages(0) == len(expect_resident)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(1, "%d traces, %d events, eviction sequences identical (%.1fs)"
           % (200, total_events, elapsed))


def test_c02_score_mode_matches_sort_based_min_k():
    """10^4 random (list, scores, k) instances, lengths up to 512."""
    rng = random.Random(77)
    for trial in range(10_000):
        if trial % 10 < 7:
            n = rng.randrange(1, 64)
        else:
            n = rng.randrange(64, 513)
        cgroup = CgroupSim(0, 1024)
        store = PolicyCgroup(cgroup, [])
        fids = range(1, n + 1)
        lst = store.list_create()
        for fid in fids:
            cgroup.inactive[fid] = Folio(fid, 0, fid, 0, False)
            store.list_add(lst, fid, tail=True)
        scores = {fid: rng.randrange(-1000, 1000) for fid in fids}
        k = rng.randrange(1, 33)
        ctx = EvictionContext(k)
        store.list_iterate(lst, scores.__getitem__,
                           IterOptions(mode=IterMode.SCORE,
                                       scan_limit=max(n, k)), ctx)
        expect = [fid for _, _, fid in
                  sorted((scores[fid], fid - 1, fid) for fid in fids)][:k]
        assert ctx.candidates == expect
    report(2, "10000 scoring instances equal the sort-based oracle exactly")


LOOP_CACHE = 7000     # pages; corpus is 1.43x this (cache = 70% of corpus)
LOOP_CORPUS = {"corpus_files": 100, "file_pages": 100, "passes": 10}


def _loop_scan_hit_ratios(policy, params=None, cache=LOOP_CACHE,
                          corpus=LOOP_CORPUS):
    """Replay the repeated-search trace; returns (overall, steady) hit
    ratios, steady-state meaning every pass after the first."""
    config = ScenarioConfig(cgroups=[CgroupSpec(0, cache * PAGE, policy,
                                                params or {})],
                            workload=WorkloadSpec("filesearch", corpus),
                            seed=1)
    errors = config.validate()
    assert not errors, errors
    events = list(build_events(config.workload, config.seed))
    pass_len = corpus["corpus_files"] * corpus["file_pages"]
    sim = Simulator()
    sim.add_cgroup(0, cache)
    policy_obj = make_policy(policy, params or {})
    if policy_obj is not None:
        sim.attach_policy(0, policy_obj)
    replay(sim, events[:pass_len])
    warm = sim.stats(0).hits
    replay(sim, events[pass_len:])
    stats = sim.stats(0)
    steady = (stats.hits - warm) / (len(events) - pass_len)
    return stats.hits / len(events), steady


def test_c03_mru_beats_default_on_loop_scan():
    """Repeated full-corpus searches with the cache at 70% of the corpus."""
    start = time.perf_counter()
    mru_overall, mru_steady = _loop_scan_hit_ratios("mru")
    default_overall, default_steady = _loop_scan_hit_ratios("default")
    elapsed = time.perf_counter() - start
    assert mru_steady >= 0.60
    assert mru_steady >= 3 * default_steady
    assert elapsed < 30.0
    report(3, "MRU steady-state %.3f vs default %.3f (overall %.3f vs %.3f, "
              "%.1fs)" % (mru_steady, default_steady, mru_overall,
                          default_overall, elapsed))


def test_c04_lfu_beats_default_on_zipfian_reads():
    """YCSB-C with the keyspace footprint at 10x the cache, theta 0.99,
    10^6 events: LFU must win by at least two percentage points."""
    cache_pages = 512
    keyspace = 20480          # 1 KiB values: 5120 pages = 10x cache
    config = ScenarioConfig(
        cgroups=[CgroupSpec(0, cache_pages * PAGE)],
        workload=WorkloadSpec("ycsb-c", {"keyspace": keyspace,
                                         "count": 1_000_000}),
        seed=42)
    result = compare(config, ["default", "lfu"])
    ratios = {label: m.hit_ratio for label, m in result.rows}
    gap = ratios["lfu"] - ratios["default"]
    assert gap >= 0.02
    report(4, "LFU %.4f vs default %.4f (+%.2fpp)"
           % (ratios["lfu"], ratios["default"], 100 * gap))


def test_c05_getscan_policy_shields_point_reads_from_scans():
    """99.95% zipfian gets / 0.05% long scans over a 2x-cache cold region."""
    cache_pages = 2048
    workload = {"count": 200_000, "get_keyspace": 8192, "theta": 0.5,
                "scan_len_pages": 512,
                "scan_region_pages": 2 * cache_pages,
                "scan_threads": (100, 101)}
    ratios = {}
    scans = {}
    for policy, params in (("default", {}),
                           ("getscan", {"scan_threads": [100, 101]})):
        config = ScenarioConfig(
            cgroups=[CgroupSpec(0, cache_pages * PAGE, policy, params)],
            workload=WorkloadSpec("getscan", dict(workload)),
            seed=7)
        metrics = run(config).rows[0][1]
        ratios[policy] = metrics.get_hit_ratio
        scans[policy] = metrics.scan_hit_ratio
        assert metrics.invalid_candidates == 0
    gap = ratios["getscan"] - ratios["default"]
    assert gap >= 0.10
    report(5, "GET hit ratio %.4f vs %.4f (+%.1fpp); scan hit ratios "
              "%.3f vs %.3f" % (ratios["getscan"], ratios["default"],
                                100 * gap, scans["getscan"] or 0.0,
                                scans["default"] or 0.0))


def test_c06_s3fifo_filters_one_hit_wonders():
    """Alternating hot-set (half the cache) and never-again pages."""
    cache = 512
    hot_pages = cache // 2
    rng = random.Random(3)
    trace = []
    next_wonder = 0
    for i in range(20_000):
        if i % 2 == 0:
            trace.append((0, rng.randrange(hot_pages)))
        else:
            trace.append((1, next_wonder))
            next_wonder += 1
    wonder_keys = {(1, page) for page in range(next_wonder)}

    def run_policy(policy, track_main):
        sim = make_sim(limit_pages=cache, policy=policy)
        cg = sim.cgroup(0)
        hits = 0
        ever_main = set()
        for file, page in trace:
            if sim.access_page(0, file, page):
                hits += 1
            elif track_main:
                # promotions only happen on miss-driven eviction rounds
                for fid in policy.cg.list_members(policy.main):
                    folio = cg.inactive.get(fid) or cg.active.get(fid)
                    ever_main.add((folio.file, folio.offset))
        return hits / len(trace), ever_main

    s3_hit, ever_main = run_policy(S3FifoPolicy(), track_main=True)
    fifo_hit, _ = run_policy(FifoPolicy(), track_main=False)
    leaked = len(ever_main & wonder_keys)
    filtered = 1 - leaked / next_wonder
    assert s3_hit >= fifo_hit
    assert filtered >= 0.95
    report(6, "S3-FIFO %.4f >= FIFO %.4f; %.1f%% of %d one-hit wonders "
              "never reached the main queue"
           % (s3_hit, fifo_hit, 100 * filtered, next_wonder))


def test_c07_registry_memory_accounting_exact():
    """16 bytes per bucket, 32 per filled entry: 0.4% empty, 1.2% full."""
    for gib in (1, 5, 10):
        size = gib * GIB
        limit_pages = size // PAGE
        empty = registry_memory_estimate(limit_pages, 0)
        full = registry_memory_estimate(limit_pages, limit_pages)
        assert empty == limit_pages * 16
        assert full == limit_pages * 48
        assert round(100 * empty / size, 1) == 0.4
        assert round(100 * full / size, 1) == 1.2
    report(7, "registry overhead is 0.4% empty and 1.2% full for "
              "1/5/10 GiB cgroups, exact")


class HalfDeliveryPolicy(PolicyHooks):
    """Faulty by design: proposes only half of every requested batch."""

    name = "half-delivery"

    def policy_init(self, cg):
        self.cg = cg
        self.queue = cg.list_create()

    def folio_added(self, folio):
        self.cg.list_add(self.queue, folio.id, tail=True)

    def evict_folios(self, ctx, cg):
        for fid in cg.list_members(self.queue)[:ctx.room() // 2]:
            ctx.propose(fid)


def test_c08_fallback_keeps_capacity_with_faulty_policy():
    """A policy that under-delivers candidates can never break the
    cgroup's limit; the default path silently covers the shortfall."""
    cache = 256
    policy = HalfDeliveryPolicy()
    sim = make_sim(limit_pages=cache, policy=policy)
    rng = random.Random(15)
    for seq in range(100_000):
        sim.access_page(0, 0, rng.randrange(2 * cache))
        assert sim.resident_pages(0) <= cache
    stats = sim.stats(0)
    assert stats.evictions_fallback > 0
    assert stats.misses - stats.removals == sim.resident_pages(0)
    sim.check_invariants()

    # the ten-for-five shape: asked for 10, delivers 5, fallback covers 5
    sim2 = make_sim(limit_pages=64, policy=HalfDeliveryPolicy())
    for page in range(64):
        sim2.access_page(0, 0, page)
    sim2.set_limit(0, 54)
    stats2 = sim2.stats(0)
    assert sim2.resident_pages(0) == 54
    assert stats2.evictions_policy == 5
    assert stats2.evictions_fallback == 5
    report(8, "100000 events, zero capacity violations, %d fallback "
              "evictions; 10-requested/5-proposed round split 5+5"
           % stats.evictions_fallback)


def _isolation_report(ycsb_count=100_000, seed=42):
    config_a = ScenarioConfig(
        cgroups=[CgroupSpec(0, 512 * PAGE, "lfu")],
        workload=WorkloadSpec("ycsb-c", {"keyspace": 20480,
                                         "count": ycsb_count}),
        seed=seed)
    config_b = ScenarioConfig(
        cgroups=[CgroupSpec(1, 700 * PAGE, "mru")],
        workload=WorkloadSpec("filesearch", {"corpus_files": 10,
                                             "file_pages": 100,
                                             "passes": 10}),
        seed=seed)
    return scenario_isolation(config_a, config_b)


def test_c09_tailored_policies_dominate_shared_policies():
    """Two tenants (zipfian key-value + repeated file search): the
    tailored LFU+MRU assignment beats both-default on both tenants, and
    every uniform assignment degrades at least one tenant."""
    result = _isolation_report()
    tailored = {cg: result.hit_ratio("tailored", cg) for cg in (0, 1)}
    baseline = {cg: result.hit_ratio("both-default", cg) for cg in (0, 1)}
    assert tailored[0] > baseline[0]
    assert tailored[1] > baseline[1]
    for uniform in ("both-default", "both-lfu", "both-mru"):
        degraded = [cg for cg in (0, 1)
                    if result.hit_ratio(uniform, cg) < tailored[cg]]
        assert degraded, uniform
    report(9, "tailored (%.3f, %.3f) > both-default (%.3f, %.3f); every "
              "uniform assignment degrades a tenant"
           % (tailored[0], tailored[1], baseline[0], baseline[1]))


def test_c10_lhd_statistics_and_loop_scan():
    """Density sanity, EWMA decay, reconfiguration isolation, and no
    worse than the default policy on the loop-scan trace."""
    policy = LhdPolicy(age_granularity=1)
    sim = make_sim(limit_pages=256, policy=policy)
    rng = random.Random(5)
    cells = {}
    for _ in range(300):
        c = rng.randrange(policy.NUM_CLASSES)
        a = rng.randrange(policy.MAX_AGE)
        value = rng.randrange(1, 1 << 40)
        policy.hits[c][a] = value
        policy.evictions[c][a] = value // 2
        cells[(c, a)] = value
    policy.reconfigure()
    for (c, a), value in cells.items():
        assert abs(policy.hits[c][a] - 0.9 * value) <= 1
        assert abs(policy.evictions[c][a] - 0.9 * (value // 2)) <= 1
    assert all(d >= 0 for grid in (policy.hit_density,)
               for row in grid for d in row)

    for page in range(16):
        sim.access_page(0, 1, page)
    sim.access_page(0, 1, 3)
    before = {fid: list(m) for fid, m in policy.meta.items()}
    policy.reconfigure()
    assert {fid: list(m) for fid, m in policy.meta.items()} == before

    small_corpus = {"corpus_files": 10, "file_pages": 100, "passes": 10}
    lhd_overall, _ = _loop_scan_hit_ratios(
        "lhd", {"reconfig_interval": 4096}, cache=700, corpus=small_corpus)
    default_overall, _ = _loop_scan_hit_ratios("default", cache=700,
                                               corpus=small_corpus)
    assert lhd_overall >= default_overall
    report(10, "densities nonnegative, decay within 1 unit of 90%%, "
               "reconfiguration leaves folio metadata alone, loop-scan "
               "hit ratio %.3f >= default %.3f"
           % (lhd_overall, default_overall))


def test_c11_reruns_are_byte_identical(tmp_path):
    """Same seed, same config: byte-identical CSV reports for the run,
    compare, and isolation paths, plus generated traces."""
    def run_csv(path):
        config = ScenarioConfig(
            cgroups=[CgroupSpec(0, 2048 * PAGE, "getscan",
                                {"scan_threads": [100, 101]})],
            workload=WorkloadSpec("getscan", {
                "count": 20_000, "get_keyspace": 8192, "theta": 0.5,
                "scan_len_pages": 512, "scan_region_pages": 4096,
                "scan_threads": (100, 101)}),
            seed=7)
        run(config).save(path)

    def compare_csv(path):
        config = ScenarioConfig(
            cgroups=[CgroupSpec(0, 512 * PAGE)],
            workload=WorkloadSpec("ycsb-c", {"keyspace": 20480,
                                             "count": 50_000}),
            seed=42)
        compare(config, ["default", "lfu", "s3fifo"]).save(path)

    def isolation_csv(path):
        _isolation_report(ycsb_count=20_000).save(str(path))

    def trace_csv(path):
        from pagecachesim import write_trace
        write_trace(path, build_events(
            WorkloadSpec("ycsb-a", {"keyspace": 500, "count": 5000}), 9))

    for name, producer in (("run", run_csv), ("compare", compare_csv),
                           ("isolation", isolation_csv),
                           ("trace", trace_csv)):
        first = tmp_path / ("%s_a.csv" % name)
        second = tmp_path / ("%s_b.csv" % name)
        producer(first)
        producer(second)
        assert first.read_bytes() == second.read_bytes(), name
    report(11, "run, compare, isolation, and gen-trace outputs are "
               "byte-identical across reruns")
