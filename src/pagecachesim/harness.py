"""Scenario configuration, trace replay, metrics, and CSV reporting.

The harness turns a declarative ``ScenarioConfig`` into report rows. One
private function, ``_replay_rows``, does every replay: it creates the
cgroups, attaches one (policy, params) pair per cgroup from the policy
table in ``policies``, replays an event stream page by page, checks the
accounting identities, and collects per-cgroup ``Metrics``. The three
entry points validate their input, call it and return an unsaved
``Report``: ``run`` with each cgroup's own policy, ``compare`` once per
policy on the same stream, and ``scenario_isolation`` once per policy
assignment of a two-tenant experiment on two interleaved workloads.

Hit ratios are the reported quantity; absolute throughput and latency are
hardware-bound and out of scope. Reports are CSV with one row per
(policy, cgroup) and a stable column order, and hold no timing, so reruns
of the same seed produce byte-identical files (see ``Report.save``).
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field, fields as dataclass_fields
from functools import partial

from .core import PAGE_SIZE, Simulator
from .policies import make_policy
from .policy_api import CANDIDATES_MAX, DEFAULT_SCAN_LIMIT
from .workloads import (
    Op,
    TraceEvent,
    gen_filesearch,
    gen_getscan,
    gen_ycsb,
    need_int,
    parse_trace,
)


class ConfigError(ValueError):
    """Scenario validation failed; the message lists every problem found."""


class ReplayError(RuntimeError):
    """Replay aborted; the message names the failing event."""


@dataclass
class Metrics:
    """Per-cgroup outcome of one run. ``*_hit_ratio`` fields are None when
    the cgroup saw no accesses of that kind."""

    cgroup: int
    accesses: int
    hits: int
    misses: int
    hit_ratio: float
    get_hit_ratio: float | None
    scan_hit_ratio: float | None
    read_hit_ratio: float | None
    write_hit_ratio: float | None
    evictions_policy: int
    evictions_fallback: int
    invalid_candidates: int
    refault_activations: int
    writebacks: int
    file_removed_folios: int


CSV_COLUMNS = ("policy",) + tuple(f.name for f in dataclass_fields(Metrics))


@dataclass
class CgroupSpec:
    """One tenant: id, memory limit in bytes (multiple of 4096), policy
    name, and policy parameters."""

    id: int
    limit_bytes: int
    policy: str = "default"
    params: dict = field(default_factory=dict)

    @property
    def limit_pages(self) -> int:
        return self.limit_bytes // PAGE_SIZE


@dataclass
class WorkloadSpec:
    """A named generator plus its parameters, or kind="trace" with a
    ``path`` parameter. The seed is the scenario's; parameters that carry
    one are rejected."""

    kind: str
    params: dict = field(default_factory=dict)


#: Workload table: kind -> builder, which checks its own parameters.
WORKLOADS = {
    "ycsb-a": partial(gen_ycsb, "A"),
    "ycsb-c": partial(gen_ycsb, "C"),
    "uniform": partial(gen_ycsb, "Uniform"),
    "uniform-rw": partial(gen_ycsb, "UniformRW"),
    "filesearch": gen_filesearch,
    "getscan": gen_getscan,
    "trace": parse_trace,
}

WORKLOAD_KINDS = tuple(WORKLOADS)


def build_events(spec: WorkloadSpec, seed: int):
    """Instantiate a workload's event iterator. Parameter problems raise
    ValueError/TypeError here, not at first consumption."""
    if spec.kind not in WORKLOADS:
        raise ValueError("unknown workload kind %r (expected one of %s)"
                         % (spec.kind, ", ".join(WORKLOAD_KINDS)))
    if "seed" in spec.params:
        raise ValueError("seed is set by the scenario, not the workload")
    if spec.kind == "trace":  # a trace has no seed
        return parse_trace(**spec.params)
    return WORKLOADS[spec.kind](seed=seed, **spec.params)


@dataclass
class ScenarioConfig:
    cgroups: list[CgroupSpec] = field(default_factory=list)
    workload: WorkloadSpec | None = None
    seed: int = 0
    scan_window: int = DEFAULT_SCAN_LIMIT

    def validate(self) -> list[str]:
        """Collect every configuration problem instead of stopping at the
        first one."""
        errors = []
        try:
            need_int("scan_window", self.scan_window, CANDIDATES_MAX)
            window_error = None
            window = self.scan_window
        except (TypeError, ValueError) as exc:
            # reported once below; the policies' own parameters are checked
            # with the default window
            window_error = str(exc)
            window = DEFAULT_SCAN_LIMIT
        if not self.cgroups:
            errors.append("at least one cgroup is required")
        seen = set()
        for spec in self.cgroups:
            label = "cgroup %r" % (spec.id,)
            if spec.id in seen:
                errors.append("%s: duplicate id" % label)
            seen.add(spec.id)
            try:
                if need_int("limit_bytes", spec.limit_bytes) % PAGE_SIZE:
                    errors.append("%s: limit_bytes must be a multiple of %d"
                                  % (label, PAGE_SIZE))
            except (TypeError, ValueError) as exc:
                errors.append("%s: %s" % (label, exc))
            try:
                make_policy(spec.policy, spec.params, window)
            except (TypeError, ValueError) as exc:
                errors.append("%s: %s" % (label, exc))
        if window_error is not None:
            errors.append(window_error)
        try:
            need_int("seed", self.seed, None)  # negative seeds are fine
        except TypeError as exc:
            errors.append(str(exc))
        if self.workload is None:
            errors.append("a workload is required")
        else:
            try:
                build_events(self.workload, self.seed)
            except (TypeError, ValueError, OSError) as exc:
                errors.append("workload: %s" % exc)
        return errors


@dataclass
class Report:
    """Rows of (policy label, Metrics) sharing the CSV schema."""

    rows: list

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for label, m in self.rows:
            writer.writerow([label] + [_cell(getattr(m, col))
                                       for col in CSV_COLUMNS[1:]])
        return out.getvalue()

    def save(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(self.to_csv())


def _cell(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return "%.6f" % value
    return value


def _ratio(hits, accesses):
    return None if accesses == 0 else hits / accesses


def replay(sim: Simulator, events) -> dict:
    """Feed events through the simulator, expanding byte ranges to page
    accesses (the pages of ``TraceEvent.page_range``). Returns
    per-(cgroup, op) [accesses, hits] tallies.

    If any attached policy does deferred work (see
    ``Simulator.run_deferred``), ``sim.run_deferred()`` runs after every
    event; otherwise it is not called.

    ``sim.access_page`` is looked up on every call. A timer may install a
    one-shot shim on ``Simulator.access_page`` that puts the original back
    on its first call, as the benchmark does; code that times a replay
    must not otherwise rebind it between events, or every later access
    runs through the rebinding."""
    tallies: dict = {}  # (cgroup, op value) -> [accesses, hits]
    delete, write_op = Op.DELETE, Op.WRITE
    deferred = sim.has_deferred_work
    for ev in events:
        try:
            op = ev.op
            if op is delete:
                sim.remove_file(ev.cgroup, ev.file)
            else:
                cgroup = ev.cgroup
                offset = ev.offset_bytes
                first = offset // PAGE_SIZE
                last = (offset + ev.len_bytes - 1) // PAGE_SIZE
                write = op is write_op
                if first == last:
                    accesses = 1
                    hits = sim.access_page(cgroup, ev.file, first, write,
                                           ev.thread)
                else:
                    file, thread = ev.file, ev.thread
                    pages = range(first, last + 1)
                    accesses = len(pages)
                    hits = 0
                    for page in pages:
                        hits += sim.access_page(cgroup, file, page, write,
                                                thread)
                key = (cgroup, op._value_)
                t = tallies.get(key)
                if t is None:
                    t = tallies[key] = [0, 0]
                t[0] += accesses
                t[1] += hits
        except Exception as exc:
            raise ReplayError("event seq %d failed: %s" % (ev.seq, exc)) from exc
        if deferred:
            sim.run_deferred()
    return {(cgroup, Op(value)): t for (cgroup, value), t in tallies.items()}


def collect_metrics(sim: Simulator, cgroup_id: int, tallies: dict) -> Metrics:
    stats = sim.stats(cgroup_id)

    def op_ratio(op):
        t = tallies.get((cgroup_id, op))
        return None if t is None else _ratio(t[1], t[0])

    return Metrics(
        cgroup=cgroup_id,
        accesses=stats.accesses,
        hits=stats.hits,
        misses=stats.misses,
        hit_ratio=_ratio(stats.hits, stats.accesses) or 0.0,
        get_hit_ratio=op_ratio(Op.GET),
        scan_hit_ratio=op_ratio(Op.SCAN),
        read_hit_ratio=op_ratio(Op.READ),
        write_hit_ratio=op_ratio(Op.WRITE),
        evictions_policy=stats.evictions_policy,
        evictions_fallback=stats.evictions_fallback,
        invalid_candidates=stats.invalid_candidates,
        refault_activations=stats.refault_activations,
        writebacks=stats.writebacks,
        file_removed_folios=stats.file_removed_folios,
    )


def _check_conservation(sim: Simulator, cgroup_id: int, tallies: dict):
    """Accounting identities that must hold after every run."""
    stats = sim.stats(cgroup_id)
    if stats.hits + stats.misses != stats.accesses:
        raise AssertionError("hits + misses != accesses for cgroup %r"
                             % cgroup_id)
    resident = sim.resident_pages(cgroup_id)
    if stats.misses - stats.removals != resident:
        raise AssertionError(
            "insertions - removals != resident for cgroup %r" % cgroup_id)
    tallied = sum(t[0] for (cg, _), t in tallies.items() if cg == cgroup_id)
    if tallied != stats.accesses:
        raise AssertionError("per-op tallies out of sync for cgroup %r"
                             % cgroup_id)


def _replay_rows(config: ScenarioConfig, assignment, events) -> list:
    """The single replay path. Builds a simulator with ``config``'s cgroups,
    attaches ``assignment[i]``, a (policy name, params) pair, to
    ``config.cgroups[i]`` with ``config``'s scan window, replays ``events``,
    and returns one (policy name, Metrics) row per cgroup in config order."""
    sim = Simulator()
    for spec, (name, params) in zip(config.cgroups, assignment):
        sim.add_cgroup(spec.id, spec.limit_pages)
        policy = make_policy(name, params, config.scan_window)
        if policy is not None:
            sim.attach_policy(spec.id, policy)
    tallies = replay(sim, events)
    rows = []
    for spec, (name, _) in zip(config.cgroups, assignment):
        _check_conservation(sim, spec.id, tallies)
        rows.append((name, collect_metrics(sim, spec.id, tallies)))
    return rows


def _raise_if(errors: list, what: str = "scenario") -> None:
    if errors:
        raise ConfigError("invalid %s:\n  %s" % (what, "\n  ".join(errors)))


def run(config: ScenarioConfig) -> Report:
    """Replay one scenario, each cgroup under its own policy, and return
    per-cgroup metrics in cgroup id order."""
    _raise_if(config.validate())
    rows = _replay_rows(config, [(s.policy, s.params) for s in config.cgroups],
                        build_events(config.workload, config.seed))
    return Report(sorted(rows, key=lambda row: row[1].cgroup))


def compare(config: ScenarioConfig, policies) -> Report:
    """Run the identical event stream once per policy.

    ``policies`` is a list of policy names or (name, params) pairs; each
    entry is applied to every cgroup for its run. Rows keep the input
    order, and within one run, cgroup id order. The stream is rebuilt from
    the same seed for every run, so all runs see exactly the same events.
    Runs share no state and could execute in parallel; they run
    sequentially here and the row order is deterministic either way.
    """
    if not policies:
        raise ConfigError("compare needs at least one policy")
    assignments = [(entry, {}) if isinstance(entry, str) else entry
                   for entry in policies]
    errors = config.validate()
    for name, params in assignments:
        try:
            make_policy(name, params, config.scan_window)
        except (TypeError, ValueError) as exc:
            errors.append("compare policy %r: %s" % (name, exc))
    _raise_if(errors)
    rows = []
    for entry in assignments:
        run_rows = _replay_rows(config, [entry] * len(config.cgroups),
                                build_events(config.workload, config.seed))
        rows.extend(sorted(run_rows, key=lambda row: row[1].cgroup))
    return Report(rows)


#: File ids of a merged stream's second tenant are shifted by this much so
#: the two workloads never share pages.
FILE_NAMESPACE_STRIDE = 1 << 32


def merge_streams(first: list, second: list) -> list:
    """Interleave two event lists proportionally to their lengths, so both
    finish together and each stream's internal order is preserved. Events
    are renumbered with merged sequence numbers."""
    merged = []
    ia = ib = 0
    na, nb = len(first), len(second)
    while ia < na or ib < nb:
        if ib >= nb or (ia < na and ia * nb <= ib * na):
            ev = first[ia]
            ia += 1
        else:
            ev = second[ib]
            ib += 1
        merged.append(TraceEvent(len(merged), ev.op, ev.cgroup, ev.file,
                                 ev.offset_bytes, ev.len_bytes, ev.thread))
    return merged


def _retarget(events, cgroup, file_stride=0):
    """Point a stream at one tenant: rewrite the cgroup id and optionally
    shift file ids into a disjoint namespace."""
    for ev in events:
        yield TraceEvent(ev.seq, ev.op, cgroup, ev.file + file_stride,
                         ev.offset_bytes, ev.len_bytes, ev.thread)


@dataclass
class IsolationReport(Report):
    """Metrics for each (scenario, cgroup) of the two-tenant experiment."""

    scenarios: dict

    def hit_ratio(self, scenario: str, cgroup: int) -> float:
        return self.scenarios[scenario][cgroup].hit_ratio


def scenario_isolation(config_a: ScenarioConfig,
                       config_b: ScenarioConfig) -> IsolationReport:
    """Two tenants, four policy assignments.

    Each config must hold exactly one cgroup (with its tailored policy) and
    one workload. The two streams are merged round-robin, scaled by their
    lengths, and replayed under: both cgroups on the default policy, both
    on tenant A's policy, both on tenant B's policy, and the tailored
    assignment. Tenant B's files are shifted into a disjoint namespace so
    the tenants never share pages. The merged replay has one scan window
    and names scenarios by policy, so the configs must share their
    ``scan_window``, and two tenants on one policy its params.
    """
    for label, cfg in (("first", config_a), ("second", config_b)):
        errors = cfg.validate()
        if len(cfg.cgroups) != 1:
            errors.append("isolation needs exactly one cgroup per config")
        elif cfg.cgroups[0].policy == "default":
            errors.append("isolation needs a tailored policy per config")
        _raise_if(errors, "%s scenario" % label)
    spec_a, spec_b = config_a.cgroups[0], config_b.cgroups[0]
    if spec_a.id == spec_b.id:
        raise ConfigError("isolation needs two distinct cgroup ids")
    if config_a.scan_window != config_b.scan_window:
        raise ConfigError("isolation needs one scan_window for both tenants, "
                          "got %r and %r" % (config_a.scan_window,
                                             config_b.scan_window))
    if spec_a.policy == spec_b.policy and spec_a.params != spec_b.params:
        raise ConfigError("isolation needs one set of params per policy: "
                          "%r has %r and %r" % (spec_a.policy, spec_a.params,
                                                spec_b.params))

    stream_a = list(_retarget(build_events(config_a.workload, config_a.seed),
                              spec_a.id))
    stream_b = list(_retarget(build_events(config_b.workload, config_b.seed),
                              spec_b.id, FILE_NAMESPACE_STRIDE))
    merged = merge_streams(stream_a, stream_b)

    default = ("default", {})
    tailored_a = (spec_a.policy, spec_a.params)
    tailored_b = (spec_b.policy, spec_b.params)
    scenarios = [
        ("both-default", default, default),
        ("both-%s" % spec_a.policy, tailored_a, tailored_a),
        ("both-%s" % spec_b.policy, tailored_b, tailored_b),
        ("tailored", tailored_a, tailored_b),
    ]

    base = ScenarioConfig(cgroups=[spec_a, spec_b],
                          scan_window=config_a.scan_window)
    rows = []
    results: dict = {}
    for name, policy_a, policy_b in scenarios:
        if name in results:
            continue
        scenario_rows = _replay_rows(base, [policy_a, policy_b], merged)
        results[name] = {m.cgroup: m for _, m in scenario_rows}
        rows.extend(("%s/%s" % (name, label), m)
                    for label, m in scenario_rows)
    return IsolationReport(rows, results)
