"""Command-line interface.

Subcommands:

* ``run``       replay one workload in one cgroup and report metrics
* ``compare``   replay the same workload under several policies
* ``isolation`` the two-tenant tailored-policy experiment
* ``gen-trace`` write a generated workload out as a trace CSV

Workload specs look like ``name:key=value,key=value``, e.g.
``ycsb-c:keyspace=40960,count=100000`` or
``filesearch:corpus_files=20,file_pages=100,passes=10``. Policy parameters,
the eviction scan's window among them, are repeatable ``--param key=value``
flags of ``run`` and ``compare``; ``isolation`` runs each policy with its
defaults. A value is an int, else a float, else a string; ``a+b`` is a
list. Each policy class and generator checks its own parameters, so a
wrong type or range exits 1 with an ``error:`` line that names the
parameter. ``run`` and ``compare`` take exactly one of ``--workload`` and
``--trace``. The report goes to stdout and, with ``--out``, to a file the
CLI writes. Exit status is 0 on success, 1 on any validation or replay
error and 2 on a usage error.
"""

from __future__ import annotations

import argparse
import sys

from .harness import (
    CgroupSpec,
    ConfigError,
    ReplayError,
    ScenarioConfig,
    WorkloadSpec,
    WORKLOAD_KINDS,
    build_events,
    compare,
    run,
    scenario_isolation,
)
from .policies import POLICY_NAMES
from .workloads import TraceFormatError, write_trace


def _parse_value(raw: str):
    """Literal-ish parsing: int, float, comma-free lists handled upstream."""
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    return raw


def _parse_kv(pairs):
    params = {}
    for pair in pairs or ():
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise ConfigError("expected key=value, got %r" % pair)
        if "+" in value:
            params[key] = [_parse_value(v) for v in value.split("+")]
        else:
            params[key] = _parse_value(value)
    return params


def _parse_workload(spec: str) -> WorkloadSpec:
    kind, _, rest = spec.partition(":")
    return WorkloadSpec(kind, _parse_kv(rest.split(",")) if rest else {})


def _workload_from_args(args) -> WorkloadSpec:
    if args.trace is not None:
        return WorkloadSpec("trace", {"path": args.trace})
    return _parse_workload(args.workload)


def _add_common(parser):
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--workload",
                        help="generator spec, e.g. ycsb-c:keyspace=40960,"
                             "count=100000 (kinds: %s)"
                             % ", ".join(WORKLOAD_KINDS))
    source.add_argument("--trace", help="replay a trace CSV instead")
    parser.add_argument("--limit-bytes", type=int, default=16 << 20,
                        help="cgroup memory limit (default 16 MiB)")
    _add_replay(parser)


def _add_replay(parser):
    """The flags every replaying subcommand shares."""
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", help="write the report CSV here")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="pagecachesim",
        description="Trace-driven page-cache simulator with pluggable "
                    "per-cgroup eviction policies.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="replay one workload in one cgroup")
    _add_common(p_run)
    p_run.add_argument("--policy", default="default", choices=POLICY_NAMES)
    p_run.add_argument("--param", action="append", metavar="KEY=VALUE",
                       help="policy parameter; lists use +, e.g. "
                            "scan_threads=100+101")

    p_cmp = sub.add_parser("compare",
                           help="replay the same stream under many policies")
    _add_common(p_cmp)
    p_cmp.add_argument("--policy", action="append", required=True,
                       choices=POLICY_NAMES,
                       help="repeatable; one run per policy")
    p_cmp.add_argument("--param", action="append", metavar="KEY=VALUE",
                       help="policy parameters shared by all non-default "
                            "policies")

    p_iso = sub.add_parser("isolation",
                           help="two-tenant tailored-policy experiment")
    p_iso.add_argument("--workload-a", required=True,
                       help="first tenant workload spec")
    p_iso.add_argument("--workload-b", required=True,
                       help="second tenant workload spec")
    p_iso.add_argument("--policy-a", default="lfu", choices=POLICY_NAMES)
    p_iso.add_argument("--policy-b", default="mru", choices=POLICY_NAMES)
    p_iso.add_argument("--limit-bytes-a", type=int, default=16 << 20)
    p_iso.add_argument("--limit-bytes-b", type=int, default=4 << 20)
    _add_replay(p_iso)

    p_gen = sub.add_parser("gen-trace",
                           help="write a generated workload as a trace CSV")
    p_gen.add_argument("--workload", required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True)
    return parser


def _config(args, cgroup: CgroupSpec, workload: WorkloadSpec):
    """A one-cgroup scenario with the shared replay flags."""
    return ScenarioConfig(cgroups=[cgroup], workload=workload, seed=args.seed)


def _cmd_run(args) -> int:
    report = run(_config(args, CgroupSpec(0, args.limit_bytes, args.policy,
                                          _parse_kv(args.param)),
                         _workload_from_args(args)))
    _emit(report, args.out)
    return 0


def _cmd_compare(args) -> int:
    params = _parse_kv(args.param)
    config = _config(args, CgroupSpec(0, args.limit_bytes),
                     _workload_from_args(args))
    policies = [(name, params if name != "default" else {})
                for name in args.policy]
    report = compare(config, policies)
    _emit(report, args.out)
    return 0


def _cmd_isolation(args) -> int:
    config_a = _config(args, CgroupSpec(0, args.limit_bytes_a, args.policy_a),
                       _parse_workload(args.workload_a))
    config_b = _config(args, CgroupSpec(1, args.limit_bytes_b, args.policy_b),
                       _parse_workload(args.workload_b))
    report = scenario_isolation(config_a, config_b)
    _emit(report, args.out)
    return 0


def _cmd_gen_trace(args) -> int:
    try:
        events = build_events(_parse_workload(args.workload), args.seed)
    except (TypeError, ValueError) as exc:
        raise ConfigError("workload: %s" % exc) from exc
    count = write_trace(args.out, events)
    print("wrote %d events to %s" % (count, args.out))
    return 0


def _emit(report, out_path) -> None:
    if out_path:  # first, so a failed write leaves stdout empty
        report.save(out_path)
    sys.stdout.write(report.to_csv())
    if out_path:
        print("report written to %s" % out_path, file=sys.stderr)


_COMMANDS = {
    "run": _cmd_run,
    "compare": _cmd_compare,
    "isolation": _cmd_isolation,
    "gen-trace": _cmd_gen_trace,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, ReplayError, TraceFormatError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
