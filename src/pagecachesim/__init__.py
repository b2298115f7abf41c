"""Trace-driven page-cache simulator with pluggable per-cgroup eviction
policies: a two-list default policy with shadow-entry refault handling, a
five-hook policy framework with indexed eviction lists and candidate
validation, six ready-made policies, deterministic workload generators,
and a replay harness with CSV reporting."""

from .core import (
    Folio,
    PAGE_SIZE,
    PolicyAttachError,
    SimulationError,
    Simulator,
    UnknownCgroupError,
)
from .harness import (
    CgroupSpec,
    ConfigError,
    Metrics,
    ReplayError,
    Report,
    ScenarioConfig,
    WorkloadSpec,
    build_events,
    compare,
    replay,
    run,
    scenario_isolation,
)
from .policies import (
    FifoPolicy,
    GetScanPolicy,
    LfuPolicy,
    LhdPolicy,
    MruPolicy,
    POLICY_NAMES,
    S3FifoPolicy,
    make_policy,
)
from .policy_api import (
    CANDIDATES_MAX,
    Disposition,
    EvictionContext,
    IterMode,
    IterOptions,
    ListStatus,
    PolicyCgroup,
    PolicyHooks,
    RemovalReason,
    Verdict,
    registry_memory_estimate,
)
from .workloads import (
    Op,
    TraceEvent,
    TraceFormatError,
    gen_filesearch,
    gen_getscan,
    gen_ycsb,
    parse_trace,
    write_trace,
    zipf_cdf,
)

__version__ = "0.1.0"
