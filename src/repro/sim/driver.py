"""End-to-end dataset simulation.

:func:`run_dataset` executes one capture snapshot: it builds the vantage's
zone and authoritative deployment, instantiates the cloud-provider and
background resolver fleets, drives client query streams through every
resolver, and returns the captured traffic plus everything the analysis
layer needs (AS registry, PTR table, fleet metadata).

This is the reproduction's stand-in for "one week of pcap collection at the
vantage point".

Execution is sharded through :mod:`repro.runtime`: the fleet is partitioned
into weight-balanced contiguous shards (:func:`repro.runtime.plan_shards`),
which run either sequentially in-process (``workers <= 1``, the default —
exactly the original serial loop) or on a process pool
(:class:`repro.runtime.ShardExecutor`) whose per-shard captures and
telemetry merge back into a result bit-identical to the serial path.  The
capture always comes back in canonical ``(timestamp, server_id)`` order.

Every run is instrumented through :mod:`repro.telemetry`: phase spans
(``zone_build`` / ``fleet_build`` / ``workload`` / ``resolve`` plus the
``runtime.plan`` / ``runtime.execute`` / ``runtime.merge`` and per-shard
``runtime.shard.<i>`` spans), per-provider client-query counters,
aggregated resolver/server/capture counters, and periodic progress logging
on the ``repro.sim`` logger.  The frozen
:class:`~repro.telemetry.TelemetrySnapshot` rides on the returned
:class:`DatasetRun`, alongside the :class:`~repro.runtime.RuntimeReport`
describing how the shards actually executed.
"""

from __future__ import annotations

import itertools
import logging
import os
import time
import zlib
from dataclasses import dataclass, field, replace as dc_replace
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..capture import CaptureStore
from ..clouds import (
    FleetResolver,
    PTRTable,
    build_all_fleets,
    build_facebook_ptr_table,
)
from ..dnscore import Name, ROOT, RRType
from ..faults import FaultInjector, derive_fault_seed
from ..netsim import ASRegistry, GAZETTEER, LatencyModel, SimClock
from ..resolver import (
    AuthorityNetwork,
    CyclicPair,
    ResolverBehavior,
    SyntheticLeafAuthority,
)
from ..runtime import (
    EnvironmentCache,
    RuntimeConfig,
    RuntimeReport,
    ShardExecutor,
    ShardOutcome,
    ShardResult,
    ShardTask,
    environment_fingerprint,
    plan_shards,
    resolve_runtime_config,
)
from ..server import AuthoritativeServer, ServerSet
from ..telemetry import (
    FlightRecorder,
    MetricsRegistry,
    QueryTracer,
    TelemetrySnapshot,
    TraceBuffer,
    TraceConfig,
    resolve_trace_config,
)
from ..workload import DatasetDescriptor, DiurnalPattern, WorkloadGenerator
from ..zones import (
    DEFAULT_TLDS,
    Zone,
    ZoneSpec,
    build_registry_zone,
    build_root_zone,
    domains_of,
)

logger = logging.getLogger("repro.sim")

#: Queries materialised per workload/resolve phase alternation.  Bounds
#: both the memory held in flight and the timer overhead (two spans per
#: chunk, not per query).
_CHUNK = 8192

#: Seconds between progress log lines during the resolve loop (default;
#: override per-run with the REPRO_PROGRESS_INTERVAL env var).
_PROGRESS_INTERVAL_S = 5.0

#: Environment variable overriding the progress-log interval, so long
#: parallel runs can quiet their logs (e.g. REPRO_PROGRESS_INTERVAL=60).
PROGRESS_INTERVAL_ENV = "REPRO_PROGRESS_INTERVAL"


def progress_interval_s(default: float = _PROGRESS_INTERVAL_S) -> float:
    """Progress-log interval, overridable via ``REPRO_PROGRESS_INTERVAL``."""
    raw = os.environ.get(PROGRESS_INTERVAL_ENV)
    if raw is None:
        return default
    value = float(raw)
    if value <= 0:
        raise ValueError(f"{PROGRESS_INTERVAL_ENV} must be positive")
    return value


#: Environment variable enabling streaming execution (``REPRO_STREAM=1``):
#: captures are folded into single-pass aggregate states and spilled to a
#: chunked spool instead of being kept resident as row lists.
STREAM_ENV = "REPRO_STREAM"

_FALSEY = ("", "0", "false", "no", "off")


def configured_stream(default: bool = False) -> bool:
    """Streaming-mode default, overridable via the ``REPRO_STREAM`` env var."""
    raw = os.environ.get(STREAM_ENV)
    if raw is None:
        return default
    return raw.strip().lower() not in _FALSEY


#: Environment variable enabling the vectorized plan/execute core
#: (``REPRO_VECTOR=1``): member resolution traces are recorded once
#: through the scalar engine and replayed as bulk columnar appends on
#: every later run of the same environment (see :mod:`repro.vector`).
VECTOR_ENV = "REPRO_VECTOR"


def configured_vector(default: bool = False) -> bool:
    """Vector-mode default, overridable via the ``REPRO_VECTOR`` env var."""
    raw = os.environ.get(VECTOR_ENV)
    if raw is None:
        return default
    return raw.strip().lower() not in _FALSEY


@dataclass
class DatasetRun:
    """Everything produced by simulating one dataset.

    ``capture`` is a :class:`~repro.capture.CaptureStore` on the default
    in-memory path, or a :class:`~repro.capture.SpooledCapture` under
    streaming execution (``REPRO_STREAM=1``) — both answer ``len()``,
    ``rows_appended``, ``view()`` and ``iter_views()``.  A streaming run
    additionally carries the single-pass ``aggregates``
    (:class:`~repro.analysis.streaming.AggregateSet`) that the analytics
    facade answers from without materialising rows.
    """

    descriptor: DatasetDescriptor
    capture: CaptureStore          #: traffic at the captured vantage servers
    registry: ASRegistry
    fleet: List[FleetResolver]
    ptr_table: PTRTable
    network: AuthorityNetwork
    vantage_zone: Optional[Zone]
    server_sets: Dict[str, ServerSet]
    client_queries_run: int = 0
    telemetry: Optional[TelemetrySnapshot] = None
    runtime_report: Optional[RuntimeReport] = None
    aggregates: Optional[object] = None
    #: Sampled per-query traces (tracing enabled only), in the serial
    #: member order regardless of worker count.
    traces: Optional[TraceBuffer] = None
    #: Windowed rate frames over simulated time (tracing enabled only).
    timeseries: Optional[FlightRecorder] = None

    @property
    def vantage_server_ids(self) -> List[str]:
        return [spec.server_id for spec in self.descriptor.servers if spec.captured]


@dataclass
class SimEnvironment:
    """The fully-built deterministic world for one dataset.

    Constructed identically (given ``(descriptor, seed)``) in the parent
    and in every pool worker; only the member range each party *resolves*
    differs.  All cross-member state in here is deterministic — the latency
    model and anycast catchments are memoised pure functions, the leaf
    authority is hash-based, and every resolver carries its own RNG — which
    is what makes shard placement invisible in the results.
    """

    descriptor: DatasetDescriptor
    seed: int
    latency: LatencyModel
    vantage_zone: Optional[Zone]
    capture: CaptureStore
    server_sets: Dict[str, ServerSet]
    network: AuthorityNetwork
    storm_domains: List[Name]
    fleet: List[FleetResolver]
    registry: ASRegistry
    ptr_table: PTRTable


# -- per-process zone memo ---------------------------------------------------
#
# Servers only read zones, so one sealed zone per distinct build input serves
# every environment in the process (``repro experiments`` runs ~29 datasets
# over 4 distinct zones).  Each memo is keyed by exactly the inputs its
# builder reads; fork-started pool workers inherit the entries.

@lru_cache(maxsize=8)
def _registry_zone(vantage: str, second_level: int, third_level: int) -> Zone:
    spec = ZoneSpec(
        origin=vantage,
        second_level_count=second_level,
        third_level_count=third_level,
        signed_fraction=0.55 if vantage == "nl" else 0.35,
        # zlib.crc32, not hash(): str hashing is salted per process and
        # would break cross-run determinism of the zone content.
        seed=zlib.crc32(vantage.encode()) % (2**31),
    )
    return build_registry_zone(spec).seal()


@lru_cache(maxsize=8)
def _root_zone(seed: int) -> Zone:
    return build_root_zone(seed=seed).seal()


def build_vantage_zone(descriptor: DatasetDescriptor) -> Optional[Zone]:
    """The registry zone for the descriptor's vantage (``None`` for root).

    The zone is sealed and shared: every descriptor with the same vantage
    and zone sizes gets the same :class:`~repro.zones.Zone` object.
    """
    if descriptor.vantage == "root":
        return None
    return _registry_zone(
        descriptor.vantage, descriptor.zone_second_level, descriptor.zone_third_level
    )


def _build_servers(
    descriptor: DatasetDescriptor,
    zone: Zone,
    capture: Optional[CaptureStore],
    latency: LatencyModel,
) -> ServerSet:
    servers = [
        AuthoritativeServer(
            spec.server_id,
            zone,
            [GAZETTEER[code] for code in spec.site_codes],
            capture=capture if spec.captured else None,
        )
        for spec in descriptor.servers
    ]
    return ServerSet(servers, latency)


def _apply_qmin_override(fleet: Sequence[FleetResolver], enabled: bool) -> None:
    """Force Google's Q-min switch (the monthly Figure 3 runs)."""
    for member in fleet:
        if member.provider == "Google":
            behavior = member.resolver.behavior
            member.resolver.behavior = dc_replace(
                behavior, qname_minimization=enabled
            )


@dataclass
class AuthorityWorld:
    """The authoritative half of a simulated world: zones, server sets,
    authority network, and the capture store they feed.

    This is everything ``repro serve`` needs to answer real sockets — the
    resolver *fleet* (thousands of simulated clients) is a simulation-only
    concern layered on top by :func:`build_environment`.
    """

    vantage_zone: Optional[Zone]
    capture: CaptureStore
    server_sets: Dict[str, ServerSet]
    network: AuthorityNetwork
    storm_domains: List[Name]


def build_authority_world(
    descriptor: DatasetDescriptor,
    seed: int,
    metrics: MetricsRegistry,
    latency: Optional[LatencyModel] = None,
) -> AuthorityWorld:
    """Build the authoritative side of a dataset's world (no fleets).

    Timed under the ``zone_build`` phase.  Deterministic given
    ``(descriptor, seed)`` — this is the common prefix of
    :func:`build_environment` and the live service mode's startup, so both
    serve byte-identical zone content.
    """
    if latency is None:
        latency = LatencyModel()

    with metrics.time_phase("zone_build"):
        vantage_zone = build_vantage_zone(descriptor)
        capture = CaptureStore()
        server_sets: Dict[str, ServerSet] = {}

        root_zone = _root_zone(7)
        if descriptor.vantage == "root":
            root_set = _build_servers(descriptor, root_zone, capture, latency)
            tld_sets: Dict[Name, ServerSet] = {}
        else:
            root_set = ServerSet(
                [
                    AuthoritativeServer(
                        "root-x", root_zone,
                        [GAZETTEER[c] for c in ("LAX", "AMS", "SIN")],
                        capture=None,
                    )
                ],
                latency,
            )
            tld_set = _build_servers(descriptor, vantage_zone, capture, latency)
            tld_sets = {vantage_zone.origin: tld_set}
            server_sets[descriptor.vantage] = tld_set
        server_sets["root"] = root_set

        # The Feb-2020 .nz misconfiguration: two domains in a cyclic NS loop.
        storm_domains: List[Name] = []
        leaf = SyntheticLeafAuthority()
        if descriptor.cyclic_event and vantage_zone is not None:
            pair_domains = domains_of(vantage_zone)[:2]
            leaf = SyntheticLeafAuthority(
                [CyclicPair(pair_domains[0], pair_domains[1])]
            )
            storm_domains = list(pair_domains)

        network = AuthorityNetwork(root=root_set, tlds=tld_sets, leaf=leaf)

        # Chaos: resolve the descriptor's fault plan (if any) against this
        # dataset's capture window.  A disabled/empty plan attaches nothing,
        # keeping the zero-fault path literally identical to no plan at all.
        plan = descriptor.fault_plan
        if plan is not None and plan.enabled:
            fault_seed = plan.seed if plan.seed is not None else derive_fault_seed(seed)
            network.faults = FaultInjector(
                plan, fault_seed, descriptor.start, descriptor.duration
            )
            logger.info(
                "chaos plan %r active (seed %d): loss=%.3f outages=%d "
                "blackouts=%d latency=%d storms=%d",
                plan.name or "<unnamed>", fault_seed, plan.packet_loss,
                len(plan.outages), len(plan.blackouts), len(plan.latency),
                len(plan.storms),
            )

    return AuthorityWorld(
        vantage_zone=vantage_zone,
        capture=capture,
        server_sets=server_sets,
        network=network,
        storm_domains=storm_domains,
    )


def build_environment(
    descriptor: DatasetDescriptor, seed: int, metrics: MetricsRegistry
) -> SimEnvironment:
    """Build the whole simulated world for one dataset (no queries run).

    Timed under the ``zone_build`` / ``fleet_build`` phases.  Deterministic
    given ``(descriptor, seed)`` — pool workers call this independently and
    arrive at the same world as the parent.
    """
    latency = LatencyModel()

    # -- authoritative side ---------------------------------------------------
    world = build_authority_world(descriptor, seed, metrics, latency)

    # -- resolver fleets ---------------------------------------------------------
    with metrics.time_phase("fleet_build"):
        fleet, registry = build_all_fleets(descriptor.vantage, descriptor.year, seed)
        if descriptor.providers_only is not None:
            fleet = [m for m in fleet if m.provider in descriptor.providers_only]
        if descriptor.qmin_override is not None:
            _apply_qmin_override(fleet, descriptor.qmin_override)
        ptr_table = build_facebook_ptr_table(fleet)

    return SimEnvironment(
        descriptor=descriptor,
        seed=seed,
        latency=latency,
        vantage_zone=world.vantage_zone,
        capture=world.capture,
        server_sets=world.server_sets,
        network=world.network,
        storm_domains=world.storm_domains,
        fleet=fleet,
        registry=registry,
        ptr_table=ptr_table,
    )


# -- worker-persistent environment reuse ------------------------------------------

#: Process-local parking lot for built environments, shared by every shard a
#: worker executes (see :mod:`repro.runtime.env_cache` for the safety
#: argument).  Fork-started pool workers inherit the parent's deposits.
_ENV_CACHE = EnvironmentCache()


def reset_environment(env: SimEnvironment) -> None:
    """Rewind a previously-used environment to its freshly-built state.

    Everything a simulation run mutates is reset — capture rows, server and
    resolver session state, fault-injector stats.  Pure memoised structures
    (latency model, anycast catchments, the process-shared sealed zones,
    response plans, the leaf authority) are deterministic functions of the
    build inputs and survive untouched.
    """
    env.capture.clear()
    for server_set in env.server_sets.values():
        for server in server_set:
            server.reset_session()
    for member in env.fleet:
        member.resolver.reset_session()
    if env.network.faults is not None:
        env.network.faults.reset_session()


def acquire_environment(
    descriptor: DatasetDescriptor, seed: int, metrics: MetricsRegistry
) -> SimEnvironment:
    """A ready-to-run environment for ``(descriptor, seed)``: reused from
    the process cache when possible (reset under the ``env_reset`` phase),
    built from scratch otherwise."""
    fingerprint = environment_fingerprint(descriptor, seed)
    env = _ENV_CACHE.acquire(fingerprint)
    if env is not None:
        metrics.counter("runtime.env_cache.hit").inc()
        with metrics.time_phase("env_reset"):
            reset_environment(env)
        return env
    metrics.counter("runtime.env_cache.miss").inc()
    return build_environment(descriptor, seed, metrics)


def release_environment(env: SimEnvironment, pinned_pid: Optional[int] = None) -> None:
    """Park an environment for reuse by the next shard (or, when
    ``pinned_pid`` is set, by forked children only — the pool parent
    pre-warms the cache this way without ever consuming its own deposit)."""
    _ENV_CACHE.release(
        environment_fingerprint(env.descriptor, env.seed), env, pinned_pid
    )


# -- telemetry aggregation -------------------------------------------------------

#: ``(counter name, ResolverStats attribute)`` pairs rolled up per provider.
#: ``resolver.retry.timeouts`` intentionally republishes ``drops`` — every
#: drop costs one timeout wait.
_FLEET_COUNTERS = (
    ("resolver.client_queries", "client_queries"),
    ("resolver.auth_queries", "auth_queries"),
    ("resolver.tcp_retries", "tcp_retries"),
    ("resolver.servfails", "servfails"),
    ("resolver.drops", "drops"),
    ("resolver.cache_hits", "cache_hits"),
    ("resolver.cache_misses", "cache_misses"),
    ("resolver.retry.timeouts", "drops"),
    ("resolver.retry.retransmits", "retransmits"),
    ("resolver.retry.failovers", "failovers"),
    ("resolver.retry.exhausted", "retry_exhausted"),
    ("resolver.retry.stale_served", "stale_served"),
)

_FLEET_ATTRS = tuple(dict.fromkeys(attr for _, attr in _FLEET_COUNTERS))


@lru_cache(maxsize=None)
def _qtype_label(qtype: int) -> str:
    """Memoised qtype → counter-label text (the enum lookup raises on
    unknown types, which makes it surprisingly costly to call per member)."""
    try:
        return RRType(qtype).name
    except ValueError:
        return str(qtype)


def publish_fleet_metrics(metrics: MetricsRegistry, fleet: Iterable) -> None:
    """Roll every fleet member's :class:`~repro.resolver.engine.ResolverStats`
    up into per-provider ``resolver.*`` counters and per-qtype send counts.

    ``fleet`` needs only ``.provider`` and ``.resolver.stats`` attributes,
    so tests can feed stripped-down stand-ins.  Sharded runs pass each
    shard's member slice so worker-side publishes never double-count.

    Sums are accumulated per provider in plain dicts first and the registry
    (label-dict key construction, counter lookup) is touched once per
    provider rather than once per member — fleets run to thousands of
    members but only a handful of providers.
    """
    provider_sums: Dict[str, Dict[str, int]] = {}
    qtype_sums: Dict[int, int] = {}
    for member in fleet:
        stats = member.resolver.stats
        sums = provider_sums.get(member.provider)
        if sums is None:
            sums = provider_sums[member.provider] = dict.fromkeys(_FLEET_ATTRS, 0)
        for attr in _FLEET_ATTRS:
            sums[attr] += getattr(stats, attr)
        for qtype, count in stats.by_qtype.items():
            qtype_sums[qtype] = qtype_sums.get(qtype, 0) + count
    for provider, sums in provider_sums.items():
        for counter_name, attr in _FLEET_COUNTERS:
            metrics.counter(counter_name, provider=provider).inc(sums[attr])
    for qtype, count in sorted(qtype_sums.items()):
        metrics.counter("resolver.sends", qtype=_qtype_label(qtype)).inc(count)


def publish_server_metrics(
    metrics: MetricsRegistry, server_sets: Dict[str, ServerSet]
) -> None:
    """Aggregate every authoritative server's counters (queries served,
    rcode mix, truncation, RRL verdicts) into the registry."""
    for server_set in server_sets.values():
        for server in server_set:
            server.publish_metrics(metrics)


def _publish_run_metrics(
    metrics: MetricsRegistry,
    fleet: Sequence[FleetResolver],
    server_sets: Dict[str, ServerSet],
    capture: CaptureStore,
    fleet_size: int,
    faults: Optional[FaultInjector] = None,
) -> None:
    publish_fleet_metrics(metrics, fleet)
    publish_server_metrics(metrics, server_sets)
    if faults is not None:
        faults.publish_metrics(metrics)
    capture.publish_metrics(metrics, window_seconds=metrics.phase_seconds("resolve"))
    metrics.gauge("sim.fleet_size").set(fleet_size)


# -- streaming fold ---------------------------------------------------------------

def _stream_capture(
    env: SimEnvironment,
    metrics: MetricsRegistry,
    shard_index: int,
    directory: Optional[str],
):
    """Fold the environment's capture into aggregate state + spool chunks.

    One pass over the captured rows: each bounded chunk view is attributed,
    fed to every streaming aggregator, and written out as one compressed
    spool chunk.  ``directory=None`` lets the spool own a temp dir (the
    serial path); pool workers are always handed the parent's directory so
    chunks outlive the worker process.  Returns ``(aggregates, spool)``.
    """
    # Lazy imports: repro.analysis is a consumer of this module's output
    # everywhere else; importing it at call time keeps the sim package
    # importable without the analysis layer loaded.
    from ..analysis import AggregateSet, Attributor, fold_capture
    from ..capture import CaptureSpool
    from ..clouds import PROVIDERS

    spool = CaptureSpool(directory=directory, shard_index=shard_index)
    aggregates = AggregateSet()
    attributor = Attributor(env.registry, PROVIDERS)
    with metrics.time_phase("runtime.stream.fold"):
        folded = fold_capture(aggregates, env.capture, attributor, spool=spool)
        spool.flush()
    metrics.counter("runtime.stream.rows_folded").inc(folded)
    metrics.counter("capture.spool.chunks").inc(len(spool.chunk_paths()))
    metrics.counter("capture.spool.rows").inc(spool.rows_spooled)
    metrics.counter("capture.spool.bytes").inc(spool.bytes_written)
    aggregates.publish_metrics(metrics)
    return aggregates, spool


# -- the resolve loop ------------------------------------------------------------

def member_query_counts(
    weights: Sequence[float], total_queries: int
) -> np.ndarray:
    """Apportion ``total_queries`` over fleet members by traffic weight.

    Cumulative-floor (largest-remainder over the cumulative sum)
    apportionment: member *i* receives
    ``floor(total·W_i/W) − floor(total·W_{i−1}/W)`` where ``W_i`` is the
    cumulative weight through member *i*.  Two invariants hold exactly,
    and are property-tested in ``tests/test_vector_parity.py``:

    * the counts **telescope to ``total_queries``** (the last cumulative
      ratio is exactly 1.0, so the bounds end at ``total``) — unlike the
      previous per-member ``int(round(...))``, whose independent rounding
      drifted the fleet-wide sum by dozens of queries;
    * each member's count depends only on the *full* fleet's weights,
      never on how members are partitioned into shard ranges, so any
      partition sums to the same per-member traffic.
    """
    weights = np.asarray(weights, dtype=np.float64)
    cumulative = np.cumsum(weights)
    if len(cumulative) == 0 or cumulative[-1] <= 0:
        raise ValueError("fleet has no traffic weight")
    bounds = np.floor(total_queries * (cumulative / cumulative[-1])).astype(np.int64)
    return np.diff(bounds, prepend=0)


def run_member_range(
    env: SimEnvironment,
    total_queries: int,
    metrics: MetricsRegistry,
    start: int = 0,
    stop: Optional[int] = None,
    tracer: Optional[QueryTracer] = None,
    clock: Optional[SimClock] = None,
    vector: bool = False,
) -> int:
    """Drive client query streams through fleet members ``[start, stop)``.

    Per-member query counts derive from the *full* fleet's weights
    (:func:`member_query_counts`) and per-member streams are seeded by
    global fleet index, so any partition of the fleet into ranges produces
    exactly the union of the serial run's per-member traffic.

    ``clock`` optionally names a :class:`~repro.netsim.SimClock` to keep in
    step with the replay: after each chunk it is advanced to the latest
    timestamp handed out so far (never backwards — member streams overlap
    in sim time).  Queries always carry their own explicit timestamps, so
    the clock is an observer here, not a time source; injecting one changes
    nothing about the capture.

    ``tracer`` enables sampled per-query tracing.  The sampling decision is
    a pure hash of ``(seed, global member index, per-member sequence
    number)``, so the traced population is identical for every shard
    layout; untraced runs skip only the per-query sample check.

    ``vector`` enables the plan/execute split (:mod:`repro.vector`): each
    member is replayed from a recorded plan when one exists, and recorded
    through a columnar-workload scalar pass otherwise.  Bit-identical to
    the scalar path either way.  Tracing forces the scalar path for the
    whole range (traces carry per-query wall-time detail that a replay has
    no business fabricating); the ``runtime.vector.fallbacks`` counter
    records the downgrade.
    """
    descriptor = env.descriptor
    stop = len(env.fleet) if stop is None else stop

    # Workload machinery is built lazily: a fully-replayed vector range
    # never generates a single query, so it should not pay for the domain
    # listing or the generator either.
    workload_state: List = []

    def workload() -> Tuple[WorkloadGenerator, DiurnalPattern]:
        if not workload_state:
            domains = (
                domains_of(env.vantage_zone) if env.vantage_zone is not None else []
            )
            workload_state.append((
                WorkloadGenerator(
                    vantage=descriptor.vantage,
                    domains=domains,
                    tld_names=list(DEFAULT_TLDS),
                    seed=env.seed,
                ),
                DiurnalPattern(descriptor.start, descriptor.duration),
            ))
        return workload_state[0]

    counts = member_query_counts(
        [member.weight for member in env.fleet], total_queries
    )

    vexec = None
    if vector:
        if tracer is None:
            from ..vector import VectorExecutor

            vexec = VectorExecutor(env, metrics)
        else:
            metrics.counter("runtime.vector.fallbacks").inc()

    run_count = 0
    interval = progress_interval_s()
    loop_started = time.perf_counter()
    last_progress = loop_started
    # Counter handles resolved once per provider, not once per member —
    # label-dict construction and registry lookup are off the member loop.
    provider_counters: Dict[str, object] = {}
    # Traced runs bank client-query timestamps here (a pointer list — the
    # floats already exist on the query objects) and fold them into the
    # flight recorder in one vectorised pass per provider at the end.
    stamps_by_provider: Dict[str, List[float]] = {}
    sampled = tracer.sampled if tracer is not None else None

    def maybe_progress(provider: str, index: int) -> None:
        nonlocal last_progress
        now = time.perf_counter()
        if now - last_progress >= interval:
            rate = run_count / max(now - loop_started, 1e-9)
            # rows_appended, not len(): O(1) on both CaptureStore and
            # SpooledCapture (len() scans chunk metadata in streaming mode).
            logger.info(
                "progress: %d/%d client queries (%.0f q/s, %d captured rows,"
                " at %s fleet member %d/%d)",
                run_count, total_queries, rate, env.capture.rows_appended,
                provider, index + 1, len(env.fleet),
            )
            last_progress = now

    for index in range(start, stop):
        member = env.fleet[index]
        count = int(counts[index])
        if count <= 0:
            continue
        provider_counter = provider_counters.get(member.provider)
        if provider_counter is None:
            provider_counter = provider_counters[member.provider] = metrics.counter(
                "sim.client_queries", provider=member.provider
            )
        recording = None
        if vexec is not None:
            if vexec.try_replay(member, index, count, clock):
                run_count += count
                provider_counter.inc(count)
                maybe_progress(member.provider, index)
                continue
            recording = vexec.begin_record(index, count)
        storm_fraction = 0.0
        if env.storm_domains and member.provider == "Google":
            storm_fraction = 0.25
        resolve = member.resolver.resolve
        network = env.network
        if recording is not None:
            # Record pass: the workload is materialised columnar (one
            # QueryBatch, no per-query objects) and driven through the
            # scalar engine in one tight loop; the executor snapshots the
            # appended row slice and stats deltas into a replayable plan.
            generator, pattern = workload()
            with metrics.time_phase("workload"):
                batch = generator.generate_batch(
                    resolver_index=index,
                    count=count,
                    pattern=pattern,
                    junk_fraction=member.junk_fraction,
                    storm_domains=env.storm_domains,
                    storm_fraction=storm_fraction,
                )
                stamps, qnames, qtypes = batch.columns()
            with metrics.time_phase("resolve"):
                for timestamp, qname, qtype in zip(stamps, qnames, qtypes):
                    resolve(network, timestamp, qname, qtype)
            last_ts = batch.last_timestamp
            vexec.finish_record(recording, member, last_ts)
            if clock is not None and last_ts > clock.now:
                clock.advance_to(last_ts)
            run_count += count
            provider_counter.inc(count)
            maybe_progress(member.provider, index)
            continue
        generator, pattern = workload()
        stream = generator.generate(
            resolver_index=index,
            count=count,
            pattern=pattern,
            junk_fraction=member.junk_fraction,
            storm_domains=env.storm_domains,
            storm_fraction=storm_fraction,
        )
        member_seq = 0
        resolver_label = f"{member.pool}/{index}"
        while True:
            # Workload generation and the resolve loop alternate in bounded
            # chunks so both phases are timed separately without holding a
            # whole member's query list in memory.
            with metrics.time_phase("workload"):
                chunk = list(itertools.islice(stream, _CHUNK))
            if not chunk:
                break
            # One loop for traced and untraced runs: the untraced fast
            # path pays only the (hoisted) ``sampled is None`` check and
            # the sequence increment per query.
            with metrics.time_phase("resolve"):
                for query in chunk:
                    if sampled is not None and sampled(index, member_seq):
                        trace = tracer.begin(
                            index, member_seq, resolver_label,
                            member.provider, query.timestamp,
                            query.qname.to_text(), int(query.qtype),
                        )
                        rcode = resolve(
                            network, query.timestamp, query.qname, query.qtype
                        )
                        tracer.finish(trace, int(rcode))
                    else:
                        resolve(network, query.timestamp, query.qname, query.qtype)
                    member_seq += 1
            if sampled is not None:
                # Timestamps are banked per provider and folded into the
                # flight recorder once after the member loop — one
                # observe_many per provider instead of one per tiny chunk
                # (the per-chunk form measurably dragged the traced path).
                bucket = stamps_by_provider.get(member.provider)
                if bucket is None:
                    bucket = stamps_by_provider[member.provider] = []
                bucket.extend(query.timestamp for query in chunk)
            run_count += len(chunk)
            if clock is not None:
                last_ts = chunk[-1].timestamp
                if last_ts > clock.now:
                    clock.advance_to(last_ts)
            provider_counter.inc(len(chunk))
            maybe_progress(member.provider, index)
    if vexec is not None:
        # publish() flushes the pending replayed columns, so every replayed
        # row is resident before the caller's stats/streaming passes run.
        vexec.publish()
    if tracer is not None:
        for provider in sorted(stamps_by_provider):
            tracer.recorder.observe_many(
                "sim.client_queries", stamps_by_provider[provider],
                provider=provider,
            )
    return run_count


def simulate_shard(task: ShardTask) -> ShardResult:
    """Build (or reuse) the world and resolve one shard's member range.

    Runs inside pool workers (via
    :func:`repro.runtime.execute_shard_task`) and in the parent for serial
    fallbacks.  Environments come from the worker-persistent cache, so N
    shards of one dataset in one worker pay for a single
    ``build_environment``.  Returns only picklable payloads: raw capture
    rows and a telemetry snapshot.  Releasing before return is safe — the
    returned row list survives the next acquire's reset because
    :meth:`~repro.capture.CaptureStore.clear` swaps in a fresh list.
    """
    started = time.perf_counter()
    descriptor = task.descriptor
    metrics = MetricsRegistry()
    env = acquire_environment(descriptor, task.seed, metrics)
    stop = len(env.fleet) if task.stop is None else task.stop
    total_queries = (
        descriptor.client_queries
        if task.client_queries is None
        else task.client_queries
    )
    tracer = None
    if task.trace_sample > 0.0:
        tracer = QueryTracer(
            TraceConfig(sample=task.trace_sample, window_s=task.trace_window_s),
            task.seed, descriptor.dataset_id, base_ts=descriptor.start,
        )
    queries_run = run_member_range(
        env, total_queries, metrics, task.start, stop, tracer,
        vector=task.vector,
    )
    _publish_run_metrics(
        metrics, env.fleet[task.start:stop], env.server_sets, env.capture,
        fleet_size=len(env.fleet), faults=env.network.faults,
    )
    if tracer is not None:
        # Capture-side series feed before any streaming fold clears the rows.
        env.capture.publish_timeseries(tracer.recorder)
        metrics.counter("trace.queries_sampled").inc(len(tracer.traces))
    rows = env.capture.raw_rows()
    rows_appended = env.capture.rows_appended
    aggregates = None
    chunk_paths: List[str] = []
    chunk_row_counts: List[int] = []
    if task.stream:
        # Streaming shard: fold rows into aggregate state + spool chunks
        # and ship those; the raw rows never cross the process boundary.
        aggregates, spool = _stream_capture(
            env, metrics, task.shard_index, task.spool_dir
        )
        chunk_paths = spool.chunk_paths()
        chunk_row_counts = spool.chunk_row_counts()
        rows = []
        env.capture.clear()
    result = ShardResult(
        shard_index=task.shard_index,
        rows=rows,
        rows_appended=rows_appended,
        queries_run=queries_run,
        telemetry=metrics.snapshot(),
        duration_s=time.perf_counter() - started,
        aggregates=aggregates,
        chunk_paths=chunk_paths,
        chunk_row_counts=chunk_row_counts,
        traces=tracer.traces if tracer is not None else [],
        frames=tracer.recorder.as_dict() if tracer is not None else None,
    )
    release_environment(env)
    return result


# -- the entry point -------------------------------------------------------------

def run_dataset(
    descriptor: DatasetDescriptor,
    seed: int = 20201027,
    client_queries: Optional[int] = None,
    telemetry: Optional[MetricsRegistry] = None,
    workers: Optional[int] = None,
    shard_count: Optional[int] = None,
    runtime: Optional[RuntimeConfig] = None,
    stream: Optional[bool] = None,
    spool_dir: Optional[str] = None,
    trace=None,
    clock: Optional[SimClock] = None,
    vector: Optional[bool] = None,
) -> DatasetRun:
    """Simulate one dataset and return its capture.

    ``vector`` (default: the ``REPRO_VECTOR`` env var) enables the
    vectorized plan/execute core: each fleet member's resolution trace is
    recorded once through the scalar engine and replayed as a bulk
    columnar append on every later run of the same ``(descriptor, seed)``
    in this process (pool workers inherit the parent's recorded plans via
    fork).  The capture, analyses, and simulation counters are
    bit-identical to the scalar path; only ``runtime.*`` execution
    telemetry differs.  Tracing runs fall back to the scalar path.

    ``clock`` optionally injects the :class:`~repro.netsim.SimClock` the run
    keeps in step with sim time (defaults to a fresh clock pinned to the
    capture window's start).  The simulation always passes explicit
    timestamps downstream, so the injected clock observes the replay rather
    than driving it — results are bit-identical with or without one.  On
    the serial path it tracks each chunk's latest timestamp; either way it
    ends at the capture window's close.

    ``client_queries`` overrides the descriptor's volume (tests use small
    values; benchmarks use the descriptor default).

    ``workers`` selects the execution backend: ``<=1`` (default, or via the
    ``REPRO_WORKERS`` env var) runs shards sequentially in-process — the
    returned fleet/server objects then carry their post-run state exactly
    as the original serial driver left it; ``>1`` executes shards on a
    process pool and merges the results, bit-identical to the serial path
    but with parent-side fleet/server objects left cold (their counters
    live in the merged telemetry instead).  ``shard_count`` defaults to the
    worker count; ``runtime`` passes a full
    :class:`~repro.runtime.RuntimeConfig` (timeouts, retries, fault
    injection) and overrides both.

    ``stream`` (default: the ``REPRO_STREAM`` env var) switches to
    streaming execution: captured rows are folded into a single-pass
    :class:`~repro.analysis.streaming.AggregateSet` and spilled to a
    chunked :class:`~repro.capture.CaptureSpool` as they leave each shard,
    so the parent never holds the full row set.  The returned run carries a
    :class:`~repro.capture.SpooledCapture` plus ``aggregates``; every
    analysis is bit-identical to the in-memory path.  ``spool_dir`` roots
    the chunk files (a per-dataset subdirectory is created); ``None`` uses
    a self-cleaning temp dir.

    ``telemetry`` optionally names a session-level registry (e.g. an
    :class:`~repro.experiments.context.ExperimentContext`'s) into which
    this run's metrics are merged; the run itself always instruments a
    fresh registry whose snapshot lands on ``DatasetRun.telemetry``.

    ``trace`` (default: the ``REPRO_TRACE`` env var) enables sampled
    per-query lifecycle tracing: a :class:`~repro.telemetry.TraceConfig`,
    a bare sample rate in [0, 1], or ``None``.  Sampling decisions are
    hash-derived (never RNG-stream-based), so enabling tracing changes
    nothing about the capture; the run then carries
    ``DatasetRun.traces`` / ``DatasetRun.timeseries``, deterministic
    across runs and worker counts.
    """
    config = resolve_runtime_config(workers, shard_count, runtime)
    stream = configured_stream() if stream is None else bool(stream)
    vector = configured_vector() if vector is None else bool(vector)
    trace_config = resolve_trace_config(trace)
    dataset_spool_dir = (
        os.path.join(spool_dir, descriptor.dataset_id) if spool_dir else None
    )
    metrics = MetricsRegistry()
    metrics.gauge("runtime.stream.enabled").set(1 if stream else 0)
    metrics.gauge("runtime.vector.enabled").set(1 if vector else 0)
    if clock is None:
        clock = SimClock(now=descriptor.start)
    env = build_environment(descriptor, seed, metrics)
    total_queries = (
        descriptor.client_queries if client_queries is None else client_queries
    )

    with metrics.time_phase("runtime.plan"):
        plan = plan_shards(
            [member.weight for member in env.fleet], config.effective_shards(), seed
        )
    metrics.counter("runtime.shards_total").inc(len(plan))
    metrics.gauge("runtime.workers").set(config.workers)

    logger.info(
        "run %s: %d client queries over %d resolvers (%d shards, %d workers)",
        descriptor.dataset_id, total_queries, len(env.fleet),
        len(plan), config.workers,
    )

    aggregates = None
    use_pool = config.workers > 1 and len(plan) > 1 and total_queries > 0
    if use_pool:
        # In streaming mode the parent owns the spool (and its temp dir,
        # when no explicit directory is given) and workers write their
        # chunks straight into it — chunk files must outlive the workers.
        parent_spool = None
        worker_spool_dir = None
        if stream:
            from ..capture import CaptureSpool

            parent_spool = CaptureSpool(directory=dataset_spool_dir)
            worker_spool_dir = str(parent_spool.directory)
        tasks = [
            ShardTask(
                descriptor=descriptor,
                seed=seed,
                client_queries=total_queries,
                shard_index=shard.index,
                shard_seed=shard.seed,
                start=shard.start,
                stop=shard.stop,
                stream=stream,
                spool_dir=worker_spool_dir,
                trace_sample=trace_config.sample if trace_config else 0.0,
                trace_window_s=trace_config.window_s if trace_config else 3600.0,
                vector=vector,
            )
            for shard in plan
        ]
        # Pre-warm the cache the fork-started workers inherit: the parent's
        # just-built environment, pinned so the parent itself can never
        # consume it (this env is aliased into the returned DatasetRun).
        release_environment(env, pinned_pid=os.getpid())
        executor = ShardExecutor(config, metrics)
        with metrics.time_phase("runtime.execute"):
            executor.submit(tasks)
            results, runtime_report = executor.collect()
        if stream:
            from ..analysis import AggregateSet
            from ..capture import SpooledCapture

            with metrics.time_phase("runtime.stream.merge"):
                # collect() returns results in shard-index order, so
                # adopting chunks in results order reproduces the serial
                # append sequence — SpooledCapture.view() then applies the
                # same canonical sort as CaptureStore.merge.
                aggregates = AggregateSet.merge_all(
                    [r.aggregates for r in results if r.aggregates is not None]
                )
                for result in results:
                    parent_spool.adopt(result.chunk_paths, result.chunk_row_counts)
                    metrics.merge_snapshot(result.telemetry)
                rows_appended = sum(r.rows_appended for r in results)
                capture = SpooledCapture(parent_spool, rows_appended)
                resolve_s = metrics.phase_seconds("resolve")
                if resolve_s > 0:
                    metrics.gauge("capture.append_rows_per_s").set(
                        rows_appended / resolve_s
                    )
        else:
            with metrics.time_phase("runtime.merge"):
                capture = CaptureStore.merge([
                    CaptureStore.from_raw_rows(r.rows, r.rows_appended)
                    for r in results
                ])
                for result in results:
                    metrics.merge_snapshot(result.telemetry)
                resolve_s = metrics.phase_seconds("resolve")
                if resolve_s > 0:
                    # Re-derive the throughput gauge from merged totals (the
                    # per-worker last-write value is meaningless here).
                    metrics.gauge("capture.append_rows_per_s").set(
                        capture.rows_appended / resolve_s
                    )
        queries_run = sum(result.queries_run for result in results)
        trace_buffer = None
        flight = None
        if trace_config is not None:
            trace_buffer = TraceBuffer(
                dataset_id=descriptor.dataset_id, seed=seed,
                sample=trace_config.sample, base_ts=descriptor.start,
            )
            # Shard-index order = contiguous fleet ranges in order = the
            # serial trace sequence; frames merge by integer summation.
            for result in results:
                trace_buffer.extend(result.traces)
            flight = FlightRecorder.merge_all(
                FlightRecorder.from_dict(result.frames)
                for result in results if result.frames is not None
            )
    else:
        runtime_report = RuntimeReport(
            mode="serial", workers=1, shard_count=len(plan)
        )
        tracer = None
        if trace_config is not None:
            tracer = QueryTracer(
                trace_config, seed, descriptor.dataset_id,
                base_ts=descriptor.start,
            )
        queries_run = 0
        with metrics.time_phase("runtime.execute"):
            for shard in plan:
                shard_started = time.perf_counter()
                shard_queries = run_member_range(
                    env, total_queries, metrics, shard.start, shard.stop,
                    tracer, clock, vector=vector,
                )
                shard_elapsed = time.perf_counter() - shard_started
                metrics.observe_phase(f"runtime.shard.{shard.index}", shard_elapsed)
                metrics.counter(
                    "runtime.shard_queries", shard=shard.index
                ).inc(shard_queries)
                runtime_report.outcomes.append(ShardOutcome(
                    index=shard.index, start=shard.start, stop=shard.stop,
                    queries_run=shard_queries, duration_s=shard_elapsed,
                    attempts=1,
                ))
                queries_run += shard_queries
        _publish_run_metrics(
            metrics, env.fleet, env.server_sets, env.capture,
            fleet_size=len(env.fleet), faults=env.network.faults,
        )
        trace_buffer = None
        flight = None
        if tracer is not None:
            # Capture-side series feed must precede any streaming fold,
            # which releases the resident rows.
            env.capture.publish_timeseries(tracer.recorder)
            metrics.counter("trace.queries_sampled").inc(len(tracer.traces))
            trace_buffer = tracer.buffer()
            flight = tracer.recorder
        if stream:
            from ..capture import SpooledCapture

            # No canonical sort here: chunks spill in append order and
            # SpooledCapture.view() applies the same stable lexsort on
            # materialisation, bit-identical to sort_canonical().
            aggregates, spool = _stream_capture(env, metrics, 0, dataset_spool_dir)
            capture = SpooledCapture(spool, env.capture.rows_appended)
            env.capture.clear()
        else:
            with metrics.time_phase("runtime.merge"):
                env.capture.sort_canonical()
            capture = env.capture

    # The run is over: sim time has reached the end of the capture window
    # regardless of execution backend (pool workers advance local clocks).
    window_end = descriptor.start + descriptor.duration
    if window_end > clock.now:
        clock.advance_to(window_end)

    snapshot = metrics.snapshot()
    logger.info(
        "run %s done (%s): %d client queries, %d captured rows, %.2fs resolve time",
        descriptor.dataset_id, runtime_report.summary(), queries_run,
        len(capture), snapshot.phase_seconds("resolve"),
    )
    if telemetry is not None:
        telemetry.merge_snapshot(snapshot)

    return DatasetRun(
        descriptor=descriptor,
        capture=capture,
        registry=env.registry,
        fleet=env.fleet,
        ptr_table=env.ptr_table,
        network=env.network,
        vantage_zone=env.vantage_zone,
        server_sets=env.server_sets,
        client_queries_run=queries_run,
        telemetry=snapshot,
        runtime_report=runtime_report,
        aggregates=aggregates,
        traces=trace_buffer,
        timeseries=flight,
    )
