"""Experiment runner: build a system, attach a workload, measure.

Every simulation point is a :class:`~repro.harness.spec.RunSpec`.
:func:`run` answers it with a :class:`RunResult` carrying the normalised
execution-time breakdown (Figure 5's CPU-busy / L2-hit / L2-miss
decomposition), the L1-miss service decomposition (Figure 6b), and a
throughput figure of merit; :func:`simulate` is the same point uncached.

Simulations are deterministic, so results are cached at two levels,
both keyed by the spec's ``result`` digest:

* an in-process **memo** (:class:`MemoCache`) so pytest-benchmark can
  re-invoke a bench without re-simulating, and
* the persistent **disk cache** (:mod:`repro.harness.cache`) so fresh
  processes — re-runs of benchmarks, examples, CI — skip simulation
  entirely when the code, config and workload are unchanged.

A spec whose factory is opaque (no workload token) has no digest and is
never cached.  Set ``REPRO_NO_CACHE=1`` to disable both levels;
:func:`memo_cache_info` exposes the memo's contents and hit/miss
counters, and every returned ``RunResult`` carries the current counters
in ``extras`` (telemetry only — the measurement payload of a RunResult
is deterministic, extras and ``sim_wall_s`` are not).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..core.checker import CoherenceChecker
from ..core.system import PiranhaSystem
from .cache import (
    DISK_CACHE,
    cache_enabled,
    config_digest,
    library_fingerprint,
    workload_token,
)
from .spec import RunSpec


@dataclass
class RunResult:
    """Outcome of one simulated configuration.

    Every field except ``sim_wall_s`` and ``extras`` is a deterministic
    function of (config, workload, nodes, library code): serial, parallel
    and cached executions of the same point agree bit-for-bit on the
    measurement payload.  ``sim_wall_s`` is host wall-clock;``extras``
    carries harness telemetry (cache counters).
    """

    config: str
    cpus: int
    nodes: int
    workload: str
    units: int                   # transactions / rows measured per CPU
    time_per_unit_ns: float      # per-CPU steady-state time per unit
    throughput: float            # units per second, whole system
    busy_frac: float
    l2_frac: float               # on-chip stall fraction (L2 hit + fwd)
    mem_frac: float
    miss_hit_frac: float         # L1 misses serviced by the L2
    miss_fwd_frac: float         # ... by another on-chip L1
    miss_mem_frac: float         # ... by local/remote memory
    sim_wall_s: float = 0.0
    #: harness telemetry and structured payloads (sanitizer counters,
    #: the "metrics" document from the observability layer); values are
    #: floats or JSON-shaped nested dicts — everything pickles/serialises
    extras: Dict[str, object] = field(default_factory=dict)

    @property
    def normalized_breakdown(self) -> Tuple[float, float, float]:
        return (self.busy_frac, self.l2_frac, self.mem_frac)

    def payload_tuple(self) -> tuple:
        """The deterministic fields (everything except wall time/extras)."""
        return (self.config, self.cpus, self.nodes, self.workload,
                self.units, self.time_per_unit_ns, self.throughput,
                self.busy_frac, self.l2_frac, self.mem_frac,
                self.miss_hit_frac, self.miss_fwd_frac, self.miss_mem_frac)


class MemoCache:
    """In-process RunResult memo with hit/miss counters."""

    def __init__(self) -> None:
        self._store: Dict[str, RunResult] = {}
        self.hits = 0
        self.misses = 0

    def get(self, key: str) -> Optional[RunResult]:
        result = self._store.get(key)
        if result is None:
            self.misses += 1
        else:
            self.hits += 1
        return result

    def put(self, key: str, result: RunResult) -> None:
        self._store[key] = result

    def clear(self) -> None:
        self._store.clear()

    def info(self) -> Dict[str, object]:
        """Snapshot: entry count, hit/miss counters, cached point names."""
        return {
            "entries": len(self._store),
            "hits": self.hits,
            "misses": self.misses,
            "keys": sorted(self._store),
        }


_MEMO = MemoCache()


def clear_cache() -> None:
    """Drop every memoised result (the disk cache is left alone)."""
    _MEMO.clear()


def memo_cache_info() -> Dict[str, object]:
    """Inspect the in-process memo (entries, hits, misses, keys)."""
    return _MEMO.info()




def build_system(spec: RunSpec) -> Tuple[PiranhaSystem, object]:
    """Assemble the ready-to-run (system, workload) pair a spec describes.

    Shared by the cold path of :func:`simulate`, the service worker and
    the CLI (``run``, ``report``, ``trace``, ``checkpoint save``), so a
    warm snapshot is taken of exactly the machine a measurement run
    would build, and the CLI measures exactly what the harness does.
    """
    workload = spec.factory(spec.config, spec.nodes)
    checker = None
    if spec.check or spec.trace_capacity:
        checker = (CoherenceChecker.with_trace(spec.trace_capacity)
                   if spec.trace_capacity else CoherenceChecker())
    system = PiranhaSystem(spec.config, num_nodes=spec.nodes,
                           checker=checker)
    system.attach_workload(workload)
    bind_system = getattr(workload, "bind_system", None)
    if bind_system is not None:
        # workloads that observe the live system (the fuzz reference
        # checker) wire themselves up once everything is built
        bind_system(system)
    if spec.check:
        system.enable_continuous_audit()
    if spec.probe_rate:
        system.enable_probes(spec.probe_rate)
    if spec.trace_spans:
        system.enable_span_trace(spec.trace_spans)
    if spec.sample_interval_ps:
        system.enable_sampler(spec.sample_interval_ps)
    if spec.profile:
        from ..observe.hostprof import HostProfiler

        system.sim.profiler = HostProfiler(spec.profile)
    return system, workload


def assemble_result(system: PiranhaSystem, spec: RunSpec,
                    wall: float = 0.0) -> RunResult:
    """Measure a drained system into a :class:`RunResult`.

    One assembly implementation for the cold, warm-restored and
    checkpoint-restored paths: whatever route the machine took to the
    drained state, the measurement payload is computed identically.
    """
    sanitizer: Dict[str, float] = {}
    if system.checker is not None:
        sanitizer = system.verify()

    config = spec.config
    workload = system.workload
    units = getattr(workload.params, spec.units_attr)
    per_cpu_ps = max(cpu.total_ps for cpu in system.all_cpus())
    time_per_unit_ns = per_cpu_ps / units / 1000.0
    total_cpus = config.cpus * spec.nodes
    throughput = total_cpus * 1e9 / time_per_unit_ns

    summary = system.execution_summary()
    total_ps = summary["total_ps"] or 1
    mb = system.miss_breakdown()
    misses = sum(mb.values()) or 1

    result = RunResult(
        config=config.name,
        cpus=config.cpus,
        nodes=spec.nodes,
        workload=getattr(workload, "name", "?"),
        units=units,
        time_per_unit_ns=time_per_unit_ns,
        throughput=throughput,
        busy_frac=summary["busy_ps"] / total_ps,
        l2_frac=summary["l2_stall_ps"] / total_ps,
        mem_frac=summary["mem_stall_ps"] / total_ps,
        miss_hit_frac=mb["l2_hit"] / misses,
        miss_fwd_frac=mb["l2_fwd"] / misses,
        miss_mem_frac=mb["l2_miss"] / misses,
        sim_wall_s=wall,
        extras=dict(sanitizer),
    )
    if spec.probe_rate or spec.sample_interval_ps:
        from .metrics import metrics_doc

        # deterministic (simulation-state-only), so it is safe to cache
        # and identical across the serial and ProcessPool paths
        result.extras["metrics"] = metrics_doc(
            system, result, spec.probe_rate, spec.sample_interval_ps)
    _attach_flightdeck_extras(result, system, spec)
    post_run = getattr(workload, "post_run", None)
    if post_run is not None:
        # end-of-run workload audit (fuzz residue check + telemetry);
        # may raise, and may add deterministic extras
        post_run(system, result)
    return result


def simulate(spec: RunSpec) -> RunResult:
    """Run one simulation point, uncached.

    This is the single shared measurement implementation: the runner, the
    sweep harness and the parallel workers all assemble their metrics
    here, so the busy/L2/mem fractions and the miss breakdown cannot
    drift between entry points.

    ``spec.check`` attaches the protocol sanitizer (the continuous
    mid-run audit set plus the full quiesce audit via
    :meth:`~repro.core.system.PiranhaSystem.verify`), with the audit
    telemetry merged into ``RunResult.extras``; ``trace_capacity`` adds
    a ring-buffered protocol trace whose per-line history violations
    carry.  ``probe_rate``/``sample_interval_ps`` make the structured
    metrics document appear in ``extras["metrics"]``
    (:mod:`repro.harness.metrics`); ``trace_spans`` keeps a
    ``repro-trace/1`` span document in ``extras["trace"]`` and
    ``profile`` a host-profile report in ``extras["host_profile"]``.

    ``spec.warmup`` routes through the warm-checkpoint store
    (:mod:`repro.checkpoint.store`), keyed by the spec's ``warm``
    digest: on a hit the machine is restored at its warm-up boundary and
    only the measurement phase is simulated; on a miss the cold run
    snapshots itself at the boundary for every later run of the point.
    The payload is byte-identical either way, which is why ``warmup`` is
    neutral in the result key.

    ``mode="sampled"`` switches to SMARTS-style sampled simulation
    (:mod:`repro.fastforward`): functional fast-forward with short
    detailed windows, extrapolated totals and per-class 95% confidence
    intervals in ``extras["sampling"]``.  It composes with ``warmup``
    through the same store under a ``sampled-<warming>`` variant key.

    ``spec.telemetry`` streams live run-start/interval/window/run-end
    records as the simulation runs.
    """
    wall0 = time.time()
    stream = _open_telemetry(spec.telemetry)
    try:
        return _simulate(spec, stream, wall0)
    finally:
        if stream is not None and stream is not spec.telemetry:
            stream.close()


def _open_telemetry(telemetry):
    """Normalise a telemetry target into a TelemetryStream (or None).
    Callers close streams they opened; a caller-supplied stream is left
    open."""
    if telemetry is None:
        return None
    from ..observe.telemetry import TelemetryStream

    if isinstance(telemetry, TelemetryStream):
        return telemetry
    return TelemetryStream(telemetry)


def _warm_start(spec: RunSpec):
    """``(restored system or None, persist callback or None)`` for a
    ``warmup`` spec.  ``persist(payload, sim_now)`` files the boundary
    snapshot; opaque workloads (no warm digest) are never stored."""
    from ..checkpoint import WARM_STORE, build_manifest, restore_system

    key = spec.digest("warm")
    hit = WARM_STORE.get(key)
    if hit is not None:
        return restore_system(hit[1]), None
    if key is None:
        return None, None

    def persist(payload: bytes, sim_now: int) -> None:
        WARM_STORE.put(key, build_manifest(
            payload,
            fingerprint=library_fingerprint(),
            config_digest=config_digest(spec.config),
            workload=workload_token(spec.factory),
            nodes=spec.nodes,
            sim_now=sim_now,
        ), payload)

    return None, persist


def _simulate(spec: RunSpec, stream, wall0: float) -> RunResult:
    if stream is not None:
        stream.emit(
            "run_start", config=spec.config.name,
            workload=workload_token(spec.factory), num_nodes=spec.nodes,
            mode=spec.mode, probe_rate=spec.probe_rate,
            sample_interval_ps=spec.sample_interval_ps,
            trace_spans=spec.trace_spans, profile=spec.profile)
    system = persist = None
    if spec.warmup:
        system, persist = _warm_start(spec)
    restored = system is not None
    if not restored:
        system, _workload = build_system(spec)
    _arm_flightdeck(system, spec, stream)
    if spec.mode == "sampled":
        from ..fastforward import SampledRun

        on_warm = None
        if persist is not None:
            from ..checkpoint import snapshot_bytes

            def on_warm(sys_) -> None:
                persist(snapshot_bytes(sys_), sys_.sim.now)

        # handoff="none": batch measurement needs no in-memory window
        # captures (those serve the gate / CLI inspection paths); the
        # persistent warm-boundary snapshot above is unaffected
        run_ = SampledRun(system, window=spec.window, period=spec.period,
                          warming=spec.warming, handoff="none",
                          skip_warm=restored, on_warm=on_warm,
                          telemetry=stream)
        run_.run()
        result = run_.to_result(spec.config, spec.nodes, spec.units_attr,
                                spec.probe_rate, spec.sample_interval_ps,
                                time.time() - wall0)
        _attach_flightdeck_extras(result, system, spec)
    else:
        if persist is not None:
            from ..checkpoint import WarmCapture

            # at the boundary, before the measurement phase: a run
            # killed mid-measurement still leaves warm state behind
            WarmCapture(system, sink=persist)
        system.run_to_completion()  # start() is a no-op on a restore
        result = assemble_result(system, spec, time.time() - wall0)
    _emit_run_end(stream, result)
    return result


def _arm_flightdeck(system: PiranhaSystem, spec: RunSpec, stream) -> None:
    """(Re)arm or disarm the flight-deck observers on a system.

    A system restored from a warm snapshot carries whatever observers
    the *snapshotting* run had armed — this spec's settings must win —
    and the host-side telemetry stream is never built into a system.
    """
    if spec.trace_spans:
        if system.spans is None and system.probes is not None:
            system.enable_span_trace(spec.trace_spans)
    elif system.spans is not None:
        system.spans = None
        if system.probes is not None:
            system.probes.on_finish = None
    if spec.profile:
        if system.sim.profiler is None:
            from ..observe.hostprof import HostProfiler

            system.sim.profiler = HostProfiler(spec.profile)
    else:
        system.sim.profiler = None
    if stream is not None and system.sampler is not None:
        system.sampler.on_record = stream.on_interval


def _attach_flightdeck_extras(result: RunResult, system: PiranhaSystem,
                              spec: RunSpec) -> None:
    """Attach the span-trace document and the host-profile report.

    Shared by :func:`assemble_result` (detailed runs) and the sampled
    path (``SampledRun.to_result`` assembles its own payload, so the
    extras are grafted on afterwards).  The trace doc is deterministic
    for the same reason the metrics doc is — built purely from
    simulation state — so it is safe to cache.  The host profile is
    wall-clock and therefore NOT deterministic: fine in ``extras`` (like
    ``sim_wall_s``), never in the payload.
    """
    if spec.trace_spans and system.spans is not None:
        from ..observe.spans import trace_doc

        protocol_events = None
        if system.checker is not None and system.checker.trace is not None:
            protocol_events = system.checker.trace.events()
        result.extras["trace"] = trace_doc(
            system.spans, spec.config.name, spec.nodes, spec.probe_rate,
            protocol_events)
    profiler = system.sim.profiler
    if profiler is not None:
        result.extras["host_profile"] = profiler.as_dict()


def _emit_run_end(stream, result: RunResult, cached: bool = False) -> None:
    if stream is None:
        return
    stream.emit("run_end", config=result.config, workload=result.workload,
                items=result.units, throughput=result.throughput,
                sim_wall_s=result.sim_wall_s, cached=cached)


def _attach_telemetry(result: RunResult) -> RunResult:
    result.extras["cache_memo_hits"] = float(_MEMO.hits)
    result.extras["cache_memo_misses"] = float(_MEMO.misses)
    result.extras["cache_disk_hits"] = float(DISK_CACHE.hits)
    return result


def cached_result(spec: RunSpec) -> Optional[RunResult]:
    """Memo/disk lookup for one point; None on a miss, with caching off,
    or for an opaque factory."""
    if not cache_enabled():
        return None
    key = spec.digest("result")
    if key is None:
        return None
    result = _MEMO.get(key)
    if result is None:
        result = DISK_CACHE.get(key)
        if result is None:
            return None
        _MEMO.put(key, result)
    return _attach_telemetry(result)


def store_result(spec: RunSpec, result: RunResult) -> None:
    """Record a freshly simulated point in the memo and disk caches."""
    if not cache_enabled():
        return
    key = spec.digest("result")
    if key is None:
        return
    _MEMO.put(key, result)
    DISK_CACHE.put(key, result)


def run(spec: RunSpec) -> RunResult:
    """Answer one point from the caches, or simulate and record it.

    A cache hit for a telemetry-enabled point answers without streaming;
    the terminal ``run_end`` record (marked ``cached``) is still emitted
    so a watcher sees the run conclude.
    """
    cached = cached_result(spec)
    if cached is not None:
        if spec.telemetry is not None:
            stream = _open_telemetry(spec.telemetry)
            try:
                _emit_run_end(stream, cached, cached=True)
            finally:
                if stream is not spec.telemetry:
                    stream.close()
        return cached
    result = simulate(spec)
    store_result(spec, result)
    return _attach_telemetry(result)
