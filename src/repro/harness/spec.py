"""One run description: every simulation point is a frozen :class:`RunSpec`.

A spec is the only way a run is described, keyed and built.  The runner
(:func:`~repro.harness.runner.simulate` / :func:`~repro.harness.runner.run`),
the parallel harness, the sweep harness, the service worker and the CLI
all build one and hand it on whole; nothing threads the options as
separate keywords.

Defaults are resolved once, at construction, so every consumer reads
effective values: ``trace_spans`` implies ``probe_rate=SPAN_PROBE_RATE``
when no probe rate was given, and a sampled spec carries its effective
window and period.  :meth:`RunSpec.replace` starts again from the values
the caller gave, so an implied value never outlives its cause.

Keys come from :meth:`RunSpec.digest` under two declared views:

* ``result`` keys the in-process memo and the disk result cache.  It
  covers every field except the declared-neutral ones (:data:`NEUTRAL`),
  plus the library fingerprint, so a field added later is part of the
  key unless it is explicitly declared neutral: there is no per-option
  fold to forget, and so no stale answer to serve.  The sampled-mode
  knobs (:data:`SAMPLED_ONLY`) key sampled runs only, since a detailed
  run ignores them.
* ``warm`` keys the warm-checkpoint store: the fields a warm-boundary
  snapshot depends on (the object graph the observers build), with the
  checkpoint schema and the Python tag, namespaced per sampled warming
  regime.

A factory with no stable identity (no ``workload_token``: closures,
lambdas) gives no digest, so its points are never cached — neither in
the memo nor on disk.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from ..core.config import ChipConfig
from . import cache

#: probe rate implied by ``trace_spans`` when probes were not requested
#: explicitly: the tracer needs probe completions to promote
SPAN_PROBE_RATE = 64

#: sampled-mode defaults, resolved into the spec at construction so the
#: run and its key always agree on the effective window and period
SAMPLED_WINDOW = 800
SAMPLED_PERIOD = 6000

MODES = ("detailed", "sampled")

#: execution-only fields: how a point is run, never what it measures
#: (the warm and cold paths produce byte-identical payloads; the
#: telemetry target is a host-side stream)
NEUTRAL = frozenset({"warmup", "telemetry"})

#: sampled-mode knobs: a detailed run ignores them, so they are part of
#: the result key of sampled runs only
SAMPLED_ONLY = frozenset({"window", "period", "warming"})

VIEWS = ("result", "warm")


def scale_factor() -> float:
    """Workload scale from ``REPRO_SCALE`` (default 1.0), for code that
    builds specs (experiments, benchmarks).  Factories, keys and the
    service never read the environment: the scale travels as the
    factory's ``scale`` field."""
    return float(os.environ.get("REPRO_SCALE", "1.0"))


@dataclass(frozen=True)
class RunSpec:
    """One simulation point: machine, workload, mode and observers."""

    config: ChipConfig
    #: ``factory(config, num_nodes)`` builds the workload; its class
    #: declares the measured unit (``units_attr``) and, for the standard
    #: factories, carries the workload ``scale``
    factory: Callable[[ChipConfig, int], object]
    nodes: int = 1
    #: protocol sanitizer: continuous audits plus the quiesce audit
    check: bool = False
    #: ring-buffered protocol trace of this many events (0 = off)
    trace_capacity: int = 0
    #: tag one of every N L1 misses with a latency probe (0 = off)
    probe_rate: int = 0
    #: interval time-series sampler period in simulated ps (0 = off)
    sample_interval_ps: int = 0
    #: "detailed" or "sampled" (SMARTS-style, :mod:`repro.fastforward`)
    mode: str = "detailed"
    #: sampled mode: items per CPU per detailed window / between windows
    window: int = 0
    period: int = 0
    #: sampled mode fast-forward regime: "functional" or "detailed"
    warming: str = "functional"
    #: keep causal span trees for up to N transactions (0 = off)
    trace_spans: int = 0
    #: host self-profiler 1-in-N event sampling rate (0 = off)
    profile: int = 0
    #: service preemption-guard period in simulated ps (0 = no guard);
    #: the guard's ticks shape the event schedule
    preempt_every_ps: int = 0
    #: route through the warm-checkpoint store (execution only)
    warmup: bool = False
    #: telemetry target: a path, fd, file-like object or TelemetryStream
    #: (execution only; parallel points need a path string)
    telemetry: object = None

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown simulation mode {self.mode!r}")
        # the values as given, before resolution: replace() starts here
        object.__setattr__(self, "_given", {
            "probe_rate": self.probe_rate, "window": self.window,
            "period": self.period})
        if self.trace_spans and not self.probe_rate:
            object.__setattr__(self, "probe_rate", SPAN_PROBE_RATE)
        if self.mode == "sampled":
            object.__setattr__(self, "window", self.window or SAMPLED_WINDOW)
            object.__setattr__(self, "period", self.period or SAMPLED_PERIOD)

    @property
    def units_attr(self) -> str:
        """The workload-params attribute counting measured units."""
        return getattr(self.factory, "units_attr", "transactions")

    def replace(self, **changes) -> "RunSpec":
        """A copy with *changes*, its defaults resolved afresh from the
        values this spec was given (``RunSpec(trace_spans=16)
        .replace(trace_spans=0)`` has no implied probe rate)."""
        return dataclasses.replace(self, **{**self._given, **changes})

    # -- keys --------------------------------------------------------------

    def _view(self, view: str) -> Optional[Dict[str, object]]:
        if view not in VIEWS:
            raise ValueError(f"unknown key view {view!r}; views: {VIEWS}")
        token = cache.workload_token(self.factory)
        if token is None:
            return None
        if view == "result":
            skip = NEUTRAL | (SAMPLED_ONLY if self.mode == "detailed"
                              else frozenset())
            out: Dict[str, object] = {"lib": cache.library_fingerprint()}
            for f in dataclasses.fields(self):
                if f.name not in skip:
                    out[f.name] = getattr(self, f.name)
            out["config"] = cache.config_digest(self.config)
            out["factory"] = token
            return out
        # "warm": the field set warm snapshots have always been keyed by
        from ..checkpoint import format as ckpt_format

        out = {
            "schema": ckpt_format.SCHEMA,
            "python": ckpt_format.python_version_tag(),
            "lib": cache.library_fingerprint(),
            "config": cache.config_digest(self.config),
            "workload": token,
            "nodes": self.nodes,
            "units_attr": self.units_attr,
            "check": bool(self.check),
            "trace": int(self.trace_capacity),
            "probe": int(self.probe_rate),
            "sample": int(self.sample_interval_ps),
            "scale": str(getattr(self.factory, "scale", 1.0)),
        }
        # sampled runs park their CPUs at the boundary: their snapshots
        # never answer a detailed run, and vice versa
        if self.mode == "sampled":
            out["variant"] = "sampled-" + self.warming
        return out

    def canonical_json(self, view: str = "result") -> Optional[str]:
        """The view's fields as canonical JSON, or None if opaque."""
        fields = self._view(view)
        if fields is None:
            return None
        return json.dumps(fields, sort_keys=True)

    def digest(self, view: str = "result") -> Optional[str]:
        """SHA-256 of :meth:`canonical_json`, or None if the factory is
        opaque (such a point is never cached)."""
        text = self.canonical_json(view)
        if text is None:
            return None
        return hashlib.sha256(text.encode()).hexdigest()
