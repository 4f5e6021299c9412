"""Parameter-sweep utilities for sensitivity studies.

Runs one workload across a family of derived configurations (varying one
or more :class:`~repro.core.config.ChipConfig` fields) and collects
RunResult-style records — the machinery behind the cores-vs-cache and
keep-open sweeps, reusable for ad-hoc studies::

    from repro.harness import OltpFactory, RunSpec
    from repro.harness.sweep import sweep_field
    results = sweep_field(RunSpec(preset("P8"), OltpFactory()),
                          "l2.size_bytes", [512 << 10, 1 << 20, 2 << 20],
                          jobs=4)

The base spec describes every point; only its config varies.

Sweep points are independent simulations, so they parallelise across
processes: pass ``jobs=N`` (or set ``REPRO_JOBS``) to fan out via
:mod:`repro.harness.parallel`.  Metric assembly is shared with
:func:`repro.harness.runner.simulate` — the serial, parallel and cached
paths all produce identical records.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
from typing import Dict, List, Optional, Sequence

from ..core.config import ChipConfig
from .cache import cache_dir, cache_enabled
from .parallel import run_jobs
from .runner import RunResult
from .spec import RunSpec


def parse_sweep_value(text: str):
    """Parse one swept value: int (with K/M/G suffix), float, or string.

    Shared by the CLI ``sweep`` verb and the service worker, so a sweep
    submitted over the wire (values as strings) resolves to exactly the
    values the equivalent command line would."""
    text = text.strip()
    suffixes = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    if text and text[-1].upper() in suffixes:
        try:
            return int(float(text[:-1]) * suffixes[text[-1].upper()])
        except ValueError:
            pass
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def replace_field(config: ChipConfig, dotted: str, value) -> ChipConfig:
    """Return a config with ``dotted`` (e.g. ``"l2.size_bytes"`` or
    ``"core.clock_mhz"``) replaced by *value*."""
    parts = dotted.split(".")
    if len(parts) > 2:
        raise ValueError(f"at most one level of nesting supported: {dotted!r}")
    if not all(parts):
        raise ValueError(f"empty component in field path: {dotted!r}")
    if len(parts) == 1:
        if parts[0] not in {f.name for f in dataclasses.fields(config)}:
            raise ValueError(
                f"unknown config field {parts[0]!r}; available: "
                f"{sorted(f.name for f in dataclasses.fields(config))}")
        return dataclasses.replace(config, **{parts[0]: value})
    group, leaf = parts
    sub = getattr(config, group, None)
    if sub is None or not dataclasses.is_dataclass(sub):
        raise ValueError(f"unknown config group {group!r} in {dotted!r}")
    if leaf not in {f.name for f in dataclasses.fields(sub)}:
        raise ValueError(
            f"unknown field {leaf!r} in config group {group!r}; available: "
            f"{sorted(f.name for f in dataclasses.fields(sub))}")
    new_sub = dataclasses.replace(sub, **{leaf: value})
    return dataclasses.replace(config, **{group: new_sub})


def record_from_result(result: RunResult) -> Dict:
    """Flatten a RunResult into the sweep's metrics-dict shape."""
    return {
        "config": result.config,
        "time_per_unit_ns": result.time_per_unit_ns,
        "throughput": result.throughput,
        "busy_frac": result.busy_frac,
        "l2_frac": result.l2_frac,
        "mem_frac": result.mem_frac,
        "miss_hit_frac": result.miss_hit_frac,
        "miss_fwd_frac": result.miss_fwd_frac,
        "miss_mem_frac": result.miss_mem_frac,
    }


def sweep_configs(base: ChipConfig, dotted: str,
                  values: Sequence) -> List[ChipConfig]:
    """Materialise the derived configuration for each swept value."""
    out = []
    for value in values:
        config = replace_field(base, dotted, value)
        out.append(dataclasses.replace(
            config, name=f"{base.name}[{dotted}={value}]"))
    return out


def sweep_key(spec: RunSpec, dotted: str,
              values: Sequence) -> Optional[str]:
    """Stable identity of one sweep (for its progress manifest): the base
    spec's ``result`` digest plus the swept field and values, or None
    when the workload factory is opaque (nothing resumable to key on)."""
    base = spec.digest("result")
    if base is None:
        return None
    payload = json.dumps(
        {"base": base, "field": dotted, "values": [str(v) for v in values]},
        sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def manifest_path(key: str) -> str:
    return os.path.join(cache_dir(), "sweeps", key + ".json")


def load_manifest(key: Optional[str]) -> Optional[Dict]:
    """The progress manifest for a sweep key, or None."""
    if key is None:
        return None
    try:
        with open(manifest_path(key), "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError):
        return None


def _write_manifest(key: str, manifest: Dict) -> None:
    path = manifest_path(key)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            json.dump(manifest, f, sort_keys=True)
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass


def sweep_field(spec: RunSpec, dotted: str, values: Sequence,
                jobs: Optional[int] = None,
                resume: bool = False) -> List[Dict]:
    """Sweep one config field of *spec* over *values*; returns one record
    per point (with the swept value under ``"value"``).

    Every point is *spec* with its config derived from ``spec.config``,
    so the workload, node count, sanitizer, observers and mode apply to
    all of them (a ``check`` violation raises out of the sweep).

    ``jobs`` (default: the ``REPRO_JOBS`` environment variable, else 1)
    fans the points out across worker processes; records are identical to
    a serial sweep regardless of the worker count.

    ``spec.warmup`` routes every point through the warm-checkpoint store
    — note the points of a *field* sweep have distinct configs and so
    distinct warm snapshots; the amortisation is across re-runs of the
    same sweep, i.e. exactly the ``resume`` scenario.  ``resume``
    (implies ``warmup``) additionally maintains a progress manifest under
    ``cache_dir()/sweeps/``: a killed sweep re-invoked with
    ``resume=True`` answers completed points from the result cache,
    restores interrupted points from their warm snapshots, and finishes
    only the remaining work.
    """
    if resume:
        spec = spec.replace(warmup=True)
    configs = sweep_configs(spec.config, dotted, values)

    on_result = None
    key = sweep_key(spec, dotted, values) if resume and cache_enabled() \
        else None
    if key is not None:
        fresh = {"field": dotted, "values": [str(v) for v in values],
                 "total": len(values), "done": []}
        manifest = load_manifest(key) or fresh
        # a manifest from a partial run with different values (the key
        # folds values in, so this means a hash collision or
        # hand-editing): start clean rather than trust it
        if manifest.get("total") != len(values):
            manifest = fresh

        def on_result(i: int, _spec: RunSpec, _result: RunResult) -> None:
            manifest["done"] = sorted(set(manifest["done"]) | {i})
            _write_manifest(key, manifest)

    results = run_jobs([spec.replace(config=c) for c in configs],
                       jobs=jobs, on_result=on_result)
    out = []
    for value, result in zip(values, results):
        record = record_from_result(result)
        record["value"] = value
        out.append(record)
    return out
