"""The benchmark's workloads: which machine, which workload, what size.

Every point is built through the simulator's public entry points only
(``repro.PiranhaSystem``, ``attach_workload``, the workload classes and
their ``*Params``, ``repro.fastforward.SampledRun``), so refactors of
the harness cannot break the benchmark and nothing touches a result
cache or warm store: every run really simulates.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, Tuple

#: the benchmark's default ``--seed``; it is also ``OltpParams.seed``'s
#: default, the seed the golden digests and the sampled-mode error gate
#: were measured at
DEFAULT_SEED = 2000

#: sampled-mode window/period (work items per CPU): the CLI defaults
SAMPLED_WINDOW = 800
SAMPLED_PERIOD = 6000

#: payload fractions compared between a sampled run and its detailed
#: reference (absolute difference); ``time_per_unit_ns`` is compared as
#: a relative difference
FRACTIONS = ("busy_frac", "l2_frac", "mem_frac",
             "miss_hit_frac", "miss_fwd_frac", "miss_mem_frac")


@dataclass(frozen=True)
class Point:
    """One benchmark workload."""

    config: str                  # preset name
    nodes: int
    workload: str                # "oltp" or "dss"
    params: Dict[str, int] = field(default_factory=dict)
    sampled: bool = False
    #: False where the model ignores everything the seed draws, so a new
    #: seed changes the inputs but cannot change the payload
    seed_in_payload: bool = True
    why: str = ""

    @property
    def units_attr(self) -> str:
        return "transactions" if self.workload == "oltp" else "rows"

    def make_workload(self, seed: int):
        """``(config, workload)`` for ``seed``; nothing is built yet."""
        from repro import (DssParams, DssWorkload, OltpParams, OltpWorkload,
                           preset)

        config = preset(self.config)
        if self.workload == "oltp":
            workload = OltpWorkload(OltpParams(seed=seed, **self.params),
                                    cpus_per_node=config.cpus,
                                    num_nodes=self.nodes)
        else:
            workload = DssWorkload(DssParams(seed=seed, **self.params),
                                   cpus_per_node=config.cpus,
                                   num_nodes=self.nodes)
        return config, workload

    def build(self, seed: int, sampled: bool = None):
        """Build ``(config, system, sampled_run_or_None)`` ready to run.
        ``sampled=False`` builds the detailed twin of a sampled point."""
        from repro import PiranhaSystem

        if sampled is None:
            sampled = self.sampled
        config, workload = self.make_workload(seed)
        system = PiranhaSystem(config, num_nodes=self.nodes)
        system.attach_workload(workload)
        run = None
        if sampled:
            from repro.fastforward import SampledRun

            # no window hand-off captures: batch measurement, as the
            # harness runs sampled mode
            run = SampledRun(system, window=SAMPLED_WINDOW,
                             period=SAMPLED_PERIOD, handoff="none")
        return config, system, run

    def inputs_digest(self, seed: int, items_per_cpu: int = 4096) -> str:
        """SHA-256 over the first work items of every CPU's stream: what
        the seed gives the simulator, whatever the simulator makes of it."""
        config, workload = self.make_workload(seed)
        h = hashlib.sha256()
        for node in range(self.nodes):
            for cpu in range(config.cpus):
                thread = workload.thread_for(node, cpu)
                for _, item in zip(range(items_per_cpu), thread):
                    h.update(repr(item).encode())
        return h.hexdigest()


POINTS: Dict[str, Point] = {
    "oltp-p8": Point(
        "P8", 1, "oltp", {"transactions": 20, "warmup_transactions": 38},
        why="P8 OLTP detailed: the per-miss hot path through L1, L2, "
            "dup-tags and the engine"),
    "dss-p8": Point(
        "P8", 1, "dss", {"rows": 1040, "warmup_rows": 40},
        # the DSS generator's only random draw is the dependent-load
        # flag, and P8's in-order cores do not look at it
        seed_in_payload=False,
        why="P8 DSS scan detailed: every miss streams from RDRAM, no "
            "on-chip forwarding; control for forwarding changes"),
    "oltp-multinode": Point(
        "P4", 4, "oltp", {"transactions": 4, "warmup_transactions": 6},
        why="4 P4 nodes fully connected: the only point where protocol "
            "engines and routers work (3-hop forwarding, remote invals)"),
    "oltp-sampled": Point(
        "P8", 1, "oltp", {}, sampled=True,
        why="P8 OLTP full size in sampled mode from cold: functional "
            "warming dominates and the engine is idle"),
}


def detailed_result(point: Point, config, system):
    """The :class:`repro.RunResult` of a drained detailed system, with
    the payload fields computed as the harness computes them."""
    from repro import RunResult

    workload = system.workload
    units = getattr(workload.params, point.units_attr)
    per_cpu_ps = max(cpu.total_ps for cpu in system.all_cpus())
    time_per_unit_ns = per_cpu_ps / units / 1000.0
    summary = system.execution_summary()
    total_ps = summary["total_ps"] or 1
    mb = system.miss_breakdown()
    misses = sum(mb.values()) or 1
    return RunResult(
        config=config.name,
        cpus=config.cpus,
        nodes=point.nodes,
        workload=workload.name,
        units=units,
        time_per_unit_ns=time_per_unit_ns,
        throughput=config.cpus * point.nodes * 1e9 / time_per_unit_ns,
        busy_frac=summary["busy_ps"] / total_ps,
        l2_frac=summary["l2_stall_ps"] / total_ps,
        mem_frac=summary["mem_stall_ps"] / total_ps,
        miss_hit_frac=mb["l2_hit"] / misses,
        miss_fwd_frac=mb["l2_fwd"] / misses,
        miss_mem_frac=mb["l2_miss"] / misses,
    )


def payload_digest(result) -> Tuple[str, list]:
    """SHA-256 over the canonical JSON of ``result.payload_tuple()``,
    floats through ``repr`` (the golden-digest convention): two payloads
    digest equally iff they are bit-for-bit equal."""
    payload = [repr(v) if isinstance(v, float) else v
               for v in result.payload_tuple()]
    blob = json.dumps(payload, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest(), payload


def reference_fractions(result) -> Dict[str, float]:
    """What the sampled-mode error is measured on."""
    ref = {name: getattr(result, name) for name in FRACTIONS}
    ref["time_per_unit_ns"] = result.time_per_unit_ns
    return ref


def max_class_error(sampled: Dict[str, float],
                    detailed: Dict[str, float]) -> float:
    """Largest error of a sampled estimate against its detailed run:
    absolute for the payload fractions (they are shares already),
    relative for ``time_per_unit_ns``."""
    errors = [abs(sampled[name] - detailed[name]) for name in FRACTIONS]
    errors.append(abs(sampled["time_per_unit_ns"]
                      / detailed["time_per_unit_ns"] - 1.0))
    return max(errors)
