"""Service worker: executes one job directory, suspend/resume capable.

Launched by the server as ``python -m repro.service.worker <job_dir>``
(one subprocess per running job, so a simulation crash never takes the
server down).  Protocol, all
through the filesystem plus the exit code:

* reads ``job.json`` (never writes it — the server owns the manifest);
* appends telemetry records to ``telemetry.jsonl`` (``run_start``,
  ``interval``, ``sweep_point``, ``job_preempted``, ``job_resumed``,
  ``run_end``);
* exit ``0``: finished — ``result.json`` holds the artifact document,
  already published to the content-addressed artifact store;
* exit ``85``: suspended — the server asked for preemption (it dropped
  ``preempt.req``) and the machine state is parked in ``suspend.ckpt``;
* any other exit: failed — ``error.txt`` holds the traceback.

Preemption (``run`` jobs) rides the PR 5 checkpoint subsystem via
:class:`PreemptGuard`, a ``schedule_every`` ticker that polls the flag
file between events.  On request it snapshots the machine *before*
halting (``halt()`` discards the event queue) and the snapshot lands
exactly on a tick boundary ``k * every_ps``.  Because a periodic tick
reschedules itself only *after* its callback returns, the snapshot
contains neither the guard nor its next tick — the resumed worker
re-arms a fresh guard whose first tick falls at ``(k+1) * every_ps``,
the exact event (and engine sequence number) the uninterrupted run
schedules from inside its own tick.  Guard ticks read one flag and
mutate nothing, so a preempted-and-resumed run's metrics document is
byte-identical to an uninterrupted run with the same guard period
(tested); the period is the spec's ``preempt_every_ps`` and so part of
the result-cache key, because it does shape the event schedule.

``sweep`` jobs preempt at point boundaries instead: no snapshot —
completed points are already in the result cache, so resume simply
re-walks the values and the finished ones answer instantly.  ``fuzz``
and ``xval`` jobs are short and run to completion once started.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import tempfile
import time
import traceback
from typing import Any, Dict, Optional, Tuple

from .queue import JobRecord

__all__ = ["PreemptGuard", "execute_job", "main",
           "EXIT_DONE", "EXIT_SUSPENDED", "EXIT_FAILED",
           "DEFAULT_PREEMPT_EVERY_US"]

EXIT_DONE = 0
EXIT_SUSPENDED = 85
EXIT_FAILED = 1

#: default preemption-poll period in simulated microseconds (~tens of
#: milliseconds of wall-clock between polls at observed sim rates)
DEFAULT_PREEMPT_EVERY_US = 10.0

ARTIFACT_SCHEMA = "repro-service/1"


class PreemptGuard:
    """Polls the preemption flag between events; suspends on request.

    Host-side only: nothing in the simulated graph references the
    guard, and the pending tick is never in the queue while the
    callback runs, so snapshots it takes are free of the guard itself.
    """

    def __init__(self, system, flag_path: str, every_ps: int,
                 sink) -> None:
        if every_ps <= 0:
            raise ValueError("preemption poll period must be positive")
        self.system = system
        self.flag_path = flag_path
        self.every_ps = int(every_ps)
        #: ``sink(payload, sim_now_ps)`` persists the suspend snapshot
        self.sink = sink
        self.suspended = False

    def start(self) -> None:
        self.system.sim.schedule_every(self.every_ps, self.tick)

    def tick(self) -> bool:
        if os.path.exists(self.flag_path):
            from ..checkpoint import snapshot_bytes

            # capture BEFORE halt: halt() discards the event queue the
            # snapshot must carry
            payload = snapshot_bytes(self.system)
            self.sink(payload, self.system.sim.now)
            self.suspended = True
            self.system.sim.halt()
            return False
        return self.system._running_cpus > 0


def _read_preempt_request(record: JobRecord) -> Dict[str, Any]:
    """Who asked for the preemption (server writes ``{"by": job_id}``)."""
    try:
        with open(record.preempt_path, encoding="utf-8") as fh:
            doc = json.load(fh)
        return doc if isinstance(doc, dict) else {}
    except (OSError, ValueError):
        return {}


def _clear_preempt_flag(record: JobRecord) -> None:
    try:
        os.unlink(record.preempt_path)
    except OSError:
        pass


def _atomic_write_json(path: str, doc: Dict[str, Any]) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# -- job kinds ------------------------------------------------------------

def _point_spec(job: Dict[str, Any], **overrides):
    """The :class:`~repro.harness.spec.RunSpec` a run/sweep job describes
    (the job's scale travels in the factory, never the environment)."""
    from ..core import preset
    from ..harness.experiments import FACTORIES
    from ..harness.spec import RunSpec

    return RunSpec(
        preset(job["config"]),
        FACTORIES[job["workload"]](scale=float(job.get("scale", 1.0))),
        nodes=int(job["nodes"]),
        check=bool(job.get("check", False)),
        probe_rate=int(job.get("probe_rate", 0)),
        sample_interval_ps=int(float(job.get("sample_interval_us", 0)) * 1e6),
        **overrides)


def _execute_run(record: JobRecord, stream) -> Tuple[str, Optional[dict]]:
    """One preemptible simulation point.  Returns ``(outcome, artifact)``
    where outcome is ``"done"`` or ``"suspended"``."""
    from ..checkpoint import load_checkpoint, save_checkpoint
    from ..harness.cache import workload_token
    from ..harness.runner import (assemble_result, build_system,
                                  cached_result, store_result)

    every_ps = int(float(record.spec.get("preempt_every_us",
                                         DEFAULT_PREEMPT_EVERY_US)) * 1e6)
    # the guard's ticks shape the event schedule, so the poll period is
    # part of the run description (and of its result key)
    spec = _point_spec(record.spec, preempt_every_ps=every_ps)
    wall0 = time.time()

    resuming = os.path.exists(record.suspend_path)
    if not resuming:
        cached = cached_result(spec)
        if cached is not None:
            stream.emit("run_end", config=cached.config,
                        workload=cached.workload, items=cached.units,
                        throughput=cached.throughput,
                        sim_wall_s=cached.sim_wall_s, cached=True)
            return "done", _run_artifact(record, cached, cached=True)
        system, _workload = build_system(spec)
        stream.emit("run_start", config=spec.config.name,
                    workload=workload_token(spec.factory),
                    num_nodes=spec.nodes, mode="detailed",
                    probe_rate=spec.probe_rate,
                    sample_interval_ps=spec.sample_interval_ps,
                    job_id=record.job_id)
    else:
        _manifest, system = load_checkpoint(record.suspend_path,
                                            expect_config=spec.config)
        stream.emit("job_resumed", job_id=record.job_id,
                    sim_now=system.sim.now)

    if system.sampler is not None:
        # host-side hook; stripped from snapshots, so re-hook every time
        system.sampler.on_record = stream.on_interval

    def sink(payload: bytes, sim_now: int) -> None:
        save_checkpoint(record.suspend_path, system, payload=payload,
                        sim_now=sim_now, workload=record.spec["workload"],
                        extra={"job_id": record.job_id})

    guard = PreemptGuard(system, record.preempt_path, every_ps, sink)
    guard.start()

    # Hand-rolled drive loop (vs run_to_completion): a suspended run
    # halts with CPUs still marked running — that must not raise, and
    # the *host-side* sampler must not finalize (the snapshot's copy is
    # the one that finishes the run later).
    system.start()  # idempotent: no-op on a restored machine
    system.sim.run()
    if guard.suspended:
        request = _read_preempt_request(record)
        stream.emit("job_preempted", job_id=record.job_id,
                    sim_now=system.sim.now, by=request.get("by"))
        _clear_preempt_flag(record)
        return "suspended", None
    if system._running_cpus != 0:
        raise RuntimeError(
            f"simulation stalled with {system._running_cpus} CPUs running")
    if system.sampler is not None:
        system.sampler.finalize()

    result = assemble_result(system, spec, time.time() - wall0)
    store_result(spec, result)
    stream.emit("run_end", config=result.config, workload=result.workload,
                items=result.units, throughput=result.throughput,
                sim_wall_s=result.sim_wall_s, cached=False)
    try:
        os.unlink(record.suspend_path)  # the snapshot is now stale
    except OSError:
        pass
    return "done", _run_artifact(record, result, cached=False)


def _run_artifact(record: JobRecord, result, cached: bool) -> dict:
    return {
        "schema": ARTIFACT_SCHEMA,
        "kind": "run",
        "dedupe_key": record.dedupe_key,
        "cached": cached,
        "result": dataclasses.asdict(result),
    }


def _execute_sweep(record: JobRecord, stream) -> Tuple[str, Optional[dict]]:
    """A serial sweep; preempts between points (resume re-walks the
    values — completed points answer from the result cache)."""
    from ..harness.runner import run
    from ..harness.sweep import (parse_sweep_value, record_from_result,
                                 replace_field)

    spec = _point_spec(record.spec)
    base = spec.config
    workload_name = record.spec["workload"]
    nodes = spec.nodes
    field = record.spec["field"]
    values = [parse_sweep_value(str(v)) for v in record.spec["values"]]

    if record.resumes:
        stream.emit("job_resumed", job_id=record.job_id, sim_now=0)
    else:
        stream.emit("run_start", config=base.name, workload=workload_name,
                    num_nodes=nodes, mode="sweep", field=field,
                    points=len(values), job_id=record.job_id)
    records = []
    for index, value in enumerate(values):
        if os.path.exists(record.preempt_path):
            request = _read_preempt_request(record)
            stream.emit("job_preempted", job_id=record.job_id, sim_now=0,
                        by=request.get("by"), point=index)
            _clear_preempt_flag(record)
            return "suspended", None
        result = run(spec.replace(config=replace_field(base, field, value)))
        point = {"value": value}
        point.update(record_from_result(result))
        records.append(point)
        stream.emit("sweep_point", index=index, field=field, value=value,
                    throughput=result.throughput,
                    cached=not result.sim_wall_s)
    stream.emit("run_end", config=base.name, workload=workload_name,
                items=len(records), sim_wall_s=0.0, cached=False)
    return "done", {
        "schema": ARTIFACT_SCHEMA,
        "kind": "sweep",
        "dedupe_key": record.dedupe_key,
        "field": field,
        "records": records,
    }


def _execute_fuzz(record: JobRecord, stream) -> Tuple[str, Optional[dict]]:
    from ..fuzz import generate, params_for, run_fuzz_program

    spec = record.spec
    params = params_for(int(spec.get("seed", 0)),
                        total_ops=int(spec.get("ops", 2000)),
                        nodes=int(spec["nodes"]),
                        config=spec["config"],
                        cpus_per_node=int(spec.get("cpus", 4)))
    program = generate(params)
    stream.emit("run_start", config=spec["config"], workload="fuzz",
                num_nodes=int(spec["nodes"]), mode="fuzz",
                job_id=record.job_id)
    verdict = run_fuzz_program(program, check=bool(spec.get("check", True)),
                               trace_capacity=int(spec.get("trace", 512)))
    stream.emit("run_end", config=spec["config"], workload="fuzz",
                items=int(spec.get("ops", 2000)), sim_wall_s=0.0,
                cached=False, ok=verdict.ok)
    return "done", {
        "schema": ARTIFACT_SCHEMA,
        "kind": "fuzz",
        "dedupe_key": record.dedupe_key,
        "ok": verdict.ok,
        "signature": verdict.signature,
        "counts": {k: int(v) for k, v in (verdict.counts or {}).items()},
    }


def _execute_xval(record: JobRecord, stream) -> Tuple[str, Optional[dict]]:
    from ..isa.kernels import KERNEL_NAMES
    from ..isa.validate import run_suite

    spec = record.spec
    kernels = spec.get("kernels", "all")
    if kernels == "all":
        kernels = KERNEL_NAMES
    elif isinstance(kernels, str):
        kernels = (kernels,)
    stream.emit("run_start", config=spec["config"], workload="xval",
                num_nodes=int(spec["nodes"]), mode="xval",
                job_id=record.job_id)
    doc = run_suite(tuple(kernels), config=spec["config"],
                    nodes=int(spec["nodes"]), scale=float(spec["scale"]),
                    seeds=tuple(range(int(spec.get("seeds", 3)))))
    stream.emit("run_end", config=spec["config"], workload="xval",
                items=doc["summary"]["kernels"], sim_wall_s=0.0,
                cached=False, ok=doc["ok"])
    return "done", {
        "schema": ARTIFACT_SCHEMA,
        "kind": "xval",
        "dedupe_key": record.dedupe_key,
        "ok": doc["ok"],
        "report": doc,
    }


_EXECUTORS = {
    "run": _execute_run,
    "sweep": _execute_sweep,
    "fuzz": _execute_fuzz,
    "xval": _execute_xval,
}


def execute_job(record: JobRecord, stream) -> Tuple[str, Optional[dict]]:
    """Run one job against an open telemetry stream.

    Returns ``("done", artifact)`` or ``("suspended", None)``.  Exposed
    for in-process tests (the preemption byte-diff gate) and the bench;
    the server goes through :func:`main` in a subprocess.
    """
    kind = record.spec.get("kind", "run")
    executor = _EXECUTORS.get(kind)
    if executor is None:
        raise ValueError(f"unknown job kind {kind!r}")
    return executor(record, stream)


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if len(args) != 1:
        print("usage: python -m repro.service.worker <job_dir>",
              file=sys.stderr)
        return 2
    record = JobRecord.load(args[0])

    from ..observe.telemetry import TelemetryStream

    # always append: the server already wrote job_queued, and a resumed
    # job continues the stream its first incarnation started
    stream = TelemetryStream(record.telemetry_path, append=True)
    try:
        outcome, artifact = execute_job(record, stream)
    except Exception:
        detail = traceback.format_exc()
        try:
            with open(record.error_path, "w", encoding="utf-8") as fh:
                fh.write(detail)
        except OSError:
            pass
        print(detail, file=sys.stderr)
        return EXIT_FAILED
    finally:
        stream.close()
    if outcome == "suspended":
        return EXIT_SUSPENDED
    _atomic_write_json(record.result_path, artifact)
    from .store import ArtifactStore

    ArtifactStore().put_artifact(record.dedupe_key, artifact)
    return EXIT_DONE


if __name__ == "__main__":
    sys.exit(main())
