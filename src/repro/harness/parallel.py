"""Experiment-level parallelism: fan independent points across processes.

Each simulation point is an independent, deterministic, single-threaded
program — the ideal unit for process-level parallelism.  :func:`run_jobs`
takes a list of :class:`~repro.harness.spec.RunSpec` points, answers
what it can from the memo / disk caches, and fans the remaining points
out over a ``ProcessPoolExecutor``.  Workers run the shared
:func:`~repro.harness.runner.simulate` implementation, so a parallel run
produces bit-for-bit the same measurement payload as a serial one (see
DESIGN.md, "Determinism"); detailed and sampled points fan out alike.

Parallelism is opt-in: pass ``jobs=N``, or set ``REPRO_JOBS=N`` in the
environment (``REPRO_JOBS=0`` means one worker per CPU core).  With one
job — the default — everything runs serially in-process, exactly as
before this layer existed.

Specs that cannot be pickled (closure factories, open telemetry
handles) fall back to serial execution transparently; the picklable
factories in :mod:`repro.harness.experiments` cover every standard
workload, and a telemetry *path string* streams from the worker.
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, List, Optional, Sequence

from .runner import RunResult, cached_result, run, simulate, store_result
from .spec import RunSpec


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker count: explicit argument, else ``REPRO_JOBS``, else 1.

    0 (or a negative value) means "use every CPU core".
    """
    if jobs is None:
        try:
            jobs = int(os.environ.get("REPRO_JOBS", "1") or "1")
        except ValueError:
            jobs = 1
    if jobs <= 0:
        jobs = os.cpu_count() or 1
    return jobs


def _picklable(spec: RunSpec) -> bool:
    try:
        pickle.dumps(spec)
        return True
    except Exception:
        return False


def run_jobs(specs: Sequence[RunSpec], jobs: Optional[int] = None,
             on_result: Optional[Callable[[int, RunSpec, RunResult],
                                          None]] = None,
             ) -> List[RunResult]:
    """Execute every spec, in order, using up to *jobs* worker processes.

    Results are returned in input order.  Cached points (memo or disk)
    are answered immediately and never dispatched; fresh results are
    written back to both caches by the parent, so workers never race on
    the cache directory — with one exception: warm checkpoints are
    written worker-side (locked first-writer-wins, and distinct points
    never share a key), because shipping multi-megabyte snapshots back
    through the result pickle would cost more than the race it avoids.

    *on_result* is invoked in the parent as ``on_result(index, spec,
    result)`` for every completed point (cached answers included), after
    the result has been persisted to the caches — resumable sweeps hang
    their progress manifest on this, so a point marked done in the
    manifest is guaranteed to be answerable from the cache on re-run.
    Completion order is not input order for parallel points.
    """
    specs = list(specs)
    n_workers = resolve_jobs(jobs)
    results: List[Optional[RunResult]] = [None] * len(specs)

    def done(i: int, result: RunResult) -> None:
        results[i] = result
        if on_result is not None:
            on_result(i, specs[i], result)

    misses: List[int] = []
    for i, spec in enumerate(specs):
        cached = cached_result(spec)
        if cached is not None:
            done(i, cached)
        else:
            misses.append(i)

    parallel_idx = [i for i in misses if _picklable(specs[i])]
    serial_idx = [i for i in misses if i not in set(parallel_idx)]
    if n_workers <= 1 or len(parallel_idx) <= 1:
        serial_idx = misses
        parallel_idx = []

    if parallel_idx:
        workers = min(n_workers, len(parallel_idx))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            fresh = pool.map(simulate, [specs[i] for i in parallel_idx])
            for i, result in zip(parallel_idx, fresh):
                store_result(specs[i], result)
                done(i, result)

    for i in serial_idx:
        done(i, run(specs[i]))

    return results  # type: ignore[return-value]
