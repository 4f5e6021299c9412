"""One measured repetition of one benchmark workload, in its own process.

Usage: ``python3 simbench/worker.py <workload> <seed> <time|trace|reference>``

Run by ``simbench/run.py``, once per repetition, so each repetition
starts from a fresh interpreter: its peak RSS cannot be masked by an
earlier run, and no state carries over.  Prints one JSON record as the
last line of standard output:

* ``time`` — the untraced run: set-up and wall time, peak RSS, payload
  digest, the counters the per-layer view needs, and the time of a
  fixed calibration loop run after the simulation is freed;
* ``trace`` — the same run under cProfile, with per-layer self time;
* ``reference`` — the detailed twin of a sampled point (payload
  fractions only), for the sampled-mode error.
"""

from __future__ import annotations

import cProfile
import gc
import heapq
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: set-ups per repetition; ``setup_s`` is their median
SETUPS = 5


def _time_warmer(run, spent: list) -> None:
    """Accumulate host time spent in the functional warm path (the
    public ``FunctionalWarmer`` entry points the sampled run drives)."""
    warmer = run.warmer
    for name in ("collect", "apply_interleaved"):
        method = getattr(warmer, name)

        def timed(*args, _method=method, **kw):
            t0 = time.perf_counter()
            try:
                return _method(*args, **kw)
            finally:
                spent[0] += time.perf_counter() - t0

        setattr(warmer, name, timed)


class _Entry:
    __slots__ = ("key", "hits", "state")

    def __init__(self, key: int) -> None:
        self.key = key
        self.hits = 0
        self.state = 0


def calibrate() -> float:
    """Host time of a fixed pure-Python workload, no simulator code:
    object churn through a dict and a priority queue, then random reads
    from a 128K-entry table.  It slows down with the host as the
    simulator does, so a run's times can be scaled to a reference host
    speed (see ``run.py``)."""
    gc.disable()  # the collector's cost would depend on the heap
    try:
        return _calibration_loop()
    finally:
        gc.enable()


def _calibration_loop() -> float:
    t0 = time.perf_counter()
    table, queue, x = {}, [], 12345
    for i in range(100_000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        entry = table.get(x & 4095)
        if entry is None:
            entry = table[x & 4095] = _Entry(x & 4095)
        entry.hits += 1
        entry.state ^= i & 3
        heapq.heappush(queue, (x & 0xFFFF, i, entry))
        if len(queue) > 64:
            heapq.heappop(queue)
    big = {i: [i, i + 1] for i in range(1 << 17)}
    total = 0
    for _ in range(150_000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        total += big[x & 0x1FFFF][0]
    return time.perf_counter() - t0


def counters(system, run) -> dict:
    """Whole-run activity counts, read from public accessors: the
    system's counter snapshot plus engine and work-item totals."""
    c = dict(system.sample_counters())
    c.update(
        sim_ns=system.sim.now / 1000.0,
        events=system.sim.events_fired,
        cancelled=system.sim.events_cancelled,
        items=sum(cpu.thread.emitted for cpu in system.all_cpus()),
        ff_items=run.ff_items if run is not None else 0,
    )
    return c


def measure(name: str, seed: int, mode: str) -> dict:
    from points import (POINTS, detailed_result, payload_digest,
                        reference_fractions)

    point = POINTS[name]
    sampled = point.sampled and mode != "reference"
    setups = []
    for _ in range(SETUPS):
        built = None  # drop the previous set-up before timing the next
        gc.collect()
        t0 = time.perf_counter()
        built = point.build(seed, sampled=sampled)
        setups.append(time.perf_counter() - t0)
    config, system, run = built
    del built

    warm_spent = [0.0]
    profile = None
    if run is not None and mode == "time":
        _time_warmer(run, warm_spent)
    if mode == "trace":
        profile = cProfile.Profile()
        profile.enable()
    t0 = time.perf_counter()
    if run is not None:
        run.run()
    else:
        system.run_to_completion()
    wall = time.perf_counter() - t0
    if profile is not None:
        profile.disable()

    result = (run.to_result(config, point.nodes, point.units_attr)
              if run is not None else detailed_result(point, config, system))
    digest, payload = payload_digest(result)
    record = {
        "ok": True,
        "mode": mode,
        "digest": digest,
        "payload": payload,
        "fractions": reference_fractions(result),
        "setup_s": sorted(setups)[len(setups) // 2],
        "wall_s": wall,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "warm_s": warm_spent[0],
    }
    record.update(counters(system, run))
    if mode == "time":
        # after the peak-RSS reading, which its table must not reach, and
        # with the simulation freed, so its heap cannot slow the loop
        del system, run, result
        gc.collect()
        record["cal_s"] = calibrate()
    if profile is not None:
        from layers import LayerMap, attribute

        import repro

        layer_map = LayerMap(os.path.dirname(repro.__file__))
        record["layers"] = attribute(profile, layer_map)
    return record


def main(argv) -> int:
    if len(argv) != 3 or argv[2] not in ("time", "trace", "reference"):
        print(__doc__, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    try:
        record = measure(argv[0], int(argv[1]), argv[2])
    except Exception as exc:  # a failed run is a measurement outcome
        import traceback

        traceback.print_exc()
        record = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
