"""Simulator benchmark: host cost per simulated miss, per-layer self time.

Usage::

    python3 simbench/run.py --workload oltp-p8 [--seed 2000] [--seconds 25]
                            [--trace 0|1]
    python3 simbench/run.py --pin     # re-pin the default-seed payloads

Run from the repository root.  Each repetition runs in a fresh worker
process (``simbench/worker.py``); repetitions continue until
``--seconds`` have passed.  ``--trace 0`` prints the end-to-end metrics
(medians over the untraced repetitions); ``--trace 1`` alternates
untraced and cProfile-traced repetitions and prints the per-layer
metrics, with the tracing overhead beside them.  Every repetition's
payload digest is checked: at the default seed against the pinned
digest, at any other seed against the run's first repetition; a new
seed must also change the workload's inputs and, where the model can
see them, its payload.  Reported host times are scaled to a reference
host speed by a calibration loop each repetition also times.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``simbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PINNED = os.path.join(HERE, "pinned.json")
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

from layers import LAYERS, UNATTRIBUTED  # noqa: E402
from points import DEFAULT_SEED, POINTS, max_class_error  # noqa: E402

#: ROADMAP gate on sampled mode's largest class error, at the pinned seed
SAMPLED_ERROR_GATE = 0.0044
#: the named layers' self times must sum to the traced wall time within
#: this share of it
LAYER_SUM_TOLERANCE = 0.10
#: a layer "reads ~0" when its share of traced time is below this
IDLE_SHARE = 0.005
#: one repetition may take this long before it counts as stalled
WORKER_TIMEOUT_S = 120.0
#: a run ends this long after start-up at the latest, stalled or not
RUN_LIMIT_S = 170.0
#: no repetition starts that could end later than this after start-up
RUN_BUDGET_S = 140.0
#: the worker's calibration loop takes this long on the reference host;
#: host times are reported scaled to that host speed (see end_to_end)
CAL_REF_S = 0.2

END_TO_END_UNITS = {
    "wall_s": "s",
    "host_us_per_miss": "us",
    "sim_ns_per_host_s": "ns/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def spawn(workload: str, seed: int, mode: str,
          timeout: float = WORKER_TIMEOUT_S) -> dict:
    """Run one repetition in a fresh worker process; never raises."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["REPRO_NO_CACHE"] = "1"
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload,
           str(seed), mode]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"ok": False, "mode": mode,
                "error": f"stalled: no result in {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        record = {"ok": False, "error": f"worker exited {proc.returncode} "
                                        f"without a record"}
    if not record.get("ok"):
        log(proc.stderr.strip())
    record["mode"] = mode
    return record


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def l1_misses(record: dict) -> int:
    """Misses over every L1 for the whole run, warm-up included."""
    return record["l1_lookups"] - record["l1_hits"]


class Run:
    """One benchmark invocation: repetitions, checks and metrics."""

    def __init__(self, workload: str, seed: int, seconds: int,
                 trace: bool) -> None:
        self.name = workload
        self.point = POINTS[workload]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        with open(PINNED) as fh:
            self.pinned = json.load(fh)
        self.records = []
        self.failed = 0
        self.problems = []      # failed checks beyond failed repetitions
        self.reference = None   # detailed payload fractions (sampled)
        self.started = time.monotonic()

    def spawn(self, mode: str) -> dict:
        left = RUN_LIMIT_S - (time.monotonic() - self.started)
        return spawn(self.name, self.seed, mode,
                     timeout=min(WORKER_TIMEOUT_S, left))

    def expected_digest(self):
        if self.seed == DEFAULT_SEED:
            return self.pinned["digests"][self.name]
        good = [r for r in self.records if r.get("ok")]
        return good[0]["digest"] if good else None

    def check(self, record: dict) -> bool:
        """Payload check of one repetition; a mismatch fails the run."""
        if not record.get("ok"):
            log(f"{self.name}: repetition failed: {record.get('error')}")
            return False
        expected = self.expected_digest()
        if expected is not None and record["digest"] != expected:
            log(f"{self.name}: payload digest {record['digest']} differs "
                f"from {expected}: {record['payload']}")
            return False
        return True

    def set_up(self) -> None:
        """Untimed set-up: the sampled point's detailed reference."""
        if not self.point.sampled:
            return
        if self.seed == DEFAULT_SEED:
            self.reference = self.pinned["sampled_reference"][self.name]
        elif self.trace:
            record = self.spawn("reference")
            if not record.get("ok"):
                self.problems.append("detailed reference run failed")
                return
            self.reference = record["fractions"]

    def measure(self) -> None:
        modes = ("time", "trace") if self.trace else ("time",)
        start = time.monotonic()
        longest = 0.0  # the slowest round so far
        while True:
            t0 = time.monotonic()
            for mode in modes:
                record = self.spawn(mode)
                if not self.check(record):
                    self.failed += 1
                    record["ok"] = False
                self.records.append(record)
            now = time.monotonic()
            longest = max(longest, now - t0)
            if (now - start >= self.seconds
                    or now - self.started + longest > RUN_BUDGET_S):
                return

    def good(self, mode: str):
        return [r for r in self.records if r.get("ok") and r["mode"] == mode]

    def check_payload(self) -> None:
        """Seed and accuracy checks on the (agreed) payload."""
        good = [r for r in self.records if r.get("ok")]
        if not good:
            return
        digest = good[0]["digest"]
        print(f"digest {self.name} seed={self.seed} sha256={digest}")
        if self.seed != DEFAULT_SEED:
            self.check_new_seed(digest)
        if self.point.sampled and self.seed == DEFAULT_SEED:
            error = max_class_error(good[0]["fractions"], self.reference)
            log(f"{self.name}: sampled max class error {error:.5f}")
            if error > SAMPLED_ERROR_GATE:
                self.problems.append(
                    f"sampled max class error {error:.5f} exceeds the "
                    f"{SAMPLED_ERROR_GATE} gate")

    def check_new_seed(self, digest: str) -> None:
        """A seed other than the default must reach the workload: change
        its inputs and, where the model can see the difference, the
        payload."""
        if self.point.inputs_digest(self.seed) == \
                self.pinned["inputs"][self.name]:
            self.problems.append(
                f"seed {self.seed} gives the seed-{DEFAULT_SEED} inputs")
        if digest != self.pinned["digests"][self.name]:
            return
        if self.point.seed_in_payload:
            self.problems.append(
                f"seed {self.seed} reproduces the seed-{DEFAULT_SEED} "
                f"payload")
        else:
            log(f"{self.name}: new inputs, same payload as seed "
                f"{DEFAULT_SEED}: the model ignores what the seed draws")

    def end_to_end(self) -> dict:
        """Medians over the untraced repetitions, host times scaled to
        the reference host speed: times by ``CAL_REF_S`` / the run's
        median calibration time, rates by its inverse.  The host's speed
        drifts by tens of percent over minutes on shared machines; the
        calibration loop drifts with it, so the scaled medians of runs
        made at different times stay comparable."""
        reps = self.good("time")
        raw = {
            "wall_s": [r["wall_s"] for r in reps],
            "host_us_per_miss": [r["wall_s"] * 1e6 / l1_misses(r)
                                 for r in reps],
            "sim_ns_per_host_s": [r["sim_ns"] / r["wall_s"] for r in reps],
            "setup_s": [r["setup_s"] for r in reps],
            "peak_rss_mb": [r["rss_mb"] for r in reps],
        }
        cal = median(r["cal_s"] for r in reps)
        scale = {name: ratio(CAL_REF_S, cal) for name in raw}
        scale["sim_ns_per_host_s"] = ratio(cal, CAL_REF_S)
        scale["peak_rss_mb"] = 1.0
        log(f"{self.name}: calibration median {cal:.6g} s over {len(reps)} "
            f"repetitions; host times scaled by {ratio(CAL_REF_S, cal):.4f}")
        for name, vals in raw.items():
            if len(vals) >= 2 and scale[name] != 1.0:
                q = statistics.quantiles(vals, n=4)
                log(f"{self.name} {name} unscaled: median "
                    f"{median(vals):.6g} [{q[0]:.6g}, {q[2]:.6g}]")
        return {name: {"value": median(vals) * scale[name],
                       "unit": END_TO_END_UNITS[name]}
                for name, vals in raw.items()}

    def per_layer(self) -> dict:
        traced = self.good("trace")
        untimed = self.good("time")
        if not traced:
            return {}
        out = {}

        def put(name, unit, value):
            out[name] = {"value": value, "unit": unit}

        for layer in LAYERS:
            put(f"{layer}.self_s", "s",
                median(r["layers"][layer]["self_s"] for r in traced))
            put(f"{layer}.share", "fraction",
                median(self.share(r, layer) for r in traced))
            put(f"{layer}.calls", "count",
                median(r["layers"][layer]["calls"] for r in traced))
        c = traced[0]   # counts are deterministic: any repetition
        put("sim.engine.events", "count", c["events"])
        put("sim.engine.events_per_miss", "events/miss",
            ratio(c["events"], l1_misses(c)))
        put("sim.engine.cancelled_ratio", "fraction",
            ratio(c["cancelled"], c["events"] + c["cancelled"]))
        put("core.l1.lookups", "count", c["l1_lookups"])
        put("core.l1.hit_rate", "fraction",
            ratio(c["l1_hits"], c["l1_lookups"]))
        put("core.ics.transfers", "count", c["ics_transfers"])
        put("core.ics.conflict_ratio", "fraction",
            ratio(c["ics_conflicts"], c["ics_transfers"]))
        put("core.rdram.accesses", "count", c["mem_accesses"])
        put("core.rdram.page_hit_rate", "fraction",
            ratio(c["mem_page_hits"], c["mem_accesses"]))
        put("interconnect.packets", "count", c["packets_sent"])
        put("interconnect.misroute_ratio", "fraction",
            ratio(c["router_misroutes"], c["router_transit"]))
        put("fastforward.ff_items", "count", c["ff_items"])
        put("fastforward.us_per_item", "us/item",
            median(ratio(r["warm_s"] * 1e6, r["ff_items"]) for r in untimed))
        put("fastforward.max_class_error", "fraction",
            0.0 if self.reference is None
            else max_class_error(c["fractions"], self.reference))
        put("workloads.us_per_item", "us/item",
            median(ratio(r["layers"]["workloads"]["self_s"] * 1e6,
                         r["items"]) for r in traced))
        put("trace.overhead_pct", "%",
            100.0 * (ratio(median(r["wall_s"] for r in traced),
                           median(r["wall_s"] for r in untimed)) - 1.0))
        put("trace.unattributed_share", "fraction",
            median(self.share(r, UNATTRIBUTED) for r in traced))
        return out

    @staticmethod
    def share(record: dict, layer: str) -> float:
        total = sum(v["self_s"] for v in record["layers"].values())
        return ratio(record["layers"][layer]["self_s"], total)

    def self_test(self) -> None:
        """Sanity of the traced repetitions' layer split."""
        for r in self.good("trace"):
            named = sum(r["layers"][layer]["self_s"] for layer in LAYERS)
            if abs(named / r["wall_s"] - 1.0) > LAYER_SUM_TOLERANCE:
                self.problems.append(
                    f"layer self times sum to {named:.3f} s against "
                    f"{r['wall_s']:.3f} s traced wall time")
            shares = {layer: self.share(r, layer) for layer in LAYERS}
            if self.name == "oltp-p8" and max(shares, key=shares.get) \
                    != "core.l2":
                self.problems.append(
                    f"core.l2 does not rank first on oltp-p8: {shares}")
            if self.point.nodes == 1:
                for layer in ("core.protocol_engine", "interconnect"):
                    if shares[layer] >= IDLE_SHARE:
                        self.problems.append(
                            f"{layer} has share {shares[layer]:.4f} on a "
                            f"single-node workload")
            if not self.point.sampled and \
                    r["layers"]["fastforward"]["self_s"] != 0.0:
                self.problems.append(
                    "fastforward has self time on a detailed workload")

    def result(self) -> dict:
        self.check_payload()
        if self.trace:
            self.self_test()
            metrics = self.per_layer()
        else:
            metrics = self.end_to_end()
        for problem in self.problems:
            log(f"{self.name}: {problem}")
        return {
            "correct": self.failed == 0 and not self.problems
            and bool(metrics),
            "attempted": len(self.records),
            "failed": self.failed,
            "metrics": metrics,
        }


def pin() -> int:
    """Re-pin every workload's default-seed digest and the sampled
    point's detailed reference fractions."""
    doc = {"seed": DEFAULT_SEED, "digests": {}, "payloads": {},
           "inputs": {}, "sampled_reference": {}}
    for name, point in POINTS.items():
        record = spawn(name, DEFAULT_SEED, "time")
        if not record.get("ok"):
            return 1
        doc["digests"][name] = record["digest"]
        doc["payloads"][name] = record["payload"]
        doc["inputs"][name] = point.inputs_digest(DEFAULT_SEED)
        if point.sampled:
            ref = spawn(name, DEFAULT_SEED, "reference")
            if not ref.get("ok"):
                return 1
            doc["sampled_reference"][name] = ref["fractions"]
        print(f"{name}: {record['digest']}")
    with open(PINNED, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(POINTS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="re-pin the default-seed payloads and exit")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        log(f"error: no simulator source under {ROOT}/src; run from a "
            f"checkout of the repository")
        return 2
    if args.pin:
        return pin()
    if args.workload is None:
        parser.error("--workload is required")
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    run.set_up()
    run.measure()
    print(json.dumps(run.result()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
