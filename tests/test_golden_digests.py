"""Golden-digest regression tests for canonical simulation results.

Four canonical points — P1 and P8, each under quarter-scale OLTP and
DSS with *explicit* workload parameters (so ``REPRO_SCALE`` cannot
perturb them) — are pinned as SHA-256 digests of the deterministic
measurement payload in ``tests/golden/digests.json``.

The digest covers :meth:`RunResult.payload_tuple` exactly — every field
the harness documents as deterministic — so any unintentional behaviour
change in the core model shows up as a digest mismatch here, with the
full payload printed for diffing.  The same digest must come out of the
serial path, the ``run_jobs`` ProcessPool path, and a warm-cache
replay; that pins the determinism contract, not just the numbers.

When a *deliberate* model change shifts the numbers, regenerate with::

    PYTHONPATH=src python tests/test_golden_digests.py --regen
"""

import hashlib
import json
import os

import pytest

from repro.core.config import preset
from repro.harness import RunSpec, run, run_jobs
from repro.harness.experiments import DssFactory, OltpFactory
from repro.isa.kernels import IsaKernelFactory, IsaKernelParams
from repro.workloads import DssParams, OltpParams

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           "digests.json")

#: quarter-scale parameters, spelled out so environment scaling and
#: default-parameter drift cannot reach them
OLTP_Q = OltpParams(transactions=20, warmup_transactions=38)
DSS_Q = DssParams(rows=65, warmup_rows=10)
ISA_MEMCPY = IsaKernelParams(kernel="memcpy", iterations=8)
ISA_SPINLOCK = IsaKernelParams(kernel="spinlock", iterations=4)

#: name -> the pinned point
CANONICAL = {
    "P1-oltp": RunSpec(preset("P1"), OltpFactory(OLTP_Q)),
    "P8-oltp": RunSpec(preset("P8"), OltpFactory(OLTP_Q)),
    "P1-dss": RunSpec(preset("P1"), DssFactory(DSS_Q)),
    "P8-dss": RunSpec(preset("P8"), DssFactory(DSS_Q)),
    # real code through the machine: single-CPU private kernel and a
    # 32-CPU cross-node lock — the ISA path is bit-stability-gated too
    "P1-isa-memcpy": RunSpec(preset("P1"), IsaKernelFactory(ISA_MEMCPY)),
    "P8x4-isa-spinlock": RunSpec(preset("P8"),
                                 IsaKernelFactory(ISA_SPINLOCK), nodes=4),
}


def payload_digest(result) -> str:
    """SHA-256 over the canonical JSON of the deterministic payload.
    Floats go through ``repr`` (shortest round-trip form), so two
    payloads digest equally iff they are bit-for-bit equal."""
    payload = [repr(v) if isinstance(v, float) else v
               for v in result.payload_tuple()]
    blob = json.dumps(payload, separators=(",", ":"), sort_keys=False)
    return hashlib.sha256(blob.encode()).hexdigest()


def run_point(name: str):
    return run(CANONICAL[name])


def load_golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(CANONICAL))
def test_golden_digest_serial(name):
    golden = load_golden()
    result = run_point(name)
    digest = payload_digest(result)
    assert digest == golden[name]["digest"], (
        f"{name}: payload drifted from golden.\n"
        f"  golden payload: {golden[name]['payload']}\n"
        f"  current payload: {list(result.payload_tuple())}\n"
        f"If this change is intentional, regenerate with "
        f"`python tests/test_golden_digests.py --regen`.")


def test_golden_digest_warm_cache():
    """A warm-cache (memo) replay returns the identical payload."""
    first = run_point("P1-oltp")
    second = run_point("P1-oltp")
    assert payload_digest(first) == payload_digest(second)
    assert first.payload_tuple() == second.payload_tuple()


def test_golden_digest_parallel_jobs(monkeypatch):
    """The ProcessPool path computes the same digests as the pinned
    goldens (cache disabled so workers actually simulate)."""
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    golden = load_golden()
    names = ["P1-oltp", "P1-isa-memcpy"]  # cheap points: workers re-simulate
    results = run_jobs([CANONICAL[n] for n in names], jobs=2)
    for name, result in zip(names, results):
        assert payload_digest(result) == golden[name]["digest"], name


#: events the golden ``P8-oltp`` point fires (seed 2000): host-speed work
#: on the simulator must keep every event, so this count stays exact
P8_OLTP_EVENTS = 187_699


def test_p8_oltp_event_count():
    from repro.core import PiranhaSystem
    from repro.workloads import OltpWorkload

    config = CANONICAL["P8-oltp"].config
    assert OLTP_Q.seed == 2000
    system = PiranhaSystem(config, num_nodes=1)
    system.attach_workload(OltpWorkload(OLTP_Q, cpus_per_node=config.cpus))
    system.run_to_completion()
    assert system.sim.events_fired == P8_OLTP_EVENTS


#: the 4 x P4 OLTP point (4 txns/CPU after 6 warm-up, seed 2000): the
#: events it fires, and per node the home and remote engines'
#: ``(microinstructions, threads, tsrf_stalls)`` and the router's
#: ``(transit_packets, misroutes)`` — the protocol engines, TSRF and
#: routers only do work on multi-node points
P4X4_OLTP_EVENTS = 343_286
P4X4_OLTP_NODES = [
    ((7985, 989, 0), (5061, 797, 0), (2267, 301)),
    ((7390, 927, 0), (6060, 956, 0), (2248, 310)),
    ((7253, 915, 0), (6267, 990, 0), (2161, 300)),
    ((7670, 971, 0), (5918, 928, 0), (2015, 256)),
]


def test_p4x4_oltp_engine_and_router_pins():
    from repro.core import PiranhaSystem
    from repro.workloads import OltpWorkload

    config = preset("P4")
    params = OltpParams(transactions=4, warmup_transactions=6)
    assert params.seed == 2000
    system = PiranhaSystem(config, num_nodes=4)
    system.attach_workload(OltpWorkload(params, cpus_per_node=config.cpus,
                                        num_nodes=4))
    system.run_to_completion()
    assert system.sim.events_fired == P4X4_OLTP_EVENTS
    measured = []
    for node in system.nodes:
        engines = tuple(
            (e.c_instructions.value, e.c_threads.value, e.c_tsrf_stalls.value)
            for e in (node.home_engine, node.remote_engine))
        router = system.routers[node.node_id]
        measured.append(engines + (
            (router.c_transit.value, router.c_misroutes.value),))
    assert measured == P4X4_OLTP_NODES


def regen() -> None:
    doc = {}
    for name in sorted(CANONICAL):
        result = run_point(name)
        doc[name] = {
            "digest": payload_digest(result),
            "payload": [repr(v) if isinstance(v, float) else v
                        for v in result.payload_tuple()],
        }
        print(f"{name}: {doc[name]['digest']}")
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        regen()
    else:
        print(__doc__)
