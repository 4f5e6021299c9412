"""Sampled-simulation (fast-forward) subsystem tests.

The load-bearing property is the **bit-identity gate**: a detailed
measurement window restored from a checkpoint must be indistinguishable
from the same window run on the live machine.  With
``warming="detailed"`` a :class:`SampledRun` performs *no* approximation
— every span runs through the full event-driven model — so the
``handoff="restore"`` run (every window on a snapshot-rebuilt machine,
generators replayed from seed) and the ``handoff="none"`` run (one live
machine throughout) must agree bit-for-bit on the measurement payload,
every per-window record, and final simulated time.  That pins the
checkpoint subsystem as a faithful hand-off mechanism, which is what
lets functional fast-forward trust its snapshots.

Functional-warming behaviour (state equivalence, declines, statistics)
is tested at unit scale; cross-mode *accuracy* is characterised by
``scripts/bench_wallclock.py --fastforward``, not asserted here — it is
a statistical property, not a correctness invariant.
"""

import hashlib
import os

import pytest

from repro.core.config import preset
from repro.core.messages import AccessKind
from repro.fastforward import FunctionalWarmer, PhaseStream, SampledRun
from repro.harness.experiments import OltpFactory
from repro.harness.runner import build_system, simulate
from repro.harness.spec import SAMPLED_PERIOD, SAMPLED_WINDOW, RunSpec
from repro.sim.engine import Simulator
from repro.workloads import OltpParams

from .test_golden_digests import payload_digest

#: small but non-trivial: enough post-warm items for 2+ windows at the
#: test window/period, explicit so REPRO_SCALE cannot perturb the tests
OLTP_SMALL = OltpParams(transactions=24, warmup_transactions=30)
WINDOW = 300
PERIOD = 1200


def _sampled(warming: str, handoff: str, reuse_generators: bool = True,
             check: bool = False, nodes: int = 1, **kw):
    config = preset("P8" if nodes == 1 else "P2")
    factory = OltpFactory(OLTP_SMALL)
    system, _wl = build_system(RunSpec(config, factory, nodes=nodes,
                                       check=check))
    run = SampledRun(system, window=WINDOW, period=PERIOD,
                     warming=warming, handoff=handoff,
                     reuse_generators=reuse_generators, **kw)
    run.run()
    result = run.to_result(config, nodes)
    return run, result


# ---------------------------------------------------------------------------
# the gate: restored windows are bit-identical to live windows
# ---------------------------------------------------------------------------

class TestBitIdentityGate:
    def test_restore_equals_live_detailed_warming(self):
        live_run, live = _sampled("detailed", handoff="none")
        rest_run, rest = _sampled("detailed", handoff="restore",
                                  reuse_generators=False)
        assert payload_digest(live) == payload_digest(rest)
        assert live_run.windows == rest_run.windows
        assert live_run.system.sim.now == rest_run.system.sim.now
        # the restore path really did round-trip the machine
        assert rest_run.handoff.captures == len(rest_run.windows)

    def test_generator_reuse_matches_replay(self):
        replay_run, replay = _sampled("detailed", handoff="restore",
                                      reuse_generators=False)
        reuse_run, reuse = _sampled("detailed", handoff="restore",
                                    reuse_generators=True)
        assert payload_digest(replay) == payload_digest(reuse)
        assert replay_run.windows == reuse_run.windows


# ---------------------------------------------------------------------------
# sampled-mode behaviour
# ---------------------------------------------------------------------------

class TestSampledRun:
    def test_deterministic(self):
        run1, res1 = _sampled("functional", handoff="capture")
        run2, res2 = _sampled("functional", handoff="capture")
        assert payload_digest(res1) == payload_digest(res2)
        assert run1.windows == run2.windows

    def test_windows_and_confidence_document(self):
        run, result = _sampled("functional", handoff="capture")
        assert len(run.windows) >= 2
        sampling = result.extras["sampling"]
        assert sampling["mode"] == "sampled"
        assert sampling["windows"] == len(run.windows)
        assert sampling["measured_items"] > 0
        assert sampling["ff_items"] > sampling["measured_items"]
        err = sampling["error"]
        for cls in ("busy_frac", "l2_frac", "mem_frac", "miss_hit_frac",
                    "miss_fwd_frac", "miss_mem_frac", "ps_per_item"):
            assert err[cls]["n"] == len(run.windows)
            assert err[cls]["ci95"] >= 0.0
        # extrapolated totals exist and are sane
        assert result.time_per_unit_ns > 0
        assert abs(result.busy_frac + result.l2_frac
                   + result.mem_frac - 1.0) < 1e-9

    def test_functional_close_to_detailed_smallscale(self):
        # shape check, deliberately loose: the functional and detailed
        # regimes must tell the same qualitative story even at toy scale
        _, func = _sampled("functional", handoff="capture")
        _, det = _sampled("detailed", handoff="none")
        assert abs(func.busy_frac - det.busy_frac) < 0.15
        assert abs(func.mem_frac - det.mem_frac) < 0.15

    def test_sampled_run_with_sanitizer(self):
        # warm-path state mutations must satisfy the full protocol audit
        run, result = _sampled("functional", handoff="capture", check=True)
        assert result.extras.get("audit_violations", 0) == 0
        assert run.warmer.warmed > 0

    def test_multinode_smoke(self):
        run, result = _sampled("functional", handoff="capture", nodes=2)
        assert len(run.windows) >= 1
        assert result.nodes == 2
        # multi-node declines are expected (engine-bound lines), and the
        # decline path must leave the stream advancing statistically
        assert run.warmer.items > 0

    def test_single_shot_and_validation(self):
        config = preset("P8")
        system, _ = build_system(RunSpec(config, OltpFactory(OLTP_SMALL)))
        run = SampledRun(system, window=WINDOW, period=PERIOD)
        run.run()
        with pytest.raises(RuntimeError):
            run.run()
        with pytest.raises(ValueError):
            SampledRun(system, window=0, period=PERIOD)
        with pytest.raises(ValueError):
            SampledRun(system, window=WINDOW, period=-1)
        with pytest.raises(ValueError):
            SampledRun(system, window=WINDOW, period=PERIOD, warming="x")
        with pytest.raises(ValueError):
            SampledRun(system, window=WINDOW, period=PERIOD, handoff="x")
        with pytest.raises(ValueError):
            SampledRun(system, window=WINDOW, period=PERIOD, warm_tail=-1)


# ---------------------------------------------------------------------------
# functional warmer units
# ---------------------------------------------------------------------------

class TestFunctionalWarmer:
    def _one_cpu_system(self):
        config = preset("P1")
        system, _ = build_system(RunSpec(config, OltpFactory(OLTP_SMALL)))
        (cpu,) = [c for n in system.nodes for c in n.cpus
                  if c.thread is not None]
        return system, cpu

    def test_advance_counts_and_boundary(self):
        _, cpu = self._one_cpu_system()
        warmer = FunctionalWarmer()
        consumed, hit, exhausted = warmer.advance(cpu, stop_at_boundary=True)
        assert hit and not exhausted
        assert warmer.items == consumed
        assert warmer.refs > 0
        assert warmer.l1_hits + warmer.warmed + warmer.skipped == warmer.refs
        summary = warmer.summary()
        assert summary["items"] == consumed
        assert summary["instructions"] == warmer.instructions

    def test_tail_skims_prefix(self):
        _, cpu = self._one_cpu_system()
        warmer = FunctionalWarmer()
        buf, consumed, _hit, _ex = warmer.collect(cpu, max_items=500, tail=64)
        assert consumed == 500
        assert len(buf) == 64
        assert warmer.skimmed == 500 - 64

    def test_warm_state_matches_detailed_occupancy(self):
        # after warming one CPU's span functionally, the L1s/L2 hold the
        # same *lines* a detailed run of the same span holds (P1: no
        # cross-CPU interleaving concerns, no timing-dependent ordering)
        def lines_of(system):
            held = set()
            for node in system.nodes:
                for l1 in list(node.l1i) + list(node.l1d):
                    held |= {ln.tag for s in l1.sets for ln in s.values()}
                for bank in node.banks:
                    held |= {(bank.bank_idx, t)
                             for s in bank.sets for t in s}
            return held

        config = preset("P1")
        sys_f, _ = build_system(RunSpec(config, OltpFactory(OLTP_SMALL)))
        (cpu_f,) = [c for n in sys_f.nodes for c in n.cpus
                    if c.thread is not None]
        FunctionalWarmer().advance(cpu_f, stop_at_boundary=True)

        sys_d, _ = build_system(RunSpec(config, OltpFactory(OLTP_SMALL)))
        run = SampledRun(sys_d, window=WINDOW, period=0, warming="detailed",
                         handoff="none")
        run._run_detailed(None, until_warm=True, record=False)
        assert lines_of(sys_f) == lines_of(run.system)


# ---------------------------------------------------------------------------
# warm-state pins: the machine state functional warming leaves behind
# ---------------------------------------------------------------------------

#: sha256 of :func:`_warm_state` after the functional warm-up and after
#: one fast-forward period.  An equal payload can hide a different warm
#: state; these pin the state itself.
WARM_STATE_PINS = {
    "P8": ("318794a49e3721140edac39e838c10b825ad4ba1b3581d7e07ede9d42fe010ac",
           "ef5694b75af76de7587a83ccf01abb0f7b001712976401fb9cd29066661c4333"),
    "P4x2": ("8cdf9d2c2ef4b361cad3e80380f777c358207d878ec35fe8e3636aad0df6162a",
             "1d7fcd90a258e17a0cc0f91d740a12754d2607883908bfbaab9de9b9a63d7cea"),
}
#: warm-up span for the pins (30 txns/CPU: enough to fill the L1s and
#: push victims through the L2) and the fast-forward period after it
OLTP_PIN = OltpParams(transactions=8, warmup_transactions=30)
PIN_PERIOD = 3000


def _warm_state(system, warmer, counters) -> str:
    """Digest every L1 line (LRU order), every L2 set (load order), the
    duplicate tags, the partial-directory hints, each DRAM channel's
    open-page table, memory versions, directories, *counters* (the
    module counters, captured before any reset) and the warmer's
    telemetry."""
    h = hashlib.sha256()

    def put(*parts):
        h.update(repr(parts).encode())

    for node in system.nodes:
        for l1 in list(node.l1i) + list(node.l1d):
            put("l1", l1.cpu_id, l1.is_instr, l1.counters())
            for index, lru_set in enumerate(l1.sets):
                for ln in lru_set.values():
                    put(index, ln.tag, ln.state.name, ln.owner, ln.dirty,
                        ln.version)
        for bank in node.banks:
            put("l2", bank.bank_idx)
            for index, lset in enumerate(bank.sets):
                for tag, ln in lset.items():
                    put(index, tag, ln.tag, ln.dirty, ln.version)
            for line in sorted(bank.dup.entries):
                e = bank.dup.entries[line]
                put(line, sorted(e.sharers), e.owner,
                    sorted((c, s.name) for c, s in e.states.items()))
            put(sorted(bank.our_mode.items()), sorted(bank.remote_cached),
                sorted(bank.wb_buffer.items()), sorted(bank.pending))
        for mc in node.mcs:
            put("mc", sorted(mc.channel._open_pages.items()),
                mc.channel._channel_free)
        put("dir", sorted(system.dirstores[node.node_id].items()))
    put("mem", sorted(system.mem_versions.items()))
    put("counters", counters)
    put("warmer", warmer.summary(), system.sim.now)
    return h.hexdigest()


def _module_counters(system) -> list:
    out = []
    for node in system.nodes:
        for bank in node.banks:
            out.append(bank.stats.as_dict())
        for mc in node.mcs:
            out.append(mc.channel.stats.as_dict())
    return out


def _pinned_warm_states(config_name: str, nodes: int):
    config = preset(config_name)
    system, _wl = build_system(RunSpec(config, OltpFactory(OLTP_PIN),
                                       nodes=nodes))
    run = SampledRun(system, window=WINDOW, period=PIN_PERIOD,
                     handoff="none")
    # the warm-up resets the module counters at its boundary: capture
    # them just before, as the warm path left them
    captured = []
    reset = system.reset_module_stats

    def capture_then_reset():
        captured.append(_module_counters(system))
        reset()

    system.reset_module_stats = capture_then_reset
    run._functional_warm()
    after_warm = _warm_state(system, run.warmer, captured[0])
    run._fast_forward(PIN_PERIOD)
    after_ff = _warm_state(system, run.warmer, _module_counters(system))
    return after_warm, after_ff


class TestWarmStatePins:
    def test_p8_warm_state(self):
        assert _pinned_warm_states("P8", 1) == WARM_STATE_PINS["P8"]

    def test_p4x2_warm_state(self):
        # two nodes: declined remote-home / remotely-cached accesses and
        # warm-path remote write-backs drained before the clock moves
        assert _pinned_warm_states("P4", 2) == WARM_STATE_PINS["P4x2"]


# ---------------------------------------------------------------------------
# phase streams and the clock jump
# ---------------------------------------------------------------------------

class TestPhaseStream:
    def test_budget_and_exhaustion(self):
        items = [(1, AccessKind.LOAD, i * 64, True) for i in range(5)]
        stream = PhaseStream(iter(items))
        stream.grant(3)
        assert [next(stream) for _ in range(3)] == items[:3]
        with pytest.raises(StopIteration):
            next(stream)
        assert stream.consumed == 3 and not stream.exhausted
        stream.grant(10)
        assert list(stream) == items[3:]
        assert stream.exhausted

    def test_ilp_mirrors_thread(self):
        class T:
            ilp = 2.5

            def __next__(self):
                raise StopIteration

        assert PhaseStream(T()).ilp == 2.5


class TestAdvanceTo:
    def test_monotonic_and_guarded(self):
        sim = Simulator()
        sim.advance_to(1000)
        assert sim.now == 1000
        with pytest.raises(ValueError):
            sim.advance_to(500)
        fired = []
        sim.schedule_at(2000, lambda: fired.append(True))
        with pytest.raises(RuntimeError):
            sim.advance_to(3000)  # pending event at 2000 ps
        sim.run()
        sim.advance_to(3000)
        assert sim.now == 3000 and fired


# ---------------------------------------------------------------------------
# harness integration: cache keys and the warm store
# ---------------------------------------------------------------------------

class TestHarnessIntegration:
    def test_sampled_key_extra(self):
        base = RunSpec(preset("P1"), OltpFactory(OLTP_SMALL))
        sampled = base.replace(mode="sampled")
        # a sampled estimate never answers for (or by) a detailed run
        assert sampled.digest("result") != base.digest("result")
        assert sampled.digest("warm") != base.digest("warm")
        # defaults resolve at construction: explicit default == omitted
        assert (sampled.window, sampled.period) == (SAMPLED_WINDOW,
                                                    SAMPLED_PERIOD)
        explicit = base.replace(mode="sampled", window=SAMPLED_WINDOW,
                                period=SAMPLED_PERIOD)
        assert explicit.digest("result") == sampled.digest("result")
        assert explicit.digest("warm") == sampled.digest("warm")
        # each warming regime keys its own warm snapshots
        detailed_ff = sampled.replace(warming="detailed")
        assert detailed_ff.digest("warm") != sampled.digest("warm")

    def test_simulate_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            simulate(RunSpec(preset("P1"), OltpFactory(OLTP_SMALL),
                             mode="turbo"))

    def test_warm_store_roundtrip(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        config = preset("P8")
        factory = OltpFactory(OLTP_SMALL)
        cold = simulate(RunSpec(config, factory, mode="sampled", warmup=True,
                                window=WINDOW, period=PERIOD))
        warm = simulate(RunSpec(config, factory, mode="sampled", warmup=True,
                                window=WINDOW, period=PERIOD))
        assert not cold.extras["sampling"]["skip_warm"]
        assert warm.extras["sampling"]["skip_warm"]
        # restoring the warm snapshot changes nothing measurable
        assert payload_digest(cold) == payload_digest(warm)
        ckpts = list((tmp_path / "checkpoints").rglob("*.ckpt"))
        assert len(ckpts) == 1
