"""Unit tests for the discrete-event engine and clock domains."""

import pytest

from repro.sim import Clock, Simulator, ns
from repro.sim.engine import Component


class TestClock:
    def test_piranha_asic_period(self):
        assert Clock(500).period_ps == 2000

    def test_ooo_period(self):
        assert Clock(1000).period_ps == 1000

    def test_full_custom_period(self):
        assert Clock(1250).period_ps == 800

    def test_cycles(self):
        assert Clock(500).cycles(3) == 6000

    def test_fractional_cycles(self):
        assert Clock(500).cycles(1.5) == 3000

    def test_next_edge_aligned(self):
        assert Clock(500).next_edge(4000) == 4000

    def test_next_edge_unaligned(self):
        assert Clock(500).next_edge(4001) == 6000

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(ValueError):
            Clock(0)


class TestNsConversion:
    def test_integral(self):
        assert ns(80) == 80_000

    def test_fractional(self):
        assert ns(1.5) == 1500


class TestSimulator:
    def test_events_fire_in_time_order(self, sim):
        fired = []
        sim.schedule(300, fired.append, "c")
        sim.schedule(100, fired.append, "a")
        sim.schedule(200, fired.append, "b")
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_equal_time_events_fire_fifo(self, sim):
        fired = []
        for tag in range(10):
            sim.schedule(50, fired.append, tag)
        sim.run()
        assert fired == list(range(10))

    def test_now_advances(self, sim):
        times = []
        sim.schedule(100, lambda: times.append(sim.now))
        sim.schedule(250, lambda: times.append(sim.now))
        sim.run()
        assert times == [100, 250]

    def test_cannot_schedule_into_past(self, sim):
        sim.schedule(10, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(5, lambda: None)

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.schedule(-1, lambda: None)

    def test_run_until(self, sim):
        fired = []
        sim.schedule(100, fired.append, 1)
        sim.schedule(500, fired.append, 2)
        sim.run(until_ps=200)
        assert fired == [1]
        assert sim.now == 200
        sim.run()
        assert fired == [1, 2]

    def test_max_events(self, sim):
        fired = []
        for i in range(5):
            sim.schedule(i + 1, fired.append, i)
        sim.run(max_events=3)
        assert fired == [0, 1, 2]

    def test_chained_scheduling(self, sim):
        fired = []

        def chain(n):
            fired.append(n)
            if n < 4:
                sim.schedule(10, chain, n + 1)

        sim.schedule(0, chain, 0)
        sim.run()
        assert fired == [0, 1, 2, 3, 4]
        assert sim.now == 40

    def test_events_fired_counter(self, sim):
        for i in range(7):
            sim.schedule(i, lambda: None)
        sim.run()
        assert sim.events_fired == 7

    def test_step_returns_false_when_empty(self, sim):
        assert sim.step() is False


class TestQueueEntries:
    def test_schedule_returns_nothing(self, sim):
        assert sim.schedule(10, lambda: None) is None
        assert sim.schedule_at(20, lambda: None) is None
        assert sim.schedule_every(30, lambda: False) is None

    def test_entry_shape_is_time_seq_fn_args(self, sim):
        sim.schedule(10, print, "a", "b")
        sim.schedule_at(5, print)
        assert sorted(sim._queue) == [(5, 1, print, ()),
                                      (10, 0, print, ("a", "b"))]

    def test_pending_counts_queued_events(self, sim):
        for i in range(5):
            sim.schedule(10 * (i + 1), lambda: None)
        assert sim.pending == 5
        sim.run(max_events=2)
        assert sim.pending == 3
        assert sim.events_cancelled == 0

    def test_events_fired_accumulates_across_calls(self, sim):
        for i in range(6):
            sim.schedule(i + 1, lambda: None)
        sim.run(max_events=2)
        sim.step()
        sim.run(until_ps=5)
        sim.run()
        assert sim.events_fired == 6

    def test_events_fired_counts_a_raising_event(self, sim):
        def boom():
            raise KeyError("boom")

        sim.schedule(1, lambda: None)
        sim.schedule(2, boom)
        with pytest.raises(KeyError):
            sim.run()
        assert sim.events_fired == 2

    def test_halt_empties_the_queue(self, sim):
        fired = []
        sim.schedule(10, fired.append, 1)
        sim.halt()
        assert sim.pending == 0
        sim.run()
        assert fired == []


class TestRunBounds:
    def test_until_edge_event_at_boundary_fires(self, sim):
        fired = []
        sim.schedule(200, fired.append, "edge")
        sim.schedule(201, fired.append, "past")
        sim.run(until_ps=200)
        assert fired == ["edge"]
        assert sim.now == 200

    def test_until_with_empty_tail_keeps_last_event_time(self, sim):
        sim.schedule(50, lambda: None)
        sim.run(until_ps=500)
        # queue drained before the horizon: now stays at the last event
        assert sim.now == 50

    def test_max_events_within_same_timestamp_batch(self, sim):
        fired = []
        for i in range(6):
            sim.schedule(100, fired.append, i)
        assert sim.run(max_events=4) == 4
        assert fired == [0, 1, 2, 3]
        assert sim.run() == 2
        assert fired == list(range(6))

    def test_until_and_max_combined(self, sim):
        fired = []
        for i in range(5):
            sim.schedule(10 * (i + 1), fired.append, i)
        sim.run(until_ps=35, max_events=2)
        assert fired == [0, 1]
        sim.run(until_ps=35)
        assert fired == [0, 1, 2]
        assert sim.now == 35

    def test_same_timestamp_rescheduling_stays_fifo(self, sim):
        fired = []

        def fires_and_schedules(tag):
            fired.append(tag)
            if tag == "first":
                sim.schedule(0, fired.append, "nested")

        sim.schedule(100, fires_and_schedules, "first")
        sim.schedule(100, fires_and_schedules, "second")
        sim.run(until_ps=100)
        assert fired == ["first", "second", "nested"]


class TestComponent:
    def test_component_has_stats_and_schedule(self, sim):
        comp = Component(sim, "test.module")
        fired = []
        comp.schedule(100, fired.append, 1)
        sim.run()
        assert fired == [1]
        assert comp.name == "test.module"
        comp.stats.counter("x").inc()
        assert comp.stats.counter("x").value == 1

    def test_component_now(self, sim):
        comp = Component(sim, "c")
        seen = []
        comp.schedule(123, lambda: seen.append(comp.now))
        sim.run()
        assert seen == [123]


class TestLoopEquivalence:
    """Every dispatch loop fires the same events, at the same times, in
    the same order, on a real (small) machine."""

    @staticmethod
    def _system():
        from repro.core import PiranhaSystem, preset
        from repro.workloads import OltpParams, OltpWorkload

        config = preset("P2")
        system = PiranhaSystem(config, num_nodes=1)
        system.attach_workload(OltpWorkload(
            OltpParams(transactions=3, warmup_transactions=2),
            cpus_per_node=config.cpus))
        return system

    @staticmethod
    def _record(monkeypatch):
        """Log ``(time, seq, callback)`` of every entry the engine pops."""
        from repro.sim import engine

        fired = []
        real_pop = engine.heappop

        def pop(queue):
            time_ps, seq, fn, _args = entry = real_pop(queue)
            owner = getattr(getattr(fn, "__self__", None), "name", None)
            name = getattr(fn, "__qualname__", type(fn).__name__)
            fired.append((time_ps, seq, owner, name))
            return entry

        monkeypatch.setattr(engine, "heappop", pop)
        return fired

    def _fire(self, monkeypatch, drive):
        system = self._system()
        fired = self._record(monkeypatch)
        system.start()
        drive(system.sim)
        monkeypatch.undo()
        assert system.sim.pending == 0
        assert all(cpu.finished for cpu in system.all_cpus())
        assert system.sim.events_fired == len(fired)
        return fired, system.execution_summary()

    def test_all_loops_fire_the_same_sequence(self, monkeypatch):
        from repro.observe.hostprof import HostProfiler

        def drain(sim):
            sim.run()

        def bounded(sim):
            while sim.pending:
                sim.run(max_events=7)
                sim.run(until_ps=sim.now + 40_000)

        def stepped(sim):
            while sim.step():
                pass

        def profiled(sim):
            sim.profiler = HostProfiler(rate=3)
            sim.run()

        reference, summary = self._fire(monkeypatch, drain)
        assert len(reference) > 1000
        for drive in (bounded, stepped, profiled):
            fired, other = self._fire(monkeypatch, drive)
            assert fired == reference, drive.__name__
            assert other == summary, drive.__name__
