"""The TSRF's live count and the priority FIFOs' length are kept as
counters; after any sequence of operations they must equal a scan."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tsrf import TSRF_ENTRIES, Tsrf, TsrfFullError
from repro.interconnect.packets import Packet, PacketType
from repro.interconnect.queues import PRIORITIES, PriorityFifos


class TestTsrfLiveCount:
    @settings(max_examples=200)
    @given(st.lists(st.tuples(st.booleans(), st.integers(0, 31)),
                    max_size=80))
    def test_live_count_equals_a_scan(self, ops):
        tsrf = Tsrf()
        peak = 0
        for allocate, pick in ops:
            if allocate:
                try:
                    tsrf.allocate(pick * 64, pc=0, now_ps=0)
                except TsrfFullError:
                    assert tsrf.live == TSRF_ENTRIES
            else:
                # frees hit valid and already-free entries alike
                tsrf.free(tsrf.entries[pick % TSRF_ENTRIES])
            scanned = sum(1 for e in tsrf.entries if e.valid)
            peak = max(peak, scanned)
            assert tsrf.live == tsrf.occupancy() == scanned
            assert tsrf.free_count == TSRF_ENTRIES - scanned
            assert tsrf.high_water == peak
            assert tsrf.allocations - tsrf.frees == scanned


packets = st.builds(
    Packet,
    ptype=st.sampled_from(list(PacketType)),
    src=st.just(0),
    dst=st.just(1),
    priority=st.integers(0, PRIORITIES - 1),
)


class TestPriorityFifosLength:
    @settings(max_examples=200)
    @given(st.integers(1, 8),
           st.lists(st.one_of(
               st.tuples(st.just("push"), packets),
               st.tuples(st.just("pop"), st.none()),
               st.tuples(st.just("pop_first"),
                         st.sampled_from(list(PacketType)))),
               max_size=60))
    def test_length_equals_summed_fifos(self, capacity, ops):
        q = PriorityFifos(capacity)
        for op, arg in ops:
            before = sum(len(f) for f in q.fifos)
            if op == "push":
                assert q.push(arg) == (before < capacity)
            elif op == "pop":
                assert (q.pop_highest() is None) == (before == 0)
            else:
                q.pop_first(lambda p, t=arg: p.ptype != t)
            summed = sum(len(f) for f in q.fifos)
            assert len(q) == summed
            assert q.full == (summed >= capacity)
