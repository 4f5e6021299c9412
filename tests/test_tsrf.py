"""Unit tests for the transaction state register file (§2.5.1)."""

import pytest

from repro.core import PiranhaSystem, preset
from repro.core.microcode import Op
from repro.core.tsrf import TSRF_ENTRIES, Tsrf, TsrfFullError
from repro.interconnect.packets import PacketType


class TestAllocation:
    def test_sixteen_entries(self):
        assert TSRF_ENTRIES == 16
        assert Tsrf().free_count == 16

    def test_allocate_and_free(self):
        tsrf = Tsrf()
        entry = tsrf.allocate(0x1000, pc=5, now_ps=100, req_node=3)
        assert entry.valid
        assert entry.addr == 0x1000
        assert entry.pc == 5
        assert entry.vars["req_node"] == 3
        assert tsrf.occupancy() == 1
        tsrf.free(entry)
        assert tsrf.occupancy() == 0
        assert not entry.valid

    def test_full_raises(self):
        tsrf = Tsrf()
        for i in range(16):
            tsrf.allocate(i * 64, pc=0, now_ps=0)
        with pytest.raises(TsrfFullError):
            tsrf.allocate(0x9999, pc=0, now_ps=0)
        assert tsrf.alloc_failures == 1

    def test_high_water(self):
        tsrf = Tsrf()
        entries = [tsrf.allocate(i, 0, 0) for i in range(5)]
        for e in entries:
            tsrf.free(e)
        assert tsrf.high_water == 5

    def test_reuse_after_free(self):
        tsrf = Tsrf()
        for _ in range(100):
            e = tsrf.allocate(0x40, 0, 0)
            tsrf.free(e)
        assert tsrf.occupancy() == 0


def parked_on_reply(engine, addr):
    """A thread of *engine* parked at a RECEIVE that takes DATA_REPLY."""
    code = int(PacketType.DATA_REPLY)
    pc = next(pc for pc, codes in sorted(engine.sequencer.accepted_codes().items())
              if engine.program.word_at(pc).op == Op.RECEIVE and code in codes)
    entry = engine.tsrf.allocate(addr, pc, 0)
    entry.waiting = "external"
    return entry


class TestMatching:
    """A reply is matched against the TSRF entries by the owning engine:
    valid, waiting at a RECEIVE, same line, and a programmed branch
    slot for the reply's code."""

    @pytest.fixture
    def engine(self):
        return PiranhaSystem(preset("P2"), num_nodes=2).nodes[1].remote_engine

    def test_match_by_address_and_mode(self, engine):
        e = parked_on_reply(engine, 0x1000)
        code = int(PacketType.DATA_REPLY)
        assert engine.match_reply(0x1000, code) is e
        assert engine.match_reply(0x2000, code) is None
        unaccepted = next(c for c in range(16)
                          if c not in engine.sequencer.accepted_codes()[e.pc])
        assert engine.match_reply(0x1000, unaccepted) is None
        e.waiting = "local"
        assert engine.match_reply(0x1000, code) is None

    def test_invalid_entries_never_match(self, engine):
        e = parked_on_reply(engine, 0x1000)
        engine.tsrf.free(e)
        assert engine.match_reply(0x1000, int(PacketType.DATA_REPLY)) is None


class TestTimeouts:
    def test_timed_out_entries(self):
        """RAS hook: the engine can monitor for failures via time-outs."""
        tsrf = Tsrf()
        old = tsrf.allocate(0x1000, 0, now_ps=0)
        fresh = tsrf.allocate(0x2000, 0, now_ps=900_000)
        expired = tsrf.timed_out(now_ps=1_000_000, timeout_ps=500_000)
        assert expired == [old]
