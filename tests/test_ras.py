"""Unit tests for the RAS protocol watchdog (§2.7)."""

import pytest

from repro.core import AccessKind, PiranhaSystem, preset
from repro.core.messages import MemRequest, RequestType
from repro.core.ras import ProtocolWatchdog


@pytest.fixture
def system():
    return PiranhaSystem(preset("P2"), num_nodes=2)


def do_store(system, node, addr):
    req = MemRequest(cpu_id=0, kind=AccessKind.STORE, addr=addr,
                     is_instr=False, done=lambda l, s: None, node=node)
    req.issue_time = system.sim.now
    system.nodes[node].issue_miss(req, RequestType.READ_EXCLUSIVE)
    system.sim.run()


class TestWatchdog:
    def test_detects_timed_out_tsrf_entries(self, system):
        wd = ProtocolWatchdog(system.sim, system, timeout_ns=100.0,
                              scan_interval_ns=1000.0)
        # park a thread artificially
        engine = system.nodes[0].home_engine
        engine.tsrf.allocate(0x40, pc=0, now_ps=0)
        wd.arm()
        system.sim.schedule(10_000_000, lambda: None)
        system.sim.run()
        assert wd.c_timeouts.value >= 1
        log = system.nodes[0].syscontrol.error_log
        assert log and log[0]["kind"] == "protocol-timeout"
        assert log[0]["addr"] == 0x40

    def test_quiet_when_healthy(self, system):
        wd = ProtocolWatchdog(system.sim, system, timeout_ns=1e6)
        wd.arm()
        do_store(system, 0, 0x40)
        assert wd.c_timeouts.value == 0
