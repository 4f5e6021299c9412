"""Reliability, Availability and Serviceability hooks (Section 2.7).

Piranha's elementary RAS feature is protocol error recovery: TSRF
time-outs encapsulated into control messages for recovery software.
:class:`ProtocolWatchdog` scans the TSRFs for timed-out transactions and
logs their state as error records directed at the system controller.
"""

from __future__ import annotations

from ..sim.engine import Component, Simulator, ns


class ProtocolWatchdog(Component):
    """Periodic TSRF time-out scan (protocol error recovery).

    When a protocol thread exceeds ``timeout_ns``, its state is captured
    in an error record and logged with the node's system controller —
    exactly the "encapsulated in a control message and directed to
    recovery or diagnostic software" mechanism of the paper.
    """

    def __init__(self, sim: Simulator, system, timeout_ns: float = 100_000.0,
                 scan_interval_ns: float = 50_000.0) -> None:
        super().__init__(sim, "ras.watchdog")
        self.system = system
        self.timeout_ps = ns(timeout_ns)
        self.interval_ps = ns(scan_interval_ns)
        self.c_scans = self.stats.counter("scans")
        self.c_timeouts = self.stats.counter("timeouts_detected")
        self._armed = False

    def arm(self) -> None:
        if not self._armed:
            self._armed = True
            self.schedule(self.interval_ps, self._scan)

    def _scan(self) -> None:
        self.c_scans.inc()
        for node in self.system.nodes:
            for engine in (node.home_engine, node.remote_engine):
                for entry in engine.tsrf.timed_out(self.now, self.timeout_ps):
                    self.c_timeouts.inc()
                    node.syscontrol.log_error({
                        "kind": "protocol-timeout",
                        "engine": engine.name,
                        "tsrf": entry.index,
                        "addr": entry.addr,
                        "pc": entry.pc,
                        "age_ps": self.now - entry.timer,
                    })
        if self.system.sim.pending:
            self.schedule(self.interval_ps, self._scan)
