"""The Piranha router (RT) — Section 2.6.1.

Derived from the S3.mp S-Connect: a topology-independent, **adaptive,
virtual cut-through** router built around a common buffer pool shared
across all priorities and virtual lanes.  When every minimal output is
busy, the router *hot-potato* misroutes the packet instead of holding it,
incrementing the packet's age; age escalates priority, so a misrouted
packet eventually wins arbitration everywhere.  This is the property that
lets Piranha's buffering grow linearly rather than quadratically with node
count.

Timing model: a packet that arrives (or is injected) is forwarded after a
single fall-through cycle when an output is free; links add serialisation
(2 or 10 interconnect cycles for Short/Long packets — 64 data bits per
500 MHz cycle) plus a fixed propagation delay.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, Optional, Tuple

from ..sim.engine import Clock, Component, Simulator, ns
from .packets import Packet
from .queues import InputQueue, OutputQueue
from .topology import Topology


@dataclass(frozen=True)
class RouterParams:
    """Router/link timing and buffering parameters."""

    clock_mhz: float = 500.0       # interconnect (system) clock
    fall_through_cycles: int = 1   # optimised fall-through path (§2.6.2)
    propagation_ns: float = 2.0    # wire flight time between adjacent nodes
    buffer_pool: int = 32          # shared packet buffers per router
    age_per_priority: int = 4      # age ticks per priority escalation
    misroute_threshold: int = 2    # busy outputs tolerated before hot potato

    def clock(self) -> Clock:
        return Clock(self.clock_mhz)


class Link:
    """One direction of a point-to-point channel between two routers."""

    __slots__ = ("src", "dst", "free_at", "cycle_ps", "propagation_ps", "packets")

    def __init__(self, src: int, dst: int, params: RouterParams) -> None:
        self.src = src
        self.dst = dst
        self.free_at = 0
        self.cycle_ps = params.clock().period_ps
        self.propagation_ps = ns(params.propagation_ns)
        self.packets = 0

    def send(self, now: int, pkt: Packet) -> int:
        """Occupy the link; returns the arrival time at the far end."""
        start = self.free_at if self.free_at > now else now
        self.free_at = end = start + pkt.wire_cycles * self.cycle_ps
        self.packets += 1
        return end + self.propagation_ps


class Router(Component):
    """Per-node router: transit forwarding, local injection, local delivery."""

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        topology: Topology,
        iq: InputQueue,
        oq: OutputQueue,
        params: Optional[RouterParams] = None,
    ) -> None:
        super().__init__(sim, f"node{node_id}.rt")
        self.node_id = node_id
        self.topology = topology
        self.iq = iq
        self.oq = oq
        self.params = params or RouterParams()
        clock = self.params.clock()
        #: one router cycle and the fall-through delay, in ps
        self._cycle_ps = clock.cycles(1)
        self._fall_through_ps = clock.cycles(self.params.fall_through_cycles)
        self.links: Dict[int, Link] = {}
        self.peers: Dict[int, "Router"] = {}
        #: destination -> outgoing links on its minimal paths, in the
        #: topology's neighbour order (filled on first use; the topology
        #: and links are fixed once the system is built)
        self._minimal: Dict[int, Tuple[Link, ...]] = {}
        self.buffered = 0
        self.c_transit = self.stats.counter("transit_packets")
        self.c_injected = self.stats.counter("injected_packets")
        self.c_delivered = self.stats.counter("delivered_packets")
        self.c_misroutes = self.stats.counter("misroutes")
        #: wire bytes transmitted on this router's outgoing links (header
        #: + data sections) — the interval sampler's router-traffic series
        self.c_bytes = self.stats.counter("transmitted_bytes")
        self.a_hops = self.stats.accumulator("delivered_age")
        self.a_latency = self.stats.accumulator("delivered_latency_ps")
        oq.attach_router(self._kick)

    # -- wiring ----------------------------------------------------------

    def connect(self, peer: "Router") -> None:
        """Create the outgoing half-channel towards *peer*."""
        self.links[peer.node_id] = Link(self.node_id, peer.node_id, self.params)
        self.peers[peer.node_id] = peer
        self._minimal.clear()

    def _minimal_links(self, dst: int) -> Tuple[Link, ...]:
        links = self.links
        minimal = self._minimal[dst] = tuple(
            links[n] for n in self.topology.minimal_next_hops(self.node_id, dst)
            if n in links
        )
        return minimal

    # -- injection -------------------------------------------------------

    def _kick(self) -> None:
        """OQ signalled new work; drain it next cycle.

        The paper's policy: the router gives priority to transit traffic
        and accepts new packets only when it has free buffer space.
        """
        self.schedule(0, self._drain_oq)

    def _drain_oq(self) -> None:
        pop = self.oq.queue.pop_highest
        while self.buffered < self.params.buffer_pool:
            pkt = pop()
            if pkt is None:
                return
            pkt.inject_time = self.sim.now
            self.c_injected.value += 1
            self._handle(pkt)
        # Buffer pressure: retry once a cycle until space frees up.
        self.schedule(self._cycle_ps, self._drain_oq)

    def inject(self, pkt: Packet) -> bool:
        """Convenience entry point used by tests: push via the OQ."""
        return self.oq.offer(pkt)

    # -- forwarding ------------------------------------------------------

    def _handle(self, pkt: Packet) -> None:
        """A packet was injected here or finished flying over an incoming
        channel."""
        if pkt.dst == self.node_id:
            self._deliver(pkt)
            return
        self.buffered += 1
        self.schedule(self._fall_through_ps, self._forward, pkt)

    def _deliver(self, pkt: Packet) -> None:
        if self.iq.receive(pkt):
            self.c_delivered.value += 1
            self.a_hops.add(pkt.age)
            self.a_latency.add(self.sim.now - pkt.inject_time)
        else:
            # IQ full: hold the packet in the router buffer and retry; the
            # IQ is sized to make this rare (§2.6.2).
            self.schedule(self._cycle_ps, self._deliver, pkt)

    def _forward(self, pkt: Packet) -> None:
        now = self.sim.now
        minimal = self._minimal.get(pkt.dst)
        if minimal is None:
            minimal = self._minimal_links(pkt.dst)
        # the free minimal link that freed up first (ties: the first in
        # neighbour order)
        best = None
        for link in minimal:
            free_at = link.free_at
            if free_at <= now and (best is None or free_at < best.free_at):
                best = link
        if best is not None:
            self._transmit(pkt, best)
            return
        # All minimal outputs busy: hot potato onto any free output, with
        # age increment and priority escalation.
        if len(minimal) <= self.params.misroute_threshold:
            for link in self.links.values():
                if link.free_at <= now:
                    pkt.age += 1
                    pkt.priority = min(
                        3, pkt.priority + pkt.age // self.params.age_per_priority)
                    self.c_misroutes.value += 1
                    self._transmit(pkt, link)
                    return
        # Everything busy: wait for the earliest minimal link.
        target = min(minimal, key=_free_at)
        wait = max(self._cycle_ps, target.free_at - now)
        self.schedule(wait, self._forward, pkt)

    def _transmit(self, pkt: Packet, link: Link) -> None:
        now = self.sim.now
        arrival = link.send(now, pkt)
        self.buffered -= 1
        self.c_transit.value += 1
        self.c_bytes.value += pkt.size_bits // 8
        if pkt.probe is not None:
            # one stamp per link hop, at the far-end arrival time, so
            # multi-hop flight shows up as accumulated pkt_transit time
            pkt.probe.stamp("pkt_transit", arrival)
        self.schedule(arrival - now, self.peers[link.dst]._handle, pkt)


_free_at = attrgetter("free_at")


def build_routers(
    sim: Simulator,
    topology: Topology,
    params: Optional[RouterParams] = None,
    iq_capacity: int = 64,
    oq_capacity: int = 16,
) -> Dict[int, Router]:
    """Instantiate and fully wire routers (+IQ/OQ) for every topology node."""
    routers: Dict[int, Router] = {}
    for node in topology.nodes:
        iq = InputQueue(sim, f"node{node}.iq", capacity=iq_capacity)
        oq = OutputQueue(sim, f"node{node}.oq", capacity=oq_capacity)
        routers[node] = Router(sim, node, topology, iq, oq, params)
    for node in topology.nodes:
        for nbr in topology.neighbors(node):
            routers[node].connect(routers[nbr])
    return routers
