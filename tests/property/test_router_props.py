"""Property-based tests for the interconnect: on random connected
topologies with random traffic, every packet is delivered exactly once."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.interconnect import Packet, PacketType, Topology, build_routers
from repro.sim import Simulator, substream


def random_topology(seed: int, n: int) -> Topology:
    """A random connected graph respecting the 4-channel budget."""
    rng = substream(seed, "topo")
    topo = Topology()
    for node in range(n):
        topo.add_node(node)
    # spanning chain keeps it connected
    for node in range(n - 1):
        topo.add_link(node, node + 1)
    # random extra links where channel budget allows
    for _ in range(n):
        a, b = rng.randrange(n), rng.randrange(n)
        if a == b or topo.graph.has_edge(a, b):
            continue
        if topo.graph.degree(a) >= 4 or topo.graph.degree(b) >= 4:
            continue
        topo.add_link(a, b)
    topo.validate()
    return topo


traffic = st.lists(
    st.tuples(st.integers(0, 9), st.integers(0, 9),
              st.sampled_from([PacketType.READ, PacketType.DATA_REPLY,
                               PacketType.INVAL_ACK])),
    min_size=1, max_size=60,
)


class TestDeliveryProperties:
    @settings(max_examples=25,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(0, 1000), traffic)
    def test_every_packet_delivered_exactly_once(self, seed, flows):
        topo = random_topology(seed, 10)
        sim = Simulator()
        routers = build_routers(sim, topo, iq_capacity=256, oq_capacity=128)
        received = {n: [] for n in topo.nodes}
        for n in topo.nodes:
            routers[n].iq.set_default_disposition(
                lambda p, n=n: received[n].append(p) or True)
        expected = {n: 0 for n in topo.nodes}
        for src, dst, ptype in flows:
            pkt = Packet(ptype, src=src, dst=dst)
            assert routers[src].inject(pkt)
            expected[dst] += 1
        sim.run()
        for node in topo.nodes:
            assert len(received[node]) == expected[node]

    @settings(max_examples=15,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(0, 500))
    def test_latency_lower_bounded_by_distance(self, seed):
        """No packet arrives faster than its minimal hop count allows."""
        topo = random_topology(seed, 8)
        sim = Simulator()
        routers = build_routers(sim, topo)
        arrivals = {}
        for n in topo.nodes:
            routers[n].iq.set_default_disposition(
                lambda p, n=n: arrivals.__setitem__((p.src, n), sim.now)
                or True)
        for dst in range(1, 8):
            routers[0].inject(Packet(PacketType.READ, src=0, dst=dst))
        sim.run()
        for (src, dst), t in arrivals.items():
            hops = topo.distance(src, dst)
            # per hop: >= 2ns fall-through + 4ns serialisation + 2ns wire
            assert t >= hops * 8000


def reference_forward(router, pkt, now):
    """The output choice of ``Router._forward`` written with list
    comprehensions and ``min`` (the rule the router implements)."""
    links = router.links
    minimal = [n for n in router.topology.minimal_next_hops(router.node_id,
                                                            pkt.dst)
               if n in links]
    free_minimal = [n for n in minimal if not links[n].free_at > now]
    if free_minimal:
        return ("send", min(free_minimal, key=lambda n: links[n].free_at))
    free_any = [n for n in links if not links[n].free_at > now]
    if free_any and len(minimal) <= router.params.misroute_threshold:
        return ("misroute", free_any[0])
    target = min(minimal, key=lambda n: links[n].free_at)
    return ("wait", max(router.params.clock().cycles(1),
                        links[target].free_at - now))


class TestForwardingChoice:
    @settings(max_examples=200,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(0, 300), st.data())
    def test_same_link_as_the_min_rule(self, seed, data):
        """Ties included: among equally busy links the first in
        neighbour order wins, as ``min`` picks it."""
        topo = random_topology(seed, 8)
        sim = Simulator()
        routers = build_routers(sim, topo)
        node = data.draw(st.sampled_from(topo.nodes))
        dst = data.draw(st.sampled_from([n for n in topo.nodes if n != node]))
        router = routers[node]
        now = 10_000
        for link in router.links.values():
            link.free_at = data.draw(st.sampled_from(
                [0, 8_000, now, 12_000, 14_000]))
        sim.now = now
        expected = reference_forward(router, Packet(PacketType.READ, src=node,
                                                    dst=dst), now)
        chosen = []
        router._transmit = lambda pkt, link: chosen.append(
            ("misroute" if router.c_misroutes.value else "send", link.dst))
        router.schedule = lambda delay, fn, *args: chosen.append(
            ("wait", delay))
        router._forward(Packet(PacketType.READ, src=node, dst=dst))
        assert chosen == [expected]
