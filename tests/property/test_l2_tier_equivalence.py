"""The two L2 service tiers are one protocol.

The detailed tier serves an L1 miss through events (``chip.issue_miss``
then ``sim.run()``); the functional tier serves it synchronously with
``L2Bank.warm_request``.  Driven with the same access sequence from the
same fresh machine, both must leave the same reply sources, the same L1
contents (in LRU order), the same L2 sets (in load order), the same
duplicate tags, directory, memory image and bank counters.

RDRAM page state is left out: only the detailed tier advances the clock,
so keep-open deadlines expire on one side only.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AccessKind, CoherenceChecker, PiranhaSystem, preset
from repro.core.messages import MemRequest, request_for

KINDS = (AccessKind.LOAD, AccessKind.STORE, AccessKind.WH64,
         AccessKind.IFETCH)
#: address strides between the lines of a pool: dense lines; lines spread
#: over banks, sets and (on two nodes) homes; lines that all collide in one
#: bank and few L1 / L2 sets, so both levels replace
STRIDES = (64, 0x1040, 0x22000)


def _machine(config: str, nodes: int) -> PiranhaSystem:
    return PiranhaSystem(preset(config), num_nodes=nodes,
                         checker=CoherenceChecker())


def _state(system: PiranhaSystem):
    """Everything the L2 protocol writes, in comparable form."""
    chips = []
    for chip in system.nodes:
        l1s = [[(i, [(ln.tag, ln.state, ln.owner, ln.version, ln.dirty)
                     for ln in s.values()])
                for i, s in enumerate(l1.sets) if s]
               for l1 in (*chip.l1i, *chip.l1d)]
        banks = []
        for bank in chip.banks:
            l2 = [(i, [(ln.tag, ln.version, ln.dirty) for ln in s.values()])
                  for i, s in enumerate(bank.sets) if s]
            dup = {line: (sorted(e.sharers), e.owner, sorted(e.states.items()))
                   for line, e in bank.dup.entries.items()}
            banks.append((l2, dup, sorted(bank.remote_cached),
                          sorted(bank.our_mode.items()),
                          bank.stats.as_dict()))
        chips.append((l1s, banks))
    dirs = [sorted(d._bits.items()) for d in system.dirstores]
    return chips, dirs, sorted(system.mem_versions.items())


def _detailed_miss(system, node, cpu, kind, is_instr, addr, reqtype):
    out = []
    req = MemRequest(cpu_id=cpu, kind=kind, addr=addr, is_instr=is_instr,
                     done=lambda _lat, source: out.append(source), node=node)
    req.issue_time = system.sim.now
    system.nodes[node].issue_miss(req, reqtype)
    system.sim.run()
    assert len(out) == 1
    return out[0]


def _lookup(system, node, cpu, kind, addr):
    is_instr = kind == AccessKind.IFETCH
    return system.nodes[node].l1_of(cpu, is_instr).lookup(addr, kind)


def _run_pair(config, nodes, accesses, pool, stride):
    detailed, warm = _machine(config, nodes), _machine(config, nodes)
    served = 0
    for node, cpu, kind_i, pick in accesses:
        kind = KINDS[kind_i]
        addr = (pick % pool) * stride
        line = addr & ~63
        is_instr = kind == AccessKind.IFETCH
        result = _lookup(detailed, node, cpu, kind, addr)
        assert _lookup(warm, node, cpu, kind, addr).hit == result.hit
        if not result.hit:
            reqtype = request_for(kind, result.state)
            bank = warm.nodes[node].bank_for(line)
            source = bank.warm_request(cpu, is_instr, reqtype, line)
            # multi-node warm fills may queue remote write-backs; the
            # fast-forward driver drains them before the clock moves
            warm.sim.run()
            if source is not None:
                served += 1
                assert _detailed_miss(detailed, node, cpu, kind, is_instr,
                                      addr, reqtype) == source
            else:
                assert nodes > 1, "a single node must accept every miss"
        assert _state(warm) == _state(detailed)
    return served


accesses_p8 = st.lists(
    st.tuples(st.just(0), st.integers(0, 7), st.integers(0, 3),
              st.integers(0, 1 << 16)),
    min_size=100, max_size=400)

accesses_p4x2 = st.lists(
    st.tuples(st.integers(0, 1), st.integers(0, 3), st.integers(0, 3),
              st.integers(0, 1 << 16)),
    min_size=100, max_size=400)


class TestTierEquivalence:
    @settings(max_examples=15)
    @given(accesses_p8, st.sampled_from((4, 40, 4000)),
           st.sampled_from(STRIDES))
    def test_p8_every_miss(self, accesses, pool, stride):
        _run_pair("P8", 1, accesses, pool, stride)

    @settings(max_examples=15)
    @given(accesses_p4x2, st.sampled_from((4, 40, 4000)),
           st.sampled_from(STRIDES))
    def test_p4x2_accepted_misses(self, accesses, pool, stride):
        # remote-home, remotely cached and home-serialised upgrades are
        # declined by the warm tier; those accesses skip their miss on
        # both machines
        _run_pair("P4", 2, accesses, pool, stride)
