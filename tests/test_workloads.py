"""Unit tests for the workload models."""

import pytest

from repro.core import AccessKind
from repro.core.cpu import WARMUP_DONE
from repro.sim import substream
from repro.workloads import (
    DssParams,
    DssWorkload,
    MigratoryWrites,
    NodeShards,
    OltpParams,
    OltpWorkload,
    PrivateStream,
    Region,
    SharedReadOnly,
    TpccWorkload,
    ZipfSampler,
)
from repro.workloads.base import AddressSpaceBuilder, CodeWalk, WorkloadThread


class TestZipfSampler:
    def test_rank_zero_hottest(self):
        z = ZipfSampler(100, alpha=1.0)
        counts = [0] * 100
        rng = substream(1, "zipf")
        for _ in range(5000):
            counts[z.sample(rng.random())] += 1
        assert counts[0] > counts[50] > 0

    def test_uniform_at_alpha_zero(self):
        z = ZipfSampler(10, alpha=0.0)
        rng = substream(2, "zipf")
        counts = [0] * 10
        for _ in range(10000):
            counts[z.sample(rng.random())] += 1
        assert max(counts) < 2 * min(counts)

    def test_bounds(self):
        z = ZipfSampler(5, alpha=0.8)
        assert z.sample(0.0) == 0
        assert z.sample(0.999999) == 4
        with pytest.raises(ValueError):
            ZipfSampler(0, 1.0)


class TestAddressSpaceBuilder:
    def test_regions_disjoint(self):
        b = AddressSpaceBuilder()
        r1 = b.region("a", 100)
        r2 = b.region("b", 100)
        b.validate()
        assert r1.end <= r2.base

    def test_region_line_addresses(self):
        b = AddressSpaceBuilder()
        r = b.region("x", 10)
        assert r.line_addr(0) == r.base
        assert r.line_addr(9) == r.base + 9 * 64
        with pytest.raises(IndexError):
            r.line_addr(10)


class TestCodeWalk:
    def test_runs_are_sequential_lines(self):
        b = AddressSpaceBuilder()
        region = b.region("code", 600)
        walk = CodeWalk(region, substream(3, "cw"), run_lines=6)
        items = walk.run()
        assert len(items) == 6
        addrs = [a for _, _, a, _ in items]
        assert all(b - a == 64 for a, b in zip(addrs, addrs[1:]))
        assert all(k == AccessKind.IFETCH for _, k, _, _ in items)

    def test_addresses_within_region(self):
        b = AddressSpaceBuilder()
        region = b.region("code", 60)
        walk = CodeWalk(region, substream(3, "cw"))
        for _ in range(50):
            for _, _, addr, _ in walk.run():
                assert region.base <= addr < region.end


class TestNodeShards:
    def test_shards_partition_chunks(self):
        region = Region("r", 0, 1024)  # 8 chunks
        shards = NodeShards(region, 4)
        all_chunks = [c for n in range(4) for c in shards.local_chunks(n)]
        assert sorted(all_chunks) == list(range(8))

    def test_sample_line_is_local(self):
        region = Region("r", 0, 1024)
        shards = NodeShards(region, 4)
        rng = substream(5, "ns")
        from repro.mem.addr import AddressMap

        amap = AddressMap(4)
        for node in range(4):
            for _ in range(20):
                line = shards.sample_line(rng, node)
                addr = region.line_addr(line)
                assert amap.home_of(addr) == node

    def test_local_line_cursor(self):
        region = Region("r", 0, 1024)
        shards = NodeShards(region, 4)
        from repro.mem.addr import AddressMap

        amap = AddressMap(4)
        for i in range(300):
            addr = region.line_addr(shards.local_line(2, i))
            assert amap.home_of(addr) == 2


class TestWorkloadThreadTake:
    """Batched consumption is the same stream as item-by-item
    ``__next__``: same items, ``emitted`` count and exhausted flag."""

    PARAMS = OltpParams(transactions=2, warmup_transactions=1)

    def _thread(self):
        wl = OltpWorkload(self.PARAMS, cpus_per_node=1)
        thread = wl.thread_for(0, 0)
        thread.bind_source(wl, 0, 0)
        return thread

    @staticmethod
    def _exhausted(thread) -> bool:
        return thread.state_dict()["exhausted"]

    def test_take_matches_next_with_short_final_batch(self):
        ref = self._thread()
        items = list(ref)
        n = 97
        assert len(items) % n  # the last batch comes up short
        batched = self._thread()
        got = []
        while True:
            batch = batched.take(n)
            got.extend(batch)
            if len(batch) < n:
                break
        assert got == items
        assert batched.emitted == ref.emitted == len(items)
        assert self._exhausted(batched) and self._exhausted(ref)
        assert batched.take(n) == []
        assert batched.emitted == len(items)

    def test_exact_batch_leaves_exhaustion_undiscovered(self):
        # n __next__ calls that happen to reach the end do not yet see
        # StopIteration; neither does take(n)
        length = len(list(self._thread()))
        stepped = self._thread()
        for _ in range(length):
            next(stepped)
        batched = self._thread()
        assert len(batched.take(length)) == length
        assert self._exhausted(batched) == self._exhausted(stepped) is False
        assert batched.take(1) == []
        assert self._exhausted(batched)

    def test_take_interleaves_with_next(self):
        items = list(self._thread())
        thread = self._thread()
        got = thread.take(10) + [next(thread)] + thread.take(25)
        assert got == items[:36]
        assert thread.emitted == 36

    def test_take_through_warmup_stops_after_sentinel(self):
        items = list(self._thread())
        cut = next(i for i, it in enumerate(items)
                   if it[1] is None and it[2] == WARMUP_DONE)
        thread = self._thread()
        got, hit = thread.take_through_warmup()
        assert hit
        assert got == items[:cut + 1]
        assert thread.emitted == cut + 1
        assert not self._exhausted(thread)
        assert next(thread) == items[cut + 1]

    def test_take_through_warmup_without_sentinel(self):
        items = [(1, AccessKind.LOAD, 64 * i, True) for i in range(5)]
        thread = WorkloadThread(iter(items))
        got, hit = thread.take_through_warmup()
        assert (got, hit) == (items, False)
        assert thread.emitted == 5 and self._exhausted(thread)
        assert thread.take_through_warmup() == ([], False)

    def test_restore_after_take_resumes_at_next_item(self):
        import pickle

        thread = self._thread()
        thread.take(50)
        clone = pickle.loads(pickle.dumps(thread))
        assert clone.emitted == 50
        # the clone rebuilds its generator from the workload on first use
        assert clone.take(20) == thread.take(20)
        assert next(clone) == next(thread)


class TestOltpWorkload:
    def test_deterministic(self):
        a = list(OltpWorkload(OltpParams(transactions=3, warmup_transactions=1),
                              cpus_per_node=1).thread_for(0, 0))
        b = list(OltpWorkload(OltpParams(transactions=3, warmup_transactions=1),
                              cpus_per_node=1).thread_for(0, 0))
        assert a == b

    def test_warmup_marker_present(self):
        items = list(OltpWorkload(
            OltpParams(transactions=2, warmup_transactions=1),
            cpus_per_node=1).thread_for(0, 0))
        markers = [i for i in items if i[1] is None and i[2] == WARMUP_DONE]
        assert len(markers) == 1

    def test_out_of_range_cpu_gets_none(self):
        wl = OltpWorkload(cpus_per_node=2, num_nodes=1)
        assert wl.thread_for(0, 5) is None
        assert wl.thread_for(1, 0) is None

    def test_contains_all_tpcb_steps(self):
        wl = OltpWorkload(OltpParams(transactions=4, warmup_transactions=0),
                          cpus_per_node=1)
        items = list(wl.thread_for(0, 0))
        regions_touched = set()
        for _, kind, addr, _ in items:
            if kind is None:
                continue
            for r in wl.space.regions:
                if r.base <= addr < r.end:
                    regions_touched.add(r.name)
        assert {"code", "account", "branch", "teller", "history",
                "log", "metadata", "private", "index"} <= regions_touched

    def test_wh64_used_for_history(self):
        wl = OltpWorkload(OltpParams(transactions=4, warmup_transactions=0),
                          cpus_per_node=1)
        kinds = {k for _, k, _, _ in wl.thread_for(0, 0) if k is not None}
        assert AccessKind.WH64 in kinds

    def test_low_ilp(self):
        assert OltpWorkload().ilp < 1.6


class TestDssWorkload:
    def test_partitions_disjoint(self):
        wl = DssWorkload(DssParams(rows=5, warmup_rows=0), cpus_per_node=4)
        streams = [
            {a for _, k, a, _ in wl.thread_for(0, c)
             if k == AccessKind.LOAD and a >= wl.table.base}
            for c in range(4)
        ]
        for i in range(4):
            for j in range(i + 1, 4):
                assert not (streams[i] & streams[j])

    def test_scan_is_sequential(self):
        wl = DssWorkload(DssParams(rows=8, warmup_rows=0), cpus_per_node=1)
        addrs = [a for _, k, a, _ in wl.thread_for(0, 0)
                 if k == AccessKind.LOAD and a >= wl.table.base]
        assert addrs == sorted(addrs)

    def test_mostly_streaming(self):
        wl = DssWorkload(DssParams(rows=50, warmup_rows=0), cpus_per_node=1)
        loads = [(d) for _, k, _, d in wl.thread_for(0, 0)
                 if k == AccessKind.LOAD]
        streaming = sum(1 for d in loads if not d)
        assert streaming / len(loads) > 0.6

    def test_higher_ilp_than_oltp(self):
        assert DssWorkload().ilp > OltpWorkload().ilp


class TestTpccWorkload:
    def test_heavier_than_tpcb(self):
        tpcc = TpccWorkload().params
        tpcb = OltpParams()
        assert tpcc.code_runs_per_txn > tpcb.code_runs_per_txn
        assert tpcc.metadata_accesses_per_txn > tpcb.metadata_accesses_per_txn

    def test_lowest_ilp(self):
        assert TpccWorkload().ilp < OltpWorkload().ilp


class TestMicrobenchmarks:
    def test_private_stream_disjoint(self):
        wl = PrivateStream(cpus_per_node=2)
        a = {addr for _, k, addr, _ in wl.thread_for(0, 0) if k}
        b = {addr for _, k, addr, _ in wl.thread_for(0, 1) if k}
        assert not (a & b)

    def test_shared_read_overlaps(self):
        wl = SharedReadOnly(cpus_per_node=2)
        a = {addr for _, k, addr, _ in wl.thread_for(0, 0) if k}
        b = {addr for _, k, addr, _ in wl.thread_for(0, 1) if k}
        assert a & b

    def test_migratory_reads_and_writes(self):
        wl = MigratoryWrites(cpus_per_node=1)
        kinds = {k for _, k, _, _ in wl.thread_for(0, 0) if k}
        assert AccessKind.LOAD in kinds and AccessKind.STORE in kinds
