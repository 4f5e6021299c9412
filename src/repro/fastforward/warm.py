"""Functional (event-free) warming of the memory hierarchy.

Fast-forward phases advance the machine *without the event queue*: work
items are pulled straight off each CPU's workload thread in batches and
their cache effects applied synchronously — L1 lookups (with their LRU /
silent-upgrade side effects), TLB touches, and for L1 misses the L2
bank's :meth:`~repro.core.l2.L2Bank.warm_request`.  That runs the
detailed service path's own timeless transitions and fill step
(duplicate tags, victim-cache flow, checker hooks) and touches the DRAM
page state, without the latencies between them.  No simulated time
passes and no timing is charged; the point is that a detailed measurement window opened right after a
fast-forward phase sees the L1s, L2, duplicate tags, directory and DRAM
row buffers in the state a monolithic run would have left them.

Streams are pulled in per-CPU batches (:meth:`WorkloadThread.take
<repro.workloads.base.WorkloadThread.take>`), one call per chunk rather
than one per item; the cache mutations themselves are inherently
sequential.  The per-item loop follows the DESIGN.md §4m rules: no
per-item call layer, Enum members bound once, counters kept in locals.
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from operator import itemgetter
from typing import Dict, Optional, Tuple

from ..core.messages import AccessKind, request_for
from ..mem.addr import LINE_MASK, LINE_SHIFT

#: work items pulled from a thread per batch during fast-forward periods
CHUNK_ITEMS = 2048

_MEMBAR, _IFETCH, _WH64 = AccessKind.MEMBAR, AccessKind.IFETCH, AccessKind.WH64
#: an item's instruction count
_instructions = itemgetter(0)


class FunctionalWarmer:
    """Event-free executor for workload reference streams.

    One warmer serves a whole sampled run; it keeps aggregate telemetry
    (items, instructions, references, warm-served vs declined misses)
    that the orchestrator surfaces under ``extras["sampling"]["warm"]``.
    """

    def __init__(self) -> None:
        self.items = 0
        self.instructions = 0
        self.refs = 0
        self.l1_hits = 0
        self.warmed = 0    # L1 misses served by the warm path
        self.skipped = 0   # L1 misses declined (not warm-eligible)
        self.skimmed = 0   # items consumed without cache application
        self.membars = 0

    def summary(self) -> Dict[str, int]:
        return {
            "items": self.items,
            "instructions": self.instructions,
            "refs": self.refs,
            "l1_hits": self.l1_hits,
            "warmed_misses": self.warmed,
            "skipped_misses": self.skipped,
            "skimmed_items": self.skimmed,
            "membars": self.membars,
        }

    # -- stream consumption ------------------------------------------------

    def collect(self, cpu, max_items: Optional[int] = None,
                stop_at_boundary: bool = False,
                tail: Optional[int] = None):
        """Consume items from *cpu*'s thread WITHOUT applying them yet.

        Counts instructions as it goes and keeps the last *tail* items
        (all of them when ``tail`` is None) for later application via
        :meth:`apply_interleaved` — items are plain tuples, so applying
        them after collection is identical to applying them at
        consumption time (the warm path is time-free).  Dropping all but
        the tail of a long span is the classic warming-window
        approximation: the recency state the next detailed window reads
        is rebuilt by the tail, while the skimmed prefix only costs
        stream generation (~1 µs/item instead of a full cache update).

        With ``stop_at_boundary=True`` consumption stops after the
        warm-up sentinel (which is never buffered).  Returns
        ``(buffered_items, consumed, hit_boundary, exhausted)``.
        """
        thread = cpu.thread
        hit_boundary = False
        exhausted = False
        buf = deque(maxlen=tail)
        if stop_at_boundary:
            items, hit_boundary = thread.take_through_warmup()
            consumed = len(items)
            if hit_boundary:
                items.pop()  # the sentinel is never buffered
            else:
                exhausted = True
            self.instructions += sum(map(_instructions, items))
            buf.extend(items)
        else:
            consumed = 0
            take = thread.take
            remaining = int(max_items) if max_items is not None else -1
            while remaining:
                want = CHUNK_ITEMS if remaining < 0 else min(CHUNK_ITEMS,
                                                             remaining)
                batch = take(want)
                consumed += len(batch)
                if remaining > 0:
                    remaining -= len(batch)
                self.instructions += sum(map(_instructions, batch))
                buf.extend(batch)
                if len(batch) < want:
                    exhausted = True
                    break
        self.items += consumed
        self.skimmed += consumed - len(buf)
        return buf, consumed, hit_boundary, exhausted

    def apply_interleaved(self, buffers, batch: int = 128) -> None:
        """Apply collected item buffers, round-robin across CPUs.

        *buffers* is a list of ``(cpu, items)`` pairs.  Interleaving in
        small batches matters for shared lines: applying one CPU's whole
        span before the next would leave every contended line owned by
        the last CPU processed, skewing the L1-forward mix the following
        detailed window measures.
        """
        work = []
        for cpu, items in buffers:
            chip = cpu.chip
            work.append((cpu, chip.banks, chip.bank_mask,
                         chip.l1_of(cpu.cpu_id, True).lookup,
                         chip.l1_of(cpu.cpu_id, False).lookup, iter(items)))
        refs = l1_hits = warmed = skipped = membars = 0
        try:
            while work:
                still = []
                for entry in work:
                    cpu, banks, bank_mask, lookup_i, lookup_d, it = entry
                    cpu_id = cpu.cpu_id
                    tlbs = cpu.tlb_refill_ps
                    n = 0
                    for _instrs, kind, addr, _dep in islice(it, batch):
                        n += 1
                        if kind is None:
                            continue
                        if kind == _MEMBAR:
                            # no eager-grant acks can be outstanding
                            # between events, so a fence is an instant
                            # no-op here; keep its counter moving
                            membars += 1
                            cpu.c_membar.value += 1
                            continue
                        refs += 1
                        is_instr = kind == _IFETCH
                        if tlbs:
                            (cpu.itlb if is_instr else cpu.dtlb).lookup(addr)
                        result = (lookup_i if is_instr
                                  else lookup_d)(addr, kind)
                        if result.hit:
                            l1_hits += 1
                            continue
                        if kind == _WH64:
                            cpu.c_wh64.value += 1
                        bank = banks[(addr >> LINE_SHIFT) & bank_mask]
                        if bank.warm_request(cpu_id, is_instr,
                                             request_for(kind, result.state),
                                             addr & LINE_MASK) is None:
                            skipped += 1
                        else:
                            warmed += 1
                    if n == batch:
                        still.append(entry)
                work = still
        finally:
            self.refs += refs
            self.l1_hits += l1_hits
            self.warmed += warmed
            self.skipped += skipped
            self.membars += membars

    def advance(self, cpu, max_items: Optional[int] = None,
                stop_at_boundary: bool = False,
                tail: Optional[int] = None) -> Tuple[int, bool, bool]:
        """Collect-and-apply for a single CPU (no interleaving)."""
        buf, consumed, hit_boundary, exhausted = self.collect(
            cpu, max_items, stop_at_boundary, tail)
        self.apply_interleaved([(cpu, buf)])
        return consumed, hit_boundary, exhausted
