"""Physical address geometry.

Piranha uses 64-byte cache lines throughout.  The shared L2 is interleaved
into eight banks using the low-order bits of a line's physical address
(Section 2.3), and in multi-chip systems the physical address space is
distributed across nodes ("homes") at a coarse page granularity.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Cache-line size used by every cache level in Piranha (bytes).
LINE_BYTES = 64
LINE_SHIFT = 6
assert (1 << LINE_SHIFT) == LINE_BYTES
#: ``addr & LINE_MASK`` is :func:`line_addr`, for call-free hot paths
LINE_MASK = ~(LINE_BYTES - 1)


def line_addr(addr: int) -> int:
    """Align *addr* down to its cache-line base address."""
    return addr & LINE_MASK


def line_index(addr: int) -> int:
    """Return the line number (address >> 6) of *addr*."""
    return addr >> LINE_SHIFT

def line_offset(addr: int) -> int:
    """Byte offset of *addr* within its cache line."""
    return addr & (LINE_BYTES - 1)


def l2_bank(addr: int, banks: int = 8) -> int:
    """L2 bank selection: low-order bits of the *line* address (§2.3)."""
    if banks & (banks - 1):
        raise ValueError(f"bank count must be a power of two, got {banks}")
    return line_index(addr) & (banks - 1)


@dataclass(frozen=True)
class AddressMap:
    """Distribution of the physical address space across NUMA nodes.

    Homes are assigned by interleaving at ``home_granularity`` bytes (a
    coarse 8 KB "page" by default, so that a workload's data structures
    spread across nodes while lines within a structure share a home).
    """

    num_nodes: int = 1
    home_granularity: int = 8192

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ValueError("need at least one node")
        if self.num_nodes > 1024:
            raise ValueError("Piranha scales to at most 1024 nodes")
        if self.home_granularity < LINE_BYTES:
            raise ValueError("home granularity must be at least one line")
        if self.home_granularity & (self.home_granularity - 1):
            raise ValueError("home granularity must be a power of two")

    def home_of(self, addr: int) -> int:
        """Node id that is home for *addr*."""
        return (addr // self.home_granularity) % self.num_nodes

    def is_local(self, addr: int, node: int) -> bool:
        """True when *node* is the home of *addr*."""
        return self.home_of(addr) == node
