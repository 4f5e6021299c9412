"""Piranha: a scalable architecture based on single-chip multiprocessing.

A transaction-level, cycle-approximate reproduction of Barroso et al.,
ISCA 2000: the eight-core Piranha chip multiprocessor, its non-inclusive
two-level cache hierarchy with duplicate-L1-tag intra-chip coherence, the
microcoded home/remote protocol engines with the NAK-free inter-node
protocol (cruise-missile invalidates, eager exclusive replies, reply
forwarding), the hot-potato interconnect with DC-balanced links, the I/O
node architecture, and the baseline out-of-order / in-order processor
models — plus the synthetic OLTP / DSS / TPC-C workload models that stand
in for SimOS + Oracle, and the harness regenerating every evaluation
figure and table.

Quick start::

    from repro import PiranhaSystem, PIRANHA_P8, OltpWorkload

    system = PiranhaSystem(PIRANHA_P8)
    system.attach_workload(OltpWorkload(cpus_per_node=8))
    system.run_to_completion()
    print(system.execution_summary())
"""

from .core import (
    INO,
    OOO,
    PIRANHA_P1,
    PIRANHA_P2,
    PIRANHA_P4,
    PIRANHA_P8,
    PIRANHA_P8F,
    PIRANHA_P8_PESSIMISTIC,
    PRESETS,
    AccessKind,
    ChipConfig,
    CoherenceChecker,
    CoherenceViolation,
    MESI,
    PiranhaChip,
    PiranhaSystem,
    ReplySource,
    preset,
    table1,
)
from .harness import (
    RunResult,
    figure5,
    figure6a,
    figure6b,
    figure7,
    figure8,
    RunSpec,
    run,
)
from .sim import Clock, Simulator
from .workloads import (
    DssParams,
    DssWorkload,
    OltpParams,
    OltpWorkload,
    TpccWorkload,
)

__version__ = "1.0.0"

__all__ = [
    "INO",
    "OOO",
    "PIRANHA_P1",
    "PIRANHA_P2",
    "PIRANHA_P4",
    "PIRANHA_P8",
    "PIRANHA_P8F",
    "PIRANHA_P8_PESSIMISTIC",
    "PRESETS",
    "AccessKind",
    "ChipConfig",
    "CoherenceChecker",
    "CoherenceViolation",
    "MESI",
    "PiranhaChip",
    "PiranhaSystem",
    "ReplySource",
    "preset",
    "table1",
    "RunResult",
    "figure5",
    "figure6a",
    "figure6b",
    "figure7",
    "figure8",
    "RunSpec",
    "run",
    "Clock",
    "Simulator",
    "DssParams",
    "DssWorkload",
    "OltpParams",
    "OltpWorkload",
    "TpccWorkload",
    "__version__",
]
