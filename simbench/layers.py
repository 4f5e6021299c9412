"""Per-layer host self time from a cProfile run.

A layer is a module (or package) of the simulator.  Each profiled
function is charged to the layer of the module that defines it.  A
builtin, stdlib or other foreign function belongs to no layer: its self
time is charged to the layers of its callers, in proportion to the self
time cProfile records on each caller edge (resolved transitively when
the caller is foreign too).  Time that reaches no layer — simulator
modules outside the named layers, or foreign code no simulator frame
called — is *unattributed*.
"""

from __future__ import annotations

import os
import pstats
from typing import Dict, Optional, Tuple

LAYERS = (
    "sim.engine", "sim.stats", "core.cpu", "core.l1", "core.ics",
    "core.l2", "core.dup_tags", "core.chip", "core.messages",
    "core.rdram", "core.directory", "core.protocol_engine",
    "interconnect", "workloads", "fastforward", "mem.addr",
)

#: modules charged to a layer named after another module
FOLDED = {
    "core.microcode": "core.protocol_engine",
    "core.microprograms": "core.protocol_engine",
    "core.tsrf": "core.protocol_engine",
}

UNATTRIBUTED = "unattributed"

Func = Tuple[str, int, str]


def layer_of_module(module: str) -> str:
    """Layer of a module named relative to the ``repro`` package."""
    module = FOLDED.get(module, module)
    for layer in LAYERS:
        if module == layer or module.startswith(layer + "."):
            return layer
    return UNATTRIBUTED


class LayerMap:
    """Maps profiled functions to layers by their defining file."""

    def __init__(self, package_dir: str) -> None:
        self.package_dir = os.path.realpath(package_dir) + os.sep
        self._by_file: Dict[str, Optional[str]] = {}

    def home(self, func: Func) -> Optional[str]:
        """The layer defining ``func``, or None for foreign code."""
        filename = func[0]
        if filename not in self._by_file:
            path = os.path.realpath(filename)
            layer = None
            if path.startswith(self.package_dir) and path.endswith(".py"):
                rel = path[len(self.package_dir):-3].replace(os.sep, ".")
                if rel.endswith(".__init__"):
                    rel = rel[:-len(".__init__")]
                layer = layer_of_module(rel)
            self._by_file[filename] = layer
        return self._by_file[filename]


def attribute(profile, layer_map: LayerMap) -> Dict[str, Dict[str, float]]:
    """Per-layer ``self_s`` and ``calls`` of a disabled cProfile run.

    Returns ``{layer: {"self_s": ..., "calls": ...}}`` for every name in
    :data:`LAYERS` plus :data:`UNATTRIBUTED`.
    """
    stats = pstats.Stats(profile).stats
    out = {name: {"self_s": 0.0, "calls": 0}
           for name in LAYERS + (UNATTRIBUTED,)}
    shares: Dict[Func, Dict[str, float]] = {}

    def split(func: Func, active: frozenset) -> Dict[str, float]:
        """How a foreign function's self time divides among layers."""
        if func in shares:
            return shares[func]
        if func in active:  # a foreign call cycle: no layer to reach
            return {UNATTRIBUTED: 1.0}
        callers = stats[func][4] if func in stats else {}
        total = sum(edge[2] for edge in callers.values())
        if total <= 0.0:  # called only from outside the profile
            shares[func] = {UNATTRIBUTED: 1.0}
            return shares[func]
        result: Dict[str, float] = {}
        for caller, edge in callers.items():
            home = layer_map.home(caller)
            parts = ({home: 1.0} if home is not None
                     else split(caller, active | {func}))
            for layer, frac in parts.items():
                result[layer] = (result.get(layer, 0.0)
                                 + edge[2] / total * frac)
        shares[func] = result
        return result

    for func, (_cc, nc, tt, _ct, _callers) in stats.items():
        home = layer_map.home(func)
        if home is not None:
            out[home]["self_s"] += tt
            out[home]["calls"] += nc
            continue
        for layer, frac in split(func, frozenset()).items():
            out[layer]["self_s"] += tt * frac
    return out
