"""Module -> layer table and the cProfile fold that charges host time to layers.

A layer is a group of ``repro`` modules.  Every profiled function's self
time (``tottime``) goes to the layer of its module.  Code outside
``repro`` -- builtins, C methods, the standard library, this benchmark's
own wrappers -- has no layer of its own: its self time is split over its
callers in proportion to the time each caller spent in it, and follows
them to their layers.  Time no ``repro`` frame ever called (the
profiler's own root and ``disable``) is left out, so the shares of one
pass sum to 1.
"""

from __future__ import annotations

import os
import pstats
from pathlib import Path
from typing import Dict, Optional, Tuple

#: Layers in report order.
LAYERS = (
    "isa",
    "isa.jit",
    "memory",
    "core.ports",
    "core.protocol",
    "core.hosted",
    "interconnect",
    "os",
    "sim.engine",
    "sim.stats",
    "core.trace",
    "analysis",
    "toolchain",
)

#: Longest module prefix wins.  The package-level fallbacks keep a module
#: added later inside an existing package on a layer instead of failing.
MODULE_LAYERS = {
    "repro.isa": "isa",
    "repro.isa.jit": "isa.jit",
    "repro.memory": "memory",
    "repro.core.ports": "core.ports",
    # host_runtime, nxp_platform, descriptors, stubs, health, nxp_device,
    # machine, plus config/errors, which the protocol reads on every leg
    "repro.core": "core.protocol",
    # the armed fault plan is part of the hardened protocol
    "repro.sim.faults": "core.protocol",
    "repro.core.hosted": "core.hosted",
    # hosted-mode function bodies (the pointer-chase traversal) are the
    # program the hosted executor runs, the way HISA/NISA code is for isa
    "repro.workloads": "core.hosted",
    "repro.interconnect": "interconnect",
    "repro.os": "os",
    "repro.sim": "sim.engine",
    "repro.sim.stats": "sim.stats",
    "repro.core.trace": "core.trace",
    "repro.toolchain": "toolchain",
    "repro": "analysis",
}

Func = Tuple[str, int, str]  # pstats key: (filename, line, function name)


def module_layer(module: str) -> str:
    """The layer of a dotted ``repro`` module name."""
    name = module
    while name:
        if name in MODULE_LAYERS:
            return MODULE_LAYERS[name]
        name = name.rpartition(".")[0]
    raise ValueError(f"{module!r} is not a repro module")


class LayerFold:
    """Folds one cProfile run into per-layer self time and call counts."""

    def __init__(self, profile, src_root: str):
        """``src_root`` is the directory holding ``repro``, spelled as in
        ``repro.__file__`` so it prefixes the profiled code's filenames."""
        self.stats: Dict[Func, tuple] = pstats.Stats(profile).stats
        self._src = os.path.join(src_root, "")
        self._layer_cache: Dict[str, Optional[str]] = {}
        self._dist: Dict[Func, Dict[str, float]] = {}

    def _layer_of_file(self, filename: str) -> Optional[str]:
        if filename not in self._layer_cache:
            layer = None
            if filename.startswith(self._src) and filename.endswith(".py"):
                parts = list(Path(filename[len(self._src):-3]).parts)
                if parts[-1] == "__init__":
                    parts.pop()
                if parts and parts[0] == "repro":
                    layer = module_layer(".".join(parts))
            self._layer_cache[filename] = layer
        return self._layer_cache[filename]

    def _distribution(self, func: Func, visiting: set) -> Dict[str, float]:
        """Fractions of ``func``'s self time owed to each layer."""
        if func in self._dist:
            return self._dist[func]
        layer = self._layer_of_file(func[0])
        if layer is not None:
            dist = {layer: 1.0}
        else:
            if func in visiting:
                return {}  # recursion among non-repro frames
            visiting.add(func)
            callers = self.stats[func][4] if func in self.stats else {}
            weights = {c: v[2] for c, v in callers.items()}
            if sum(weights.values()) <= 0:
                weights = {c: v[1] for c, v in callers.items()}
            dist = {}
            for caller, weight in weights.items():
                for name, frac in self._distribution(caller, visiting).items():
                    dist[name] = dist.get(name, 0.0) + frac * weight
            visiting.discard(func)
            total = sum(dist.values())
            dist = {name: frac / total for name, frac in dist.items()} if total > 0 else {}
        self._dist[func] = dist
        return dist

    def layer_seconds(self) -> Dict[str, float]:
        """Profiled self seconds per layer (every layer present)."""
        out = {layer: 0.0 for layer in LAYERS}
        for func, (_cc, _nc, tt, _ct, _callers) in self.stats.items():
            if tt <= 0:
                continue
            for layer, frac in self._distribution(func, set()).items():
                out[layer] += tt * frac
        return out

    def calls(self, module_file: str, names) -> int:
        """Total calls of the functions ``names`` defined in ``module_file``
        (a path relative to the source root, e.g. ``repro/isa/interpreter.py``)."""
        path = self._src + module_file
        return sum(
            nc
            for (filename, _line, name), (_cc, nc, _tt, _ct, _callers) in self.stats.items()
            if filename == path and name in names
        )
