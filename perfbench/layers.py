"""The repository's layers, and a profile folded onto them.

Every module under ``src/repro`` belongs to exactly one layer (the
benchmark's own tests check that).  A pattern ending in ``.*`` names a
package and everything below it; any other pattern names one module.
Code outside ``src/repro`` (the standard library, builtins and the
benchmark's own driver) folds into ``stdlib``.  Layers that belong
together (``sim.network`` and ``runtime`` make the RPC seam, ``sim.host``
and ``sim.resources`` the modelled machines, ``sim.telemetry`` and
``bench`` the cheap telemetry, ``sim.trace``, ``sim.critpath`` and
``sim.profile`` the tracing) are kept apart so a change to one shows.
"""

from __future__ import annotations

import os
import pstats
from typing import Dict, Iterable, List, Optional

SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")

LAYERS: Dict[str, List[str]] = {
    # The DES kernel.
    "sim.core": ["repro.sim", "repro.sim.core"],
    # The RPC seam: the simulated network, and the Runtime protocol with
    # its simulated and asyncio implementations, wire codec and live roles.
    "sim.network": ["repro.sim.network"],
    "runtime": ["repro.runtime.*"],
    # Modelled CPU cores and disks, and the queues in front of them.
    "sim.host": ["repro.sim.host"],
    "sim.resources": ["repro.sim.resources"],
    "core": ["repro.core.*"],
    # The MetadataSystem.perform seam and the baseline systems.
    "baselines": ["repro.baselines.*"],
    "indexnode": ["repro.indexnode.*"],
    "tafdb": ["repro.tafdb.*"],
    "raft": ["repro.raft.*"],
    "structures": ["repro.structures.*"],
    # Windowed telemetry and per-op metrics.
    "sim.telemetry": ["repro.sim.telemetry", "repro.sim.stats"],
    # Verdicts, audit, cluster builders and the workload runner.
    "bench": ["repro.bench.*"],
    # Span tracing and the analyses that fold spans.
    "sim.trace": ["repro.sim.trace"],
    "sim.critpath": ["repro.sim.critpath"],
    "sim.profile": ["repro.sim.profile"],
    "workloads": ["repro.workloads.*"],
    "top": ["repro", "repro.paths", "repro.ops", "repro.types",
            "repro.errors"],
    "experiments": ["repro.experiments.*", "repro.tools.*"],
    "stdlib": [],
}

#: Profile entries that are waiting, not work: an event loop blocked in
#: its selector.  They stay out of every layer's self time.
IDLE = ("<method 'poll' of 'select.epoll' objects>",
        "<method 'select' of 'select.epoll' objects>")


def _matches(pattern: str, module: str) -> bool:
    if pattern.endswith(".*"):
        package = pattern[:-2]
        return module == package or module.startswith(package + ".")
    return module == pattern


def layers_of_module(module: str) -> List[str]:
    """Every layer whose patterns match ``module`` (exactly one, ideally)."""
    return [layer for layer, patterns in LAYERS.items()
            if any(_matches(pattern, module) for pattern in patterns)]


def module_of_file(path: str) -> Optional[str]:
    """The dotted module of a file under ``src/repro``, else ``None``."""
    rel = os.path.relpath(os.path.abspath(path), SRC)
    if rel.startswith("..") or not rel.endswith(".py"):
        return None
    parts = rel[:-3].split(os.sep)
    if parts[0] != "repro":
        return None
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def repro_modules() -> Iterable[str]:
    """Every module under ``src/repro``."""
    for root, _dirs, files in os.walk(os.path.join(SRC, "repro")):
        for name in sorted(files):
            if name.endswith(".py"):
                yield module_of_file(os.path.join(root, name))


def layer_of_file(path: str, cache: Dict[str, str]) -> str:
    layer = cache.get(path)
    if layer is None:
        module = module_of_file(path)
        found = layers_of_module(module) if module else []
        layer = cache[path] = found[0] if found else "stdlib"
    return layer


def fold_profile(profiler, ops: int) -> Dict[str, float]:
    """Self time share and calls per op of every layer in ``profiler``."""
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    cache: Dict[str, str] = {}
    stats = pstats.Stats(profiler).stats
    for (filename, _line, name), (_cc, ncalls, tottime, _ct, _by) \
            in stats.items():
        if name in IDLE:
            continue
        layer = layer_of_file(filename, cache)
        self_s[layer] += tottime
        calls[layer] += ncalls
    total = sum(self_s.values()) or 1.0
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_share"] = self_s[layer] / total
        out[f"{layer}.calls_per_op"] = calls[layer] / max(1, ops)
    return out


def self_seconds(profiler, module: str) -> float:
    """Self time spent in one module's functions."""
    return sum(tottime for (filename, _line, _name), (_cc, _nc, tottime,
                                                      _ct, _by)
               in pstats.Stats(profiler).stats.items()
               if module_of_file(filename) == module)
