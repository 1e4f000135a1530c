"""Seeded inputs for the benchmark's four workloads.

Everything a workload feeds the program is built here from the ``--seed``
argument alone, before any timed phase starts: the prefilled namespace and
every client's complete op stream.  The program under test only ever sees
the generated lists, so the same seed gives byte-identical inputs
(:func:`fingerprint_of` pins that in the benchmark's own tests).

An op is a ``(name, args)`` tuple, the shape
``repro.bench.harness.run_workload`` consumes and ``repro.ops.make_op``
turns into a typed op.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import json
import random
from typing import Dict, List, Sequence, Tuple

from repro.workloads.mixed import DEFAULT_MIX
from repro.workloads.namespace import NamespaceSpec, build_namespace
from repro.workloads.spark import SparkAnalyticsWorkload

Op = Tuple[str, tuple]

#: Zipf exponent of path popularity on every read-bearing workload.
ZIPF_S = 1.1

#: lookup-zipf's read-only mix.
LOOKUP_MIX: Dict[str, float] = {"objstat": 0.8, "dirstat": 0.1,
                                "readdir": 0.1}

#: The size of each workload.  ``README.md`` and ``BENCHMARK.json`` quote
#: these numbers; change them only together with a fresh baseline.
SHAPES: Dict[str, Dict[str, int]] = {
    "lookup-zipf": {"dirs": 2000, "objects_per_dir": 10,
                    "clients": 64, "ops_per_client": 150},
    "commit-storm": {"dirs": 2000, "objects_per_dir": 10,
                     "clients": 64, "rounds": 4, "parts_per_task": 4},
    "live-mixed": {"dirs": 50, "objects_per_dir": 9,
                   "slots": 2, "ops_per_slot": 1500},
}
SHAPES["commit-storm-explain"] = SHAPES["commit-storm"]

WORKLOADS = ("lookup-zipf", "commit-storm", "commit-storm-explain",
             "live-mixed")


class ZipfRanks:
    """Zipf(s) popularity over ``items``, the first item the hottest."""

    def __init__(self, items: Sequence, s: float):
        self.items = list(items)
        if not self.items:
            raise ValueError("need at least one item")
        weights = (1.0 / (rank + 1) ** s for rank in range(len(self.items)))
        self.cumulative = list(itertools.accumulate(weights))

    def pick(self, rng: random.Random):
        point = rng.uniform(0.0, self.cumulative[-1])
        return self.items[bisect.bisect_left(self.cumulative, point)]


def namespace(workload: str, seed: int) -> NamespaceSpec:
    """The prefilled namespace of ``workload`` (paper depth profile)."""
    shape = SHAPES[workload]
    return build_namespace(num_dirs=shape["dirs"],
                           objects_per_dir=shape["objects_per_dir"],
                           seed=seed)


def _mix_streams(spec: NamespaceSpec, mix: Dict[str, float], clients: int,
                 ops_per_client: int, seed: int) -> List[List[Op]]:
    """Closed-loop client streams drawn from a weighted op mix.

    Paths follow :class:`ZipfRanks` over seed-shuffled rankings.
    Directory ops target the inner directories only, never the leaves
    that hold the objects: a leaf's hundred entries would make the tail
    hinge on how often a seed happens to list one.  Creates and mkdirs
    name fresh entries under inner directories; deletes and rmdirs undo
    the client's own earlier creates and mkdirs, so no op in a stream can
    fail on a correct system.
    """
    rng = random.Random(f"ranks:{seed}")
    inner = sorted(set(d for d in spec.directories if d.count("/") > 1)
                   - set(spec.leaf_directories()))
    rng.shuffle(inner)
    objects = list(spec.objects)
    rng.shuffle(objects)
    objects = ZipfRanks(objects, ZIPF_S)
    directories = ZipfRanks(inner, ZIPF_S)
    names = sorted(mix)
    weights = [mix[name] for name in names]
    streams = []
    for cid in range(clients):
        crng = random.Random(f"client:{seed}:{cid}")
        created: List[str] = []
        made: List[str] = []
        stream: List[Op] = []
        for n, name in enumerate(crng.choices(names, weights,
                                              k=ops_per_client)):
            if name == "delete" and not created:
                name = "objstat"
            elif name == "rmdir" and not made:
                name = "dirstat"
            if name == "objstat":
                stream.append((name, (objects.pick(crng),)))
            elif name in ("dirstat", "readdir"):
                stream.append((name, (directories.pick(crng),)))
            elif name == "create":
                created.append(f"{directories.pick(crng)}/mx{cid}_{n}.bin")
                stream.append((name, (created[-1],)))
            elif name == "mkdir":
                made.append(f"{directories.pick(crng)}/mxd{cid}_{n}")
                stream.append((name, (made[-1],)))
            elif name == "delete":
                stream.append((name, (created.pop(),)))
            elif name == "rmdir":
                stream.append((name, (made.pop(),)))
            else:
                raise ValueError(f"unsupported op {name!r} in mix")
        streams.append(stream)
    return streams


class _DirRecorder:
    """Stands in for a system during workload setup: records the bulk
    mkdirs so they can be replayed into every freshly built system."""

    def __init__(self):
        self.dirs: List[str] = []

    def bulk_mkdir(self, path: str) -> None:
        self.dirs.append(path)


def storm_inputs(seed: int) -> Tuple[List[str], List[List[Op]]]:
    """The job-commit storm of :class:`SparkAnalyticsWorkload`.

    Each subtask mkdirs a private task dir under the job's staging dir,
    writes its part files, dirstats the dir and renames it into the one
    shared output dir, so every rename modifies the same parent.  The
    seed draws the job's warehouse root and staging depth.  Returns the
    dirs the job's setup bulk-creates and the per-subtask op streams.
    """
    shape = SHAPES["commit-storm"]
    rng = random.Random(f"storm:{seed}")
    job = SparkAnalyticsWorkload(
        num_clients=shape["clients"], parts_per_task=shape["parts_per_task"],
        rounds=shape["rounds"], depth=rng.randint(6, 10),
        root=f"/warehouse{rng.randrange(1000)}")
    recorder = _DirRecorder()
    job.setup(recorder)
    return recorder.dirs, [list(job.client_ops(cid))
                           for cid in range(job.num_clients)]


def build(workload: str, seed: int
          ) -> Tuple[NamespaceSpec, List[str], List[List[Op]]]:
    """Everything ``workload`` feeds the program for ``seed``: the
    prefilled namespace, the extra directories its set-up bulk-creates
    and one op stream per client or slot."""
    spec = namespace(workload, seed)
    if workload == "lookup-zipf":
        return spec, [], _mix_streams(spec, LOOKUP_MIX,
                                      SHAPES[workload]["clients"],
                                      SHAPES[workload]["ops_per_client"],
                                      seed)
    if workload == "live-mixed":
        return spec, [], _mix_streams(spec, DEFAULT_MIX,
                                      SHAPES[workload]["slots"],
                                      SHAPES[workload]["ops_per_slot"],
                                      seed)
    extra_dirs, streams = storm_inputs(seed)
    return spec, extra_dirs, streams


def fingerprint_of(workload: str, seed: int) -> str:
    """SHA-256 over every input of ``workload`` for ``seed``."""
    blob = json.dumps(build(workload, seed), default=vars,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
