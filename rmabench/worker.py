"""One repeat of one workload, in this (fresh) process.

``python3 -m rmabench.worker --workload W --seed N --spawned T [--trace]
[--quick]`` runs the workload once, with the host-speed reference
(:mod:`rmabench.calibrate`) on either side, and prints one JSON document
on its last stdout line.  The harness (:mod:`rmabench.harness`) starts one such
process per repeat so that every sample pays the same cold interpreter,
imports and heap.

The :class:`Meter` is the only instrumentation: it wraps the library's
two public entry points from the outside — ``World.__init__`` (outside a
timed section its time is set-up) and ``World.run`` (after which the
world's public counters are harvested) — and times the sections the
workload marks with :meth:`Meter.timed`.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import resource
import sys
import time
from collections import Counter
from contextlib import contextmanager
from typing import Any, Dict, Optional

from rmabench import SRC

__all__ = ["Meter", "run_once", "main"]


class Meter:
    """Host-time and counter accounting for one worker process."""

    def __init__(self, spawned: float, profile: bool = False) -> None:
        #: ``time.time()`` taken by the harness just before it started
        #: this process: set-up includes interpreter start and imports.
        self.spawned = spawned
        self.profiler: Optional[cProfile.Profile] = (
            cProfile.Profile() if profile else None)
        self.timed_s = 0.0          # inside timed sections
        self.ctor_s = 0.0           # World(...) between timed sections
        self.until_first_s: Optional[float] = None
        self.counters: Counter = Counter()
        self._section_start: Optional[float] = None
        self._installed = None

    # -- the two library entry points, wrapped from outside -------------
    def install(self) -> None:
        from repro.runtime import World

        init, run = World.__init__, World.run
        meter = self

        def timed_init(world, *args, **kwargs):
            if not meter._in_section:
                # Every world starts on a collected heap: the previous
                # world is one big reference cycle, and whether the
                # collector happens to run before the next one is built
                # moved fig2's peak RSS between 140 and 165 MiB.
                gc.collect()
            t0 = time.perf_counter()
            try:
                init(world, *args, **kwargs)
            finally:
                # A world built inside a timed section (``conform``:
                # ``run_program`` builds its own) belongs to that
                # section; up to the first section ``until_first_s``
                # has it; any other is set-up of its own.
                if meter.until_first_s is not None and not meter._in_section:
                    meter.ctor_s += time.perf_counter() - t0

        def harvested_run(world, *args, **kwargs):
            try:
                return run(world, *args, **kwargs)
            finally:
                meter.harvest(world)

        World.__init__, World.run = timed_init, harvested_run
        self._installed = (World, init, run)

    def uninstall(self) -> None:
        if self._installed is not None:
            World, init, run = self._installed
            World.__init__, World.run = init, run
            self._installed = None

    @property
    def _in_section(self) -> bool:
        return self._section_start is not None

    @contextmanager
    def timed(self):
        """A timed section: a call into the library's run entry points."""
        if self._in_section:
            raise RuntimeError("timed sections do not nest")
        if self.until_first_s is None:
            self.until_first_s = time.time() - self.spawned
        if self.profiler is not None:
            self.profiler.enable()
        self._section_start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - self._section_start
            if self.profiler is not None:
                self.profiler.disable()
            self._section_start = None
            self.timed_s += elapsed

    # -- counters ---------------------------------------------------------
    def harvest(self, world) -> None:
        """Add one finished world's public statistics."""
        c = self.counters
        for ctx in world.contexts.values():
            stats = ctx.rma.stats
            c["rma.puts"] += stats["puts"]
            c["rma.accumulates"] += stats["accumulates"]
            c["rma.ops"] += (stats["puts"] + stats["gets"]
                             + stats["accumulates"] + stats["rmws"]
                             + stats["rmis"])
            c["rma.train_ops"] += stats["train_ops"]
            c["rma.shm_ops"] += stats["shm_ops"]
            c["rma.bytes_put"] += stats["bytes_put"]
            c["notify.delivered"] += stats["notifies"]
        for nic in world.nics.values():
            c["network.packets_sent"] += nic.packets_sent
            c["network.bytes_sent"] += nic.bytes_sent
            if nic.transport is not None:
                c["network.retransmits"] += nic.transport.stats["retransmits"]
        if world.topo is not None:
            c["topo.hops"] += world.topo.hops_traversed

    def counter_metrics(self) -> Dict[str, float]:
        c = self.counters
        writes = c["rma.puts"] + c["rma.accumulates"]
        return {
            "rma.ops": c["rma.ops"],
            "rma.train_ops": c["rma.train_ops"],
            "rma.train_share": c["rma.train_ops"] / writes if writes else 0.0,
            "rma.shm_ops": c["rma.shm_ops"],
            "rma.bytes_put": c["rma.bytes_put"],
            "network.packets_sent": c["network.packets_sent"],
            "network.bytes_sent": c["network.bytes_sent"],
            "network.packets_per_op": (
                c["network.packets_sent"] / c["rma.ops"]
                if c["rma.ops"] else 0.0),
            "network.retransmits": c["network.retransmits"],
            "topo.hops": c["topo.hops"],
            "notify.delivered": c["notify.delivered"],
        }

    @property
    def setup_s(self) -> float:
        return (self.until_first_s or 0.0) + self.ctor_s


def run_once(workload: str, seed: int, spawned: float, trace: bool = False,
             quick: bool = False) -> Dict[str, Any]:
    """Run ``workload`` once; return the worker's result document."""
    from rmabench.workloads import WORKLOADS

    spec = WORKLOADS[workload]
    meter = Meter(spawned, profile=trace)
    meter.install()
    try:
        outcome = spec.run(meter, seed, quick)
    finally:
        meter.uninstall()
    doc: Dict[str, Any] = {
        "workload": workload,
        "seed": seed,
        "quick": quick,
        "traced": trace,
        "wall_s": meter.timed_s,
        "setup_s": meter.setup_s,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_us": outcome.sim_us,
        "ops": outcome.ops,
        "failed": outcome.failed,
        "failures": outcome.failures[:20],
        "detail": outcome.detail,
        "counters": meter.counter_metrics(),
    }
    if trace:
        from rmabench.ledger import build_ledger, entries_from_profile

        doc["ledger"] = build_ledger(entries_from_profile(meter.profiler))
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m rmabench.worker")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--spawned", type=float, default=None,
                        help="time.time() when the harness started us")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    spawned = args.spawned if args.spawned is not None else time.time()
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    if args.workload == "micro":
        from rmabench.micro import run_micro

        doc = {"workload": "micro", "micro": run_micro(quick=args.quick)}
    else:
        from rmabench.calibrate import host_x, kernel

        # The host-speed reference, beside the workload on both sides;
        # its own time is not the workload's set-up.
        samples = [kernel(), kernel()]
        doc = run_once(args.workload, args.seed, spawned + sum(samples),
                       trace=args.trace, quick=args.quick)
        samples += [kernel(), kernel()]
        doc["host_x"] = host_x(samples)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
