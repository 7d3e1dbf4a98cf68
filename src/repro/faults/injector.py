"""Runtime interpretation of a :class:`~repro.faults.plan.FaultPlan`.

The :class:`FaultInjector` is consulted by ``Nic.launch`` once per
message put in flight and returns a :class:`PacketFate`.  All
randomness comes from dedicated named streams
(``faults.path.{src}.{dst}``) of the world's
:class:`~repro.sim.rng.RngRegistry`, so

- two runs with the same seed and the same plan draw identical fates
  for every message (bit-identical simulations), and
- arming the injector never perturbs the fabric's jitter streams — a
  faulty run and a fault-free run stay comparable.

Scheduled faults are installed by :meth:`FaultInjector.arm` before the
workload starts: rank kills/restarts and link failures onto the
simulator, NIC stalls as windows on the NIC's injection queue.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Tuple

from repro.faults.plan import FaultPlan

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime import World
    from repro.sim.rng import RngRegistry
    from repro.sim.trace import Tracer

__all__ = ["PacketFate", "FaultInjector"]

#: XOR mask applied to a message's wire checksum to model payload
#: corruption.  The payload bytes themselves are never touched — a
#: retransmission resends the pristine data — but the receiver's
#: genuine checksum recomputation can no longer match.
CORRUPT_MASK = 0x5A5A5A5A

#: Fate shared by the (overwhelmingly common) unaffected messages.
_CLEAN: "PacketFate"


@dataclass(frozen=True, slots=True)
class PacketFate:
    """What becomes of one message put in flight."""

    drop: bool = False
    duplicate: bool = False
    corrupt: bool = False
    extra_delay: float = 0.0

    @property
    def clean(self) -> bool:
        return not (self.drop or self.duplicate or self.corrupt
                    or self.extra_delay > 0.0)


_CLEAN = PacketFate()
_DROP = PacketFate(drop=True)


class FaultInjector:
    """Draws per-message fates and schedules stalls/kills.

    Parameters
    ----------
    plan:
        The fault schedule to interpret.
    rng:
        The world's :class:`~repro.sim.rng.RngRegistry`; the injector
        derives one substream per (src, dst) path from it.
    tracer:
        Optional :class:`~repro.sim.trace.Tracer`; fault counters are
        bumped unconditionally, trace records only when enabled.
    """

    def __init__(self, plan: FaultPlan, rng: "RngRegistry",
                 tracer: "Tracer | None" = None) -> None:
        self.plan = plan
        self.rng = rng
        self.tracer = tracer
        self._streams: Dict[Tuple[int, int], object] = {}
        self.stats: Dict[str, int] = {
            "examined": 0,
            "dropped": 0,
            "duplicated": 0,
            "corrupted": 0,
            "delayed": 0,
            "hw_acks_dropped": 0,
            "stalls": 0,
            "kills": 0,
            "restarts": 0,
            "link_downs": 0,
            "link_restores": 0,
        }

    def _stream(self, src: int, dst: int):
        key = (src, dst)
        stream = self._streams.get(key)
        if stream is None:
            stream = self._streams[key] = self.rng.stream(
                f"faults.path.{src}.{dst}"
            )
        return stream

    # ------------------------------------------------------------------
    def fate(self, src: int, dst: int, kind: str, now: float) -> PacketFate:
        """Draw the fate of one message of ``kind`` put in flight from
        ``src`` to ``dst`` at ``now``."""
        self.stats["examined"] += 1
        stream = self._stream(src, dst)
        duplicate = corrupt = False
        extra_delay = 0.0
        for spec in self.plan.losses:
            if not spec.matches(src, dst, kind, now):
                continue
            if spec.drop_p and stream.random() < spec.drop_p:
                self.stats["dropped"] += 1
                self._trace(now, "drop", src, dst, kind)
                return _DROP
            if spec.dup_p and stream.random() < spec.dup_p:
                duplicate = True
            if spec.corrupt_p and stream.random() < spec.corrupt_p:
                corrupt = True
            if spec.delay_p and stream.random() < spec.delay_p:
                extra_delay += float(stream.exponential(spec.delay_mean))
        if not (duplicate or corrupt or extra_delay):
            return _CLEAN
        if duplicate:
            self.stats["duplicated"] += 1
            self._trace(now, "duplicate", src, dst, kind)
        if corrupt:
            self.stats["corrupted"] += 1
            self._trace(now, "corrupt", src, dst, kind)
        if extra_delay:
            self.stats["delayed"] += 1
            self._trace(now, "delay", src, dst, kind)
        return PacketFate(duplicate=duplicate, corrupt=corrupt,
                          extra_delay=extra_delay)

    def drop_hw_ack(self, src: int, dst: int, now: float) -> bool:
        """Whether to drop a hardware delivery ack flying ``src -> dst``.

        Hardware acks are NIC-generated and never retransmitted; losing
        one is recovered by the reliable transport's own ack (or by
        degradation to software acks).  Matched with the pseudo-kind
        ``"hw.ack"`` so plans can target acks specifically; specs with
        no kind filter apply too.
        """
        stream = self._stream(src, dst)
        for spec in self.plan.losses:
            if (spec.drop_p and spec.matches(src, dst, "hw.ack", now)
                    and stream.random() < spec.drop_p):
                self.stats["hw_acks_dropped"] += 1
                self._bump("fault.hw_ack_drop", src=src, dst=dst)
                return True
        return False

    # ------------------------------------------------------------------
    def arm(self, world: "World") -> None:
        """Hand each NIC its stall windows and schedule the plan's kills,
        restarts and link failures on the world's simulator (call once,
        before the workload runs)."""
        sim = world.sim
        for stall in self.plan.stalls:
            nic = world.nics.get(stall.rank)
            if nic is None:
                raise ValueError(f"stall names unknown rank {stall.rank}")
            self.stats["stalls"] += 1
            self._bump("fault.stall", rank=stall.rank)
            nic.stall(stall.start, stall.start + stall.duration)
        for kill in self.plan.kills:
            if kill.rank not in world.nics:
                raise ValueError(f"kill names unknown rank {kill.rank}")
            self.stats["kills"] += 1
            self._bump("fault.kill", rank=kill.rank)
            sim.schedule_call_at(max(kill.at, sim.now), world._kill_rank,
                                 kill.rank, kill.kill_program)
            if kill.restart_at is not None:
                self.stats["restarts"] += 1
                self._bump("fault.restart", rank=kill.rank)
                sim.schedule_call_at(max(kill.restart_at, sim.now),
                                     world._restart_rank, kill.rank)
        if self.plan.link_downs:
            topo = getattr(world, "topo", None)
            if topo is None:
                raise ValueError(
                    "the plan fails topology links but the world's fabric "
                    "is flat (no topology in the network config)"
                )
            for spec in self.plan.link_downs:
                if spec.v not in topo.topology.succ.get(spec.u, ()):
                    raise ValueError(
                        f"link-down names unknown link {spec.u!r} -> {spec.v!r}"
                    )
                self.stats["link_downs"] += 1
                self._bump("fault.link_down")
                sim.schedule_call_at(max(spec.at, sim.now), topo.fail_link,
                                     spec.u, spec.v, spec.both)
                if spec.restore_at is not None:
                    self.stats["link_restores"] += 1
                    self._bump("fault.link_restore")
                    sim.schedule_call_at(max(spec.restore_at, sim.now),
                                         topo.restore_link, spec.u, spec.v,
                                         spec.both)

    # ------------------------------------------------------------------
    def _bump(self, key: str, **labels) -> None:
        if self.tracer is not None:
            self.tracer.bump(key, **labels)

    def _trace(self, now: float, what: str, src: int, dst: int,
               kind: str) -> None:
        tracer = self.tracer
        if tracer is None:
            return
        tracer.bump(f"fault.{what}")
        if tracer.enabled:
            tracer.record(now, "fault", what, rank=src, dst=dst, kind_=kind)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<FaultInjector {self.plan!r} stats={self.stats}>"
