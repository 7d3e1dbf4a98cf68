"""ULFM-style failure detection over RMA heartbeats.

Each rank exposes a small *heartbeat region* (one int64 slot per peer)
and runs two daemon loops:

* a **heartbeat** loop that, every (jittered) ``heartbeat_interval``,
  one-sidedly puts a monotonically increasing counter into its slot in
  every unsuspected peer's region — fire-and-forget messages that ride
  the same fabric (and, on faulty runs, the same reliable transport)
  as application traffic;
* a **monitor** loop that polls the rank's own region and declares a
  peer *suspected* once its slot has not changed for
  ``suspicion_timeout`` simulated microseconds.

A second evidence source feeds the same verdict: when the reliable
transport declares a whole flow dead with ``kind == "rank_failed"``
(its retry budget exhausted against a peer the fabric knows is dead),
the detector suspects immediately — typically much faster than the
heartbeat timeout when the application was actively communicating.

Suspicion is **local** (each observer reaches its own verdict at its
own time) and **sticky**: a restarted rank is *not* re-admitted — its
replica state is stale, and ULFM semantics treat a failed rank as
failed forever; recovery happens by shrinking to the survivors (see
:meth:`repro.mpi.comm.Comm.shrink` / :meth:`~repro.mpi.comm.Comm.agree`
and :class:`repro.ga.replicated.ReplicatedGlobalArray`).

The whole subsystem is opt-in: a :class:`~repro.runtime.World` built
without ``resilience=`` constructs none of this, spawns zero extra
processes and sends zero extra messages, keeping the fault-free fast
path bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Set

import numpy as np

from repro.resil.errors import RankFailed

__all__ = ["ResilienceConfig", "ResilienceRuntime", "HB_KIND"]

#: Message kind of heartbeat puts (written straight into the
#: destination's heartbeat region when they land).
HB_KIND = "resil.hb"


@dataclass(frozen=True)
class ResilienceConfig:
    """Tuning knobs of the failure detector.

    Attributes
    ----------
    heartbeat_interval:
        Mean µs between heartbeat puts from each rank.
    suspicion_timeout:
        µs of heartbeat silence after which a peer is suspected.  Must
        comfortably exceed the interval plus worst-case delivery (a
        small multiple of the interval; the default is 5x).
    jitter:
        Fractional jitter on the interval (each wait is drawn uniformly
        from ``interval * [1-jitter, 1+jitter]`` on a seeded stream) so
        heartbeats from different ranks do not phase-lock.
    """

    heartbeat_interval: float = 200.0
    suspicion_timeout: float = 1000.0
    jitter: float = 0.25

    def __post_init__(self) -> None:
        if self.heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        if self.suspicion_timeout <= self.heartbeat_interval:
            raise ValueError(
                "suspicion_timeout must exceed heartbeat_interval "
                f"({self.suspicion_timeout} <= {self.heartbeat_interval})"
            )
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")


class ResilienceRuntime:
    """Per-world failure detector state and daemons.

    Built by the :class:`~repro.runtime.World` (``resilience=`` knob)
    after the RMA subsystems attach; spawns its daemon processes
    immediately (they start when the simulation runs and, being
    daemons, never keep it alive).
    """

    def __init__(self, world, config: Optional[ResilienceConfig] = None) -> None:
        self.world = world
        self.config = config if config is not None else ResilienceConfig()
        self.sim = world.sim
        self.n_ranks = world.n_ranks
        #: observer rank -> set of world ranks it has declared failed.
        self._suspected: Dict[int, Set[int]] = {
            r: set() for r in range(self.n_ranks)
        }
        #: observer rank -> notification callbacks.
        self._subs: Dict[int, List[Callable[[RankFailed], None]]] = {
            r: [] for r in range(self.n_ranks)
        }
        #: every verdict reached, in detection order (all observers).
        self.notices: List[RankFailed] = []
        self.stats = {"heartbeats": 0, "suspects": 0, "false_suspects": 0}

        # Heartbeat regions: one int64 slot per peer, exposed for remote
        # access (expose is non-collective and zero-time; the descriptor
        # is plain data, so collecting it world-side needs no exchange).
        self._hb_views: Dict[int, np.ndarray] = {}
        self._last_seen: Dict[int, np.ndarray] = {}
        self._last_change: Dict[int, np.ndarray] = {}
        self._counters: Dict[int, int] = {r: 0 for r in range(self.n_ranks)}
        for rank in range(self.n_ranks):
            space = world.memories[rank].space
            alloc = space.alloc(8 * self.n_ranks)
            engine = getattr(world.contexts[rank].rma, "engine", None)
            if engine is not None:
                engine.expose(alloc)  # visible to RMA like any window
            self._hb_views[rank] = space.view(alloc, "int64")
            self._last_seen[rank] = np.zeros(self.n_ranks, dtype=np.int64)
            self._last_change[rank] = np.zeros(self.n_ranks, dtype=np.float64)

        # Transport evidence: a flow declared dead against a dead rank
        # is an immediate verdict (only kind == "rank_failed" — retry
        # exhaustion on a live-but-lossy path or a routed partition must
        # not kill the peer).
        for rank, nic in world.nics.items():
            transport = nic.transport
            if transport is not None:
                transport.add_path_failure_callback(
                    self._make_transport_cb(rank)
                )

        for rank in range(self.n_ranks):
            self.sim.spawn(self._heartbeat_loop(rank), name=f"resil-hb-{rank}")
            self.sim.spawn(self._monitor_loop(rank), name=f"resil-mon-{rank}")

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def suspected(self, observer: int) -> FrozenSet[int]:
        """The set of ranks ``observer`` has declared failed."""
        return frozenset(self._suspected[observer])

    def subscribe(
        self, observer: int, callback: Callable[[RankFailed], None]
    ) -> None:
        """Call ``callback(notice)`` on each future verdict by
        ``observer``; verdicts already reached are replayed immediately
        (subscribers never miss a failure that predates them)."""
        self._subs[observer].append(callback)
        for notice in list(self.notices):
            if notice.observer == observer:
                callback(notice)

    def assert_failed(self, observer: int, rank: int) -> None:
        """Application-asserted failure (ULFM's local revoke trigger)."""
        self._suspect(observer, rank, via="manual")

    # ------------------------------------------------------------------
    # Daemons
    # ------------------------------------------------------------------
    def _on_heartbeat(self, rank: int, src: int, hb: int) -> None:
        """A heartbeat from ``src`` lands at ``rank``: its slot there
        now reads ``hb`` (the RMA put the heartbeat models)."""
        self._hb_views[rank][src] = hb

    def _make_transport_cb(self, observer: int):
        def on_path_failure(dst: int, failure) -> None:
            if getattr(failure, "kind", None) == "rank_failed":
                self._suspect(observer, dst, via="transport")

        return on_path_failure

    def _wait(self, rank: int):
        cfg = self.config
        delay = self.world.rng.uniform(
            f"resil.hb.{rank}",
            cfg.heartbeat_interval * (1.0 - cfg.jitter),
            cfg.heartbeat_interval * (1.0 + cfg.jitter),
        )
        return self.sim.timeout(delay)

    def _heartbeat_loop(self, rank: int):
        fabric = self.world.fabric
        nic = self.world.nics[rank]
        while True:
            yield self._wait(rank)
            if fabric.is_dead(rank):
                continue  # a dead process sends nothing
            self._counters[rank] += 1
            counter = self._counters[rank]
            self._hb_views[rank][rank] = counter  # own slot: local store
            suspected = self._suspected[rank]
            for peer in range(self.n_ranks):
                if peer == rank or peer in suspected:
                    continue
                nic.post(peer, HB_KIND, self._on_heartbeat,
                         (peer, rank, counter), 8)
                self.stats["heartbeats"] += 1

    def _monitor_loop(self, rank: int):
        cfg = self.config
        fabric = self.world.fabric
        view = self._hb_views[rank]
        seen = self._last_seen[rank]
        changed_at = self._last_change[rank]
        while True:
            yield self._wait(rank)
            now = self.sim.now
            if fabric.is_dead(rank):
                # A dead process observes nothing: freeze the clocks so
                # a restarted rank does not instantly suspect everyone.
                changed_at[:] = now
                continue
            moved = view != seen
            seen[moved] = view[moved]
            changed_at[moved] = now
            suspected = self._suspected[rank]
            for peer in range(self.n_ranks):
                if peer == rank or peer in suspected:
                    continue
                if now - changed_at[peer] > cfg.suspicion_timeout:
                    self._suspect(rank, peer, via="heartbeat")

    # ------------------------------------------------------------------
    def _suspect(self, observer: int, rank: int, via: str) -> None:
        if rank in self._suspected[observer] or rank == observer:
            return
        self._suspected[observer].add(rank)
        notice = RankFailed(
            rank=rank, observer=observer, detected_at=self.sim.now, via=via
        )
        self.notices.append(notice)
        self.stats["suspects"] += 1
        metrics = self.world.metrics
        metrics.counter("resil.suspects", via=via).inc()
        kill_time = getattr(self.world, "_kill_times", {}).get(rank)
        if kill_time is not None:
            metrics.histogram("resil.detect_latency").observe(
                self.sim.now - kill_time
            )
        else:
            # Suspicion of a rank that never died (drop storm outlasting
            # the timeout): counted, so sweeps can assert it never
            # happens at sane timeouts.
            self.stats["false_suspects"] += 1
            metrics.counter("resil.false_suspects").inc()
        if self.world.tracer.enabled:
            self.world.tracer.record(
                self.sim.now, "resil", "suspect", rank=observer,
                target=rank, via=via,
            )
        for callback in list(self._subs[observer]):
            callback(notice)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        total = sum(len(s) for s in self._suspected.values())
        return f"<ResilienceRuntime {self.n_ranks} ranks, {total} verdicts>"
