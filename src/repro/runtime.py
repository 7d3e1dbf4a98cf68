"""The World: assembles a simulated machine and runs SPMD programs.

A :class:`World` builds the whole stack — simulator, fabric, one NIC +
address space + MPI endpoint (+ RMA engines, once constructed) per rank
— and runs *rank programs*: generator functions with the signature
``program(ctx, *args)`` where ``ctx`` is that rank's
:class:`RankContext`.  This mirrors how an MPI job launches N copies of
the same executable.

Example
-------
>>> from repro.runtime import World
>>> def program(ctx):
...     value = yield from ctx.comm.bcast(ctx.rank * 10, root=2)
...     return value
>>> World(n_ranks=4).run(program)
[20, 20, 20, 20]
"""

from __future__ import annotations

import numbers
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

from repro.machine.config import MachineConfig, generic_cluster
from repro.machine.node import Node, RankMemory, build_nodes
from repro.mpi.comm import Comm, Group
from repro.mpi.constants import ERRORS_RAISE, ERRORS_RETURN
from repro.mpi.endpoint import MpiEndpoint
from repro.network.config import NetworkConfig, generic_rdma
from repro.network.fabric import Fabric
from repro.network.nic import Nic
from repro.sim.core import SimulationError, Simulator
from repro.sim.process import Process, ProcessKilled
from repro.sim.rng import RngRegistry
from repro.sim.trace import Tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.plan import FaultPlan

__all__ = ["World", "RankContext"]


def _expect(name: str, value: Any, cls: type, optional: str = "") -> None:
    """Boundary check of one ``World`` argument: ``value`` must be a
    ``cls`` (``optional`` names what else is accepted).  A preset passed
    uncalled (``network=seastar_portals``) is the common slip."""
    if isinstance(value, cls):
        return
    hint = (f" — a callable: did you mean {name}={value.__name__}()?"
            if callable(value) and hasattr(value, "__name__") else "")
    raise TypeError(
        f"{name} must be {optional}a {cls.__name__}, got {value!r} "
        f"(type {type(value).__name__}){hint}")


class RankContext:
    """Everything one rank's program can touch.

    Attributes
    ----------
    rank, size:
        World rank and job size.
    sim:
        The shared simulator (for ``ctx.sim.now`` timestamps and
        waits composed from ``ctx.sim.timeout(...)``; a plain compute
        phase is ``yield duration``).
    comm:
        This rank's ``COMM_WORLD``.
    mem:
        The rank's :class:`~repro.machine.node.RankMemory` (address
        space + cache model).
    nic:
        The rank's NIC (mostly for stats).
    rma / mpi2 / armci / gasnet:
        Interface frontends, attached by the World when the respective
        subsystem is built.
    """

    def __init__(
        self,
        world: "World",
        rank: int,
        sim: Simulator,
        comm: Comm,
        mem: RankMemory,
        nic: Nic,
    ) -> None:
        self.world = world
        self.rank = rank
        self.size = world.n_ranks
        self.sim = sim
        self.comm = comm
        self.mem = mem
        self.nic = nic
        self.rma: Any = None
        self.mpi2: Any = None
        self.armci: Any = None
        self.gasnet: Any = None
        self.shmem: Any = None

    def compute(self, duration: float):
        """A local compute phase of ``duration`` µs (``yield from``)."""
        yield duration

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<RankContext rank={self.rank}/{self.size}>"


class World:
    """A complete simulated parallel machine.

    Parameters
    ----------
    n_ranks:
        Job size; ignored when ``machine`` is given (the machine's rank
        count wins).
    machine:
        :class:`~repro.machine.config.MachineConfig`; defaults to a
        generic coherent cluster with one rank per node.
    network:
        :class:`~repro.network.config.NetworkConfig`; defaults to
        :func:`~repro.network.config.generic_rdma`.
    seed:
        Master seed for every stochastic model element.
    trace:
        Enable structured tracing (``world.tracer``).
    serializer:
        Atomicity serializer for the strawman RMA engine: ``"auto"``
        (thread where the machine allows it, else coarse lock),
        ``"thread"``, ``"lock"``, or ``"progress"``.
    eager_threshold:
        Two-sided messages above this size use the rendezvous protocol.
    intra_node_network:
        Personality for transfers between ranks sharing a node; defaults
        to :func:`~repro.network.config.shared_memory_like` when the
        machine places multiple ranks per node, else no distinction.
    fault_plan:
        A :class:`~repro.faults.plan.FaultPlan` to arm.  When active it
        installs a seeded :class:`~repro.faults.injector.FaultInjector`
        on the fabric and the reliable transport on every NIC; an empty
        or ``None`` plan keeps every fault-free fast path bit-identical.
    rma_errhandler:
        ``ERRORS_RAISE`` (default: failed RMA ops raise their
        :class:`~repro.rma.target_mem.RmaError` out of wait/complete) or
        ``ERRORS_RETURN`` (errors are returned/left on the request).
    resilience:
        Opt into the ULFM-style failure-detection layer: ``True`` for
        defaults or a :class:`~repro.resil.detector.ResilienceConfig`.
        When ``None`` (default) nothing is built — no heartbeat
        processes, no extra packets, fault-free runs stay bit-identical.
        The runtime is available as ``world.resil``.
    """

    def __init__(
        self,
        n_ranks: Optional[int] = None,
        machine: Optional[MachineConfig] = None,
        network: Optional[NetworkConfig] = None,
        seed: int = 0,
        trace: bool = False,
        serializer: str = "auto",
        eager_threshold: int = 16384,
        intra_node_network: Optional[NetworkConfig] = None,
        fault_plan: Optional["FaultPlan"] = None,
        rma_errhandler: str = ERRORS_RAISE,
        resilience: Any = None,
    ) -> None:
        if n_ranks is not None and not (
                isinstance(n_ranks, numbers.Integral) and n_ranks >= 1):
            raise ValueError(
                f"n_ranks must be an integer >= 1, got {n_ranks!r}")
        if not isinstance(seed, numbers.Integral):
            raise ValueError(f"seed must be an integer, got {seed!r}")
        if not (isinstance(eager_threshold, numbers.Real)
                and eager_threshold >= 0):
            raise ValueError(
                f"eager_threshold must be a byte count >= 0, "
                f"got {eager_threshold!r}")
        # Configuration objects are checked by argument name before
        # anything is built: a wrong-typed one would otherwise surface
        # as an AttributeError deep in construction or in a rank program.
        if machine is not None:
            _expect("machine", machine, MachineConfig)
        if network is not None:
            _expect("network", network, NetworkConfig)
        if intra_node_network is not None:
            _expect("intra_node_network", intra_node_network, NetworkConfig)
        if fault_plan is not None:
            from repro.faults.plan import FaultPlan

            _expect("fault_plan", fault_plan, FaultPlan)
        if resilience is not None and not isinstance(resilience, bool):
            from repro.resil.detector import ResilienceConfig

            _expect("resilience", resilience, ResilienceConfig,
                    "None, a bool or ")
        if machine is None:
            machine = generic_cluster(n_nodes=8 if n_ranks is None else n_ranks)
        if n_ranks is not None and machine.n_ranks != n_ranks:
            if machine.ranks_per_node != 1:
                raise ValueError(
                    "n_ranks conflicts with the machine config; pass one "
                    "or the other"
                )
            machine = machine.with_nodes(n_ranks)
        self.machine = machine
        self.network = network if network is not None else generic_rdma()
        self.n_ranks = machine.n_ranks
        self.serializer_kind = serializer

        if intra_node_network is None and machine.ranks_per_node > 1:
            from repro.network.config import shared_memory_like

            intra_node_network = shared_memory_like()
        self.intra_node_network = intra_node_network

        self.sim = Simulator()
        self.tracer = Tracer(enabled=trace)
        #: The world's metrics registry (shared with the tracer, so
        #: ``tracer.bump`` counters and observability metrics live in
        #: one place).  See :mod:`repro.obs.metrics`.
        self.metrics = self.tracer.metrics
        self.rng = RngRegistry(seed)
        self.fabric = Fabric(
            self.sim, self.network, rng=self.rng, tracer=self.tracer,
            intra_config=intra_node_network,
            same_node=(
                (lambda a, b: machine.node_of_rank(a) == machine.node_of_rank(b))
                if intra_node_network is not None else None
            ),
            n_ranks=self.n_ranks,
        )
        #: Topology runtime when the network carries a routed topology
        #: (``None`` on flat fabrics — the pre-topology fast path).
        self.topo = None
        if self.network.topology is not None:
            from repro.topo.runtime import TopoRuntime

            topo = self.network.topology
            if machine.n_nodes > topo.n_hosts:
                raise ValueError(
                    f"machine has {machine.n_nodes} nodes but topology "
                    f"{topo.name!r} only has {topo.n_hosts} host ports"
                )
            rank_to_host = {
                r: topo.hosts[machine.node_of_rank(r)]
                for r in range(self.n_ranks)
            }
            self.topo = TopoRuntime(topo, rank_to_host, rng=self.rng,
                                    tracer=self.tracer)
            self.fabric.install_topology(self.topo)
        self.nodes: List[Node] = build_nodes(machine)
        self.memories: Dict[int, RankMemory] = {}
        self.nics: Dict[int, Nic] = {}
        self.endpoints: Dict[int, MpiEndpoint] = {}
        self.contexts: Dict[int, RankContext] = {}

        world_group = Group(range(self.n_ranks))
        for node in self.nodes:
            for rank in node.ranks:
                mem = node.memory(rank)
                nic = Nic(self.sim, rank, self.fabric)
                ep = MpiEndpoint(self.sim, rank, nic, machine.timings,
                                 eager_threshold=eager_threshold,
                                 peers=self.endpoints)
                comm = Comm(ep, world_group, context=("world",))
                self.memories[rank] = mem
                self.nics[rank] = nic
                self.contexts[rank] = RankContext(
                    self, rank, self.sim, comm, mem, nic
                )
        self.sim.context["world"] = self
        # Live fast path for barriers.  Always constructed; the NIC's
        # gate sends faulty and transport-armed worlds down the
        # message-by-message path (see repro.mpi.nexus).
        from repro.mpi.nexus import CollectiveNexus

        self.nexus = CollectiveNexus(self)
        self.sim.context["nexus"] = self.nexus
        self.fault_plan = fault_plan
        self.injector = None
        self.set_errhandler(rma_errhandler)
        self._rank_procs: Dict[int, Process] = {}
        if fault_plan is not None and fault_plan.active:
            # Must happen before the subsystems attach: the RMA engines
            # register their path-failure callbacks on nic.transport.
            from repro.faults.injector import FaultInjector

            injector = FaultInjector(fault_plan, self.rng, tracer=self.tracer)
            self.fabric.install_injector(injector)
            for nic in self.nics.values():
                nic.enable_reliability(fault_plan.transport)
            injector.arm(self)
            self.injector = injector
        #: Simulated time each rank was fault-killed (detection-latency
        #: and MTTR baselines; populated by :meth:`_kill_rank`).
        self._kill_times: Dict[int, float] = {}
        self._attach_subsystems()
        #: The resilience runtime (``None`` unless opted in).  Built
        #: after the subsystems attach: the detector exposes memory via
        #: the RMA engines and stacks its transport callbacks behind
        #: theirs.
        self.resil = None
        if resilience:
            from repro.resil.detector import ResilienceConfig, ResilienceRuntime

            config = resilience if isinstance(resilience, ResilienceConfig) \
                else None
            self.resil = ResilienceRuntime(self, config)

    # ------------------------------------------------------------------
    def _attach_subsystems(self) -> None:
        """Build and attach the RMA/baseline frontends to each context.

        Imported lazily to keep layering acyclic (those packages import
        machine/network/mpi, not the runtime).
        """
        from repro.rma.engine import build_rma
        from repro.mpi2rma.window import build_mpi2
        from repro.baselines.armci import build_armci
        from repro.baselines.gasnet import build_gasnet
        from repro.baselines.shmem import build_shmem

        build_rma(self)
        build_mpi2(self)
        build_armci(self)
        build_gasnet(self)
        build_shmem(self)

    # ------------------------------------------------------------------
    # Fault machinery
    # ------------------------------------------------------------------
    def set_errhandler(self, handler: str) -> None:
        """Switch the RMA error handler (``ERRORS_RAISE``/``ERRORS_RETURN``)."""
        if handler not in (ERRORS_RAISE, ERRORS_RETURN):
            # every consumer compares ``== ERRORS_RAISE``: a typo would
            # silently turn each failed op's error into a returned value
            raise ValueError(
                f"rma_errhandler must be ERRORS_RAISE ({ERRORS_RAISE!r}) or "
                f"ERRORS_RETURN ({ERRORS_RETURN!r}), got {handler!r}"
            )
        self.rma_errhandler = handler

    def fault_stats(self) -> Dict[str, Any]:
        """Aggregate fault-injection and reliability statistics.

        The historical keys (``injector``/``dead_dropped``/``transport``/
        ``counters``) keep their shapes; ``metrics`` adds the full
        registry snapshot (after publishing component gauges via
        :meth:`collect_metrics`).
        """
        stats: Dict[str, Any] = {
            "injector": dict(self.injector.stats) if self.injector else {},
            "dead_dropped": self.fabric.dead_dropped,
            "transport": {},
            "counters": self.metrics.counter_totals(),
        }
        for rank, nic in self.nics.items():
            if nic.transport is not None:
                stats["transport"][rank] = dict(nic.transport.stats)
        self.collect_metrics()
        stats["metrics"] = self.metrics.snapshot()
        return stats

    def collect_metrics(self) -> "Any":
        """Publish component stats into the metrics registry as gauges.

        NIC traffic counts, transport reliability stats and fault
        injector stats are kept in plain attributes on the hot paths;
        this pulls them into ``world.metrics`` (idempotent — gauges are
        set, not incremented) so one registry snapshot describes the
        whole run.  Returns the registry.
        """
        metrics = self.metrics
        for rank, nic in self.nics.items():
            metrics.gauge("nic.packets_sent", rank=rank).set(nic.packets_sent)
            metrics.gauge("nic.bytes_sent", rank=rank).set(nic.bytes_sent)
            metrics.gauge("nic.packets_received", rank=rank).set(
                nic.packets_received
            )
            if nic.transport is not None:
                for key, value in nic.transport.stats.items():
                    metrics.gauge(f"xport.{key}", rank=rank).set(value)
        metrics.gauge("fabric.dead_dropped").set(self.fabric.dead_dropped)
        if self.topo is not None:
            metrics.gauge("fabric.unroutable_dropped").set(
                self.fabric.unroutable_dropped)
            self.topo.publish_metrics(metrics, self.sim.now)
        if self.injector is not None:
            for key, value in self.injector.stats.items():
                metrics.gauge(f"fault.{key}").set(value)
        if self.resil is not None:
            for key, value in self.resil.stats.items():
                metrics.gauge(f"resil.{key}").set(value)
        for rank, ctx in self.contexts.items():
            engine = getattr(getattr(ctx, "rma", None), "engine", None)
            if engine is None:
                continue
            if engine.stats.get("notifies") or engine.stats.get("notify_waits"):
                metrics.gauge("notify.delivered", rank=rank).set(
                    engine.stats["notifies"])
                metrics.gauge("notify.waits", rank=rank).set(
                    engine.stats["notify_waits"])
            fresh = engine.board.unpublished_latencies()
            if fresh:
                hist = metrics.histogram("notify.latency_us", rank=rank)
                for value in fresh:
                    hist.observe(value)
        return metrics

    def _kill_rank(self, rank: int, kill_program: bool = True) -> None:
        """Fault injection: rank dies at the current simulated time.
        The fabric drops all its traffic; optionally its program process
        is killed too (it fails with ProcessKilled, reported as None)."""
        self._kill_times.setdefault(rank, self.sim.now)
        self.fabric.kill_rank(rank)
        if kill_program:
            proc = self._rank_procs.get(rank)
            if proc is not None:
                proc.kill()
        # A wait_notify watching the victim as its producer can never be
        # satisfied: sweep every survivor's notification board so the
        # wait surfaces a structured RmaError instead of hanging.
        for r, ctx in self.contexts.items():
            if r == rank:
                continue
            engine = getattr(getattr(ctx, "rma", None), "engine", None)
            if engine is not None:
                engine.board.fail_waiters(rank)

    def _restart_rank(self, rank: int) -> None:
        """Fault injection: rank comes back.  Every peer's transport
        flow and RMA path state shared with it resets (epoch restart);
        already-failed operations stay failed."""
        self.fabric.revive_rank(rank)
        for r, nic in self.nics.items():
            transport = nic.transport
            if transport is None:
                continue
            if r == rank:
                transport.reset_all()
            else:
                transport.reset_flow(rank)
        for r, ctx in self.contexts.items():
            engine = getattr(ctx.rma, "engine", None)
            if engine is None:
                continue
            if r == rank:
                engine.reset_all_paths()
            else:
                engine.reset_path(rank)

    # ------------------------------------------------------------------
    def run(
        self,
        program: Callable[..., Any],
        *args: Any,
        limit: Optional[float] = None,
        ranks: Optional[List[int]] = None,
    ) -> List[Any]:
        """Run ``program(ctx, *args)`` on every rank (or on ``ranks``).

        Returns per-rank return values in rank order.  Any rank raising
        propagates; a deadlock (event loop drained with ranks still
        blocked) raises :class:`~repro.sim.core.SimulationError`.
        """
        if limit is not None and not (
                isinstance(limit, numbers.Real) and limit >= 0):
            raise ValueError(
                f"limit must be None or a simulated time >= 0, got {limit!r}")
        target_ranks = list(ranks) if ranks is not None else list(range(self.n_ranks))
        for rank in target_ranks:
            if rank not in self.contexts:
                raise ValueError(
                    f"ranks must name ranks of this world (integers in "
                    f"[0, {self.n_ranks})), got {rank!r}"
                )
        procs = {}
        for rank in target_ranks:
            ctx = self.contexts[rank]
            procs[rank] = self.sim.spawn(
                program(ctx, *args), name=f"rank-{rank}"
            )
        self._rank_procs = procs
        # Stop when every rank program has finished — daemon processes
        # (serializer workers, progress pollers) never terminate, so
        # draining the heap is not a useful stop condition.
        pending = set(procs.values())
        for proc in procs.values():
            proc.add_callback(pending.discard)
        self.sim.run_while_pending(pending, limit)
        if self.fabric._pending_trains:
            # Lazily-applied op-trains whose arrival has passed but which
            # no later packet forced: drain them so post-run memory reads
            # observe the final state (exactly what the per-packet path
            # leaves behind).
            self.fabric.materialize_all_trains()
        results = []
        blocked = []
        for rank in target_ranks:
            proc = procs[rank]
            if not proc.triggered:
                blocked.append(rank)
            elif not proc.ok and not isinstance(proc.exception, ProcessKilled):
                raise proc.exception  # type: ignore[misc]
        if blocked:
            raise SimulationError(
                f"ranks {blocked} never completed "
                f"({'time limit reached' if limit is not None else 'deadlock'})"
            )
        for rank in target_ranks:
            proc = procs[rank]
            # A fault-killed rank reports None (it has no return value).
            results.append(proc.value if proc.ok else None)
        return results

    @property
    def now(self) -> float:
        """Current simulated time (µs)."""
        return self.sim.now

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<World {self.n_ranks} ranks on {self.machine.name} over "
            f"{self.network.name}>"
        )
