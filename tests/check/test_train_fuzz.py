"""Conformance fuzzing of the op-train fast path (ISSUE 6).

The generator's op-train clause emits long attribute-uniform put runs;
untraced runs (``trace=False``) let the engine's vectorized train path
engage.  The differential oracle runs every program twice — train path
forced on, then forced off — and requires bit-identical final memory,
fetch returns, and simulated end time.  The ``train_mistime`` mutation
proves the oracle is not vacuous: a planted one-element timing bug in
the batch path must be caught.

PR 19 widened the question to every fabric of the registry and to the
notify clause (120 programs): on the flat fabrics the wider sweep found
an element booked at issue clamping a reply injected before it, kept
below as a six-op program.  A second differential holds every fast
path on against the op-train and the live control plane both off, so
posted requests and replies and late-acked writes are asked too.
"""

import pytest

from repro.check import generate_program, run_program
from repro.check.runner import FABRICS
from repro.datatypes import BYTE
from repro.network.config import generic_rdma
from repro.network.fabric import Fabric
from repro.runtime import World
from tests.conftest import fast_paths

#: Fabrics on which no op can ride a train (arrival order is not FIFO).
TRAINLESS = ("torus-adaptive", "unordered")


def _run(program, fabric, seed, train, **kw):
    with fast_paths(train=train):
        return run_program(program, fabric, seed, trace=False, **kw)


def _observables(result):
    return (result.sim_time, result.finals, result.returns)


@pytest.mark.parametrize("program_seed", range(25))
def test_train_on_off_differential_sweep(program_seed):
    """25-seed sweep: the train path must not move a single simulated
    observable on the flat ordered fabrics where it engages."""
    program = generate_program(program_seed)
    for fabric in ("ordered", "portals"):
        on = _run(program, fabric, seed=program_seed, train=True)
        off = _run(program, fabric, seed=program_seed, train=False)
        assert _observables(on) == _observables(off), (
            f"program seed {program_seed} on {fabric}: train path "
            f"changed simulated results")
        assert off.stats["train_ops"] == 0


@pytest.mark.parametrize("notify", [False, True], ids=["plain", "notify"])
@pytest.mark.parametrize("fabric", sorted(FABRICS))
def test_train_on_off_differential_on_every_fabric(fabric, notify):
    """120 programs per fabric, with and without the notify clause: the
    train must not move a simulated observable anywhere it engages —
    routed fabrics and notified puts included — and must engage on
    every fabric that delivers in order."""
    engaged = 0
    for seed in range(120):
        program = generate_program(seed, notify=notify)
        on = _run(program, fabric, seed=seed, train=True)
        off = _run(program, fabric, seed=seed, train=False)
        assert (_observables(on), on.notify_counts) == \
            (_observables(off), off.notify_counts), (
                f"program seed {seed} on {fabric}: train path changed "
                f"simulated results")
        assert off.stats["train_ops"] == 0
        engaged += on.stats["train_ops"]
    assert (engaged == 0) == (fabric in TRAINLESS), engaged


@pytest.mark.parametrize("notify", [False, True], ids=["plain", "notify"])
@pytest.mark.parametrize("fabric", sorted(FABRICS))
def test_all_on_off_differential_on_every_fabric(fabric, notify):
    """60 programs per fabric: every fast path on — the op-train
    (late-acked remote-complete writes included) and the live control
    plane (posted requests and replies included) — against both off."""
    for seed in range(60):
        program = generate_program(seed, notify=notify)
        on = run_program(program, fabric, seed, trace=False)
        with fast_paths(train=False, nexus=False):
            off = run_program(program, fabric, seed, trace=False)
        assert (_observables(on), on.notify_counts) == \
            (_observables(off), off.notify_counts), (
                f"program seed {seed} on {fabric}: the fast paths changed "
                f"simulated results")


def test_booked_at_issue_never_clamps_a_reply_injected_before_it(
        monkeypatch):
    """Seeds 81 / 91 / 38 of the wide sweep, shrunk: rank 0 issues three
    puts to rank 1 while rank 1's fetch-add is served on rank 0.  The
    third put is issued at 14.207 us behind the reply still queued on
    rank 0's NIC (injected 18.807) and is itself injected at 19.007.
    Booking its arrival (23.007) at issue FIFO-clamped the reply from
    its natural 22.807 to 23.007000001 — behind a put injected after it
    — and the fetch-add returned 0.2 us late.  Nothing in this program
    is dense enough to clamp on the per-packet arm, so any arrival that
    is not ``now + latency`` is that bug."""
    flights = []
    arrival = Fabric.arrival

    def spy(self, src, dst, wire_bytes):
        landed = arrival(self, src, dst, wire_bytes)
        flights.append((landed, self.sim.now + self.config.latency))
        return landed

    monkeypatch.setattr(Fabric, "arrival", spy)

    def program(ctx):
        alloc, tmems = yield from ctx.rma.expose_collective(1024)
        yield from ctx.comm.barrier()
        fetched = None
        if ctx.rank == 0:
            src = ctx.mem.space.alloc(96, fill=130)
            for disp in (816, 832, 528):
                yield from ctx.rma.put(src, 0, 96, BYTE, tmems[1], disp, 96,
                                       BYTE)
        else:
            src = ctx.mem.space.alloc(160, fill=6)
            yield from ctx.rma.complete(ctx.comm, 0)
            yield from ctx.rma.put(src, 0, 160, BYTE, tmems[0], 592, 160,
                                   BYTE, blocking=True)
            yield from ctx.rma.fetch_and_add(tmems[0], 24, "int64", 652)
            fetched = ctx.sim.now
        yield from ctx.rma.complete_collective(ctx.comm)
        return fetched, ctx.sim.now

    for train in (True, False):
        del flights[:]
        with fast_paths(train=train):
            world = World(n_ranks=2, network=generic_rdma())
            (_, end), (fetched, _) = world.run(program)
        assert (round(fetched, 6), round(end, 6)) == (22.807, 36.607), train
        assert world.contexts[0].rma.stats["train_ops"] == (3 if train else 0)
        assert all(landed == natural for landed, natural in flights), train


def test_generated_programs_reach_the_train_path():
    """The op-train clause must actually drive the fast path: across
    the sweep's seeds, untraced runs issue a healthy number of train
    ops (not a degenerate boundary where the path never engages)."""
    engaged = 0
    for seed in range(25):
        program = generate_program(seed)
        result = _run(program, "portals", seed=seed, train=True)
        engaged += result.stats["train_ops"]
    assert engaged > 50


def test_train_path_stays_on_when_traced():
    """Traced runs (the consistency-oracle configuration) take the batch
    path as untraced ones do — tracing changes no path and no number,
    so the oracle judges the train."""
    program = generate_program(3)
    with fast_paths(train=True):
        traced = run_program(program, "portals", seed=3)  # trace=True
        quiet = run_program(program, "portals", seed=3, trace=False)
    assert traced.stats["train_ops"] == quiet.stats["train_ops"] > 0
    assert _observables(traced) == _observables(quiet)
    assert len(traced.history) > 0


def _mistime_caught_on(fabric):
    caught = []
    for seed in range(10):
        program = generate_program(seed)
        clean = _run(program, fabric, seed=seed, train=True)
        if clean.stats["train_ops"] == 0:
            continue
        mutated = _run(program, fabric, seed=seed, train=True,
                       mutations=("train_mistime",))
        if _observables(mutated) != _observables(clean):
            caught.append(seed)
    return caught


def test_train_mistime_mutation_is_caught():
    """Planted batch-path bug: mis-timing one train element per
    destination must surface in the differential observables on at
    least one sweep seed (it shifts injections, arrivals and the
    closing flush round trip)."""
    assert _mistime_caught_on("portals"), \
        "train_mistime mutation was never detected"


def test_train_mistime_mutation_is_caught_on_a_routed_fabric():
    """The same bug planted in elements that book their arrivals at
    the injection instant: the shifted injections reserve the links
    later, and the run diverges."""
    assert _mistime_caught_on("torus"), \
        "train_mistime mutation was never detected on the torus"


def test_mistime_mutation_inert_without_train():
    """The mutation hooks the batch path only: with the train disabled
    the mutated run must match the clean per-op run exactly."""
    program = generate_program(0)
    clean = _run(program, "portals", seed=0, train=False)
    mutated = _run(program, "portals", seed=0, train=False,
                   mutations=("train_mistime",))
    assert _observables(mutated) == _observables(clean)
