"""``Nic.reserve`` against the injector coroutine it replaced.

The NIC's injection queue used to be a process behind a ``Store``; it is
now the closed form ``start = max(now, reserved)``, pushed past any stall
window, ``reserved = start + ser``.  The deleted process lives on here as
the reference: both are driven through seeded send schedules in one
simulator and must inject the same packets in the same order at the same
times.  The rest of the file pins what was only implicit before: the
stall rule, the tie rule on a shared routed link, the process count, and
that the queue is FIFO whatever mix of callers writes the reservation.
"""

import itertools
import os
import random

import pytest

from repro.faults import FaultPlan
from repro.network import Fabric, NetworkConfig, Nic, Packet, seastar_portals
from repro.runtime import World
from repro.sim import RngRegistry, Simulator
from repro.sim.resources import Store
from repro.topo import Crossbar

SEED = int(os.environ.get("CHAOS_SEED", "7"))


class CoroutineInjector:
    """The injector process as it stood in ``Nic`` before the reservation
    replaced it (minus counters, tracing and the fabric hand-off)."""

    def __init__(self, sim):
        self.sim = sim
        self._queue = Store(sim)
        self._reserved_until = 0.0
        self.pending = 0
        self.injected = []  # (tag, time)
        sim.spawn(self._injector(), name="reference-nic")

    def stall_until(self, until):
        self._reserved_until = max(self._reserved_until, until)

    def send(self, tag, ser):
        self.pending += 1
        self._queue.put((tag, ser))

    def _injector(self):
        while True:
            tag, ser = yield from self._queue.get()
            while self.sim.now < self._reserved_until:
                yield self.sim.timeout(self._reserved_until - self.sim.now)
            yield self.sim.timeout(ser)
            self.pending -= 1
            self.injected.append((tag, self.sim.now))


SIZES = (0, 0, 8, 64, 512, 1000, 4064)


def make_schedule(rng, stalls):
    """``(instants, windows)``: ``instants`` is a sorted list of
    ``(time, action, sizes)`` with 5-60 sends in all — same-instant
    bursts, gaps longer than any backlog, mixed sizes; ``action`` is
    ``"send"`` or ``"foreign"`` (an op-train writing the reservation
    itself, which only ever happened at an idle instant).
    ``windows`` are 0-2 stall windows, some opening exactly at a send
    instant, some overlapping."""
    n_sends = rng.randint(5, 60)
    instants = []
    t = rng.choice((0.0, rng.uniform(0.0, 50.0)))
    left = n_sends
    while left:
        k = min(left, rng.choice((1, 1, 1, 2, 3, 8)))
        sizes = [rng.choice(SIZES) if rng.random() < 0.8
                 else rng.randrange(0, 4065) for _ in range(k)]
        foreign = not stalls and rng.random() < 0.25
        instants.append((t, "foreign" if foreign else "send", sizes))
        left -= k
        t += rng.choice((0.0, rng.uniform(0.0, 1.5), rng.uniform(0.0, 1.5),
                         rng.uniform(20.0, 200.0)))
    windows = []
    for _ in range(rng.randint(1, 2) if stalls else 0):
        if windows and rng.random() < 0.4:
            opens = rng.uniform(*windows[0])  # overlap the first window
        elif rng.random() < 0.3:
            opens = rng.choice(instants)[0]
        else:
            opens = rng.uniform(0.0, max(t, 1.0))
        windows.append((opens, opens + rng.uniform(0.5, 30.0)))
    return instants, windows


def run_both(instants, windows, cfg):
    """Drive the reference and a real NIC with one schedule in one
    simulator; returns their ``[(packet number, injection time)]`` and
    how many foreign writes found the NIC idle."""
    sim = Simulator()
    fabric = Fabric(sim, cfg, rng=RngRegistry(0))
    nic, sink = Nic(sim, 0, fabric), Nic(sim, 1, fabric)
    sink.register_handler("test", lambda p: None)
    ref = CoroutineInjector(sim)
    # as FaultInjector.arm did / does, before any traffic
    for opens, until in windows:
        sim.schedule_call(opens, ref.stall_until, until)
        nic.stall(opens, until)
    got = []
    wrote = []
    numbers = itertools.count()

    def send(sizes):
        for nbytes in sizes:
            number = next(numbers)
            packet = Packet(src=0, dst=1, kind="test", data_bytes=nbytes)
            ref.send(number, cfg.serialization_time(packet.wire_bytes))
            nic.send(packet)
            packet.ev_injected.add_callback(
                lambda ev, number=number: got.append((number, ev.value)))

    def foreign(sizes):
        if ref.pending:
            # the deleted nic-busy / _pending gates: not idle, so the
            # train stood down and sent packet by packet
            send(sizes)
            return
        # TrainRoute.issue: a running sum off the standing
        # reservation, written back without an event
        wrote.append(sim.now)
        for target in (ref, nic):
            t = max(sim.now, target._reserved_until)
            for nbytes in sizes:
                t += cfg.serialization_time(32 + nbytes)
            target._reserved_until = t

    for when, action, sizes in instants:
        sim.schedule_call(when, send if action == "send" else foreign, sizes)
    sim.run()
    assert not ref.pending
    return ref.injected, got, len(wrote)


CONFIGS = (seastar_portals(),
           NetworkConfig(latency=1.0, gap=0.2, byte_time=0.0006))


def test_equals_the_coroutine_without_stalls():
    injections = foreign = 0
    for i in range(260):
        rng = random.Random(SEED * 100003 + i)
        instants, windows = make_schedule(rng, stalls=False)
        ref, got, wrote = run_both(instants, windows, CONFIGS[i % 2])
        assert [n for n, _ in got] == [n for n, _ in ref], i
        assert [repr(t) for _, t in got] == [repr(t) for _, t in ref], i
        injections += len(got)
        foreign += wrote
    assert injections > 4000 and foreign > 200


def test_equals_the_coroutine_with_stalls():
    """With stall windows the coroutine woke at ``now + (until - now)``,
    which rounds; the reservation starts at ``until`` itself.  Order is
    equal, times agree to the last few bits."""
    moved = injections = 0
    for i in range(200):
        rng = random.Random(SEED * 100003 + 50021 + i)
        instants, windows = make_schedule(rng, stalls=True)
        ref, got, _ = run_both(instants, windows, CONFIGS[i % 2])
        assert [n for n, _ in got] == [n for n, _ in ref], i
        for (_, a), (_, b) in zip(got, ref):
            assert abs(a - b) <= 4e-13 * b, (i, a, b)
            moved += a != b
        injections += len(got)
    assert injections > 4000
    assert moved < injections // 20


# -- the stall rule, exactly ---------------------------------------------

def _injection_times(sends, windows, gap=2.0):
    """Injection times of packets handed to one NIC at ``sends`` (each
    serializes for ``gap``) under stall ``windows``."""
    cfg = NetworkConfig(latency=1.0, gap=gap, byte_time=0.0)
    sim = Simulator()
    fabric = Fabric(sim, cfg, rng=RngRegistry(0))
    nic, sink = Nic(sim, 0, fabric), Nic(sim, 1, fabric)
    sink.register_handler("test", lambda p: None)
    for opens, until in windows:
        nic.stall(opens, until)
    packets = []
    for when in sends:
        sim.schedule_call(when, lambda: packets.append(
            nic.send(Packet(src=0, dst=1, kind="test"))))
    sim.run()
    return [p.ev_injected.value for p in packets]


class TestStallRule:
    def test_a_packet_already_serializing_finishes_on_time(self):
        assert _injection_times([4.0], [(5.0, 50.0)]) == [6.0]

    def test_a_turn_inside_the_window_starts_at_its_end(self):
        assert _injection_times([5.0], [(5.0, 50.0)]) == [52.0]
        assert _injection_times([49.9], [(5.0, 50.0)]) == [52.0]
        # the window is half open: a turn at `until` is not held
        assert _injection_times([50.0], [(5.0, 50.0)]) == [52.0]
        assert _injection_times([50.5], [(5.0, 50.0)]) == [52.5]

    def test_a_backlog_straddling_the_start_is_held(self):
        # four packets at t=0, 2 us each: the third's turn (t=4) is the
        # last before the window; the fourth's (t=6) falls inside it
        assert _injection_times([0.0] * 4, [(5.0, 50.0)]) == [
            2.0, 4.0, 6.0, 52.0]
        # ... and a packet handed over later queues behind the held one
        assert _injection_times([0.0] * 4 + [10.0], [(5.0, 50.0)])[-1] == 54.0

    def test_overlapping_windows_compose(self):
        assert _injection_times([6.0], [(5.0, 20.0), (15.0, 40.0)]) == [42.0]
        # a window inside another changes nothing; handed over in any order
        assert _injection_times([6.0], [(10.0, 12.0), (5.0, 20.0)]) == [22.0]
        # disjoint windows each hold the turns that fall in them
        assert _injection_times([6.0, 6.0, 30.0],
                                [(5.0, 20.0), (23.0, 40.0)]) == [
            22.0, 24.0, 42.0]

    def test_the_fault_plan_hands_the_window_to_the_nic(self):
        world = World(n_ranks=2, network=seastar_portals(),
                      fault_plan=FaultPlan().drop(0.0).stall(
                          rank=1, start=5.0, duration=500.0))
        assert world.nics[1]._stalls == [(5.0, 505.0)]
        assert world.nics[0]._stalls == []
        assert world.fault_stats()["injector"]["stalls"] == 1


# -- the routed tie rule --------------------------------------------------

def _shared_link(form):
    """Ranks 0 and 1 send to rank 2 over a crossbar, so every message
    crosses the switch -> host-2 link — as packets, or posted
    (``form="post"``: ``Nic.post``, the lean form).  Rank 0 hands its
    NIC two small messages at t=0 (1 us each: the second is injected at
    t=2); rank 1 hands over a large one at t=0.5 (1.5 us: injected at
    t=2 too).  All times are dyadic, so the two injections are
    bit-identical instants."""
    bt = 1.0 / 1024
    world = World(n_ranks=3, network=NetworkConfig(
        gap=1.0, byte_time=bt,
        topology=Crossbar(3, link_latency=0.5, link_byte_time=bt)))
    sim, nics = world.sim, world.nics
    arrivals = []

    def landed(src, data_bytes):
        arrivals.append((src, data_bytes, sim.now))

    nics[2].register_handler("test", lambda p: landed(p.src, p.data_bytes))

    def send(src, data_bytes):
        if form == "post":
            nics[src].post(2, "test", landed, (src, data_bytes), data_bytes)
        else:
            nics[src].send(Packet(src=src, dst=2, kind="test",
                                  data_bytes=data_bytes))

    sim.schedule_call(0.0, send, 0, 0)
    sim.schedule_call(0.0, send, 0, 0)
    sim.schedule_call(0.5, send, 1, 1536 - 32)
    sim.run()
    return arrivals


@pytest.mark.parametrize("form", ["packet", "post"])
def test_simultaneous_injections_reserve_a_shared_link_in_send_order(form):
    """Both NICs inject at t=2.0; the shared link goes to the packet
    that was handed to its NIC first (rank 0's second, at t=0), so the
    large packet handed over at t=0.5 does not hold the small one up.
    (The injector coroutine started rank 0's second serialization at
    t=1, after rank 1's at t=0.5, and reserved the link the other way
    round: the small packet arrived at 6.03125.)"""
    small = 32 / 1024  # link serialization of a header-only packet
    assert _shared_link(form) == [
        (0, 0, 1.0 + 2 * (small + 0.5)),   # 2.0625
        (0, 0, 2.0 + 2 * (small + 0.5)),   # 3.0625
        (1, 1504, 2.0 + 2 * (1.5 + 0.5)),  # 6.0
    ]


# -- no NIC process -------------------------------------------------------

def test_a_flat_256_rank_world_spawns_one_process_per_rank(monkeypatch):
    names = []
    spawn = Simulator.spawn

    def recording_spawn(self, generator, name=None):
        names.append(name)
        return spawn(self, generator, name=name)

    monkeypatch.setattr(Simulator, "spawn", recording_spawn)
    world = World(n_ranks=256, network=seastar_portals())
    # what is left per rank is the serializer's communication thread
    assert world.sim._processes_spawned == 256 == len(names)
    assert not any(str(name).startswith("nic-") for name in names)
