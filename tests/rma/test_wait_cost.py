"""What waiting costs the kernel on a quiet world: a CPU charge is a
nap (no ``Timeout``), a train put builds one event (its local
completion), and a due event wakes its waiter from its own heap entry
(no urgent-queue hop)."""

from collections import Counter

from repro.datatypes import BYTE
from repro.network.config import seastar_portals
from repro.runtime import World
from repro.sim.events import DeferredEvent, Event

PUTS = 64


def _two_ranks(program):
    world = World(n_ranks=2, network=seastar_portals())
    return world, world.run(program)


def test_a_train_put_loop_builds_no_timeout_and_one_event_per_put(
        monkeypatch):
    """64 non-blocking puts and one ``complete_all`` on rank 0: every
    put rides the op-train and builds its ``DeferredEvent``; the only
    other events are the completion's own two (the flush waiter's event
    and the ``AllOf`` the caller waits on).  Issue and completion
    charges build nothing."""
    built = []
    counting = [False]

    def watch(cls):
        init = cls.__init__

        def counted(self, *args, **kwargs):
            if counting[0]:
                built.append(self)  # held: ids stay distinct
            init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)

    watch(Event)
    watch(DeferredEvent)

    def program(ctx):
        alloc, tmems = yield from ctx.rma.expose_collective(PUTS * 64)
        src = ctx.mem.space.alloc(64, fill=ctx.rank + 1)
        yield from ctx.comm.barrier()
        if ctx.rank == 0:
            counting[0] = True
            for i in range(PUTS):
                yield from ctx.rma.put(src, 0, 64, BYTE, tmems[1], i * 64,
                                       64, BYTE, blocking=False)
            errs = yield from ctx.rma.engine.complete_all()
            counting[0] = False
            assert errs == []
        yield from ctx.comm.barrier()

    world, _ = _two_ranks(program)
    assert world.contexts[0].rma.stats["train_ops"] == PUTS
    kinds = Counter(type(ev).__name__
                    for ev in {id(ev): ev for ev in built}.values())
    assert kinds == {"DeferredEvent": PUTS, "Event": 1, "AllOf": 1}


def test_a_blocking_put_resumes_from_its_due_event_heap_entry(monkeypatch):
    """A blocking train put waits on its local completion, a
    ``DeferredEvent`` whose armed timer fires at the due instant: the
    waiter resumes inside that heap entry and leaves nothing on the
    urgent queue (the next put's charge is a heap entry)."""
    left = []
    fire = DeferredEvent._fire

    def watched(self, *value):
        fire(self, *value)
        left.append(len(self.sim._urgent))

    monkeypatch.setattr(DeferredEvent, "_fire", watched)

    def program(ctx):
        alloc, tmems = yield from ctx.rma.expose_collective(16 * 64)
        src = ctx.mem.space.alloc(64, fill=ctx.rank + 1)
        yield from ctx.comm.barrier()
        if ctx.rank == 0:
            for i in range(16):
                yield from ctx.rma.put(src, 0, 64, BYTE, tmems[1], i * 64,
                                       64, BYTE, blocking=True)
            yield ctx.sim.timeout(1.0)
        yield from ctx.comm.barrier()

    world, _ = _two_ranks(program)
    assert world.contexts[0].rma.stats["train_ops"] == 16
    assert left == [0] * 16
