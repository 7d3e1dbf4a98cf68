"""Routed fabrics and the consistency oracle run without networkx.

A fresh interpreter imports the public packages, runs a torus world
whose plan cuts a cable (so a packet takes a detour), asks the causal
checker and a location pomset, and must never have loaded networkx.
"""

import os
import subprocess
import sys
import textwrap

SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")

PROGRAM = textwrap.dedent("""
    import sys

    import repro, repro.topo, repro.check, repro.ir, repro.obs.report
    from repro.consistency import History, LocationPomset, check_causal
    from repro.datatypes import BYTE
    from repro.faults import FaultPlan
    from repro.machine import generic_cluster
    from repro.runtime import World
    from repro.topo import torus_network

    def program(ctx):
        alloc, tmems = yield from ctx.rma.expose_collective(64)
        yield from ctx.comm.barrier()
        if ctx.rank == 1:
            src = ctx.mem.space.alloc(8, fill=7)
            yield ctx.sim.timeout(100.0)
            yield from ctx.rma.put(src, 0, 8, BYTE, tmems[0], 0, 8, BYTE)
            yield from ctx.rma.complete(ctx.comm, 0)
        yield ctx.sim.timeout(1000.0)
        return int(ctx.mem.load(alloc, 0, 1)[0])

    plan = FaultPlan().link_down((0, 0, 0), (1, 0, 0), at=50.0)
    world = World(machine=generic_cluster(n_nodes=4),
                  network=torus_network((4, 1, 1)), fault_plan=plan, seed=0)
    assert world.run(program)[0] == 7
    assert len(world.topo.path_for(0, 1)) == 3  # the detour

    h = History()
    h.write(0, "x", 1)
    h.read(1, "x", 1)
    h.write(1, "x", 2)
    h.read(2, "x", 2)
    h.read(2, "x", 1)
    assert len(check_causal(h)) == 1
    pom = LocationPomset("x")
    pom.write(0, 10)
    assert pom.legal_read_values(1) == [0, 10]

    assert "networkx" not in sys.modules, "networkx was imported"
    print("ok")
""")


def test_no_networkx_in_routed_and_checked_runs():
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    done = subprocess.run([sys.executable, "-c", PROGRAM], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"
