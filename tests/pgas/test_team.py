"""DART-style teams, global pointers, and team segments."""

import numpy as np
import pytest

from repro.machine import MachineConfig, generic_cluster
from repro.pgas import GlobalPtr, PgasError, Team
from repro.runtime import World


def two_by_two():
    return MachineConfig(n_nodes=2, ranks_per_node=2)


class TestGlobalPtr:
    def test_arithmetic(self):
        p = GlobalPtr(0, 1, 8)
        assert (p + 8).offset == 16
        assert (p - 4).offset == 4
        assert (p + 8) - p == 8

    def test_distance_across_segments_rejected(self):
        with pytest.raises(ValueError):
            GlobalPtr(0, 0, 0) - GlobalPtr(1, 0, 0)

    def test_distance_across_units_rejected(self):
        with pytest.raises(ValueError):
            GlobalPtr(0, 1, 0) - GlobalPtr(0, 0, 0)

    def test_usable_as_dict_key_and_ordered(self):
        a, b = GlobalPtr(0, 0, 0), GlobalPtr(0, 0, 8)
        assert a < b
        assert {a: 1, b: 2}[b] == 2


class TestTeam:
    def test_world_team_identity_and_locality(self):
        w = World(machine=two_by_two())

        def program(ctx):
            team = Team.world(ctx)
            yield from team.barrier()
            return (team.size, team.myid, team.local_units(),
                    team.unit_world_rank(3), team.is_local(ctx.rank ^ 1))

        out = w.run(program)
        assert out[0] == (4, 0, [0, 1], 3, True)
        assert out[2][2] == [2, 3]

    def test_split_by_color(self):
        w = World(machine=generic_cluster(n_nodes=4))

        def program(ctx):
            team = Team.world(ctx)
            sub = yield from team.split(ctx.rank % 2)
            yield from sub.barrier()
            return sub.size, sub.myid, sub.unit_world_rank(sub.myid)

        out = w.run(program)
        # even ranks form one team, odd ranks the other
        assert out[0] == (2, 0, 0)
        assert out[2] == (2, 1, 2)
        assert out[1] == (2, 0, 1)

    def test_split_by_node_groups_colocated_units(self):
        w = World(machine=two_by_two())

        def program(ctx):
            team = Team.world(ctx)
            node_team = yield from team.split_by_node()
            yield from node_team.barrier()
            return (node_team.size,
                    [node_team.unit_world_rank(u)
                     for u in range(node_team.size)])

        out = w.run(program)
        assert out[0] == (2, [0, 1])
        assert out[3] == (2, [2, 3])

    def test_team_collectives(self):
        w = World(machine=generic_cluster(n_nodes=4))

        def program(ctx):
            team = Team.world(ctx)
            vals = yield from team.allgather(team.myid)
            total = yield from team.allreduce(team.myid, lambda a, b: a + b)
            root_only = yield from team.reduce(1, lambda a, b: a + b, root=2)
            top = yield from team.bcast(team.myid * 10, root=3)
            return vals, total, root_only, top

        out = w.run(program)
        assert out[0] == ([0, 1, 2, 3], 6, None, 30)
        assert out[2][2] == 4


class TestTeamSegment:
    def test_put_get_roundtrip_and_spill(self):
        w = World(machine=generic_cluster(n_nodes=4))

        def program(ctx):
            team = Team.world(ctx)
            seg = yield from team.memalloc(64)
            if team.myid == 0:
                # linear address 64 spills into unit 1's block
                ptr = seg.gptr(0, 0) + 64
                assert ptr.offset == 64
                yield from seg.put(ptr, np.arange(4, dtype=np.int64))
                back = yield from seg.get(ptr, 4, dtype="int64")
                assert back.tolist() == [0, 1, 2, 3]
                assert seg.linear(seg.gptr(2, 8)) == 136
                assert seg.at(136) == seg.gptr(2, 8)
            yield from seg.sync()
            mine = seg.local_view("int64", 4).tolist()
            yield from seg.free()
            return mine

        out = w.run(program)
        assert out[1] == [0, 1, 2, 3]
        assert out[2] == [0, 0, 0, 0]

    def test_accumulate_and_fetch_add(self):
        w = World(machine=generic_cluster(n_nodes=2))

        def program(ctx):
            team = Team.world(ctx)
            seg = yield from team.memalloc(16)
            ptr = seg.gptr(1, 0)
            yield from seg.accumulate(ptr, np.array([3], dtype=np.int64))
            yield from seg.sync()
            old = None
            if team.myid == 0:
                old = yield from seg.fetch_add(ptr, 10, dtype="int64")
            yield from seg.sync()
            final = seg.local_view("int64", 1)[0] if team.myid == 1 else None
            return old, None if final is None else int(final)

        out = w.run(program)
        assert out[0][0] == 6          # both units added 3
        assert out[1][1] == 16

    def test_cross_boundary_access_rejected(self):
        w = World(machine=generic_cluster(n_nodes=2))

        def program(ctx):
            team = Team.world(ctx)
            seg = yield from team.memalloc(16)
            err = None
            try:
                yield from seg.put(seg.gptr(0, 12),
                                   np.zeros(2, dtype=np.int64))
            except PgasError as exc:
                err = str(exc)
            out_of_seg = None
            try:
                seg.gptr(2, 0)
            except PgasError:
                out_of_seg = True
            yield from seg.free()
            return err, out_of_seg

        out = w.run(program)
        assert "crosses a unit boundary" in out[0][0]
        assert out[0][1] is True

    def test_freed_segment_rejects_use(self):
        w = World(machine=generic_cluster(n_nodes=2))

        def program(ctx):
            team = Team.world(ctx)
            seg = yield from team.memalloc(16)
            yield from seg.free()
            try:
                yield from seg.get(seg.gptr(0, 0), 1, dtype="int64")
            except PgasError:
                return True
            return False

        assert w.run(program) == [True, True]

    def test_colocated_segment_access_moves_no_packets(self):
        w = World(machine=two_by_two())

        def program(ctx):
            team = Team.world(ctx)
            seg = yield from team.memalloc(64)   # shared by default
            delta = None
            if team.myid == 0:
                before = ctx.rma.engine.nic.packets_sent
                yield from seg.put(seg.gptr(1, 0),
                                   np.array([7.5], dtype=np.float64))
                got = yield from seg.get(seg.gptr(1, 0), 1)
                assert got.tolist() == [7.5]
                delta = ctx.rma.engine.nic.packets_sent - before
            yield from seg.sync()
            return delta

        out = w.run(program)
        assert out[0] == 0
        assert w.contexts[0].rma.engine.stats["shm_ops"] == 2

    def test_memalloc_rejects_nonpositive_size(self):
        w = World(machine=generic_cluster(n_nodes=2))

        def program(ctx):
            team = Team.world(ctx)
            try:
                yield from team.memalloc(0)
            except PgasError:
                return True
            return False

        assert w.run(program) == [True, True]

    def test_element_type_lookup_by_dtype_equals_lookup_by_name(self):
        """``TeamSegment._elem`` finds a native dtype in a table built
        once; anything else still goes (or fails) by ``np.dtype.name``."""
        from repro.datatypes import PREDEFINED
        from repro.pgas.team import TeamSegment

        for name, expected in PREDEFINED.items():
            if name in ("byte", "char"):    # no NumPy dtype of that name
                continue
            for spelling in (name, np.dtype(name), expected.np_dtype.type):
                assert TeamSegment._elem(None, spelling) is expected
        swapped = np.dtype("float64").newbyteorder()
        assert TeamSegment._elem(None, swapped) is PREDEFINED["float64"]
        for _ in range(2):
            with pytest.raises(PgasError, match="unsupported dtype"):
                TeamSegment._elem(None, np.complex128)
