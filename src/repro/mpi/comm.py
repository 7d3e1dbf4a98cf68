"""Groups, communicators, and collective algorithms.

Communicators carry a *context* — a tuple that isolates their traffic
from every other communicator's (the simulation analogue of MPI context
ids).  Collectives additionally stamp a per-comm sequence number into
the match context, so back-to-back collectives can never interfere even
on an unordered fabric.

Algorithms are the textbook ones: dissemination barrier, binomial-tree
broadcast and reduction, linear gather/scatter.  They exist both as a
substrate (the RMA layers use barriers and bcasts in their collective
completion calls) and as the two-sided baseline the paper's latency
ablation compares against.
"""

from __future__ import annotations

from operator import index
from typing import Any, Callable, Generator, List, Optional, Sequence, Tuple

from repro.mpi.constants import ANY_SOURCE, ANY_TAG, MAX_USER_TAG
from repro.mpi.endpoint import MpiEndpoint, payload_nbytes
from repro.mpi.request import Request, Status

__all__ = ["Group", "Comm"]


class Group:
    """An ordered set of world ranks."""

    def __init__(self, world_ranks: Sequence[int]) -> None:
        ranks = list(world_ranks)
        if len(set(ranks)) != len(ranks):
            raise ValueError("duplicate ranks in group")
        self._ranks: Tuple[int, ...] = tuple(ranks)
        self._index = {wr: i for i, wr in enumerate(self._ranks)}

    @property
    def size(self) -> int:
        return len(self._ranks)

    @property
    def world_ranks(self) -> Tuple[int, ...]:
        return self._ranks

    def world_rank(self, local_rank: int) -> int:
        """Translate a group-local rank to a world rank.  Anything
        ``operator.index`` accepts is a rank (numpy integers are);
        anything else, or one out of range, is a ``ValueError`` naming
        the value and the group size."""
        ranks = self._ranks
        if type(local_rank) is not int:
            try:
                local_rank = index(local_rank)
            except TypeError:
                raise ValueError(
                    f"rank must be an integer, got {local_rank!r} (group of "
                    f"{len(ranks)})") from None
        if not 0 <= local_rank < len(ranks):
            raise ValueError(
                f"rank {local_rank} out of range for a group of {len(ranks)}")
        return ranks[local_rank]

    def local_rank(self, world_rank: int) -> Optional[int]:
        """Translate a world rank to this group, or ``None`` if absent."""
        return self._index.get(world_rank)

    def __contains__(self, world_rank: int) -> bool:
        return world_rank in self._index

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Group {self._ranks}>"


class Comm:
    """A communicator bound to one rank's endpoint.

    All communication methods are generators (``yield from``).  Ranks in
    every argument/return are *communicator-local*.
    """

    def __init__(
        self, endpoint: MpiEndpoint, group: Group, context: Tuple
    ) -> None:
        if endpoint.rank not in group:
            raise ValueError(
                f"rank {endpoint.rank} is not a member of {group!r}"
            )
        self.endpoint = endpoint
        self.group = group
        self.context = context
        self.rank: int = group.local_rank(endpoint.rank)  # type: ignore[assignment]
        self.size: int = group.size
        self._coll_seq = 0
        self._derive_seq = 0

    @property
    def sim(self):
        """The owning simulator (convenience for timeouts etc.)."""
        return self.endpoint.sim

    # -- contexts -------------------------------------------------------
    def _user_ctx(self) -> Tuple:
        return ("u",) + self.context

    def _next_coll_ctx(self) -> Tuple:
        ctx = ("c",) + self.context + (self._coll_seq,)
        self._coll_seq += 1
        return ctx

    # -- point to point --------------------------------------------------
    def _world(self, local: int) -> int:
        return self.group.world_rank(local)

    def _check_tag(self, tag: int) -> None:
        if tag != ANY_TAG and (tag < 0 or tag > MAX_USER_TAG):
            raise ValueError(f"tag {tag} outside 0..{MAX_USER_TAG}")

    def isend(self, obj: Any, dest: int, tag: int = 0):
        """Nonblocking send; returns a :class:`Request` (``yield from``)."""
        self._check_tag(tag)
        req = yield from self.endpoint.isend(
            obj, self._world(dest), tag, self._user_ctx()
        )
        return req

    def send(self, obj: Any, dest: int, tag: int = 0):
        """Blocking send."""
        self._check_tag(tag)
        yield from self.endpoint.send(obj, self._world(dest), tag, self._user_ctx())

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        """Nonblocking receive; request value is the received object."""
        if tag != ANY_TAG:
            self._check_tag(tag)
        world_src = ANY_SOURCE if source == ANY_SOURCE else self._world(source)
        return self.endpoint.irecv(world_src, tag, self._user_ctx())

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Blocking receive; returns the object."""
        req = self.irecv(source, tag)
        obj = yield from req.wait()
        return obj

    def recv_status(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Blocking receive; returns ``(object, Status)`` with the source
        translated to a communicator-local rank."""
        req = self.irecv(source, tag)
        obj = yield from req.wait()
        st = req.status
        assert st is not None
        local_src = self.group.local_rank(st.source)
        return obj, Status(source=local_src, tag=st.tag, nbytes=st.nbytes)

    def sendrecv(self, obj: Any, dest: int, source: int, tag: int = 0):
        """Combined send+receive (deadlock-free)."""
        sreq = yield from self.isend(obj, dest, tag)
        got = yield from self.recv(source, tag)
        yield from sreq.wait()
        return got

    # -- collectives -----------------------------------------------------
    def barrier(self):
        """Dissemination barrier: ceil(log2(n)) rounds."""
        ctx = self._next_coll_ctx()
        n = self.size
        if n == 1:
            return
        nexus = self.sim.context.get("nexus")
        if nexus is not None:
            walk = nexus.enter_barrier(self, ctx)
            if walk is not None:
                # the rounds run as heap callbacks (repro.mpi.nexus)
                try:
                    yield walk.ev
                finally:
                    walk.parked = False
                return
        k = 0
        dist = 1
        while dist < n:
            dst = (self.rank + dist) % n
            src = (self.rank - dist) % n
            yield from self.endpoint.send(None, self._world(dst), k, ctx)
            yield from self.endpoint.recv(self._world(src), k, ctx)
            dist <<= 1
            k += 1

    def bcast(self, obj: Any, root: int = 0):
        """Binomial-tree broadcast; returns the object on every rank.
        The wire size is worked out once, at the root: every other rank
        forwards the message at the size it arrived with."""
        ctx = self._next_coll_ctx()
        n = self.size
        if n == 1:
            return obj
        relative = (self.rank - root) % n
        nbytes = None
        mask = 1
        while mask < n:
            if relative & mask:
                src = (self.rank - mask) % n
                obj, status = yield from self.endpoint.recv_status(
                    self._world(src), 0, ctx)
                nbytes = status.nbytes
                break
            mask <<= 1
        if nbytes is None:
            nbytes = payload_nbytes(obj)
        mask >>= 1
        while mask > 0:
            if relative + mask < n:
                dst = (self.rank + mask) % n
                yield from self.endpoint.send(obj, self._world(dst), 0, ctx,
                                              nbytes=nbytes)
            mask >>= 1
        return obj

    def gather(self, obj: Any, root: int = 0):
        """Linear gather; returns the list at root, ``None`` elsewhere."""
        ctx = self._next_coll_ctx()
        if self.rank == root:
            out: List[Any] = [None] * self.size
            out[root] = obj
            for _ in range(self.size - 1):
                data, st = yield from self.endpoint.recv_status(
                    ANY_SOURCE, ANY_TAG, ctx
                )
                out[st.tag] = data  # tag carries the sender's local rank
            return out
        yield from self.endpoint.send(obj, self._world(root), self.rank, ctx)
        return None

    def scatter(self, objs: Optional[Sequence[Any]], root: int = 0):
        """Root sends ``objs[i]`` to local rank ``i``; returns own item."""
        ctx = self._next_coll_ctx()
        if self.rank == root:
            if objs is None or len(objs) != self.size:
                raise ValueError("scatter root needs exactly `size` items")
            for dst in range(self.size):
                if dst != root:
                    yield from self.endpoint.send(
                        objs[dst], self._world(dst), 0, ctx
                    )
            return objs[root]
        item = yield from self.endpoint.recv(self._world(root), 0, ctx)
        return item

    def allgather(self, obj: Any):
        """Gather to rank 0 then broadcast; returns the full list."""
        gathered = yield from self.gather(obj, root=0)
        out = yield from self.bcast(gathered, root=0)
        return out

    def reduce(self, obj: Any, op: Callable[[Any, Any], Any], root: int = 0):
        """Binomial-tree reduction; result at root, ``None`` elsewhere.

        ``op`` must be associative; reduction order is deterministic.
        """
        ctx = self._next_coll_ctx()
        n = self.size
        relative = (self.rank - root) % n
        result = obj
        mask = 1
        while mask < n:
            if relative & mask == 0:
                src_rel = relative | mask
                if src_rel < n:
                    src = (src_rel + root) % n
                    data = yield from self.endpoint.recv(self._world(src), 0, ctx)
                    result = op(result, data)
            else:
                dst_rel = relative & ~mask
                dst = (dst_rel + root) % n
                yield from self.endpoint.send(result, self._world(dst), 0, ctx)
                return None
            mask <<= 1
        return result if self.rank == root else None

    def allreduce(self, obj: Any, op: Callable[[Any, Any], Any]):
        """Reduce to rank 0 then broadcast the result to all."""
        partial = yield from self.reduce(obj, op, root=0)
        out = yield from self.bcast(partial, root=0)
        return out

    def alltoall(self, objs: Sequence[Any]):
        """Everyone sends ``objs[i]`` to rank ``i``; returns a list
        indexed by source rank."""
        if len(objs) != self.size:
            raise ValueError("alltoall needs exactly `size` items")
        ctx = self._next_coll_ctx()
        sreqs = []
        for dst in range(self.size):
            if dst == self.rank:
                continue
            req = yield from self.endpoint.isend(
                objs[dst], self._world(dst), self.rank, ctx
            )
            sreqs.append(req)
        out: List[Any] = [None] * self.size
        out[self.rank] = objs[self.rank]
        for _ in range(self.size - 1):
            data, st = yield from self.endpoint.recv_status(ANY_SOURCE, ANY_TAG, ctx)
            out[st.tag] = data
        yield from Request.waitall(sreqs)
        return out

    # -- derived communicators --------------------------------------------
    def dup(self):
        """Collective duplicate with a fresh context."""
        ctx = self.context + ("dup", self._derive_seq)
        self._derive_seq += 1
        yield from self.barrier()
        return Comm(self.endpoint, self.group, ctx)

    def split(self, color: int, key: int = 0):
        """Partition into sub-communicators by ``color`` (MPI_Comm_split).

        Returns the new communicator, or ``None`` for ``color=None``.
        """
        triples = yield from self.allgather((color, key, self.rank))
        new_ctx = self.context + ("split", self._derive_seq)
        self._derive_seq += 1
        if color is None:
            return None
        members = sorted(
            (
                (k, r)
                for (c, k, r) in triples
                if c == color
            ),
        )
        world = [self.group.world_rank(r) for _, r in members]
        return Comm(self.endpoint, Group(world), new_ctx + (color,))

    # -- failure recovery (ULFM-style) ------------------------------------
    def shrink(self, dead) -> Optional["Comm"]:
        """Survivor communicator excluding the ``dead`` world ranks.

        Unlike MPI's ``MPI_Comm_shrink`` this is *not* itself a
        collective: every survivor constructs the identical group and
        context purely locally from the agreed-on dead set (use
        :meth:`agree` first to reach that agreement), so no message ever
        has to transit a failed process.  The first collective on the
        returned communicator synchronizes the survivors.

        Returns ``None`` when the calling rank is itself in ``dead``.
        ``dead`` holds *world* ranks (the detector's currency); ranks
        not in this communicator are ignored.
        """
        dead = frozenset(dead)
        survivors = [wr for wr in self.group.world_ranks if wr not in dead]
        if self.endpoint.rank in dead or not survivors:
            return None
        # The context derives from the dead set, not a per-rank counter:
        # every survivor computes the same tuple without communicating.
        ctx = self.context + ("shrink", tuple(sorted(
            wr for wr in dead if wr in self.group)))
        return Comm(self.endpoint, Group(survivors), ctx)

    def agree(self, dead, flag: bool = True):
        """Fault-tolerant agreement among the survivors (``yield from``).

        Every survivor passes its locally suspected ``dead`` world-rank
        set (normally the failure detector's converged view — see
        DESIGN §13 for the convergence requirement) plus a local
        ``flag``.  Returns ``(all_flags, agreed_dead)``: the logical
        AND of every survivor's flag and the union of their dead sets,
        identical on all survivors — MPI ULFM's ``MPIX_Comm_agree``
        shape.  The exchange itself runs on the shrunk survivor group,
        so it cannot block on a failed process.
        """
        dead = frozenset(dead)
        scomm = self.shrink(dead)
        if scomm is None:
            raise ValueError("agree() called by a rank in the dead set")
        views = yield from scomm.allgather(
            (bool(flag), tuple(sorted(dead))))
        agreed = set()
        verdict = True
        for f, d in views:
            verdict = verdict and f
            agreed.update(d)
        return verdict, frozenset(agreed)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Comm rank={self.rank}/{self.size} ctx={self.context}>"
