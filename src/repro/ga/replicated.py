"""A replicated, failure-tolerant GlobalArray (primary–backup).

:class:`ReplicatedGlobalArray` keeps ``rf`` copies of every block of a
block-distributed array.  Blocks keep the same row partition as
:class:`~repro.ga.global_array.GlobalArray` — block ``b`` is the rows
rank ``b`` would own — but each block is *held* by ``rf`` ranks (the
home rank and the next ``rf-1`` ranks on the ring), and every rank
backs its copies with a full-size mirror region so the displacement of
global row ``g`` is ``g * row_bytes`` on **every** holder.  That makes
failover a pure metadata operation: no re-layout, just a new holder
list.

Durability contract
-------------------
:meth:`put` and :meth:`acc` return only after the update is *remotely
complete on every live holder* (primary **and** backups) — an
acknowledged write survives any single rank failure at ``rf >= 2``.
:meth:`get` reads the first live holder (primary, then backups, in
ring order).

Failure handling
----------------
Writes to a failed holder surface as structured
:class:`~repro.rma.target_mem.RmaError` (``kind="rank_failed"``); the
array marks the holder suspect and keeps going as long as at least one
replica of the block applied the update.  Recovery is collective:
:meth:`recover` agrees on the failed set (via
:meth:`repro.mpi.comm.Comm.agree` — call it only after the failure
detector has *converged*, i.e. one settle period after the first
suspicion), shrinks the communicator, bumps the array epoch, restores
the replication factor by copying surviving replicas onto fresh
holders, and reports MTTR + re-replicated bytes through ``world.metrics``.

With ``rf=1`` there is no live redundancy; :meth:`checkpoint` puts each
block on a ring neighbor's shadow region, and :meth:`recover` rolls a
lost block back to its last checkpoint (documented data loss back to
the checkpoint — exactly the classic trade-off the replication factor
buys out of).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

import numpy as np

from repro.ga.global_array import GaError, GlobalArray, _normalize_region
from repro.rma.attributes import RmaAttrs
from repro.rma.target_mem import RmaError

__all__ = ["ReplicatedGlobalArray"]

_PUT_ATTRS = RmaAttrs(blocking=True, remote_completion=True)
_ACC_ATTRS = RmaAttrs(blocking=True, remote_completion=True, atomicity=True)

#: Error kinds that mean "this holder is gone", not "this op was bad".
_FAILURE_KINDS = ("rank_failed", "link_partition")


class ReplicatedGlobalArray(GlobalArray):
    """See module docstring.  Create collectively with :meth:`create`."""

    def __init__(self, ctx, comm, shape, np_dtype, alloc, tmems,
                 row_starts, rf, shadow_alloc, shadow_tmems) -> None:
        super().__init__(ctx, comm, shape, np_dtype, alloc, tmems,
                         row_starts)
        self.rf = rf
        self.epoch = 0
        self._world_rank = ctx.rank
        #: world ranks that were members at creation (block homes).
        self._members: List[int] = [
            comm.group.world_rank(r) for r in range(comm.size)
        ]
        self._nblocks = comm.size
        #: block -> world ranks holding a copy (holder[0] is primary).
        self._holders: Dict[int, List[int]] = {
            b: [self._members[(b + i) % comm.size] for i in range(rf)]
            for b in range(comm.size)
        }
        #: world ranks this rank has seen fail mid-operation.
        self._suspects: Set[int] = set()
        self._dead: Set[int] = set()
        self._shadow_alloc = shadow_alloc
        self._shadow_tmems = shadow_tmems
        #: block -> world rank holding its last checkpoint (rf=1 only).
        self._shadow_of: Dict[int, int] = {}
        #: Test-only planted bugs (mirrors engine.conformance_mutations):
        #: "skip_backup" acks after the primary alone — the durability
        #: oracle must catch the resulting loss when the primary dies.
        self.conformance_mutations: frozenset = frozenset()

    # ------------------------------------------------------------------
    @classmethod
    def create(cls, ctx, shape, dtype: str = "float64", comm=None,
               rf: int = 2):
        """Collectively create a zero-filled replicated array.

        ``rf`` is the replication factor (copies per block); must not
        exceed the communicator size.  ``rf=1`` disables live
        redundancy and arms the checkpoint/rollback fallback instead.
        """
        comm = comm if comm is not None else ctx.comm
        if not 1 <= rf <= comm.size:
            raise GaError(
                f"replication factor {rf} outside [1, {comm.size}]"
            )
        shape = tuple(int(s) for s in shape)
        if len(shape) not in (1, 2):
            raise GaError("ReplicatedGlobalArray supports 1-D and 2-D shapes")
        if any(s <= 0 for s in shape):
            raise GaError(f"invalid shape {shape}")
        np_dtype = np.dtype(dtype)
        n0 = shape[0]
        base, rem = divmod(n0, comm.size)
        row_starts = [0]
        for r in range(comm.size):
            row_starts.append(row_starts[-1] + base + (1 if r < rem else 0))
        cols = shape[1] if len(shape) == 2 else 1
        total = n0 * cols * np_dtype.itemsize
        # Full-size mirror: row g lives at g*row_bytes on every holder.
        alloc = ctx.mem.space.alloc(max(total, 1))
        yield ctx.rma.engine.registration_cost(total)
        tmem = ctx.rma.expose(alloc)
        tmems = yield from comm.allgather(tmem)
        tmems = {
            comm.group.world_rank(r): t for r, t in enumerate(tmems)
        }
        shadow_alloc = shadow_tmems = None
        if rf == 1:
            shadow_alloc = ctx.mem.space.alloc(max(total, 1))
            shadow = ctx.rma.expose(shadow_alloc)
            gathered = yield from comm.allgather(shadow)
            shadow_tmems = {
                comm.group.world_rank(r): t for r, t in enumerate(gathered)
            }
        return cls(ctx, comm, shape, np_dtype, alloc, tmems, row_starts,
                   rf, shadow_alloc, shadow_tmems)

    # ------------------------------------------------------------------
    # layout: full mirror, so the target displacement ignores block homes
    # ------------------------------------------------------------------
    def _target_layout(self, owner, row_lo, row_hi, cols):
        from repro.datatypes import hvector

        nrows = row_hi - row_lo
        col_lo, col_hi = cols
        ncols = col_hi - col_lo
        disp = row_lo * self.row_bytes + col_lo * self.dtype.itemsize
        full_width = self.shape[1] if self.ndim == 2 else 1
        if ncols == full_width:
            return disp, nrows * ncols, self._elem
        return disp, 1, hvector(nrows, ncols, self.row_bytes, self._elem)

    def holders_of(self, block: int) -> List[int]:
        """Live holders (world ranks) of ``block``, primary first."""
        return [h for h in self._holders[block]
                if h not in self._suspects and h not in self._dead]

    def local_view(self) -> np.ndarray:
        """Writable view of this rank's full mirror region (only rows of
        blocks this rank holds are meaningful)."""
        self._ctx.rma.engine.materialize_inbound()
        cols = self.shape[1] if self.ndim == 2 else None
        count = self.shape[0] * (cols if cols else 1)
        view = self._ctx.mem.space.view(self._alloc, self.dtype.name,
                                        count=count)
        return view.reshape(self.shape[0], cols) if cols else view

    # ------------------------------------------------------------------
    def _is_failure(self, err: RmaError) -> bool:
        return getattr(err, "kind", None) in _FAILURE_KINDS

    def _mark_suspect(self, rank: int) -> None:
        if rank not in self._suspects:
            self._suspects.add(rank)
            resil = getattr(self._ctx.world, "resil", None)
            if resil is not None:
                resil.assert_failed(self._world_rank, rank)

    def _write_pieces(self, region, data, attrs, acc_scale=None):
        """Write ``data`` to every live holder of each touched block.

        Returns normally only once each update is remotely complete on
        all live replicas; raises :class:`GaError` if any block has no
        live replica left.
        """
        bounds = _normalize_region(region, self.shape)
        expect = tuple(hi - lo for lo, hi in bounds)
        data = np.asarray(data, dtype=self.dtype).reshape(expect)
        for block, rlo, rhi, cols in self._owner_pieces(region):
            piece = data[rlo - bounds[0][0]: rhi - bounds[0][0]]
            scratch = self._stage(piece)
            disp, count, tdtype = self._target_layout(block, rlo, rhi, cols)
            applied = 0
            for holder in self.holders_of(block):
                try:
                    if acc_scale is None:
                        yield from self._ctx.rma.put(
                            scratch, 0, piece.size, self._elem,
                            self._tmems[holder], disp, count, tdtype,
                            attrs=attrs, comm=self.comm,
                        )
                    else:
                        yield from self._ctx.rma.accumulate(
                            scratch, 0, piece.size, self._elem,
                            self._tmems[holder], disp, count, tdtype,
                            op="daxpy", scale=acc_scale, attrs=attrs,
                            comm=self.comm,
                        )
                    applied += 1
                    if "skip_backup" in self.conformance_mutations:
                        break
                except RmaError as err:
                    if not self._is_failure(err):
                        raise
                    self._mark_suspect(holder)
            self._ctx.mem.space.free(scratch)
            if applied == 0:
                raise GaError(
                    f"block {block} has no live replica (holders "
                    f"{self._holders[block]}, suspects "
                    f"{sorted(self._suspects)}); recover() or restore "
                    f"from checkpoint"
                )

    def put(self, region, data):
        """Replicated write; remotely complete on every live holder when
        the call returns (the durability ack point)."""
        self._check_alive()
        yield from self._write_pieces(region, data, _PUT_ATTRS)

    def acc(self, region, data, scale: float = 1.0):
        """Replicated atomic update (``+= scale * data`` on every live
        holder; daxpy commutes, so per-replica interleavings converge)."""
        self._check_alive()
        yield from self._write_pieces(region, data, _ACC_ATTRS,
                                      acc_scale=scale)

    def get(self, region):
        """Read from the first live holder of each block (primary-first
        failover)."""
        self._check_alive()
        bounds = _normalize_region(region, self.shape)
        shape = tuple(hi - lo for lo, hi in bounds)
        out = np.empty(shape, dtype=self.dtype)
        for block, rlo, rhi, cols in self._owner_pieces(region):
            nrows = rhi - rlo
            ncols = cols[1] - cols[0]
            nelems = nrows * ncols
            scratch = self._ctx.mem.space.alloc(
                max(nelems * self.dtype.itemsize, 1)
            )
            disp, count, tdtype = self._target_layout(block, rlo, rhi, cols)
            got = False
            for holder in self.holders_of(block):
                try:
                    yield from self._ctx.rma.get(
                        scratch, 0, nelems, self._elem,
                        self._tmems[holder], disp, count, tdtype,
                        attrs=_PUT_ATTRS, comm=self.comm,
                    )
                    got = True
                    break
                except RmaError as err:
                    if not self._is_failure(err):
                        raise
                    self._mark_suspect(holder)
            if not got:
                raise GaError(f"block {block} has no live replica to read")
            piece = (
                self._ctx.mem.space.view(scratch, self.dtype.name,
                                         count=nelems)
                .reshape(nrows, ncols).copy()
            )
            r0 = rlo - bounds[0][0]
            out[r0: r0 + nrows] = (
                piece if self.ndim == 2 else piece.reshape(-1)
            )
            self._ctx.mem.space.free(scratch)
        return out

    def read_inc(self, row: int, col: int = 0, amount: int = 1):
        """Fetch-and-add on the block's *primary*, then replicate the
        increment to the backups.  Linearizable while the primary is
        stable; during a failover window concurrent callers may observe
        a backup that has not applied every increment yet (use
        :meth:`recover` before trusting counters after a failure)."""
        self._check_alive()
        if not np.issubdtype(self.dtype, np.integer):
            raise GaError("read_inc requires an integer-typed array")
        block = self.owner_of(row)
        holders = self.holders_of(block)
        if not holders:
            raise GaError(f"block {block} has no live replica")
        disp, _, _ = self._target_layout(block, row, row + 1, (col, col + 1))
        old = None
        for i, holder in enumerate(holders):
            try:
                if i == 0:
                    old = yield from self._ctx.rma.fetch_and_add(
                        self._tmems[holder], disp, self.dtype.name, amount
                    )
                else:
                    scratch = self._stage(np.asarray([amount]))
                    yield from self._ctx.rma.accumulate(
                        scratch, 0, 1, self._elem, self._tmems[holder],
                        disp, 1, self._elem, op="daxpy", scale=1.0,
                        attrs=_ACC_ATTRS, comm=self.comm,
                    )
                    self._ctx.mem.space.free(scratch)
            except RmaError as err:
                if not self._is_failure(err):
                    raise
                self._mark_suspect(holder)
        if old is None:
            raise GaError(f"block {block} primary failed during read_inc")
        return int(old)

    def get_acc(self, region, data, scale: float = 1.0):
        raise GaError(
            "get_acc is not supported on a replicated array (a fetching "
            "update cannot be made atomic across replicas); use read_inc "
            "for counters"
        )

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    def recover(self, dead=None):
        """Collective failover + re-replication (``yield from``).

        Every *survivor* must call this with a converged view of the
        failed set (its detector suspicions, optionally extended by
        ``dead``) — in practice: wait one detector settle period after
        the first suspicion, then recover.  Agrees on the union,
        shrinks the communicator, bumps the epoch, restores ``rf``
        copies of every block from a surviving replica (or, at rf=1,
        rolls a lost block back to its shadow checkpoint), and records
        MTTR and re-replicated bytes in ``world.metrics``.

        Returns the shrunken communicator (also installed as
        ``self.comm``).
        """
        self._check_alive()
        world = self._ctx.world
        me = self._world_rank
        local_dead = set(dead) if dead is not None else set()
        local_dead |= self._suspects
        resil = getattr(world, "resil", None)
        if resil is not None:
            local_dead |= resil.suspected(me)
        local_dead &= set(self._members)
        local_dead.discard(me)
        local_dead -= self._dead
        if not local_dead:
            yield from self.sync()
            return self.comm

        _, agreed = yield from self.comm.agree(local_dead)
        agreed = set(agreed) - self._dead
        self._dead |= agreed
        self._suspects -= agreed
        for failed in agreed:
            # Failures already handled op-by-op must not resurface in
            # the post-recovery completion below.
            self._ctx.rma.engine.acknowledge_path_failure(failed)
        scomm = self.comm.shrink(agreed)
        if scomm is None:  # pragma: no cover - caller was declared dead
            raise GaError(f"rank {me} is in the agreed failed set")
        self.comm = scomm
        self.epoch += 1

        survivors = [w for w in self._members if w not in self._dead]
        rereplicated = 0
        for block in range(self._nblocks):
            holders = [h for h in self._holders[block] if h not in self._dead]
            if not holders:
                holders = yield from self._restore_from_shadow(block)
            want = min(self.rf, len(survivors))
            # Ring walk from the block's home picks deterministic fresh
            # holders — every survivor computes the identical plan.
            ring = survivors[block % len(survivors):] + \
                survivors[:block % len(survivors)]
            fresh = [w for w in ring if w not in holders][:want - len(holders)]
            if fresh:
                src = holders[0]
                nbytes = self._block_bytes(block)
                if me == src and nbytes:
                    for new_holder in fresh:
                        yield from self._copy_block(block, new_holder)
                rereplicated += nbytes * len(fresh)
                holders = holders + fresh
            self._holders[block] = holders
        yield from self._ctx.rma.complete_collective(self.comm)

        metrics = world.metrics
        if scomm.rank == 0:
            # Every survivor computes the same plan; rank 0 alone
            # records it so the counters mean per-recovery-event totals.
            metrics.counter("resil.rereplicated_bytes").inc(rereplicated)
            metrics.counter("resil.recoveries").inc()
            kill_times = [
                t for r, t in getattr(world, "_kill_times", {}).items()
                if r in agreed
            ]
            if kill_times:
                metrics.histogram("resil.mttr").observe(
                    self._ctx.sim.now - min(kill_times)
                )
        return scomm

    def _block_bytes(self, block: int) -> int:
        rs = self._row_starts
        return (rs[block + 1] - rs[block]) * self.row_bytes

    def _block_elems(self, block: int) -> int:
        cols = self.shape[1] if self.ndim == 2 else 1
        rs = self._row_starts
        return (rs[block + 1] - rs[block]) * cols

    def _copy_block(self, block: int, dst_world_rank: int):
        """Put this rank's copy of ``block`` into a fresh holder's
        mirror (source data is already in node byte order in place —
        no staging copy)."""
        disp = self._row_starts[block] * self.row_bytes
        nelems = self._block_elems(block)
        yield from self._ctx.rma.put(
            self._alloc, disp, nelems, self._elem,
            self._tmems[dst_world_rank], disp, nelems, self._elem,
            attrs=_PUT_ATTRS, comm=self.comm,
        )

    # ------------------------------------------------------------------
    # rf=1 fallback: neighbor checkpoints
    # ------------------------------------------------------------------
    def checkpoint(self):
        """Collective (rf=1 only): each block's primary puts its copy on
        the next survivor's *shadow* region, arming rollback."""
        self._check_alive()
        if self.rf != 1:
            raise GaError("checkpoint applies to rf=1 arrays only")
        me = self._world_rank
        survivors = [w for w in self._members if w not in self._dead]
        if len(survivors) < 2:
            raise GaError("checkpoint needs at least two survivors")
        for block in range(self._nblocks):
            holders = [h for h in self._holders[block]
                       if h not in self._dead]
            if not holders:
                continue  # lost and not yet restored
            primary = holders[0]
            idx = survivors.index(primary)
            neighbor = survivors[(idx + 1) % len(survivors)]
            if me == primary and self._block_bytes(block):
                disp = self._row_starts[block] * self.row_bytes
                nelems = self._block_elems(block)
                yield from self._ctx.rma.put(
                    self._alloc, disp, nelems, self._elem,
                    self._shadow_tmems[neighbor], disp, nelems, self._elem,
                    attrs=_PUT_ATTRS, comm=self.comm,
                )
            self._shadow_of[block] = neighbor
        yield from self._ctx.rma.complete_collective(self.comm)

    def _restore_from_shadow(self, block: int):
        """All replicas of ``block`` died: roll back to its checkpoint.

        The shadow holder copies the checkpointed bytes into its own
        mirror (a local move) and becomes the block's holder.  Raises
        :class:`GaError` when there is no checkpoint — the block is
        unrecoverable and pretending otherwise would corrupt the oracle.
        """
        shadow_holder = self._shadow_of.get(block)
        if shadow_holder is None or shadow_holder in self._dead:
            raise GaError(
                f"block {block} lost every replica and has no reachable "
                f"checkpoint (rf={self.rf})"
            )
        if self._world_rank == shadow_holder and self._block_bytes(block):
            space = self._ctx.mem.space
            lo = self._row_starts[block] * self.row_bytes
            n = self._block_bytes(block)
            space.buffer(self._alloc)[lo: lo + n] = \
                space.buffer(self._shadow_alloc)[lo: lo + n]
            # The holder alone counts, so the metric is rollback events.
            self._ctx.world.metrics.counter("resil.rollbacks").inc()
        return [shadow_holder]
        yield  # pragma: no cover - keeps this a generator for uniform call

    # ------------------------------------------------------------------
    def destroy(self):
        """Collectively free the array (``yield from``)."""
        self._check_alive()
        yield from self.sync()
        self._ctx.rma.withdraw(self._tmems[self._world_rank])
        self._ctx.mem.space.free(self._alloc)
        if self._shadow_alloc is not None:
            self._ctx.rma.withdraw(self._shadow_tmems[self._world_rank])
            self._ctx.mem.space.free(self._shadow_alloc)
        self._destroyed = True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<ReplicatedGlobalArray {self.shape} {self.dtype.name} "
            f"rf={self.rf} epoch={self.epoch} over {self.comm.size} ranks>"
        )
