"""The strawman MPI-3 RMA interface (the paper's §IV–V contribution).

This package implements the proposed API with per-operation *attributes*
— the paper's central idea — and the machinery needed to honour each
attribute on fabrics/machines that do or do not support it natively:

========================  ===================================================
piece                     role
========================  ===================================================
:class:`RmaAttrs`         the attribute set (ordering, remote completion,
                          atomicity, blocking), settable per call or as a
                          per-communicator default (§IV req. 5)
:class:`TargetMem`        non-collectively created descriptor of remotely
                          accessible memory (§IV req. 1; §V)
:class:`RmaInterface`     the user-facing API: ``put``/``get``/
                          ``accumulate``/``xfer``; ``complete``/``order``
                          (per-target, ``ALL_RANKS``, collective);
                          conditional/unconditional RMW; RMI extension
:mod:`~repro.rma.engine`  the protocol engine: one issue pipeline over
                          the route table shared → train → packet;
                          fragmentation, per-pair sequencing, software/
                          hardware completion strategies, heterogeneity
                          conversion
:mod:`~repro.rma.train`   the op-train route: closed-form runs of puts
:mod:`~repro.rma.serializer`  the three atomicity serializers of §V-A:
                          communication thread, coarse-grain process-level
                          lock, bare MPI progress
========================  ===================================================
"""

from repro.rma.attributes import ALL_RANKS, RmaAttrs
from repro.rma.api import RmaInterface
from repro.rma.engine import RmaEngine, build_rma
from repro.rma.serializer import (
    CoarseLockSerializer,
    ProgressSerializer,
    Serializer,
    ThreadSerializer,
)
from repro.rma.target_mem import RmaError, TargetMem

__all__ = [
    "ALL_RANKS",
    "CoarseLockSerializer",
    "ProgressSerializer",
    "RmaAttrs",
    "RmaEngine",
    "RmaError",
    "RmaInterface",
    "Serializer",
    "TargetMem",
    "ThreadSerializer",
    "build_rma",
]
