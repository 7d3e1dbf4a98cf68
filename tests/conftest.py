"""Shared test helpers."""

from contextlib import contextmanager

from repro.mpi.nexus import CollectiveNexus
from repro.rma.engine import RmaEngine


@contextmanager
def fast_paths(train=None, nexus=None):
    """Pin the class-level fast-path switches (``RmaEngine.train_enabled``,
    ``CollectiveNexus.enabled`` — the last covers the barrier walk and
    every message the engine can send without a packet: control messages,
    requests, replies and writes) for the duration; ``None`` leaves a
    switch alone.  Worlds read the switches while they run, so build
    *and* run inside the block.  Also works as a decorator:
    ``fast_paths(train=False)(workload)()``."""
    wanted = [(RmaEngine, "train_enabled", train),
              (CollectiveNexus, "enabled", nexus)]
    saved = [(cls, name, getattr(cls, name))
             for cls, name, value in wanted if value is not None]
    try:
        for cls, name, value in wanted:
            if value is not None:
                setattr(cls, name, value)
        yield
    finally:
        for cls, name, value in saved:
            setattr(cls, name, value)
