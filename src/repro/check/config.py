"""The single versioned run configuration (DESIGN §16.4).

Everything that determines how a checked program executes — fabric,
world seed, chaos, engine mutations, machine shape, generator toggles,
and (since the IR pipeline landed) the optimizing passes applied before
the run — lives in one frozen :class:`RunConfig`.  The fuzzing CLI
builds one per (seed, fabric), the shrinker re-executes candidates
through it, and the JSON artifact records exactly its ``to_dict()``
under a single ``"config"`` key, so replay can never drift from the
original run because a toggle was forgotten in one of the three places.

Version 2 is this dict.  Version 1 (configuration scattered over an
artifact's top-level keys) is no longer read: such a file is refused
and re-recorded from the seed and fabric it lists.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Tuple

__all__ = ["CONFIG_VERSION", "RunConfig"]

CONFIG_VERSION = 2


@dataclass(frozen=True)
class RunConfig:
    """One checked execution's full configuration."""

    fabric: str
    seed: int
    chaos: float = 0.0
    mutations: Tuple[str, ...] = ()
    shared: bool = False
    #: Generator toggle: programs carry the notified-RMA clause.
    notify: bool = False
    #: IR optimizing passes applied before the run (empty = off).  A
    #: non-empty tuple routes checking through the three-arm
    #: differential harness (:func:`repro.ir.verify.check_optimized`).
    ir_passes: Tuple[str, ...] = ()

    # -- serialization ---------------------------------------------------
    def to_dict(self) -> Dict:
        return {
            "version": CONFIG_VERSION,
            "fabric": self.fabric,
            "seed": self.seed,
            "chaos": self.chaos,
            "mutations": list(self.mutations),
            "shared": self.shared,
            "notify": self.notify,
            "ir_passes": list(self.ir_passes),
        }

    @classmethod
    def from_dict(cls, doc: Dict) -> "RunConfig":
        version = doc.get("version", CONFIG_VERSION)
        if version != CONFIG_VERSION:
            raise ValueError(f"unsupported config version {version!r}")
        return cls(
            fabric=doc["fabric"],
            seed=doc["seed"],
            chaos=doc.get("chaos", 0.0),
            mutations=tuple(doc.get("mutations", ())),
            shared=doc.get("shared", False),
            notify=doc.get("notify", False),
            ir_passes=tuple(doc.get("ir_passes", ())),
        )

    # -- presentation ----------------------------------------------------
    def describe(self) -> str:
        """The one-line banner the CLI prints when restoring this
        configuration for a replay."""
        out = f"fabric={self.fabric} seed={self.seed} chaos={self.chaos}"
        if self.shared:
            out += " shared (paired machine, load/store windows)"
        if self.notify:
            out += " notify"
        if self.mutations:
            out += f" mutations={list(self.mutations)}"
        if self.ir_passes:
            out += f" ir_passes={list(self.ir_passes)}"
        return out

    # -- execution -------------------------------------------------------
    def generate(self, seed: int = None):
        """Generate the program this configuration fuzzes (the world
        seed doubles as the program seed unless overridden)."""
        from repro.check.generator import generate_program

        return generate_program(self.seed if seed is None else seed,
                                notify=self.notify)

    def run(self, program):
        """Execute ``program`` under this configuration (no oracle)."""
        from repro.check.runner import run_program

        return run_program(program, self.fabric, self.seed,
                           chaos=self.chaos, mutations=self.mutations,
                           shared=self.shared)

    def check(self, program):
        """Execute + oracle-check ``program`` under this configuration.

        With ``ir_passes`` set, the program is optimized first and all
        three differential arms (original, optimized, refinement) fold
        into the returned report; otherwise this is the plain
        run-and-check the conformance sweep does."""
        if self.ir_passes:
            from repro.ir.verify import check_optimized

            return check_optimized(program, self)
        from repro.check.oracle import check_program

        return check_program(self.run(program))

    def with_(self, **kw) -> "RunConfig":
        return replace(self, **kw)
