"""Delta-debugging shrinker + replayable JSON artifacts.

Classic ddmin over the program's flat op list: every candidate subset
is *re-executed* on the same :class:`~repro.check.config.RunConfig`
and kept only if the oracle still reports a violation.  Because any
subsequence of ``ops`` is again a valid program (the IR guarantees
it), no repair pass is needed — the result is a 1-minimal op list:
removing any single remaining op makes the failure disappear.  When
the config carries ``ir_passes``, every candidate goes through the
full three-arm differential harness, so a failure introduced by an
unsound optimizing pass shrinks exactly like an engine bug.

The shrunk reproducer is serialized as a self-contained JSON artifact:
program + the config's single versioned dict + the violations
observed.  A durability reproducer (:mod:`repro.check.durability`) is
the same format with ``"kind": "durable_kv"`` and a case plus ops in
place of config plus program.  :func:`load_artifact` is the one loader
and :func:`replay_artifact` re-runs either kind — the CLI's
``--replay`` path and the CI failure workflow both go through them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.check.config import RunConfig
from repro.check.oracle import CheckReport
from repro.check.program import RmaProgram

__all__ = ["ShrinkResult", "ddmin_list", "shrink", "save_artifact",
           "write_artifact", "load_artifact", "describe_artifact",
           "replay_artifact"]

#: v2: the run configuration became one versioned ``"config"`` dict;
#: version 1 (configuration scattered over top-level keys) is refused.
ARTIFACT_VERSION = 2


def ddmin_list(items: List, fails: Callable[[List], Optional[object]],
               max_executions: int = 400):
    """Generic ddmin over a flat list.

    ``fails(candidate)`` returns evidence (any truthy object) when the
    candidate still exhibits the failure, else ``None``.  ``items`` must
    already fail.  Returns ``(minimal_items, evidence, executions)``
    where the result is 1-minimal up to the execution budget.
    """
    executions = 0

    def run(candidate):
        nonlocal executions
        executions += 1
        return fails(candidate)

    evidence = run(items)
    if evidence is None:
        raise ValueError("items do not fail — nothing to shrink")
    items = list(items)
    n = 2
    while len(items) >= 2 and executions < max_executions:
        chunk = max(1, len(items) // n)
        reduced = False
        start = 0
        while start < len(items) and executions < max_executions:
            candidate = items[:start] + items[start + chunk:]
            if candidate:
                ev = run(candidate)
                if ev is not None:
                    items = candidate
                    evidence = ev
                    n = max(n - 1, 2)
                    reduced = True
                    continue
            start += chunk
        if not reduced:
            if n >= len(items):
                break
            n = min(n * 2, len(items))
    return items, evidence, executions


@dataclass
class ShrinkResult:
    """Outcome of one shrinking session."""

    program: RmaProgram          # the 1-minimal failing program
    report: CheckReport          # the violation it still produces
    original_ops: int
    executions: int              # oracle runs spent shrinking

    @property
    def shrunk_ops(self) -> int:
        return len(self.program.ops)


def _fails(program: RmaProgram, config: RunConfig) -> Optional[CheckReport]:
    """Run + check; the report when it still violates, else ``None``.

    A candidate subset that deadlocks or crashes the stack is treated
    as *not failing* (we are minimizing the observed conformance
    violation, not whatever new problem an odd subset tickles)."""
    try:
        report = config.check(program)
    except Exception:
        return None
    return report if report.violations else None


def shrink(
    program: RmaProgram,
    fabric=None,
    seed: Optional[int] = None,
    chaos: float = 0.0,
    mutations: Tuple[str, ...] = (),
    shared: bool = False,
    max_executions: int = 400,
    config: Optional[RunConfig] = None,
) -> ShrinkResult:
    """ddmin-minimize a failing program.

    Pass either a :class:`RunConfig` (``config=...`` or as the second
    positional argument) or the legacy loose ``(fabric, seed, ...)``
    parameters.  ``program`` must already fail on the configuration
    (raises otherwise — a shrink request for a passing program is a
    caller bug)."""
    if config is None:
        if isinstance(fabric, RunConfig):
            config = fabric
        else:
            config = RunConfig(fabric=fabric, seed=seed, chaos=chaos,
                               mutations=tuple(mutations), shared=shared)

    def fails(candidate_ops: List) -> Optional[CheckReport]:
        return _fails(program.with_ops(candidate_ops), config)

    try:
        ops, best_report, executions = ddmin_list(
            list(program.ops), fails, max_executions
        )
    except ValueError:
        raise ValueError(
            f"program does not fail on fabric={config.fabric!r} "
            f"seed={config.seed} — nothing to shrink")

    return ShrinkResult(program=program.with_ops(ops), report=best_report,
                        original_ops=len(program.ops),
                        executions=executions)


# ----------------------------------------------------------------------
# Replayable artifacts
# ----------------------------------------------------------------------
def write_artifact(path: str, doc: Dict) -> None:
    """Write ``doc`` as a reviewable JSON artifact of
    :data:`ARTIFACT_VERSION`."""
    with open(path, "w") as fh:
        json.dump(dict(doc, version=ARTIFACT_VERSION), fh, indent=2,
                  sort_keys=True)
        fh.write("\n")


def save_artifact(path: str, program: RmaProgram, report: CheckReport, *,
                  config: RunConfig) -> None:
    """Write a self-contained failing-program JSON artifact: the
    program, ``config`` as one versioned dict under ``"config"``, and
    the violations ``report`` observed."""
    write_artifact(path, {
        "config": config.to_dict(),
        "program": program.to_dict(),
        "violations": [
            {"check": v.check, "vid": v.vid, "message": v.message}
            for v in report.violations
        ],
    })


def load_artifact(path: str) -> Dict:
    """Load and validate an artifact file: a conformance program
    (``"config"`` and ``"program"``) or, with ``"kind": "durable_kv"``, a
    durability case (``"case"`` and ``"ops"``).

    A file that does not parse, has another version or kind, or lacks
    a key raises ``ValueError`` naming ``path`` and what is wrong."""
    from repro.check.durability import KV_ARTIFACT_KIND, kv_from_doc

    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ValueError(f"{path}: cannot read artifact: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: an artifact is a JSON object")
    version = doc.get("version")
    if version != ARTIFACT_VERSION:
        raise ValueError(
            f"{path}: artifact version {version!r} is not read (only "
            f"version {ARTIFACT_VERSION}); re-record it from the seed and "
            f"fabric it lists")
    kind = doc.get("kind")
    if kind not in (None, KV_ARTIFACT_KIND):
        raise ValueError(
            f"{path}: unknown artifact kind {kind!r} (a conformance "
            f"artifact has none, a durability one {KV_ARTIFACT_KIND!r})")
    try:
        if kind == KV_ARTIFACT_KIND:
            kv_from_doc(doc)
        else:
            RunConfig.from_dict(doc["config"])
            RmaProgram.from_dict(doc["program"]).validate()
    except KeyError as exc:
        raise ValueError(
            f"{path}: artifact has no {exc.args[0]!r} key") from None
    except TypeError as exc:
        raise ValueError(f"{path}: malformed artifact: {exc}") from None
    return doc


def describe_artifact(doc: Dict) -> str:
    """The one-line banner the CLI prints before a replay."""
    if doc.get("kind"):
        case = doc["case"]
        return (f"{doc['kind']} seed={case['seed']} rf={case['rf']} "
                f"mutations={doc.get('mutations', [])}")
    return RunConfig.from_dict(doc["config"]).describe()


def replay_artifact(source) -> List:
    """Re-execute an artifact — a path, or a document
    :func:`load_artifact` returned — on its recorded configuration and
    return the fresh violations (empty: none reproduced).

    A conformance program is re-checked by the oracle (through the full
    three-arm differential harness when recorded with ``ir_passes``);
    a ``durable_kv`` case by the durability oracle."""
    doc = load_artifact(source) if isinstance(source, str) else source
    if doc.get("kind"):
        from repro.check.durability import check_kv, kv_from_doc, run_kv

        return check_kv(run_kv(*kv_from_doc(doc)))
    program = RmaProgram.from_dict(doc["program"])
    return RunConfig.from_dict(doc["config"]).check(program).violations
