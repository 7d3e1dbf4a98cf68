"""Durability checking: the ``durable_kv`` workload and its oracle.

The workload is an open-loop replicated key-value store on a
:class:`~repro.ga.replicated.ReplicatedGlobalArray`: every rank is a
client doing seeded ``put``/``acc``/``get`` traffic (hot-key skewed,
single-writer key partitioning — client ``c`` writes keys ``k`` with
``k % n_ranks == c``, which keeps the oracle exact) while a fault plan
kills one rank mid-run (optionally restarting it, optionally under
drop/dup/delay chaos).  Clients watch the failure detector; one settle
period after their first suspicion the survivors collectively
:meth:`~repro.ga.replicated.ReplicatedGlobalArray.recover`, then keep
serving.  At the end the lowest surviving rank reads every key back.

The oracle checks the **durability contract**: an *acknowledged* write
(the workload records the ledger entry only after ``put``/``acc``
returned, i.e. after every live replica applied it) must never be
lost.  Per key it folds the issue-ordered op log into the set of
admissible finals — acked ops must apply, unacked ops (failed or
in-flight at the kill) may or may not have applied — and flags any
final outside that set.

Violations ddmin-shrink to a 1-minimal op list
(:func:`repro.check.shrink.ddmin_list`) and serialize to the
conformance fuzzer's artifact format with ``"kind": "durable_kv"``;
:func:`repro.check.shrink.replay_artifact` replays either kind.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.check.shrink import ddmin_list, write_artifact

__all__ = [
    "KvOp", "KvCase", "KvResult", "generate_case", "run_kv", "check_kv",
    "shrink_kv", "save_kv_artifact", "kv_from_doc", "sweep",
]

KV_ARTIFACT_KIND = "durable_kv"


@dataclass(frozen=True)
class KvOp:
    """One client operation (plain data; any subsequence is valid)."""

    client: int
    kind: str          # "put" | "acc" | "get"
    key: int
    value: float       # put value / acc delta (ignored for get)
    think: float       # pre-op think time, µs


@dataclass(frozen=True)
class KvCase:
    """One seeded durability scenario."""

    seed: int
    victim: int
    kill_at: float
    restart_at: Optional[float] = None
    n_ranks: int = 4
    n_keys: int = 16
    rf: int = 2
    chaos: float = 0.0


@dataclass
class KvResult:
    """Everything the oracle needs from one run."""

    case: KvCase
    #: key -> [(op, acked)] in issue order (single writer per key).
    key_log: Dict[int, List[Tuple[KvOp, bool]]]
    finals: Dict[int, float]
    survivors: List[int]
    deadlock: Optional[str] = None
    stats: Dict[str, float] = field(default_factory=dict)


def generate_case(seed: int, rf: int = 2, chaos: float = 0.0,
                  n_ranks: int = 4, n_keys: int = 16,
                  ops_per_client: int = 25) -> Tuple[KvCase, List[KvOp]]:
    """Seeded scenario + op list (deterministic in all arguments)."""
    rng = np.random.default_rng(seed)
    victim = int(rng.integers(n_ranks))
    kill_at = float(rng.uniform(800.0, 2600.0))
    restart_at = None
    if rng.random() < 0.5:
        restart_at = kill_at + float(rng.uniform(400.0, 1200.0))
    case = KvCase(seed=seed, victim=victim, kill_at=kill_at,
                  restart_at=restart_at, n_ranks=n_ranks, n_keys=n_keys,
                  rf=rf, chaos=chaos)
    ops: List[KvOp] = []
    for client in range(n_ranks):
        crng = np.random.default_rng((seed, client))
        own = [k for k in range(n_keys) if k % n_ranks == client]
        hot = own[:max(1, min(2, len(own)))]
        for i in range(ops_per_client):
            r = crng.random()
            kind = "put" if r < 0.45 else ("acc" if r < 0.8 else "get")
            if kind == "get":
                key = int(crng.integers(n_keys))
                value = 0.0
            else:
                pool = hot if crng.random() < 0.8 else own
                key = int(pool[crng.integers(len(pool))])
                value = float(client * 1_000_000 + i) if kind == "put" \
                    else float(i + 1)
            think = float(crng.exponential(60.0) + 5.0)
            ops.append(KvOp(client, kind, key, value, think))
    return case, ops


def run_kv(case: KvCase, ops: Sequence[KvOp],
           mutations: Tuple[str, ...] = (),
           world_out: Optional[List] = None) -> KvResult:
    """Execute the workload; returns the evidence for :func:`check_kv`.

    ``world_out``, when given, receives the finished :class:`World` so
    callers (the ``--resil`` observability report) can read its full
    metrics registry, not just the summary ``stats``."""
    from repro.faults.plan import FaultPlan
    from repro.ga.global_array import GaError
    from repro.ga.replicated import ReplicatedGlobalArray
    from repro.resil.detector import ResilienceConfig
    from repro.rma.target_mem import RmaError
    from repro.runtime import World
    from repro.sim.core import SimulationError

    plan = FaultPlan().kill(case.victim, case.kill_at,
                            restart_at=case.restart_at)
    if case.chaos:
        p = case.chaos
        plan.drop(p).duplicate(p / 2).delay(p, mean=20.0)
    config = ResilienceConfig()
    world = World(n_ranks=case.n_ranks, seed=case.seed, fault_plan=plan,
                  resilience=config)

    settle = config.suspicion_timeout * 1.5
    horizon = case.kill_at + config.suspicion_timeout + settle + 2000.0
    by_client: Dict[int, List[KvOp]] = {r: [] for r in range(case.n_ranks)}
    for op in ops:
        by_client[op.client].append(op)

    key_log: Dict[int, List] = {}   # entries are mutable [op, acked]
    finals: Dict[int, float] = {}
    survivors = [r for r in range(case.n_ranks) if r != case.victim]
    reader = min(survivors)

    def program(ctx):
        ga = yield from ReplicatedGlobalArray.create(
            ctx, (case.n_keys,), dtype="float64", rf=case.rf)
        ga.conformance_mutations = frozenset(mutations)
        yield from ga.sync()
        if case.rf == 1:
            yield from ga.checkpoint()
        resil = ctx.world.resil
        my_ops = by_client[ctx.rank]
        i = 0
        first_suspect = None
        recovered = False
        while True:
            if first_suspect is None and resil.suspected(ctx.rank):
                first_suspect = ctx.sim.now
            if (not recovered and first_suspect is not None
                    and ctx.sim.now >= first_suspect + settle):
                yield from ga.recover()
                recovered = True
            if i < len(my_ops):
                op = my_ops[i]
                i += 1
                yield ctx.sim.timeout(op.think)
                if op.kind == "get":
                    try:
                        yield from ga.get(op.key)
                    except (RmaError, GaError):
                        pass
                    continue
                entry = [op, False]
                key_log.setdefault(op.key, []).append(entry)
                try:
                    if op.kind == "put":
                        yield from ga.put(op.key, [op.value])
                    else:
                        yield from ga.acc(op.key, [op.value])
                except (RmaError, GaError):
                    continue          # unacked: may or may not have applied
                entry[1] = True       # the ack point: now durable
            else:
                if ctx.sim.now >= horizon:
                    break
                yield ctx.sim.timeout(150.0)
        if ctx.rank == reader:
            yield ctx.sim.timeout(500.0)  # let peers' last acks drain
            for key in range(case.n_keys):
                finals[key] = float((yield from ga.get(key))[0])
        return None

    deadlock = None
    try:
        world.run(program, limit=horizon * 4)
    except SimulationError as exc:
        deadlock = str(exc)

    detect = world.metrics.histogram("resil.detect_latency")
    mttr = world.metrics.histogram("resil.mttr")
    stats = {
        "detect_latency_max": detect.max or 0.0,
        "mttr_max": mttr.max or 0.0,
        "suspects": world.resil.stats["suspects"],
        "false_suspects": world.resil.stats["false_suspects"],
    }
    if world_out is not None:
        world_out.append(world)
    return KvResult(
        case=case,
        key_log={k: [(op, acked) for op, acked in v]
                 for k, v in key_log.items()},
        finals=finals, survivors=survivors, deadlock=deadlock, stats=stats,
    )


# ----------------------------------------------------------------------
# The oracle
# ----------------------------------------------------------------------
_ADMISSIBLE_CAP = 4096


def _admissible(log: List[Tuple[KvOp, bool]]) -> set:
    """Fold a key's issue-ordered op log into the admissible finals.

    Acked ops must apply; unacked ops may apply (at their slot, or —
    for the rare chaos-delayed stragglers — late: a late put overrides,
    late acc deltas add on top).  The per-op values are distinct
    integers in float64, so set membership is exact.
    """
    vals = {0.0}
    late_puts = set()
    late_accs = []
    for op, acked in log:
        if op.kind == "put":
            applied = {op.value}
        else:
            applied = {v + op.value for v in vals}
        if acked:
            vals = applied
        else:
            vals = vals | applied
            if op.kind == "put":
                late_puts.add(op.value)
            else:
                late_accs.append(op.value)
        if len(vals) > _ADMISSIBLE_CAP:  # pragma: no cover - safety valve
            break
    vals |= late_puts
    for delta in late_accs[:8]:
        vals |= {v + delta for v in vals}
    return vals


def check_kv(result: KvResult) -> List[str]:
    """Durability violations in ``result`` (empty list = clean run)."""
    violations: List[str] = []
    if result.deadlock is not None:
        violations.append(f"deadlock: {result.deadlock}")
        return violations
    if not result.finals:
        violations.append("no finals: reader produced no state")
        return violations
    for key in sorted(result.key_log):
        log = result.key_log[key]
        final = result.finals.get(key)
        admissible = _admissible(log)
        if final not in admissible:
            acked = [op.value for op, a in log if a]
            violations.append(
                f"key {key}: final {final!r} not admissible "
                f"(acked values {acked}, {len(log)} ops, "
                f"{len(admissible)} admissible)"
            )
    return violations


# ----------------------------------------------------------------------
# Shrinking + artifacts
# ----------------------------------------------------------------------
def shrink_kv(case: KvCase, ops: Sequence[KvOp],
              mutations: Tuple[str, ...] = (),
              max_executions: int = 200):
    """ddmin the op list to a 1-minimal still-violating reproducer.

    Returns ``(ops, violations, executions)``."""
    def fails(candidate: List[KvOp]) -> Optional[List[str]]:
        try:
            violations = check_kv(run_kv(case, candidate, mutations))
        except Exception:  # a weird subset crashing is not our failure
            return None
        return violations or None

    return ddmin_list(list(ops), fails, max_executions)


def save_kv_artifact(path: str, case: KvCase, ops: Sequence[KvOp],
                     violations: Sequence[str],
                     mutations: Tuple[str, ...] = ()) -> None:
    """Write a self-contained replayable durability artifact."""
    write_artifact(path, {
        "kind": KV_ARTIFACT_KIND,
        "case": asdict(case),
        "mutations": list(mutations),
        "ops": [asdict(op) for op in ops],
        "violations": list(violations),
    })


def kv_from_doc(doc: Dict) -> Tuple[KvCase, List[KvOp], Tuple[str, ...]]:
    """The ``(case, ops, mutations)`` a durability artifact records."""
    return (KvCase(**doc["case"]), [KvOp(**d) for d in doc["ops"]],
            tuple(doc.get("mutations", ())))


# ----------------------------------------------------------------------
# The sweep driver (CLI's --durability mode)
# ----------------------------------------------------------------------
def sweep(seeds, *, rf: int = 2, chaos: float = 0.0,
          do_shrink: bool = False, artifact_dir: str = ".",
          mutations: Tuple[str, ...] = (), max_failures: int = 5,
          quiet: bool = False) -> int:
    """Run the durability oracle over ``seeds``; returns failure count."""
    import os

    failures = 0
    for seed in seeds:
        case, ops = generate_case(seed, rf=rf, chaos=chaos)
        result = run_kv(case, ops, mutations)
        violations = check_kv(result)
        tag = (f"seed {seed} [rf={rf} victim={case.victim} "
               f"kill@{case.kill_at:.0f}"
               + (f" restart@{case.restart_at:.0f}" if case.restart_at
                  else "") + "]")
        if not violations:
            if not quiet:
                print(f"{tag}: durable "
                      f"({sum(len(v) for v in result.key_log.values())} "
                      f"writes, detect {result.stats['detect_latency_max']:.0f}us, "
                      f"mttr {result.stats['mttr_max']:.0f}us)")
            continue
        failures += 1
        print(f"{tag}: {len(violations)} DURABILITY VIOLATION(S)")
        for v in violations:
            print(f"  {v}")
        out_ops = list(ops)
        out_violations = violations
        if do_shrink:
            try:
                out_ops, out_violations, execs = shrink_kv(
                    case, ops, mutations)
                print(f"  shrunk {len(ops)} -> {len(out_ops)} ops "
                      f"in {execs} executions")
            except ValueError:
                print("  (violation did not reproduce under shrink)")
        path = os.path.join(artifact_dir, f"kv-fail-rf{rf}-s{seed}.json")
        save_kv_artifact(path, case, out_ops, out_violations, mutations)
        print(f"  artifact: {path}")
        if failures >= max_failures:
            print(f"stopping after {failures} failing case(s)")
            break
    return failures
