"""The differential conformance oracle.

Given one :class:`~repro.check.runner.RunResult`, derive the guarantee
each variable's accesses actually *requested* (from their
:class:`~repro.rma.attributes.RmaAttrs`, the intervening
``order``/``complete`` calls, epoch boundaries, and the fabric's
point-to-point ordering) and verify the observed execution against it:

====================  =================================================
requested guarantee    checker applied
====================  =================================================
(always)               per-variable final state in the admissible set
                       derived from the sequenced-write partial order
(always)               every traced read legal under
                       :class:`~repro.consistency.LocationPomset`
                       frontier semantics
single sequenced       read-your-writes
writer                 (:func:`~repro.consistency.check_read_your_writes`)
counters (+1 ops)      final == reference sum; fetch returns distinct
                       and in ``[0, total)``
rmw vars               returns + final exactly equal the zero-latency
                       reference executor
strict programs        :func:`~repro.consistency.check_causal`, plus
                       :func:`~repro.consistency.check_sequential` when
                       the history fits its backtracking cap (a
                       ``Skipped`` marker is surfaced otherwise)
notified puts          the waiter's post-``wait_notify`` loads must see
                       the notified write or newer (an ``observe`` edge
                       in the pomset), and every notified put lands on
                       the target's board exactly once — dups,
                       retransmissions and chaos included
====================  =================================================

Soundness is the design priority: a sequencing edge is only assumed
when the simulated stack *must* honour it, so any reported violation is
a real semantic bug (or an injected ``conformance_mutations`` one).  In
particular, when a chaos :class:`~repro.faults.plan.FaultPlan` is
active, fabric-FIFO edges and hardware-ack remote-completion edges are
dropped: retransmissions legitimately reorder delivery, and only
engine-level gating (ordering barriers, flushes, sw acks) survives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple

from repro.check.program import RmaProgram
from repro.check.reference import reference_execute
from repro.check.runner import RunResult
from repro.consistency import (
    LocationPomset,
    Skipped,
    check_causal,
    check_read_your_writes,
    check_sequential,
)

__all__ = ["CheckViolation", "CheckReport", "check_program"]

_WRITE_KINDS = ("put", "store")
_READ_KINDS = ("get", "load")
_FETCH_KINDS = ("fetch_add", "getacc")


@dataclass(frozen=True)
class CheckViolation:
    """One confirmed conformance violation."""

    check: str
    message: str
    vid: int = -1

    def __str__(self) -> str:
        where = f" (var {self.vid})" if self.vid >= 0 else ""
        return f"[{self.check}]{where} {self.message}"


@dataclass
class CheckReport:
    """Outcome of checking one execution."""

    program: RmaProgram
    fabric: str
    seed: int
    violations: List[CheckViolation] = field(default_factory=list)
    checks_run: List[str] = field(default_factory=list)
    skipped: List[str] = field(default_factory=list)
    #: The run's :attr:`RunResult.stats <repro.check.runner.RunResult.stats>`
    #: (what rode which fast path under the oracle).
    stats: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> Dict:
        return {
            "fabric": self.fabric,
            "seed": self.seed,
            "ok": self.ok,
            "checks_run": self.checks_run,
            "skipped": self.skipped,
            "violations": [
                {"check": v.check, "vid": v.vid, "message": v.message}
                for v in self.violations
            ],
        }


class _Sequencer:
    """Derives must-happen-in-order edges between same-rank accesses."""

    def __init__(self, program: RmaProgram, *, path_ordered: bool,
                 chaos: bool) -> None:
        self.ops = program.ops
        self.epochs = program.epochs()
        self.program = program
        self.chaos = chaos
        self.fabric_fifo = path_ordered and not chaos

    def sequenced(self, i: int, j: int) -> bool:
        """Whether op ``i`` must be applied before op ``j`` issues its
        effect, for two same-rank accesses to the same variable
        (``i < j`` in canonical — hence program — order)."""
        a, b = self.ops[i], self.ops[j]
        if self.epochs[i] < self.epochs[j]:
            return True  # complete_collective drains everything
        a_local = a.kind in ("store", "load")
        b_local = b.kind in ("store", "load")
        if a_local and b_local:
            return True  # one CPU, sequential execution
        if a_local or b_local:
            return False  # mixed local/remote: no cross-layer promise
        target = self.program.var(a.var).owner
        for k in range(i + 1, j):
            o = self.ops[k]
            if (o.rank == a.rank and o.kind in ("order", "complete")
                    and (o.target < 0 or o.target == target)):
                return True  # explicit fence/flush between them
        if b.has("ordering"):
            return True  # target-side sequence barrier gates b behind a
        if a.has("blocking") and a.has("atomicity"):
            return True  # sw ack: the call waited for application
        if a.has("blocking") and a.has("remote_completion") and not self.chaos:
            # hw/sw/flush remote completion all equal application on the
            # fault-free path; under chaos a hw delivery ack may race a
            # gated application, so the edge is dropped.
            return True
        if (self.fabric_fifo and not a.has("atomicity")
                and not b.has("atomicity")):
            # FIFO fabric, both applied at delivery (atomics detour via
            # the serializer, which breaks delivery-order application).
            return True
        return False


def _uniform_fill(blob: bytes) -> Tuple[bool, int]:
    """(is_uniform, fill_byte) for a slot's final bytes."""
    first = blob[0]
    return all(b == first for b in blob), first


def check_program(result: RunResult) -> CheckReport:
    """Verify one execution; returns a report of confirmed violations."""
    program = result.program
    report = CheckReport(program=program, fabric=result.fabric,
                         seed=result.seed, stats=dict(result.stats))
    ref = reference_execute(program)
    seq = _Sequencer(program, path_ordered=result.path_ordered,
                     chaos=result.chaos > 0.0)
    ops = program.ops
    epochs = program.epochs()
    n_epochs = (epochs[-1] + 1) if epochs else 1

    # ------------------------------------------------------------------
    # Data variables: admissible finals, pomset-legal reads, RYW.
    # ------------------------------------------------------------------
    ryw_locs: Set[Tuple[int, int, int]] = set()
    report.checks_run.append("final-state")
    report.checks_run.append("pomset-reads")

    for v in program.vars_of("data"):
        loc = result.locations[v.vid]
        widx = [i for i, op in enumerate(ops)
                if op.var == v.vid and op.kind in _WRITE_KINDS]
        ridx = [i for i, op in enumerate(ops)
                if op.var == v.vid and op.kind in _READ_KINDS]

        # -- final state ------------------------------------------------
        superseded: Set[int] = set()
        for x in widx:
            for y in widx:
                if y <= x:
                    continue
                if epochs[x] < epochs[y] or (
                        ops[x].rank == ops[y].rank and seq.sequenced(x, y)):
                    superseded.add(x)
                    break
        admissible = ({ops[i].value for i in widx if i not in superseded}
                      if widx else {0})
        uniform, fill = _uniform_fill(result.finals[v.vid])
        if not uniform:
            report.violations.append(CheckViolation(
                "final-state",
                f"torn final value {result.finals[v.vid]!r}", v.vid))
        elif fill not in admissible:
            report.violations.append(CheckViolation(
                "final-state",
                f"final value {fill} not in admissible set "
                f"{sorted(admissible)} (writes "
                f"{[(i, ops[i].value) for i in widx]})", v.vid))

        # -- match traced reads back to program reads -------------------
        # (per rank: trace order == program order, both are this rank's
        # sequential execution)
        reads_by_rank: Dict[int, List[int]] = {}
        for j in ridx:
            reads_by_rank.setdefault(ops[j].rank, []).append(j)
        read_values: Dict[int, Tuple[int, ...]] = {}
        trace_ok = True
        for rank, prog_reads in reads_by_rank.items():
            traced = [m for m in result.history.by_process(rank)
                      if m.location == loc and m.kind == "read"]
            if len(traced) != len(prog_reads):
                report.violations.append(CheckViolation(
                    "trace",
                    f"rank {rank} issued {len(prog_reads)} reads of var "
                    f"{v.vid} but traced {len(traced)}", v.vid))
                trace_ok = False
                continue
            for j, m in zip(prog_reads, traced):
                read_values[j] = tuple(m.value)

        # -- pomset frontier legality -----------------------------------
        if trace_ok:
            pom = LocationPomset(loc, initial=(0,) * 8)
            chain_of: Dict[int, Tuple[str, int]] = {}
            prev_by_rank: Dict[int, int] = {}
            n_chains = 0
            for i in widx:
                r = ops[i].rank
                p = prev_by_rank.get(r)
                if p is not None and seq.sequenced(p, i):
                    chain_of[i] = chain_of[p]
                else:
                    chain_of[i] = ("c", n_chains)
                    n_chains += 1
                prev_by_rank[r] = i
            readers = [("r", r) for r in range(program.n_ranks)]
            waits = [j for j, op in enumerate(ops)
                     if op.kind == "wait_notify" and op.var == v.vid]
            put_by_match = {ops[i].notify: i for i in widx
                           if ops[i].notify}
            wid_of: Dict[int, int] = {}
            for e in range(n_epochs):
                for i in widx:
                    if epochs[i] == e:
                        wid_of[i] = pom.write(chain_of[i],
                                              (ops[i].value,) * 8)
                for j in sorted(ridx + waits):
                    if epochs[j] != e:
                        continue
                    if ops[j].kind == "wait_notify":
                        # The wait returned, so the matching notified
                        # put is applied at this rank's memory: bind the
                        # waiter's frontier to that specific write (its
                        # chain predecessors become illegal; unrelated
                        # chains stay in the frontier).
                        i = put_by_match.get(ops[j].notify)
                        if i is not None and i in wid_of:
                            pom.observe(("r", ops[j].rank), wid_of[i])
                        continue
                    if j not in read_values:
                        continue
                    val = read_values[j]
                    if not pom.is_legal_read(("r", ops[j].rank), val):
                        report.violations.append(CheckViolation(
                            "pomset-reads",
                            f"rank {ops[j].rank} read {val[0] if len(set(val)) == 1 else val!r} "
                            f"at op {j}, outside the legal frontier "
                            f"{sorted({t[0] for t in pom.legal_read_values(('r', ops[j].rank))})}",
                            v.vid))
                # Epoch boundary: the collective completion publishes
                # every chain's latest write to every rank.
                for chain in set(chain_of.values()):
                    for reader in readers:
                        pom.synchronize(chain, reader)

        # -- read-your-writes eligibility -------------------------------
        writers = {ops[i].rank for i in widx}
        if len(writers) == 1:
            (r,) = writers
            eligible = True
            for j in ridx:
                if ops[j].rank != r:
                    continue
                prior = [i for i in widx if i < j]
                if prior and not seq.sequenced(prior[-1], j):
                    eligible = False
                    break
            if eligible:
                ryw_locs.add(loc)

    if ryw_locs:
        report.checks_run.append("read-your-writes")
        for violation in check_read_your_writes(
                result.history.restrict(ryw_locs)):
            report.violations.append(CheckViolation(
                "read-your-writes", str(violation)))

    # ------------------------------------------------------------------
    # Notified puts: exactly-once board delivery, chaos included.
    # ------------------------------------------------------------------
    notified = [(i, op) for i, op in enumerate(ops)
                if op.notify and op.kind in _WRITE_KINDS]
    if notified:
        report.checks_run.append("notify-exactly-once")
        expected: Dict[Tuple[int, int], int] = {}
        for i, op in notified:
            key = (program.var(op.var).owner, op.notify)
            expected[key] = expected.get(key, 0) + 1
        for key, want in sorted(expected.items()):
            got = result.notify_counts.get(key, 0)
            if got != want:
                report.violations.append(CheckViolation(
                    "notify-exactly-once",
                    f"match {key[1]} at rank {key[0]}: {got} board "
                    f"deliveries for {want} notified put(s)"))
        for key, got in sorted(result.notify_counts.items()):
            if got and key not in expected:
                report.violations.append(CheckViolation(
                    "notify-exactly-once",
                    f"phantom delivery: match {key[1]} at rank {key[0]} "
                    f"delivered {got}x but no program op notifies it"))

    # ------------------------------------------------------------------
    # Counter variables: exact sum, distinct in-range fetch returns.
    # ------------------------------------------------------------------
    counters = program.vars_of("counter")
    if counters:
        report.checks_run.append("counter-sum")
    for v in counters:
        total = ref.counter_sums[v.vid]
        final = result.final_int(v.vid)
        if final != total:
            report.violations.append(CheckViolation(
                "counter-sum",
                f"final {final} != expected sum {total}", v.vid))
        fetches = [i for i, op in enumerate(ops)
                   if op.var == v.vid and op.kind in _FETCH_KINDS]
        got = [result.returns[i] for i in fetches if i in result.returns]
        if len(got) != len(fetches):
            report.violations.append(CheckViolation(
                "counter-sum",
                f"{len(fetches) - len(got)} fetch return(s) missing",
                v.vid))
        if len(set(got)) != len(got):
            report.violations.append(CheckViolation(
                "counter-sum",
                f"fetch returns not distinct: {sorted(got)}", v.vid))
        for val in got:
            if not 0 <= val < max(total, 1):
                report.violations.append(CheckViolation(
                    "counter-sum",
                    f"fetch returned {val}, outside [0, {total})", v.vid))

    # ------------------------------------------------------------------
    # RMW variables: exact differential match with the reference.
    # ------------------------------------------------------------------
    rmws = program.vars_of("rmw")
    if rmws:
        report.checks_run.append("rmw-differential")
    for v in rmws:
        final = result.final_int(v.vid)
        if final != ref.finals[v.vid]:
            report.violations.append(CheckViolation(
                "rmw-differential",
                f"final {final} != reference {ref.finals[v.vid]}", v.vid))
        for i, op in enumerate(ops):
            if op.var != v.vid or op.kind not in ("cas", "swap",
                                                  "fetch_add"):
                continue
            got = result.returns.get(i)
            want = ref.returns.get(i)
            if got != want:
                report.violations.append(CheckViolation(
                    "rmw-differential",
                    f"op {i} ({op.kind}) returned {got}, reference says "
                    f"{want}", v.vid))

    # ------------------------------------------------------------------
    # Strict programs: the full consistency ladder.
    # ------------------------------------------------------------------
    if program.strict:
        report.checks_run.append("causal")
        for violation in check_causal(result.history):
            report.violations.append(CheckViolation("causal",
                                                    str(violation)))
        outcome = check_sequential(result.history)
        if isinstance(outcome, Skipped):
            report.skipped.append(f"sequential: {outcome.reason}")
        else:
            report.checks_run.append("sequential")
            for violation in outcome:
                report.violations.append(CheckViolation(
                    "sequential", str(violation)))

    return report
