"""The per-layer wall-clock ledger of the traced pass.

A traced worker runs its workload's timed sections under ``cProfile``
(installed by rmabench only; nothing under ``src/`` changes) and hands
the raw call statistics to :func:`build_ledger`, which folds every
function into a *layer* by its module path:

- a **boundary span** is any call whose callee's layer differs from its
  caller's; per (caller layer → callee layer) edge the ledger keeps the
  call count and the inclusive seconds;
- a layer's **self time** is the time its spans were open minus the
  part covered by child spans, which is exactly the summed own time of
  its functions.  Code without a source file — C builtins (``heapq``,
  NumPy copies, …) and functions compiled from a string (every
  dataclass ``__init__``) — is *inline*: its time is charged to the
  calling function, so ``machine.cache`` owns its ``memcpy``,
  ``sim.core`` its ``heappop`` and ``network.nic`` the ``Packet`` it
  constructs;
- ``sum(self_s over layers) == total_s`` holds by construction — every
  profiled second lands in exactly one layer.
"""

from __future__ import annotations

import os
from collections import defaultdict
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Sequence

__all__ = ["LAYERS", "FILES", "module_of", "longest_prefix", "layer_of",
           "Call", "Entry", "entries_from_profile", "build_ledger",
           "ledger_metrics"]

#: Ledger layers: the packages under ``src/repro`` the workloads
#: stress, rmabench's own rank programs, and everything else.
LAYERS = ("sim", "machine", "network", "topo", "datatypes", "mpi", "rma",
          "pgas_ga", "notify", "faults", "obs", "check", "ir", "workload",
          "other")

#: Module prefix -> layer, where the two differ.
_FOLDED = {"ga": "pgas_ga", "pgas": "pgas_ga", "rmabench": "workload"}

#: Files reported on their own line (dotted module, relative to repro).
FILES = ("sim.core", "sim.events", "sim.process", "network.fabric",
         "network.nic", "network.transport", "rma.engine", "rma.train",
         "rma.serializer", "mpi.nexus", "mpi.endpoint", "machine.cache",
         "topo.runtime", "check.oracle", "check.reference")


def module_of(filename: str) -> Optional[str]:
    """Dotted module of a source file, relative to the ``repro``
    package (``…/src/repro/rma/engine.py`` → ``rma.engine``) or rooted
    at ``rmabench``; ``None`` for anything else (stdlib, NumPy)."""
    path = filename.replace(os.sep, "/")
    for marker, prefix in (("/repro/", ""), ("/rmabench/", "rmabench.")):
        at = path.rfind(marker)
        if at < 0 or not path.endswith(".py"):
            continue
        rel = path[at + len(marker):-3]
        if rel.endswith("/__init__"):
            rel = rel[:-len("/__init__")]
        return (prefix + rel.replace("/", ".")).rstrip(".") or None
    return None


def longest_prefix(module: str, names: Iterable[str]) -> Optional[str]:
    """The longest of ``names`` that is ``module`` or a dotted prefix
    of it — so ``rma.engine.route`` still reports as ``rma.engine``
    after a file is split into a sub-package."""
    best = None
    for name in names:
        if module == name or module.startswith(name + "."):
            if best is None or len(name) > len(best):
                best = name
    return best


def layer_of(module: Optional[str]) -> str:
    """Ledger layer of a dotted module (see :data:`LAYERS`)."""
    if module is None:
        return "other"
    head = module.split(".", 1)[0]
    head = _FOLDED.get(head, head)
    return head if head in LAYERS else "other"


class Call(NamedTuple):
    """One caller → callee arc of the profile."""

    callee: Any                 # hashable function identity
    module: Optional[str]       # callee's module; None for non-library code
    inline: bool                # no source file: charged to the caller
    calls: int
    self_s: float               # callee's own time on this arc
    total_s: float              # callee's inclusive time on this arc


class Entry(NamedTuple):
    """One profiled function with its outgoing arcs."""

    key: Any
    module: Optional[str]
    inline: bool
    calls: int
    self_s: float
    children: Sequence[Call]


def _identify(code):
    """``(key, module, inline)`` for a cProfile code field."""
    if isinstance(code, str):           # C function: '<built-in …>'
        return code, None, True
    # The code object itself is the identity: every generated
    # ``__init__`` is ('<string>', 2, '__init__').
    if code.co_filename.startswith("<"):    # '<string>': generated code
        return code, None, True
    return code, module_of(code.co_filename), False


def entries_from_profile(profile) -> List[Entry]:
    """Normalize ``cProfile.Profile.getstats()``."""
    entries = []
    for st in profile.getstats():
        key, module, inline = _identify(st.code)
        children = []
        for sub in st.calls or ():
            ckey, cmodule, cinline = _identify(sub.code)
            children.append(Call(ckey, cmodule, cinline, sub.callcount,
                                 sub.inlinetime, sub.totaltime))
        entries.append(Entry(key, module, inline, st.callcount,
                             st.inlinetime, children))
    return entries


def build_ledger(entries: Sequence[Entry]) -> Dict[str, Any]:
    """Fold profile entries into the layer ledger (module docstring)."""
    self_s: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    file_s: Dict[str, float] = defaultdict(float)
    edges: Dict[tuple, List[float]] = defaultdict(lambda: [0, 0.0])
    charged: Dict[Any, float] = defaultdict(float)

    def own(module: Optional[str], seconds: float) -> None:
        self_s[layer_of(module)] += seconds
        name = longest_prefix(module, FILES) if module else None
        if name is not None:
            file_s[name] += seconds

    for e in entries:
        if e.inline:
            continue
        own(e.module, e.self_s)
        calls[layer_of(e.module)] += e.calls
    for e in entries:
        # Inline code that calls back into Python (sorted(key=…)) has
        # no layer of its own; its arcs start in ``other``.
        src = "other" if e.inline else layer_of(e.module)
        for c in e.children:
            if c.inline:
                if not e.inline:
                    own(e.module, c.self_s)
                    charged[c.callee] += c.self_s
                continue
            dst = layer_of(c.module)
            if dst != src:
                edge = edges[(src, dst)]
                edge[0] += c.calls
                edge[1] += c.total_s
    for e in entries:
        if e.inline:
            # What no source-file caller accounts for (top of the
            # profile, inline called from inline) stays in ``other``.
            self_s["other"] += e.self_s - charged[e.key]

    return {
        "total_s": sum(e.self_s for e in entries),
        "layers": {name: {"self_s": self_s[name], "calls": calls[name]}
                   for name in LAYERS},
        "files": {name: file_s[name] for name in FILES},
        "edges": [{"from": src, "to": dst, "count": int(n),
                   "inclusive_s": incl}
                  for (src, dst), (n, incl) in sorted(edges.items())],
    }


def ledger_metrics(ledger: Dict[str, Any]) -> Dict[str, float]:
    """The ledger as flat ``name -> value`` metrics."""
    out: Dict[str, float] = {}
    for name, row in ledger["layers"].items():
        out[f"{name}.self_s"] = row["self_s"]
        out[f"{name}.calls"] = row["calls"]
    for name, seconds in ledger["files"].items():
        out[f"{name}.self_s"] = seconds
    out["trace.total_s"] = ledger["total_s"]
    return out
