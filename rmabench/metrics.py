"""The benchmark's metric catalogue: every name, unit and direction.

``BENCHMARK.json`` at the repository root is :func:`benchmark_json`
written out; ``rmabench/tests`` keep the two and the printed metrics in
step.
"""

from __future__ import annotations

from typing import Any, Dict, List

from rmabench.ledger import FILES, LAYERS
from rmabench.micro import MICRO_UNITS

__all__ = ["END_TO_END", "PER_LAYER", "COUNTER_UNITS", "RUN_SECONDS",
           "benchmark_json"]

#: How long one ``--trace 0`` run measures (seconds of timed work).
RUN_SECONDS = 10

#: End-to-end metrics: what a user of the simulator sees.  ``bound`` is
#: how far the metric may worsen, as a share of the parent's median,
#: before a change counts as a regression.
END_TO_END: List[Dict[str, Any]] = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.1},
]

#: Exact counters read from the library's public statistics.
COUNTER_UNITS = {
    "rma.ops": ("count", "lower"),
    "rma.train_ops": ("count", "higher"),
    "rma.train_share": ("ratio", "higher"),
    "rma.shm_ops": ("count", "higher"),
    "rma.bytes_put": ("B", "lower"),
    "network.packets_sent": ("count", "lower"),
    "network.bytes_sent": ("B", "lower"),
    "network.packets_per_op": ("1/op", "lower"),
    "network.retransmits": ("count", "lower"),
    "topo.hops": ("count", "lower"),
    "notify.delivered": ("count", "lower"),
}


def _per_layer() -> List[Dict[str, str]]:
    out = []
    for layer in LAYERS:
        out.append({"name": f"{layer}.self_s", "unit": "s",
                    "better": "lower"})
        out.append({"name": f"{layer}.calls", "unit": "count",
                    "better": "lower"})
    for name in FILES:
        out.append({"name": f"{name}.self_s", "unit": "s",
                    "better": "lower"})
    out.append({"name": "trace.total_s", "unit": "s", "better": "lower"})
    out.append({"name": "trace.overhead_x", "unit": "x", "better": "lower"})
    for name, (unit, better) in COUNTER_UNITS.items():
        out.append({"name": name, "unit": unit, "better": better})
    for name, unit in MICRO_UNITS.items():
        out.append({"name": name, "unit": unit,
                    "better": "higher" if unit.endswith("/s") else "lower"})
    # The simulated-time observable: exact, seed for seed.  It moves
    # only when the model itself changes, which a change must announce.
    out.append({"name": "sim_us", "unit": "sim_us", "better": "lower"})
    return out


#: Per-layer metrics, printed by ``--trace 1``.
PER_LAYER: List[Dict[str, str]] = _per_layer()


def benchmark_json() -> Dict[str, Any]:
    """The contents of ``BENCHMARK.json``."""
    from rmabench.workloads import WORKLOADS

    return {
        "command": ["python3", "-m", "rmabench"],
        "paths": ["rmabench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why}
                      for w in WORKLOADS.values()],
        "end_to_end": END_TO_END,
        "per_layer": PER_LAYER,
    }
