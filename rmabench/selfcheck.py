"""``--selfcheck``: pin rmabench's rank programs to the recorded model.

``BENCH_PR1.json`` holds the simulated times of the repository's
original Figure-2 and halo experiments.  rmabench carries its *own*
copies of those rank programs; re-running them at the recorded
parameters must reproduce the recorded values bit for bit — proof the
workloads here are the same experiments, not look-alikes.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys

from rmabench import ROOT, SRC

__all__ = ["selfcheck"]


class _Untimed:
    """Stands in for the worker's Meter: nothing is measured here."""

    timed = staticmethod(contextlib.nullcontext)


def selfcheck(baseline: str = os.path.join(ROOT, "BENCH_PR1.json")) -> int:
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from rmabench.workloads import _Checker, fig2_point, ring_halo

    with open(baseline) as fh:
        recorded = json.load(fh)["results"]
    fig2, halo = recorded["fig2"], recorded["halo"]
    check = _Checker()
    mismatches = 0

    def compare(label: str, got: float, want: float) -> None:
        nonlocal mismatches
        same = repr(got) == repr(want)
        mismatches += not same
        print(f"{label:28s} {got!r:>24} {'==' if same else '!='} {want!r}")

    for key, point in fig2["points"].items():
        mode, size = key.split("/")
        compare(f"fig2 {key} sim_us",
                fig2_point(_Untimed, mode, int(size),
                           fig2["puts_per_origin"], 0, check),
                point["sim_us"])
    shape = (halo["n_ranks"], halo["halo_bytes"], halo["iterations"])
    compare("halo sim_us_per_iter",
            ring_halo(_Untimed, *shape, 0, check, mpi2_window=True),
            halo["sim_us_per_iter"])
    # The workload proper skips the recording's unused MPI-2 window; that
    # shifts t0, so only the rounding of the quotient may differ.
    bare = ring_halo(_Untimed, *shape, 0, check)
    drift = abs(bare - halo["sim_us_per_iter"]) / halo["sim_us_per_iter"]
    print(f"{'halo without the MPI-2 window':28s} {bare!r:>24} "
          f"(relative difference {drift:.1e})")
    mismatches += drift > 1e-12
    for msg in check.failures:
        print(f"  ! {msg}")
    ok = mismatches == 0 and not check.failures
    print(f"selfcheck: {len(fig2['points'])} fig2 points + halo "
          f"{'reproduce' if ok else 'DO NOT reproduce'} "
          f"{os.path.basename(baseline)}")
    return 0 if ok else 1
