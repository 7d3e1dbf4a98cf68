"""rmabench: the repeatable end-to-end + per-layer benchmark of the RMA
simulator (see ``rmabench/README.md``).

Run from the repository root::

    python3 -m rmabench                      # every workload, every metric
    python3 -m rmabench --workload halo256 --seed 3 --seconds 12 --trace 0

The package imports nothing from ``repro`` at import time; the harness
process stays library-free and every measurement happens in a fresh
worker subprocess (``rmabench.worker``).
"""

import os

#: Repository root (the directory holding ``rmabench/`` and ``src/``).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Where the simulator library lives; workers put it on ``sys.path``.
SRC = os.path.join(ROOT, "src")
