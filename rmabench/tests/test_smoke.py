"""End-to-end smoke: the commands run, verify, and print what
BENCHMARK.json says they print."""

import json
import os
import subprocess
import sys
import time

import pytest

from rmabench import ROOT
from rmabench.metrics import END_TO_END, PER_LAYER
from rmabench.workloads import WORKLOADS


def _rmabench(*args, cwd=ROOT, timeout=120):
    return subprocess.run([sys.executable, "-m", "rmabench", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


def test_quick_full_run_under_30_s():
    t0 = time.time()
    proc = _rmabench("--quick")
    elapsed = time.time() - t0
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert elapsed < 30, f"--quick took {elapsed:.0f} s"
    with open(os.path.join(ROOT, "rmabench", "out",
                           "results_quick.json")) as fh:
        doc = json.load(fh)
    assert doc["seed"] == 0 and doc["quick"] and doc["repeats"] == 2
    assert sorted(doc["workloads"]) == sorted(WORKLOADS)
    per_layer = {m["name"] for m in PER_LAYER}
    for name, res in doc["workloads"].items():
        assert res["correct"] and res["metrics"]["fail_share"] == 0.0, name
        for metric in ("wall_s", "ops_per_s", "setup_s", "peak_rss_mb",
                       "sim_us"):
            assert res["metrics"][metric] > 0, (name, metric)
            assert f"{name:12s} {metric:12s}" in proc.stdout
        # Every printed per-layer metric is a catalogued one, and the
        # ledger's exact-sum identity holds.
        assert set(res["per_layer"]) | set(doc["micro"]) | {"sim_us"} \
            == per_layer
        layer_sum = sum(v for k, v in res["per_layer"].items()
                        if k.endswith(".self_s") and k.count(".") == 1)
        assert layer_sum == pytest.approx(res["per_layer"]["trace.total_s"],
                                          rel=0.01)
        assert os.path.exists(os.path.join(ROOT, "rmabench", "out",
                                           f"trace_{name}.json"))
    routed = {n for n, r in doc["workloads"].items()
              if r["counters"]["topo.hops"] > 0}
    assert routed == {"torus_halo", "store_mix", "conform"}


@pytest.mark.parametrize("trace", [0, 1])
def test_driver_mode_prints_the_contract_line(trace):
    proc = _rmabench("--workload", "halo256", "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--quick")
    assert proc.returncode == 0, proc.stderr[-2000:]
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0
    assert doc["attempted"] >= 1
    catalogue = PER_LAYER if trace else END_TO_END
    assert {name: m["unit"] for name, m in doc["metrics"].items()} == {
        m["name"]: m["unit"] for m in catalogue}
    for name, m in doc["metrics"].items():
        assert isinstance(m["value"], (int, float)), name


def test_a_slow_host_does_not_read_as_a_slow_library():
    from rmabench.harness import summarize

    def repeat(host_x):
        # The same work on a host running host_x times slower.
        return {"workload": "halo256", "seed": 0, "wall_s": 1.5 * host_x,
                "setup_s": 0.25 * host_x, "host_x": host_x,
                "peak_rss_mb": 50.0, "sim_us": 9.5, "ops": 100, "failed": 0,
                "failures": [], "counters": {"rma.ops": 100}, "detail": {}}

    quiet = summarize([repeat(0.9), repeat(0.9), repeat(0.9)])
    episode = summarize([repeat(1.8), repeat(1.7), repeat(1.4)])
    for metric in ("wall_s", "setup_s", "ops_per_s"):
        assert episode["metrics"][metric] == pytest.approx(
            quiet["metrics"][metric])
    assert quiet["metrics"]["wall_s"] == pytest.approx(1.5)
    assert episode["host_x"]["median"] == 1.7 and episode["correct"]


def test_traced_pass_must_reproduce_the_untraced_run():
    from rmabench.harness import traced_disagreements

    counters = {"rma.ops": 10, "topo.hops": 0}
    traced = {"sim_us": 1.5, "counters": dict(counters), "failed": 0,
              "failures": []}
    assert traced_disagreements(traced, 1.5, counters) == []
    assert len(traced_disagreements(traced, 1.25, counters)) == 1
    [msg] = traced_disagreements(dict(traced, counters={"rma.ops": 11,
                                                        "topo.hops": 0}),
                                 1.5, counters)
    assert "rma.ops" in msg and "topo.hops" not in msg
    wrong = dict(traced, failed=3, failures=["halo: rank 3 holds the wrong "
                                             "halos"])
    assert len(traced_disagreements(wrong, 1.5, counters)) == 2


def test_no_result_without_the_library(tmp_path):
    # A directory that holds only the benchmark: refuse, print nothing.
    import shutil

    shutil.copytree(os.path.join(ROOT, "rmabench"), tmp_path / "rmabench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _rmabench("--workload", "fig2", "--seed", "0", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
