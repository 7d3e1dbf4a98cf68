"""The metric catalogue, BENCHMARK.json and the contract's limits."""

import json
import os
import re

from rmabench import ROOT
from rmabench.ledger import FILES, LAYERS
from rmabench.metrics import END_TO_END, PER_LAYER, benchmark_json
from rmabench.micro import MICRO_UNITS
from rmabench.workloads import WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def test_names_and_units_fit_the_charset():
    names = ([m["name"] for m in END_TO_END + PER_LAYER] + list(WORKLOADS))
    for name in names:
        assert NAME.match(name), name
    for m in END_TO_END + PER_LAYER:
        assert UNIT.match(m["unit"]), m
        assert m["better"] in ("higher", "lower")
    metric_names = [m["name"] for m in END_TO_END + PER_LAYER]
    assert len(metric_names) == len(set(metric_names))


def test_catalogue_is_the_one_the_issue_lists():
    assert list(WORKLOADS) == ["fig2", "halo256", "alltoall96", "torus_halo",
                               "store_mix", "notify_sync", "conform"]
    assert [m["name"] for m in END_TO_END] == [
        "wall_s", "ops_per_s", "setup_s", "peak_rss_mb"]
    per_layer = {m["name"] for m in PER_LAYER}
    assert len(PER_LAYER) <= 128
    for layer in LAYERS:
        assert {f"{layer}.self_s", f"{layer}.calls"} <= per_layer
    assert {f"{f}.self_s" for f in FILES} <= per_layer
    assert set(MICRO_UNITS) <= per_layer
    assert {"trace.total_s", "trace.overhead_x", "rma.train_share",
            "network.packets_per_op", "topo.hops", "notify.delivered",
            "network.retransmits", "sim_us"} <= per_layer


def test_contract_limits():
    doc = benchmark_json()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert 2 <= len(doc["workloads"]) <= 8
    for w in doc["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    assert 1 <= len(doc["end_to_end"]) <= 16
    for m in doc["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in doc["end_to_end"])}]
    for m in doc["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    assert len(json.dumps(doc)) < 64 * 1024


def test_benchmark_json_on_disk_is_the_catalogue():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        assert json.load(fh) == benchmark_json()
