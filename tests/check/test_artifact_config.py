"""RunConfig: the single versioned run-configuration dict (DESIGN
§16.4), and the refusal of a version-1 artifact (embedded below)."""

import json

import pytest

from repro.check.config import CONFIG_VERSION, RunConfig
from repro.check.program import RmaProgram
from repro.check.shrink import load_artifact, replay_artifact, save_artifact

#: A verbatim version-1 artifact: configuration scattered over
#: top-level keys, no "config" dict.  The program is the ordering
#: litmus — two back-to-back puts where only the `ordering` attribute
#: sequences the second — failing under the drop_order_barrier engine
#: mutation on an unordered fabric.
V1_ARTIFACT = {
    "chaos": 0.0,
    "fabric": "unordered",
    "mutations": ["drop_order_barrier"],
    "program": {
        "label": "litmus",
        "n_ranks": 2,
        "ops": [
            {"kind": "put", "rank": 0, "value": 1, "var": 0},
            {"attrs": ["ordering"], "kind": "put", "rank": 0,
             "value": 2, "var": 0},
        ],
        "region_size": 1024,
        "strict": False,
        "vars": [
            {"owner": 1, "user": -1, "vid": 0, "vtype": "data"},
        ],
    },
    "seed": 0,
    "shared": False,
    "version": 1,
    "violations": [
        {
            "check": "final-state",
            "message": "final value 1 not in admissible set [2] "
                       "(writes [(0, 1), (1, 2)])",
            "vid": 0,
        },
    ],
}


class TestRunConfig:
    def test_dict_round_trip(self):
        config = RunConfig(fabric="torus", seed=7, chaos=0.02,
                           mutations=("drop_order_barrier",), shared=True,
                           notify=True, ir_passes=("coalesce_flushes",))
        doc = config.to_dict()
        assert doc["version"] == CONFIG_VERSION
        assert RunConfig.from_dict(doc) == config

    def test_defaults_fill_missing_keys(self):
        config = RunConfig.from_dict({"fabric": "flat", "seed": 3})
        assert config == RunConfig(fabric="flat", seed=3)

    def test_rejects_unknown_version(self):
        with pytest.raises(ValueError, match="version"):
            RunConfig.from_dict({"version": 99, "fabric": "flat", "seed": 0})

    def test_describe_mentions_every_toggle(self):
        banner = RunConfig(
            fabric="flat", seed=1, chaos=0.05, mutations=("m",),
            shared=True, notify=True, ir_passes=("aggregate_puts",),
        ).describe()
        for needle in ("fabric=flat", "seed=1", "chaos=0.05", "shared",
                       "notify", "mutations=['m']",
                       "ir_passes=['aggregate_puts']"):
            assert needle in banner

    def test_with_override(self):
        base = RunConfig(fabric="flat", seed=0)
        assert base.with_(seed=9).seed == 9
        assert base.seed == 0  # frozen: with_ copies


    def test_from_artifact_reads_v1_top_level_keys(self):
        """No version-1 reader is left: a v1 document's top-level keys
        are not read into a config, the version is refused by name."""
        with pytest.raises(ValueError, match="version 1"):
            RunConfig.from_dict(V1_ARTIFACT)
        with pytest.raises(ValueError, match="version 1"):
            RunConfig.from_dict({"version": 1, "fabric": "unordered",
                                 "seed": 0})


class TestV1ArtifactRegression:
    """A version-1 artifact is refused by the one loader, and what the
    refusal tells the user to do — re-record from the seed and fabric
    the file lists — reproduces the violation it recorded."""

    @pytest.fixture()
    def v1_path(self, tmp_path):
        path = tmp_path / "v1_artifact.json"
        path.write_text(json.dumps(V1_ARTIFACT, indent=2, sort_keys=True))
        return str(path)

    def test_load_normalizes_config(self, v1_path):
        with pytest.raises(ValueError) as exc:
            load_artifact(v1_path)
        message = str(exc.value)
        assert v1_path in message
        assert "version 1" in message
        assert "re-record it from the seed and fabric" in message

    def test_replay_reproduces_recorded_violation(self, v1_path, tmp_path):
        with pytest.raises(ValueError, match="version 1"):
            replay_artifact(v1_path)
        config = RunConfig(fabric=V1_ARTIFACT["fabric"],
                           seed=V1_ARTIFACT["seed"],
                           mutations=tuple(V1_ARTIFACT["mutations"]))
        program = RmaProgram.from_dict(V1_ARTIFACT["program"])
        v2_path = str(tmp_path / "v2_artifact.json")
        save_artifact(v2_path, program, config.check(program), config=config)
        assert load_artifact(v2_path)["config"] == config.to_dict()
        assert ([v.check for v in replay_artifact(v2_path)]
                == [v["check"] for v in V1_ARTIFACT["violations"]])
