"""CLI surface tests for ``python -m repro.check``."""

import json
import os

import pytest

from repro.check.cli import main


def test_clean_sweep_exits_zero(capsys):
    rc = main(["--seeds", "2", "--fabric", "ordered", "-q"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "violation" in out  # summary line
    assert "checked" in out


def test_seed_range_spec(capsys):
    rc = main(["--seeds", "3:5", "--fabric", "ordered,torus", "-q"])
    assert rc == 0
    out = capsys.readouterr().out
    # 2 seeds x 2 fabrics = 4 program-runs.
    assert "checked 4 program-runs" in out


def test_bad_specs_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["--seeds", "0:0"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["--fabric", "nope"])
    assert exc.value.code == 2


@pytest.mark.parametrize("text, needle", [
    ("not json {", "cannot read artifact"),
    (json.dumps({"version": 2, "config": {"fabric": "ordered", "seed": 0}}),
     "no 'program' key"),
    (json.dumps({"version": 2, "kind": "durable_kv"}), "no 'case' key"),
], ids=["not-json", "no-program", "kv-no-case"])
def test_replay_of_malformed_artifact_is_a_usage_error(tmp_path, capsys,
                                                       text, needle):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main(["--replay", str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert str(path) in err
    assert needle in err


def test_mutated_run_writes_replayable_artifact(tmp_path, capsys):
    rc = main([
        "--seeds", "25", "--fabric", "unordered",
        "--mutate", "drop_order_barrier", "--shrink",
        "--max-failures", "1", "--artifact-dir", str(tmp_path), "-q",
    ])
    assert rc == 1
    artifacts = [p for p in os.listdir(tmp_path) if p.endswith(".json")]
    assert artifacts
    doc = json.loads((tmp_path / artifacts[0]).read_text())
    assert doc["config"]["mutations"] == ["drop_order_barrier"]
    assert doc["violations"]
    # Shrunk reproducer stays tiny (acceptance: <= 4 ops).
    assert len(doc["program"]["ops"]) <= 4
    capsys.readouterr()

    rc = main(["--replay", str(tmp_path / artifacts[0])])
    assert rc == 1
    assert "reproduced" in capsys.readouterr().out


def test_replay_restores_shared_machine_config(tmp_path, capsys):
    """ISSUE 9 satellite: replaying a ``--shared`` artifact must
    restore the paired-machine + shared-window configuration from the
    artifact itself (no flags needed) and say so, instead of silently
    replaying on the default machine."""
    rc = main([
        "--seeds", "25", "--fabric", "unordered", "--shared",
        "--mutate", "drop_order_barrier",
        "--max-failures", "1", "--artifact-dir", str(tmp_path), "-q",
    ])
    assert rc == 1
    artifacts = [p for p in os.listdir(tmp_path) if p.endswith(".json")]
    assert artifacts
    doc = json.loads((tmp_path / artifacts[0]).read_text())
    assert doc["config"]["shared"] is True
    capsys.readouterr()

    # Flag-free replay: the recorded config is restored and announced.
    rc = main(["--replay", str(tmp_path / artifacts[0])])
    out = capsys.readouterr().out
    assert rc == 1
    assert "shared (paired machine" in out
    assert "reproduced" in out


def test_replay_notes_ignored_flags(tmp_path, capsys):
    """Passing --shared/--chaos/--mutate alongside --replay used to be
    silently ignored; now the CLI says the artifact's configuration
    wins."""
    rc = main([
        "--seeds", "25", "--fabric", "unordered",
        "--mutate", "drop_order_barrier",
        "--max-failures", "1", "--artifact-dir", str(tmp_path), "-q",
    ])
    assert rc == 1
    artifacts = [p for p in os.listdir(tmp_path) if p.endswith(".json")]
    capsys.readouterr()

    rc = main(["--replay", str(tmp_path / artifacts[0]), "--shared"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "ignored during replay" in out


def test_notify_sweep_clean_and_mutation_caught(tmp_path, capsys):
    """The --notify mode: a clean sweep passes; the planted
    notify_before_apply mutation is caught and its artifact records
    the notify provenance."""
    assert main(["--notify", "--seeds", "3", "--fabric",
                 "ordered,unordered", "-q"]) == 0
    capsys.readouterr()

    rc = main([
        "--notify", "--seeds", "6", "--fabric", "torus",
        "--mutate", "notify_before_apply", "--shrink",
        "--max-failures", "1", "--artifact-dir", str(tmp_path), "-q",
    ])
    assert rc == 1
    artifacts = [p for p in os.listdir(tmp_path) if p.endswith(".json")]
    assert artifacts
    doc = json.loads((tmp_path / artifacts[0]).read_text())
    assert doc["config"]["notify"] is True
    kinds = {op["kind"] for op in doc["program"]["ops"]}
    assert "wait_notify" in kinds
