"""``python -m repro.obs.report`` prints only what the simulation decides:
two runs of one mode print the same bytes, so a changed line in its
output is a changed result, never host noise."""

from repro.obs.report import main


def test_ir_quick_prints_identical_stdout(capsys):
    outputs = []
    for _ in range(2):
        assert main(["--ir", "--quick"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert "pinned ir-opt-bench" in outputs[0]
    assert "wall" not in outputs[0]
