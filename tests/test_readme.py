"""The README's examples run as written: the library quick start, and the
example config through the command line."""
import re
from pathlib import Path

from stochlab.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(section, lang):
    """The first ```lang block under the README heading `## section`."""
    start = README.index(f"\n## {section}\n")
    return re.search(rf"```{lang}\n(.*?)```", README[start:], re.S).group(1)


def test_the_library_quick_start_runs(capsys):
    exec(compile(_block("Library quick start", "python"), "README quick start", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert float(lines[0]) < 1e-3  # stays on the sphere
    # report.to_text(): the model, its conditions and the verdict
    assert lines[1] == "model: ell_stratonovich"
    assert lines[-3].startswith("condition drift_tangency: ")
    assert lines[-2].startswith("condition diffusion_tangency: ")
    assert lines[-1] == "verdict: invariant"


def test_the_example_config_runs_on_the_command_line(tmp_path, capsys):
    cfg = tmp_path / "experiment.yaml"
    cfg.write_text(_block("Command line", "yaml"))
    out = tmp_path / "results"
    args = ["--config", str(cfg), "--out", str(out)]
    assert main(["simulate", *args]) == 0
    assert capsys.readouterr().out == f"simulate: wrote {out}/trajectory.csv (1001 rows)\n"
    # the north pole is no equilibrium of ell: its noise columns do not vanish there
    assert main(["check", *args]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("check invariance: pass ")
    assert lines[1] == (f"check equilibrium: FAIL (nonzero: column_1, column_2) -> "
                        f"{out}/equilibrium.csv")
