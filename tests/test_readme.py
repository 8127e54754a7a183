"""README examples run as written: the library quick start, and every
`svamsim` line of the CLI section, each in a fresh directory that holds the
README's sweep.cfg. The align and sweep lines get `--trials 5` appended to
keep them quick; the flag overrides the line's own value and the file's."""

import csv
import re
import shlex
from pathlib import Path

import pytest

from svamsim.cli import main as cli_main
from svamsim.harness import CRB_COLUMNS, CSV_COLUMNS

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _section(title: str) -> str:
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def _blocks(text: str, lang: str) -> list[str]:
    return re.findall(rf"```{lang}\n(.*?)```", text, re.S)


CLI = _section("CLI")
(SWEEP_CFG,) = _blocks(CLI, "ini")
CLI_LINES = [
    line
    for block in _blocks(CLI, "sh")
    for line in block.splitlines()
    if line.startswith("svamsim ")
]

HEADERS = {
    "align": CSV_COLUMNS,
    "sweep": CSV_COLUMNS,
    "crb": CRB_COLUMNS,
    "codebook": (
        "level", "index", "u_lo", "u_hi", "direction", "beamwidth", "method", "taps",
    ),
}
TRAJECTORY_HEADER = (
    "trial", "true_angle", "t", "beam_direction", "beamwidth",
    "gain_db_at_truth", "peak_prob", "mode_index", "estimate",
)


def test_quick_start_runs(tmp_path, monkeypatch, capsys):
    (code,) = _blocks(_section("Library quick start"), "python")
    monkeypatch.chdir(tmp_path)
    exec(code, {})
    assert float(capsys.readouterr().out) >= 0.0


@pytest.mark.parametrize(
    "line", CLI_LINES, ids=[f"{k}-{ln.split()[1]}" for k, ln in enumerate(CLI_LINES)]
)
def test_cli_line_runs_and_writes_its_header(line, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sweep.cfg").write_text(SWEEP_CFG)
    argv = shlex.split(line)[1:]
    command = argv[0]
    if command in ("align", "sweep"):
        argv += ["--trials", "5"]
    assert cli_main(argv) == 0
    trajectories = None
    if "--trajectories" in argv:
        trajectories = argv[argv.index("--trajectories") + 1]
    written = sorted(tmp_path.glob("*.csv"))
    assert written
    for path in written:
        with open(path, newline="") as fh:
            header = tuple(next(csv.reader(fh)))
        want = TRAJECTORY_HEADER if path.name == trajectories else HEADERS[command]
        assert header == want, path.name
