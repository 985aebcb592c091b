"""README's examples run as written: its config parses and solves, its
library example prints what its comments say, and its CLI usage block names
the commands and options the CLI has."""

import contextlib
import io
import re
from pathlib import Path

from obfgame.cli import COMMANDS, OPTIONS, main
from obfgame.config import parse_config

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(language: str, after: str = "") -> str:
    """The first fenced block of ``language`` after the text ``after``."""
    start = README.index(after)
    return re.search(rf"^```{language}\n(.*?)^```$", README[start:],
                     re.M | re.S).group(1)


def test_config_example_parses_and_solves(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text(_block("ini"))
    assert len(parse_config(path).entries) == 17
    assert main(["solve", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().out.startswith("regime=PrivacyPromise ")


def test_library_example_prints_its_comments():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(_block("python", "## Library example"), {})
    regime, promise, tau_exact = out.getvalue().splitlines()
    assert regime == "PrivacyPromise"
    assert promise.startswith("1.2011")
    assert tau_exact.startswith("0.8515")


def test_usage_block_names_every_command_and_option():
    usage = _block("", "## CLI")
    commands = re.search(r"<([^>]*)>", usage).group(1).split("|")
    assert commands == list(COMMANDS)
    assert re.findall(r"--[a-z]+", usage) == list(OPTIONS)
