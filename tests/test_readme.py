"""Every `fbe ...` line of the README's CLI block runs as documented."""

import json
import re
import shlex
from pathlib import Path

import pytest

from fbe.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _cli_lines() -> list[str]:
    text = README.read_text()
    block = re.search(r"## CLI\n.*?```sh\n(.*?)```", text, re.S).group(1)
    return [line for line in block.splitlines() if line.startswith("fbe ")]


# a documented raster must not be finer than the cloud's tolerance
@pytest.mark.filterwarnings("error::fbe.basin.ResolutionWarning")
def test_readme_cli_block(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    lines = _cli_lines()
    assert len(lines) >= 10
    for line in lines:
        command, _, expected = line.partition("# ->")
        rc = main(shlex.split(command, comments=True)[1:])
        out = capsys.readouterr().out
        assert rc == 0, line
        if expected:
            assert out.split()[0] == expected.strip(), line
        if command.startswith("fbe manifold dist"):
            d = json.loads(out)
            assert abs(d["d_L"] - 1.0) <= d["error_bound"], line
    # the continuation raster is documented as byte-identical
    assert (tmp_path / "fb.pgm").read_bytes() == (tmp_path / "fb2.pgm").read_bytes()
