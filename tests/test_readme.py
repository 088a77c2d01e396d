"""The README's problem-file and library examples run as documented."""

import contextlib
import io
import re
from pathlib import Path

from tsvar import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _blocks(lang):
    return re.findall(rf"```{lang}\n(.*?)```", README, flags=re.S)


def test_problem_file_examples_parse():
    blocks = _blocks("ini")
    assert blocks
    for text in blocks:
        _, overrides = cli.parse_problem_text(text)
        if "[solver]" in text:
            assert set(overrides) == cli._SECTION_KEYS["solver"]


def test_library_example_prints_its_commented_outputs():
    (code,) = _blocks("python")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    printed = out.getvalue().splitlines()
    prints = [line for line in code.splitlines() if line.startswith("print(")]
    assert len(printed) == len(prints)
    checked = 0
    for line, got in zip(prints, printed):
        if "#" in line:
            # "# <output>" or "# <output> (what it is)"
            assert got == line.split("#", 1)[1].strip().split(" (")[0]
            checked += 1
    assert checked == 2
