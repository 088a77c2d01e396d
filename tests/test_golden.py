"""Golden outputs: `tsvar verify` stdout, and the stdout, `report.txt` and
`trajectory.csv` of `tsvar solve` on every bundled problem, compared byte
for byte with the files under `tests/golden/`.

A performance change must leave these bytes alone.  To regenerate them
after a deliberate change of output, run

    PYTHONPATH=src python tests/test_golden.py

and explain every changed line in `CHANGES.md`.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from tsvar import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
PROBLEMS = tuple(
    case["problem"].removesuffix(".problem") for case in cli.load_bundled_manifest()["cases"]
)
REGENERATE = "PYTHONPATH=src python tests/test_golden.py"


def _run(argv, out=None) -> str:
    """stdout of `tsvar argv` and its exit code, with the output directory
    ``out`` masked."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    text = buf.getvalue()
    if out is not None:
        text = text.replace(str(out), "<out>")
    return f"{text}exit={code}\n"


def outputs(tmp: Path) -> dict[str, bytes]:
    """Every golden file by its path relative to ``tests/golden``, produced
    by the library under test, with `solve` writing below ``tmp``."""
    files = {"verify.txt": _run(["verify"]).encode()}
    for name in PROBLEMS:
        out = tmp / name
        path = cli._bundled_path(f"{name}.problem")
        files[f"{name}/stdout.txt"] = _run(["solve", "--problem", str(path), "--out", str(out)], out).encode()
        for written in ("report.txt", "trajectory.csv"):
            if (out / written).exists():
                files[f"{name}/{written}"] = (out / written).read_bytes()
    return files


def test_every_bundled_problem_is_golden():
    bundled = cli._bundled_path("manifest.json").parent.iterdir()
    assert sorted(PROBLEMS) == sorted(p.name.removesuffix(".problem") for p in bundled
                                      if p.name.endswith(".problem"))


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    return outputs(tmp_path_factory.mktemp("golden"))


def test_the_same_files_exist(produced):
    kept = {str(p.relative_to(GOLDEN)) for p in GOLDEN.rglob("*") if p.is_file()}
    assert set(produced) == kept, (
        f"golden file set changed; regenerate only with `{REGENERATE}` and the "
        "change explained in CHANGES.md"
    )


@pytest.mark.parametrize("name", ["verify.txt", *(f"{p}/{f}" for p in PROBLEMS
                                  for f in ("stdout.txt", "report.txt", "trajectory.csv"))])
def test_output_is_byte_identical(produced, name):
    if name not in produced:
        assert not (GOLDEN / name).exists()
        return
    assert produced[name] == (GOLDEN / name).read_bytes(), (
        f"{name} differs from tests/golden/{name}; regenerate only with "
        f"`{REGENERATE}` and every changed line explained in CHANGES.md"
    )


if __name__ == "__main__":
    import shutil
    import tempfile

    shutil.rmtree(GOLDEN, ignore_errors=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in outputs(Path(tmp)).items():
            (GOLDEN / name).parent.mkdir(parents=True, exist_ok=True)
            (GOLDEN / name).write_bytes(data)
    sys.exit(0)
