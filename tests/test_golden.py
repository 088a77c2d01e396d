"""Golden outputs, compared byte for byte with the files under
`tests/golden/`:

- `tsvar verify` stdout;
- the stdout, `report.txt` and `trajectory.csv` of `tsvar solve` on every
  bundled problem, and of `tsvar solve --seed 7` on the problems whose
  reported start depends on the seed (`seed7/`);
- the stdout of `tsvar eval`, and the stdout and `residual.csv` of
  `tsvar residual --form el1|el2|nbc` with and without `--out`, on the
  bundled `product_unit` trajectory and on a seeded 2,001-point one
  (`trajectory/<name>/`).

A performance change must leave these bytes alone.  To regenerate them
after a deliberate change of output, run

    PYTHONPATH=src python tests/test_golden.py

and explain every changed line in `CHANGES.md`.
"""

import contextlib
import io
import random
import sys
from pathlib import Path

import pytest

from tsvar import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
PROBLEMS = tuple(
    case["problem"].removesuffix(".problem") for case in cli.load_bundled_manifest()["cases"]
)
SEEDED = ("free_endpoint", "iso_M2", "iso_M3", "iso_M4")  # iso_M2, iso_M4 report start 2
TRAJECTORIES = ("product_unit", "seeded_2001")
FORMS = ("el1", "el2", "nbc")
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


def _seeded_trajectory(tmp: Path) -> tuple[Path, Path]:
    """A problem on a jittered explicit scale of 2,001 points with the right
    endpoint free, and a trajectory on it with full-precision cells, both
    drawn from a fixed seed and written below ``tmp``.

    Only the stdlib generator's ``random()`` (whose stream Python keeps
    across versions), rounding and the four arithmetic operations make the
    inputs, and the integrands are polynomials, so no vectorised
    transcendental function, whose last bit may differ by CPU, enters.
    """
    rng = random.Random(2020)
    n = 2001
    pts = [0.0]
    for _ in range(n - 1):
        pts.append(round(pts[-1] + (0.5 + rng.random()) * 1e-3, 12))
    s = [p / pts[-1] for p in pts]
    ys = [0.8 * x * (1 - x) * (3 - 4 * x) + 0.3 * x + 1e-3 * (rng.random() - 0.5) for x in s]
    problem = tmp / "seeded_2001.problem"
    problem.write_text(
        "[timescale]\ntimescale = explicit [" + ", ".join(map(repr, pts)) + "]\n\n"
        "[lagrangian]\ndelta = y*y*v + 0.3*v*v\nnabla = t*v*v + 0.2*y*y*y\n\n"
        f"[boundary]\na = fixed:{ys[0]!r}\nb = free\n",
        encoding="utf-8",
    )
    trajectory = tmp / "seeded_2001.csv"
    trajectory.write_text(
        "t,value\n" + "".join(f"{t!r},{y!r}\n" for t, y in zip(pts, ys)), encoding="utf-8"
    )
    return problem, trajectory


def _trajectory_outputs(name: str, problem, trajectory, tmp: Path) -> dict[str, bytes]:
    """`eval` and `residual` on one trajectory, keyed by golden path."""
    inputs = ["--problem", str(problem), "--trajectory", str(trajectory)]
    files = {f"trajectory/{name}/eval.txt": _run(["eval", *inputs]).encode()}
    for form in FORMS:
        argv = ["residual", *inputs, "--form", form]
        files[f"trajectory/{name}/{form}.txt"] = _run(argv).encode()
        out = tmp / f"{name}_{form}"
        files[f"trajectory/{name}/{form}_out.txt"] = _run([*argv, "--out", str(out)], out).encode()
        if (out / "residual.csv").exists():
            files[f"trajectory/{name}/{form}_out/residual.csv"] = (out / "residual.csv").read_bytes()
    return files


def outputs(tmp: Path) -> dict[str, bytes]:
    """Every golden file by its path relative to ``tests/golden``, produced
    by the library under test, with every command writing below ``tmp``."""
    files = {"verify.txt": _run(["verify"]).encode()}
    files.update(_trajectory_outputs(
        "product_unit", cli._bundled_path("product_unit.problem"),
        cli._bundled_path("product_unit_trajectory.csv"), tmp,
    ))
    files.update(_trajectory_outputs("seeded_2001", *_seeded_trajectory(tmp), tmp))
    runs = [(name, []) for name in PROBLEMS] + [(f"seed7/{name}", ["--seed", "7"]) for name in SEEDED]
    for key, flags in runs:
        out = tmp / key
        path = cli._bundled_path(f"{key.removeprefix('seed7/')}.problem")
        argv = ["solve", "--problem", str(path), *flags, "--out", str(out)]
        files[f"{key}/stdout.txt"] = _run(argv, out).encode()
        for written in ("report.txt", "trajectory.csv"):
            if (out / written).exists():
                files[f"{key}/{written}"] = (out / written).read_bytes()
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


@pytest.mark.parametrize("name", [
    "verify.txt",
    *(f"{p}/{f}" for p in (*PROBLEMS, *(f"seed7/{s}" for s in SEEDED))
      for f in ("stdout.txt", "report.txt", "trajectory.csv")),
    *(f"trajectory/{t}/eval.txt" for t in TRAJECTORIES),
    *(f"trajectory/{t}/{f}" for t in TRAJECTORIES for form in FORMS
      for f in (f"{form}.txt", f"{form}_out.txt", f"{form}_out/residual.csv")),
])
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
