"""README examples run as written, and the functions it names exist."""

import re
from pathlib import Path

from acspectra import boundary_analysis, cmv, jacobi, schrodinger
from acspectra.harness_cli import run_config

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _blocks(lang):
    return re.findall(rf"```{lang}\n(.*?)```", README, flags=re.S)


def test_python_examples_run():
    blocks = _blocks("python")
    assert len(blocks) >= 2
    for code in blocks:
        exec(compile(code, "README.md", "exec"), {})


def test_config_example_runs(tmp_path):
    configs = [b for b in _blocks("json") if '"operators"' in b]
    assert len(configs) == 1
    path = tmp_path / "suite.json"
    path.write_text(configs[0], encoding="utf-8")
    assert run_config(str(path), str(tmp_path / "reports")) == 0
    assert (tmp_path / "reports" / "free_jacobi_report.json").exists()


def test_named_functions_exist():
    """Every name in the family table, and every function named in the
    boundary-values section, is an attribute of its module."""
    rows = [line for line in README.splitlines()
            if line.startswith("| ") and line.count("`") >= 6
            and not line.startswith("| concept")]
    assert rows
    for row in rows:
        cells = [c.strip().strip("`") for c in row.strip("|").split("|")]
        for mod, name in zip((jacobi, cmv, schrodinger), cells[1:]):
            assert hasattr(mod, name), (mod.__name__, name)
    section = README.split("### Boundary values")[1].split("###")[0]
    names = [n for n in re.findall(r"`([a-z_]+)`", section) if "_" in n]
    assert names
    for name in names:
        assert hasattr(boundary_analysis, name), name
