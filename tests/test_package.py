"""Package surface: every export resolves, and every demo script and README
example runs."""

import os
import pathlib
import re
import subprocess
import sys

import pytest

import dcmkit
from dcmkit import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = (ROOT / "README.md").read_text()
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", README, re.M | re.S)


def test_every_export_resolves():
    assert len(set(dcmkit.__all__)) == len(dcmkit.__all__)
    missing = [name for name in dcmkit.__all__ if not hasattr(dcmkit, name)]
    assert missing == []


def test_import_leaves_jsonschema_unloaded():
    # configs are checked by the package's own schema interpreter and nothing
    # imports jsonschema, so a fresh import leaves it unloaded
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, dcmkit; print('jsonschema' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr[-2000:]


_COMMANDS_SCRIPT = """
import json, sys
before = set(sys.modules)
from dcmkit import cli
for command in (["solve", "--algo", "offline"], ["compare"], ["sweep"]):
    assert cli.main([*command, "--config", sys.argv[1], "--out", sys.argv[2]]) == 0
added = {name.partition(".")[0] for name in set(sys.modules) - before}
# numpy.random's Cython extensions register a Cython runtime module
added = {name for name in added if not name.startswith(("_cython_", "cython_runtime"))}
print(json.dumps(sorted(added - set(sys.stdlib_module_names) - {"numpy", "dcmkit"})))
"""


def test_commands_load_only_the_standard_library_and_numpy(tmp_path):
    # solve, compare and sweep check their config without a third-party validator
    config = tmp_path / "run.json"
    config.write_text('{"servers": 6, "days": 2, "lookahead": 2, "generator": {"count": 2}}')
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _COMMANDS_SCRIPT, str(config), str(tmp_path / "out.json")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stdout + proc.stderr[-2000:]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # each demo cleans up after itself: the temporary directory it is given stays empty
    temp = tmp_path / "temp"
    temp.mkdir()
    env = dict(os.environ, TMPDIR=str(temp))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert sorted(path.name for path in temp.iterdir()) == []


@pytest.mark.parametrize("block", README_BLOCKS,
                         ids=[f"block{i}" for i in range(len(README_BLOCKS))])
def test_readme_python_block_runs(block, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", block], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_readme_solve_list_names_every_algorithm():
    assert README_BLOCKS  # the Quick start block at least
    listed = re.search(r"`solve` runs one algorithm \(([^)]*)\)", README)
    assert tuple(re.findall(r"`([^`]+)`", listed.group(1))) == cli.ALGORITHMS
