"""Package surface: every export resolves, and every demo script and README
example runs."""

import inspect
import os
import pathlib
import re
import subprocess
import sys

import pytest

import dcmkit
from dcmkit import cli, verify

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = (ROOT / "README.md").read_text()
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", README, re.M | re.S)


def test_every_export_resolves():
    assert len(set(dcmkit.__all__)) == len(dcmkit.__all__)
    missing = [name for name in dcmkit.__all__ if not hasattr(dcmkit, name)]
    assert missing == []


# the parameter names of every public callable and verify suite; an option
# added or removed is a deliberate edit of this table. Exceptions take the
# message Exception takes, and PRESETS and SCHEDULES are tables, not callables.
OPTION_SURFACE = {
    "BoundParams": ("beta_s", "p_min", "d_min", "beta_g", "c_o", "c_m", "capacity", "p_max"),
    "ConditioningModel": ("kind", "quad", "lin", "const", "b_max"),
    "CoolingModel": ("kind", "regimes", "b_max", "period"),
    "CoolingRegime": ("name", "start", "end", "coeffs"),
    "CostBreakdown": ("grid_energy", "onsite_energy", "maintenance", "server_switching",
                      "generator_startup"),
    "ExperimentReport": ("label", "horizon", "lookahead", "reference_kind", "results"),
    "GeneratorModel": ("capacity", "c_o", "c_m", "beta_g", "count"),
    "Instance": ("workload", "price", "server", "generator", "cooling", "conditioning", "label"),
    "OngridParams": ("beta_s", "p_min", "d_min"),
    "Schedule": ("x", "y", "u", "v"),
    "ServerModel": ("c_idle", "c_peak", "beta_s"),
    "TraceFile": ("workload", "price", "regimes"),
    "brute_force_cp": ("instance", "budget"),
    "brute_force_dcm": ("instance", "budget"),
    "brute_force_ep": ("gen", "energy", "price", "budget"),
    "build_instance": ("trace", "cfg"),
    "chase": ("gen", "energy", "price", "lookahead"),
    "check_schedule": ("instance", "sched"),
    "cp_cost": ("instance", "x"),
    "cp_offline_slices": ("instance",),
    "dcmon": ("instance", "lookahead", "params", "walk"),
    "decomposition_tightness": ("periods_small", "periods_large"),
    "dispatch": ("gen", "y", "p", "d"),
    "dispatched_schedule": ("instance", "x", "y"),
    "ep_cost": ("gen", "energy", "price", "y"),
    "ep_offline_slices": ("gen", "energy", "price"),
    "evaluate": ("instance", "sched"),
    "gcsr": ("instance", "lookahead", "walk"),
    "gcsr_slices": ("instance", "lookahead"),
    "load_config": ("path", "overrides"),
    "load_trace": ("path",),
    "ratio_bound_ep": ("lookahead", "params"),
    "ratio_bound_hybrid": ("lookahead", "params"),
    "ratio_bound_hybrid_loose": ("lookahead", "params"),
    "ratio_bound_ongrid": ("lookahead", "params"),
    "rho_decomposition": ("params",),
    "run_comparison": ("instance", "lookahead", "state_budget"),
    "run_verification": ("level",),
    "solve_cp_offline": ("instance",),
    "solve_dcm_offline": ("instance", "state_budget"),
    "solve_ep_offline": ("gen", "energy", "price"),
    "supply_cost": ("gen", "y", "p", "d"),
    "sweep_generators": ("instance", "counts", "lookahead", "state_budget"),
    "sweep_lookahead": ("instance", "lookaheads", "state_budget"),
    "synthesize_trace": ("seed", "days", "servers", "preset"),
    "worst_case_gcsr_instance": ("periods", "gap", "idle_ratio"),
    "worst_case_rho_instance": ("periods", "gap", "generators"),
    "verify.verify_dispatch": ("samples",),
    "verify.verify_offline_oracle": ("samples",),
    "verify.verify_decomposition_oracle": ("samples",),
    "verify.verify_gcsr_bounds": ("samples",),
    "verify.verify_ep_hybrid_bounds": ("samples",),
    "verify.verify_slice_structure": ("samples",),
    "verify.verify_causality": ("samples",),
}


def test_option_surface_is_frozen():
    public = {name: getattr(dcmkit, name) for name in dcmkit.__all__}
    public = {name: obj for name, obj in public.items() if callable(obj)
              and not (isinstance(obj, type) and issubclass(obj, Exception))}
    public.update({f"verify.{suite.__name__}": suite for suite, _ in verify._SUITES.values()})
    assert {name: tuple(inspect.signature(obj).parameters) for name, obj in public.items()} \
        == OPTION_SURFACE


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
