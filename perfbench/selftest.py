"""Self-tests of the benchmark itself (not part of the package's test suite).

Run from the root of a checkout:

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import signal
import sys
from time import perf_counter

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import check  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from dcmkit import analysis, cli, offline  # noqa: E402

# two-day traces keep the exact DP and every other layer on the path in well
# under a second per command
TINY = workloads.Workload(
    "tiny", (workloads.Run("ny", 2, 4), workloads.Run("flat", 2, 4)), "exact"
)


@pytest.fixture
def tiny_argvs(tmp_path):
    return workloads.write_inputs(TINY, 7, str(tmp_path))


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def _traces(seed, directory):
    texts = []
    for argv in workloads.write_inputs(TINY, seed, str(directory)):
        with open(argv[argv.index("--trace") + 1]) as fh:
            texts.append(fh.read())
    return texts


def test_inputs_depend_only_on_seed(tmp_path):
    first = _traces(3, tmp_path / "a")
    assert _traces(3, tmp_path / "b") == first
    assert _traces(4, tmp_path / "c") != first


def test_checker_rejects_doctored_reports(tiny_argvs):
    argv = tiny_argvs[0]
    assert cli.main(argv) == 0
    with open(argv[-1]) as fh:
        text = fh.read()
    assert check.check_compare_report(text, "exact") == []
    assert check.check_compare_report(text, "decomposed")
    assert check.check_compare_report("{", "exact")

    below = json.loads(text)
    below["algorithms"]["dcmon"]["total"] = below["algorithms"]["offline"]["total"] * 0.99
    assert any("above dcmon" in p for p in check.check_compare_report(json.dumps(below), "exact"))

    ratio = json.loads(text)
    ratio["ratios"]["gcsr_vs_cpoff"] = 0.99
    assert any("gcsr_vs_cpoff" in p for p in check.check_compare_report(json.dumps(ratio), "exact"))


def test_failed_exit_and_changed_bytes_count_as_failures(tiny_argvs):
    checker = run.Checker(TINY)
    run.run_pass(tiny_argvs, checker)
    assert (checker.attempted, checker.failed) == (2, 0)
    with open(tiny_argvs[0][-1], "a") as fh:
        fh.write(" ")
    checker.record(tiny_argvs[0], 0)
    checker.record(tiny_argvs[1], 3)
    assert (checker.attempted, checker.failed) == (4, 2)


def test_self_times_partition_traced_wall(tiny_argvs):
    checker = run.Checker(TINY)
    tracers: list = []
    passes = run.timed_passes(tiny_argvs, checker, 0.0, 1, tracers)
    assert checker.failed == 0
    spans = tracers[0].spans
    inclusive, calls, self_time = tracing.span_totals(spans)
    assert set(self_time) == {"cli", "harness", "analysis", "offline", "online", "model"}
    assert sum(self_time.values()) == pytest.approx(inclusive["cli.main"], rel=1e-9)
    assert inclusive["cli.main"] == pytest.approx(passes[0].seconds, rel=0.01)
    # nested calls made through imported names are seen
    parents = {spans[s[3]][0] for s in spans if s[0] == "model.demand_table"}
    assert {"offline.solve_dcm_offline", "online.gcsr_decide"} <= parents
    assert calls["online.gcsr"] == calls["online.dcmon"] == 2

    metrics = run.layer_metrics(tracers, passes, passes, report_bytes=1)
    assert set(run.PER_LAYER) <= set(metrics)
    assert metrics["offline.dp_states"] > 0 and metrics["offline.capacity_fallbacks"] == 0
    # wrappers are removed once the pass is over
    assert analysis.solve_dcm_offline is offline.solve_dcm_offline
    assert not hasattr(offline.solve_dcm_offline, "__wrapped__")


def test_refuses_to_run_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", str(tmp_path))
    assert run.main(["--workload", "month-compare", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


def test_speed_probe_samples_during_block_and_restores_handler():
    previous = signal.getsignal(signal.SIGALRM)
    with probe.SpeedProbe() as speed:
        start = perf_counter()
        while perf_counter() - start < 0.1:
            pass
    assert len(speed.samples) >= 3
    assert signal.getsignal(signal.SIGALRM) is previous
    assert probe.slowdown(probe.NOMINAL_PROBE_S, probe.COMMAND_EXPONENT) == 1.0
    assert probe.slowdown(2 * probe.NOMINAL_PROBE_S, 1.5) == pytest.approx(2**1.5)
