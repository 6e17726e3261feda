"""Trace files, synthesis, run configuration, report emission, and the CLI."""

import contextlib
import csv
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import warnings

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcmkit import (
    PRESETS,
    BoundParams,
    ConfigError,
    FeasibilityError,
    LookaheadViolation,
    TraceFile,
    build_instance,
    load_trace,
    run_comparison,
    sweep_lookahead,
    synthesize_trace,
)
from dcmkit import cli, harness
from dcmkit.cli import main
from dcmkit.harness import (
    DEFAULT_CONFIG,
    SCHEMA_VERSION,
    emit_report,
    load_config,
    report_to_csv,
    report_to_json,
    validate_config,
)
from test_model import regime_at

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

TINY_CFG = {
    "servers": 6,
    "days": 2,
    "lookahead": 2,
    "generator": {"count": 2},
}


def write_tiny_config(tmp_path, extra=None):
    cfg = dict(TINY_CFG)
    if extra:
        cfg.update(extra)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    return str(path)


# ---------------------------------------------------------------------------
# trace files


def test_trace_round_trip_is_exact(tmp_path):
    trace = synthesize_trace(seed=5, days=1, servers=20)
    path = tmp_path / "trace.csv"
    trace.write(str(path))
    back = TraceFile.load(str(path))
    assert np.array_equal(back.workload, trace.workload)
    assert np.array_equal(back.price, trace.price)
    assert back.regimes == trace.regimes
    # writing the loaded trace again reproduces the bytes
    out = io.StringIO()
    back.dump(out)
    assert out.getvalue() == path.read_text()


def test_trace_without_regime_column(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("t,workload,price\n1,2.0,0.1\n2,0.0,0.2\n")
    trace = TraceFile.load(str(path))
    assert trace.regimes is None
    workload, price = load_trace(str(path))
    assert np.array_equal(workload, [2.0, 0.0])
    assert np.array_equal(price, [0.1, 0.2])
    out = io.StringIO()
    trace.dump(out)
    assert out.getvalue() == path.read_text()


def test_trace_parse_rejects_bad_header():
    with pytest.raises(ConfigError, match="expected header 't,workload,price"):
        TraceFile.parse(io.StringIO("time,load,cost\n1,1,1\n"))
    with pytest.raises(ConfigError, match="empty trace"):
        TraceFile.parse(io.StringIO(""))
    with pytest.raises(ConfigError, match="no data rows"):
        TraceFile.parse(io.StringIO("t,workload,price\n"))


def test_trace_parse_rejects_gapped_slots():
    body = "t,workload,price\n1,1.0,0.1\n3,1.0,0.1\n"
    with pytest.raises(ConfigError, match="non-contiguous slot index at line 3"):
        TraceFile.parse(io.StringIO(body))


def test_trace_parse_rejects_bad_values():
    with pytest.raises(ConfigError, match="line 2"):
        TraceFile.parse(io.StringIO("t,workload,price\n1,abc,0.1\n"))
    with pytest.raises(ConfigError, match="negative workload"):
        TraceFile.parse(io.StringIO("t,workload,price\n1,-1.0,0.1\n"))
    with pytest.raises(ConfigError, match="negative price"):
        TraceFile.parse(io.StringIO("t,workload,price\n1,1.0,-0.1\n"))
    with pytest.raises(ConfigError, match="expected 3 fields"):
        TraceFile.parse(io.StringIO("t,workload,price\n1,1.0\n"))
    with pytest.raises(ConfigError, match="line 3: non-finite"):
        TraceFile.parse(io.StringIO("t,workload,price\n1,1.0,0.1\n2,nan,0.1\n"))
    with pytest.raises(ConfigError, match="line 2: non-finite"):
        TraceFile.parse(io.StringIO("t,workload,price\n1,1.0,inf\n"))


def test_trace_series_length_checks():
    with pytest.raises(ConfigError):
        TraceFile(workload=np.ones(3), price=np.ones(2))
    with pytest.raises(ConfigError):
        TraceFile(workload=np.ones(2), price=np.ones(2), regimes=("day",))


# ---------------------------------------------------------------------------
# synthesis


def test_synthesize_is_deterministic():
    a = synthesize_trace(seed=9, days=3, servers=50)
    b = synthesize_trace(seed=9, days=3, servers=50)
    assert np.array_equal(a.workload, b.workload)
    assert np.array_equal(a.price, b.price)
    c = synthesize_trace(seed=10, days=3, servers=50)
    assert not np.array_equal(a.workload, c.workload)


def test_synthesize_shape_and_bounds():
    trace = synthesize_trace(seed=0, days=22, servers=600)
    assert trace.horizon == 528
    assert np.all(trace.workload >= 0.0)
    assert np.all(trace.workload <= 600.0)
    assert trace.workload[-1] == trace.workload.max()  # horizon ends busy
    assert np.all(trace.price > 0.0)


def test_synthesize_price_structure():
    for name in ("ny", "sj"):
        trace = synthesize_trace(seed=3, days=7, servers=100, preset=name)
        day = np.array([r == "day" for r in trace.regimes])
        assert trace.price[day].mean() > trace.price[~day].mean()
    flat = synthesize_trace(seed=3, days=7, servers=100, preset="flat")
    assert np.all(flat.price == PRESETS["flat"].day_price)


def test_synthesize_weekend_dip():
    trace = synthesize_trace(seed=1, days=14, servers=100)
    day = np.arange(trace.horizon) // 24
    weekday = trace.workload[day % 7 < 5].mean()
    weekend = trace.workload[day % 7 >= 5].mean()
    assert weekend < weekday


def test_synthesize_validation():
    with pytest.raises(ConfigError):
        synthesize_trace(seed=0, days=0, servers=10)
    with pytest.raises(ConfigError):
        synthesize_trace(seed=0, days=1, servers=0)
    with pytest.raises(ConfigError):
        synthesize_trace(seed=0, days=1, servers=10, preset="mars")


# ---------------------------------------------------------------------------
# run configuration


def test_config_defaults_fill_in():
    cfg = validate_config({})
    assert cfg == DEFAULT_CONFIG
    assert cfg is not DEFAULT_CONFIG  # deep copy, caller may mutate


def test_config_sections_deep_merge():
    cfg = validate_config({"generator": {"count": 3}, "lookahead": 4})
    assert cfg["generator"]["count"] == 3
    assert cfg["generator"]["capacity"] == 60.0  # untouched default
    assert cfg["lookahead"] == 4


def test_config_rejects_unknown_keys_and_bad_values():
    with pytest.raises(ConfigError, match="config"):
        validate_config({"mystery": 1})
    with pytest.raises(ConfigError, match="algorithm"):
        validate_config({"algorithm": "simplex"})
    with pytest.raises(ConfigError, match="sweep"):
        validate_config({"sweep": {"axis": "lookahead"}})
    with pytest.raises(ConfigError):
        validate_config({"servers": 0})
    with pytest.raises(ConfigError):
        validate_config({"generator": {"count": -1}})


def test_config_validator_is_built_once_from_a_valid_schema():
    cls = jsonschema.validators.validator_for(harness.CONFIG_SCHEMA)
    cls.check_schema(harness.CONFIG_SCHEMA)  # raises SchemaError if the schema is malformed
    harness._config_validator.cache_clear()
    bad = ({"mystery": 1}, {"sweep": {"axis": "lookahead"}}, {"servers": 0},
           {"generator": {"count": -1}}, {"cooling": {"regimes": [{"name": "x"}]}})
    for raw in bad:
        # the message jsonschema.validate's error gives, as before the cache
        with pytest.raises(jsonschema.ValidationError) as want:
            jsonschema.validate(raw, harness.CONFIG_SCHEMA)
        path = "/".join(str(p) for p in want.value.absolute_path) or "<root>"
        with pytest.raises(ConfigError) as got:
            validate_config(raw)
        assert str(got.value) == f"config {path}: {want.value.message}"
        validate_config({"lookahead": 3})
    assert harness._config_validator.cache_info().misses == 1


def test_load_config_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(str(bad))
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="root must be"):
        load_config(str(arr))


def test_cli_rejects_the_retired_algorithm_key(tmp_path, capsys):
    # solve takes --algo; a config key that nothing reads is an error, not ignored
    cfg = write_tiny_config(tmp_path, {"algorithm": "gcsr"})
    assert main(["compare", "--config", cfg]) == 1
    assert "'algorithm' was unexpected" in capsys.readouterr().err


def test_build_instance_wires_the_preset_overheads():
    trace = synthesize_trace(seed=0, days=1, servers=6)
    inst = build_instance(trace, validate_config(TINY_CFG))
    assert inst.generator.count == 2
    assert inst.server.c_idle == 0.1
    # b_max scales with the configured fleet: 0.25 * 6
    assert inst.cooling.b_max == pytest.approx(1.5)
    assert inst.conditioning.b_max == pytest.approx(1.5)
    assert regime_at(inst.cooling, 9).name == "day"
    assert inst.label == "ny"


def test_build_instance_explicit_overheads_override_preset():
    trace = synthesize_trace(seed=0, days=1, servers=6)
    cfg = validate_config(
        {**TINY_CFG, "cooling": {"kind": "none"}, "conditioning": {"kind": "none"}}
    )
    inst = build_instance(trace, cfg)
    assert inst.cooling.kind == "none"
    assert inst.conditioning.kind == "none"


# ---------------------------------------------------------------------------
# report emission


def sample_compare_report():
    trace = synthesize_trace(seed=0, days=1, servers=6)
    inst = build_instance(trace, validate_config(TINY_CFG))
    return {"kind": "compare", **run_comparison(inst, 2).to_dict()}


def test_report_json_schema_and_fidelity():
    report = sample_compare_report()
    text = report_to_json(report)
    doc = json.loads(text)
    assert doc["schema_version"] == SCHEMA_VERSION
    # float fidelity: totals survive the round trip bit-for-bit
    for name, entry in report["algorithms"].items():
        assert doc["algorithms"][name]["total"] == entry["total"]


def test_report_csv_row_grid():
    report = sample_compare_report()
    rows = list(csv.reader(io.StringIO(report_to_csv(report))))
    assert rows[0] == ["algorithm", "metric", "value"]
    assert len(rows) == 1 + 5 * 9  # five algorithms, nine metrics each
    algos = {r[0] for r in rows[1:]}
    assert algos == {"static", "offline", "cpoff", "gcsr", "dcmon"}
    # values are full-precision reprs
    total = next(r[2] for r in rows[1:] if r[0] == "dcmon" and r[1] == "total")
    assert float(total) == report["algorithms"]["dcmon"]["total"]


def test_report_csv_sweep_shape():
    trace = synthesize_trace(seed=0, days=1, servers=6)
    inst = build_instance(trace, validate_config(TINY_CFG))
    rows = sweep_lookahead(inst, (0, 2))
    text = report_to_csv({"kind": "sweep", "rows": rows})
    parsed = list(csv.reader(io.StringIO(text)))
    assert parsed[0] == ["axis", "point", "series", "metric", "value"]
    points = {r[1] for r in parsed[1:]}
    assert points == {"0", "2"}
    kinds = {r[3] for r in parsed[1:]}
    assert kinds == {"total", "ratio", "bound"}


def test_emit_report_rejects_unknown_format():
    with pytest.raises(ConfigError):
        emit_report({"kind": "compare", "algorithms": {}}, "xml", io.StringIO())


# ---------------------------------------------------------------------------
# command-line interface


def test_cli_synth_then_solve_round_trip(tmp_path, capsys):
    trace_path = str(tmp_path / "trace.csv")
    assert main(["synth", "--seed", "3", "--days", "2", "--servers", "6",
                 "--out", trace_path]) == 0
    cfg = write_tiny_config(tmp_path)
    assert main(["solve", "--algo", "gcsr", "--trace", trace_path,
                 "--config", cfg]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema_version"] == SCHEMA_VERSION
    assert set(doc["algorithms"]) == {"gcsr"}
    assert doc["lookahead"] == 2


def test_cli_synth_stdout_parses(capsys):
    assert main(["synth", "--days", "1", "--servers", "5"]) == 0
    trace = TraceFile.parse(io.StringIO(capsys.readouterr().out))
    assert trace.horizon == 24


def test_cli_solve_each_algorithm(tmp_path, capsys):
    cfg = write_tiny_config(tmp_path)
    for algo in ("offline", "static", "cpoff", "ofa", "chase", "dcmon"):
        assert main(["solve", "--algo", algo, "--config", cfg]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc["algorithms"]) == {algo}


def test_cli_compare_reruns_are_byte_identical(tmp_path):
    cfg = write_tiny_config(tmp_path)
    out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert main(["compare", "--config", cfg, "--out", out1]) == 0
    assert main(["compare", "--config", cfg, "--out", out2]) == 0
    with open(out1, "rb") as f1, open(out2, "rb") as f2:
        assert f1.read() == f2.read()


def test_cli_compare_csv_shape(tmp_path, capsys):
    cfg = write_tiny_config(tmp_path)
    assert main(["compare", "--config", cfg, "--format", "csv"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 1 + 5 * 9


def test_cli_sweep_default_axis(tmp_path, capsys):
    cfg = write_tiny_config(tmp_path)
    assert main(["sweep", "--config", cfg]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "sweep"
    assert [row["value"] for row in doc["rows"]] == [0, 1, 2, 4, 8]


def test_cli_sweep_generator_axis(tmp_path, capsys):
    cfg = write_tiny_config(tmp_path, {"sweep": {"axis": "generators", "values": [0, 1, 2]}})
    assert main(["sweep", "--config", cfg]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["axis"] == "generators"
    assert [row["value"] for row in doc["rows"]] == [0, 1, 2]


def test_cli_huge_lookaheads_give_the_widest_window_report(tmp_path):
    # a window past the horizon is the horizon, however many slots it
    # names: 2**63 - 1 and 10**20 overflow int64 sums, 10**15 does not
    trace = str(tmp_path / "ny.csv")
    assert main(["synth", "--days", "22", "--preset", "ny", "--out", trace]) == 0
    docs = {}
    for w in (10**15, 2**63 - 1, 10**20):
        out = tmp_path / f"w{w}.json"
        assert main(["compare", "--trace", trace, "--lookahead", str(w), "--out", str(out)]) == 0
        docs[w] = json.loads(out.read_text())
        assert docs[w].pop("lookahead") == w
    assert docs[2**63 - 1] == docs[10**15]
    assert docs[10**20] == docs[10**15]


def test_python_m_dcmkit_runs_the_cli():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "dcmkit", "synth", "--days", "1", "--servers", "5"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert TraceFile.parse(io.StringIO(proc.stdout)).horizon == 24


def test_cli_validation_errors_exit_one(tmp_path, capsys):
    assert main(["solve", "--algo", "warp", "--config", "x"]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["solve", "--algo", "gcsr", "--trace", str(tmp_path / "nope.csv")]) == 1
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text(json.dumps({"mystery": True}))
    assert main(["compare", "--config", str(bad_cfg)]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("row", ["2,nan,0.1", "2,1.0,inf", "2,-inf,0.1"])
def test_cli_non_finite_trace_exits_one(tmp_path, capsys, row):
    trace = tmp_path / "trace.csv"
    trace.write_text(f"t,workload,price\n1,1.0,0.1\n{row}\n")
    assert main(["compare", "--trace", str(trace)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: line 3") and "Traceback" not in err


@pytest.mark.parametrize("command", [["compare"], ["solve", "--algo", "offline"], ["sweep"]])
def test_cli_rejects_costs_that_overflow(tmp_path, command):
    # an idle draw of 1e308 kW overflows the grid bill: the instance is
    # rejected before any solver runs, so stderr holds the one error line
    # and no numpy overflow warning, and no report is written
    cfg = tmp_path / "huge.json"
    cfg.write_text(json.dumps({"days": 1, "servers": 1,
                               "server": {"c_idle": 1e308, "c_peak": 1e308}}))
    out = tmp_path / "report.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "dcmkit.cli", *command, "--config", str(cfg), "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stderr == ("error: the full fleet's grid bill, p(t)*d_t(M) summed over the "
                           "horizon, is inf: the model's magnitudes overflow\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "config, message",
    [
        ({"days": 10**8}, "a horizon of 2400000000 slots exceeds the limit of 1048576"),
        ({"days": 43691}, "a horizon of 1048584 slots exceeds the limit of 1048576"),
        ({"servers": 10**8}, "a fleet of 100000000 servers exceeds the limit of 65536"),
        ({"days": 1, "generator": {"count": 10**8}},
         "24 slots x 100000001 generator states exceed the limit of 16777216 cells"),
    ],
)
def test_cli_rejects_oversized_inputs_before_building_them(tmp_path, capsys, config, message):
    # sizes too large for the solvers' arrays exit 2 with one error line,
    # rejected before the trace or any solver array of that size is built
    cfg = tmp_path / "big.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "report.json"
    for command in (["compare"], ["sweep"], ["solve", "--algo", "offline"]):
        assert main([*command, "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()
    if "days" in config and "generator" not in config:
        assert main(["synth", "--days", str(config["days"])]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize(
    "config, key",
    [
        ({"days": 1.0}, "days: 1.0"),
        ({"days": 1, "generator": {"count": 2.0}}, "generator/count: 2.0"),
        ({"days": 1, "lookahead": 4.0}, "lookahead: 4.0"),
        ({"days": 1, "sweep": {"axis": "lookahead", "values": [0, 2.0]}}, "sweep/values/1: 2.0"),
    ],
)
def test_cli_rejects_integral_floats_for_integer_keys(tmp_path, capsys, config, key):
    # JSON 2.0 is a float: an integer key holding one is a config error,
    # not a float that reaches the solvers or the report
    cfg = tmp_path / "floats.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "report.json"
    assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: config {key} is not of type 'integer'\n")
    assert not out.exists()


def test_cli_rejects_a_negative_seed(tmp_path, capsys):
    # --seed overrides the config's seed before the schema check
    cfg = write_tiny_config(tmp_path)
    out = tmp_path / "report.json"
    for command in (["compare"], ["sweep"], ["solve", "--algo", "gcsr"]):
        for config in ([], ["--config", cfg]):
            assert main([*command, *config, "--seed", "-1", "--out", str(out)]) == 1
            assert capsys.readouterr() == ("", "error: config seed: -1 is less than the minimum of 0\n")
            assert not out.exists()
    assert main(["synth", "--days", "1", "--seed", "-1", "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", "error: seed must be >= 0, got -1\n")
    assert not out.exists()
    # a valid override replaces the config's seed and lookahead
    assert main(["compare", "--config", cfg, "--seed", "3", "--lookahead", "1", "--out", str(out)]) == 0
    same = tmp_path / "same.json"
    same.write_text(json.dumps({**TINY_CFG, "seed": 3, "lookahead": 1}))
    want = tmp_path / "want.json"
    assert main(["compare", "--config", str(same), "--out", str(want)]) == 0
    assert out.read_bytes() == want.read_bytes()


def test_cli_rejects_cooling_regime_bounds_outside_the_period(tmp_path, capsys):
    cfg = write_tiny_config(tmp_path, {"cooling": {"kind": "cubic", "regimes": [
        {"name": "first", "start": 26, "end": 4, "coeffs": [0.3]},
        {"name": "second", "start": 4, "end": 26, "coeffs": [0.2]},
    ]}})
    out = tmp_path / "report.json"
    for command in (["compare"], ["sweep"], ["solve", "--algo", "gcsr"]):
        assert main([*command, "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr() == (
            "", "error: regime 'first': start 26 and end 4 must lie in [0, 24)\n")
        assert not out.exists()


def test_cli_rejects_a_breakeven_span_that_underflows(tmp_path, capsys):
    cfg = tmp_path / "tiny_beta.json"
    cfg.write_text(json.dumps({"days": 1, "servers": 10, "generator": {"count": 0},
                               "server": {"c_idle": 100, "c_peak": 100, "beta_s": 5e-324}}))
    for command in (["sweep"], ["compare"]):
        assert main([*command, "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: break-even span beta_s/(d_min*p_min) is 0.0")
        assert captured.out == ""


def test_cli_rejects_files_that_are_not_utf8(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    trace.write_bytes(b"t,workload,price\n1,1.0,0.1\xff\n")
    config = tmp_path / "run.json"
    config.write_bytes(b'{"days": 1}\xff\n')
    for args, name in ((["--trace", str(trace)], "trace"), (["--config", str(config)], "config")):
        assert main(["compare", *args]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {name} {args[1]} is not UTF-8 text: ")
        assert "0xff" in captured.err and captured.out == ""


@pytest.mark.parametrize(
    "exc, code",
    [(FeasibilityError("boom"), 1), (LookaheadViolation("boom"), 1)],
)
def test_cli_maps_package_errors_to_exit_codes(monkeypatch, capsys, exc, code):
    def fail(args):
        raise exc

    monkeypatch.setitem(cli._COMMANDS, "synth", fail)
    assert main(["synth"]) == code
    assert capsys.readouterr().err == "error: boom\n"


def test_cli_verify_failure_exits_three(monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_verification", lambda level: [("causality", False, "boom")])
    assert main(["verify"]) == 3
    assert capsys.readouterr().out == "causality: FAIL (boom)\n"


def test_cli_capacity_exhaustion_exits_two(tmp_path, capsys):
    # brute force on a 600-server day is astronomically over budget
    cfg = write_tiny_config(tmp_path, {"servers": 600, "days": 1})
    assert main(["solve", "--algo", "bruteforce", "--config", cfg]) == 2
    capsys.readouterr()


def _totals(node):
    """Every value under a "total" key of a report, at any depth."""
    if isinstance(node, dict):
        for key, value in node.items():
            if key == "total":
                yield value
            else:
                yield from _totals(value)
    elif isinstance(node, list):
        for value in node:
            yield from _totals(value)


def _log_uniform(low, high):
    return st.floats(math.log10(low), math.log10(high)).map(lambda e: 10.0**e)


@given(
    servers=st.integers(1, 24),
    preset=st.sampled_from(sorted(PRESETS)),
    seed=st.integers(0, 2**16),
    lookahead=st.integers(0, 30),
    capacity=_log_uniform(0.1, 100.0),
    c_o=st.floats(0.0, 0.2),
    c_m=st.just(0.0) | _log_uniform(1e-4, 2.0),
    beta_g=_log_uniform(1e-3, 1e3),
    count=st.integers(0, 10),
)
@settings(max_examples=100, deadline=None)
def test_cli_offline_path_exits_cleanly_and_its_exact_total_is_never_beaten(
    servers, preset, seed, lookahead, capacity, c_o, c_m, beta_g, count
):
    # solve --algo offline and compare on one-day configs: every run exits
    # 0, 1 or 2; a failure prints one error line and writes no report; a
    # report's totals are finite, and an exact offline reference costs no
    # more than any algorithm it is compared with
    cfg = {
        "days": 1, "servers": servers, "preset": preset, "seed": seed, "lookahead": lookahead,
        "generator": {"capacity": capacity, "c_o": c_o, "c_m": c_m, "beta_g": beta_g,
                      "count": count},
    }
    with tempfile.TemporaryDirectory() as tmp:
        config, out = pathlib.Path(tmp, "run.json"), pathlib.Path(tmp, "report.json")
        config.write_text(json.dumps(cfg))
        for command in (["solve", "--algo", "offline"], ["compare"]):
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = main([*command, "--config", str(config), "--out", str(out)])
            assert rc in (0, 1, 2)
            assert stdout.getvalue() == ""
            if rc:
                err = stderr.getvalue()
                assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
                assert not out.exists()
                continue
            assert stderr.getvalue() == ""
            report = json.loads(out.read_text())
            out.unlink()
            totals = list(_totals(report))
            assert totals and all(math.isfinite(total) for total in totals)
            if report.get("reference_kind") == "exact":
                best = report["algorithms"]["offline"]["total"]
                for entry in report["algorithms"].values():
                    assert best <= entry["total"] + 1e-9 * abs(entry["total"]), entry["name"]


# ---------------------------------------------------------------------------
# model inputs: checked once, in the model

_CUBIC = '"kind": "cubic", "regimes": [{"name": "all", "start": 0, "end": 0, "coeffs": [%s]}]'


@pytest.mark.parametrize(
    "text, key",
    [
        ('{"server": {"beta_s": NaN}}', "server beta_s"),
        ('{"server": {"beta_s": Infinity}}', "server beta_s"),
        ('{"server": {"c_peak": 1e400}}', "server c_peak"),
        ('{"server": {"beta_s": 0}}', "server beta_s"),
        ('{"generator": {"capacity": Infinity}}', "generator capacity"),
        ('{"generator": {"beta_g": NaN}}', "generator beta_g"),
        ('{"generator": {"c_o": NaN}}', "generator c_o"),
        ('{"generator": {"c_m": -Infinity}}', "generator c_m"),
        ('{"cooling": {%s, "b_max": NaN}}' % (_CUBIC % "0.1"), "cooling b_max"),
        ('{"cooling": {%s}}' % (_CUBIC % "NaN"), r"regime 'all': coeffs\[0\]"),
        ('{"cooling": {"kind": "none", "b_max": -1}}', "cooling b_max"),
        ('{"conditioning": {"kind": "quadratic", "lin": Infinity}}', "conditioning lin"),
        ('{"conditioning": {"quad": -1}}', "conditioning quad"),
    ],
)
def test_cli_rejects_model_values_out_of_range_with_one_line(tmp_path, capsys, text, key):
    # NaN, the infinities and overflowing literals such as 1e400 (which json
    # reads as inf) fail the model's range check, which names the key, before
    # any solver runs: one error line, no numpy warning and no report
    cfg = tmp_path / "run.json"
    cfg.write_text(text[:-1] + ', "days": 1}')
    out = tmp_path / "report.json"
    for command in (["compare"], ["sweep"], ["solve", "--algo", "dcmon"]):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([*command, "--config", str(cfg), "--out", str(out)]) == 1
        out_text, err = capsys.readouterr()
        assert (out_text, caught) == ("", [])
        assert re.fullmatch(rf"error: {key} must be a finite number [>=]+ \S+, got \S+\n", err), err
        assert not out.exists()


@pytest.mark.parametrize(
    "model, plan, capacity",
    [
        ({"server": {"beta_s": 1e308}}, "inf", "600.0"),
        ({"generator": {"beta_g": 1e308}}, "inf", "600.0"),
        ({"generator": {"c_m": 1e306, "capacity": 1e308}}, "inf", "inf"),
        ({"generator": {"capacity": 1e308}}, r"[0-9.]+", "inf"),
    ],
)
def test_cli_rejects_a_static_plan_that_overflows(tmp_path, capsys, model, plan, capacity):
    # beta_s*M, beta_g*N, c_m*T*N or the fleet's capacity L*N past the float
    # range is rejected when the instance is built, before the solvers'
    # offsets and generator slices overflow
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"days": 1, **model}))
    out = tmp_path / "report.json"
    for command in (["compare"], ["sweep"], ["solve", "--algo", "dcmon"]):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([*command, "--config", str(cfg), "--out", str(out)]) == 1
        out_text, err = capsys.readouterr()
        assert (out_text, caught) == ("", [])
        assert re.fullmatch(r"error: the static plan's cost, the grid bill \+ beta_s\*M \+ "
                            rf"\(beta_g \+ c_m\*T\)\*N, is {plan} with capacity L\*N = {capacity}: "
                            r"the model's magnitudes overflow\n", err), err
        assert not out.exists()


def test_sweep_omits_the_hybrid_bound_when_generation_is_free(tmp_path, capsys):
    # c_o = c_m = 0 prices generation at 0, and the hybrid bound and rho
    # divide by that price: BoundParams rejects it, so the sweep reports only
    # the on-grid bound rather than dying with a ZeroDivisionError
    cfg = write_tiny_config(tmp_path, {"generator": {"count": 2, "c_o": 0, "c_m": 0}})
    out = tmp_path / "sweep.json"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    assert capsys.readouterr() == ("", "")
    rows = json.loads(out.read_text())["rows"]
    assert rows and all(set(row["bounds"]) == {"ongrid"} for row in rows)
    with pytest.raises(ConfigError, match="economical generation"):
        BoundParams(beta_s=0.08, p_min=0.1, d_min=0.1, beta_g=24.0, c_o=0.0, c_m=0.0,
                    capacity=60.0, p_max=0.2)


def test_schema_leaves_model_ranges_to_the_model():
    # each model scalar's range is written once, in its dataclass; the schema
    # keeps only generator/count's minimum, which the schema tests exercise
    def ranged(node, path):
        if isinstance(node, dict):
            if node.keys() & {"minimum", "exclusiveMinimum", "maximum", "exclusiveMaximum"}:
                yield path
            for key, child in node.items():
                yield from ranged(child, f"{path}/{key}")
        elif isinstance(node, list):
            for k, child in enumerate(node):
                yield from ranged(child, f"{path}/{k}")

    sections = ("server", "generator", "cooling", "conditioning")
    props = harness.CONFIG_SCHEMA["properties"]
    found = [path for name in sections for path in ranged(props[name], name)]
    assert found == ["generator/properties/count"]


_LITERALS = ("NaN", "Infinity", "-Infinity", "1e400")  # json reads 1e400 as inf
_MODEL_KEYS = {
    "server": ("c_idle", "c_peak", "beta_s"),
    "generator": ("capacity", "c_o", "c_m", "beta_g"),
    "conditioning": ("quad", "lin", "const", "b_max"),
}
_COMMANDS = (["sweep"], ["solve", "--algo", "gcsr"], ["solve", "--algo", "chase"],
             ["solve", "--algo", "dcmon"], ["solve", "--algo", "cpoff"], ["synth"])


@st.composite
def _model_sections(draw):
    """Config sections with some model keys set to finite floats up to 1e308
    or to a literal that json reads as NaN or an infinity."""
    value = st.floats(-1.0, 1e308) | _log_uniform(1e-9, 1e308) | st.sampled_from(_LITERALS)
    sections = {}
    for section, keys in _MODEL_KEYS.items():
        chosen = draw(st.lists(st.sampled_from(keys), unique=True, max_size=2))
        if chosen:
            sections[section] = {key: draw(value) for key in chosen}
    if "conditioning" in sections and draw(st.booleans()):
        sections["conditioning"]["kind"] = "quadratic"
    return sections


def _config_text(cfg):
    text = json.dumps(cfg)
    for literal in _LITERALS:
        text = text.replace(f'"{literal}"', literal)
    return text


@given(
    command=st.sampled_from(_COMMANDS),
    days=st.integers(1, 2),
    servers=st.integers(1, 24),
    seed=st.integers(-1, 2**16),
    count=st.integers(0, 10),
    lookahead=st.integers(0, 30) | st.integers(0, 10**30),
    lookahead_flag=st.booleans(),
    model=_model_sections(),
    trace=st.sampled_from([None, "plain", "1e308 price", "non-UTF-8"]),
)
@settings(max_examples=200, deadline=None)
def test_cli_exits_cleanly_on_extreme_inputs(
    command, days, servers, seed, count, lookahead, lookahead_flag, model, trace
):
    # every run exits 0, 1, 2 or 3; a failure prints one error line, no
    # warning and writes no output; a success writes a report (a trace, for
    # synth) whose totals are finite, and prints nothing to stderr
    cfg = {"days": days, "servers": servers, "seed": seed, **model}
    cfg["generator"] = {**cfg.get("generator", {}), "count": count}
    with tempfile.TemporaryDirectory() as tmp:
        config, out = pathlib.Path(tmp, "run.json"), pathlib.Path(tmp, "out")
        if command == ["synth"]:
            args = ["synth", "--days", str(days), "--servers", str(servers), "--seed", str(seed)]
        else:
            if not lookahead_flag:
                cfg["lookahead"] = lookahead
            config.write_text(_config_text(cfg))
            args = [*command, "--config", str(config)]
            if lookahead_flag:
                args += ["--lookahead", str(lookahead)]
            if trace is not None:
                path = pathlib.Path(tmp, "trace.csv")
                series = synthesize_trace(max(seed, 0), days, servers)
                if trace == "1e308 price":
                    series.price[seed % series.horizon] = 1e308
                series.write(str(path))
                if trace == "non-UTF-8":
                    path.write_bytes(path.read_bytes()[:40] + b"\xff\n")
                args += ["--trace", str(path)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main([*args, "--out", str(out)])
        assert rc in (0, 1, 2, 3)
        assert stdout.getvalue() == "" and caught == []
        if rc:
            err = stderr.getvalue()
            assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
            assert not out.exists()
            return
        assert stderr.getvalue() == ""
        if command == ["synth"]:
            assert TraceFile.load(str(out)).horizon == 24 * days
            return
        report = json.loads(out.read_text())
        if report["kind"] == "sweep":
            totals = [cost for row in report["rows"] for cost in row["costs"].values()]
        else:
            totals = list(_totals(report))
        assert totals and all(math.isfinite(total) for total in totals)


def test_reports_are_strict_json(tmp_path, monkeypatch, capsys):
    # a hybrid bound that overflows is left out of the sweep rows, and a
    # report that still holds a non-finite number fails with one error
    # line and writes no file
    config, out = tmp_path / "run.json", tmp_path / "out.json"
    config.write_text(json.dumps({"days": 1, "servers": 4, "generator": {
        "capacity": 1e10, "c_m": 1e-300, "c_o": 0, "count": 2}}))
    assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
    report = json.loads(out.read_text(), parse_constant=pytest.fail)
    assert [set(row["bounds"]) for row in report["rows"]] == [{"ongrid"}] * 5
    with pytest.raises(ConfigError, match="JSON"):
        harness.report_to_json({"ratio": math.inf})
    out.unlink()
    rows = [{"axis": "lookahead", "value": 0, "costs": {}, "ratios": {"x": math.nan}, "bounds": {}}]
    monkeypatch.setattr(cli.analysis, "sweep_lookahead", lambda instance, values: rows)
    capsys.readouterr()
    assert main(["sweep", "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()
