"""Acceptance gate: one numbered PASS/FAIL line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete; without -s they still appear in captured output on failure.
"""

import csv
import io
import json
import math
import time

import numpy as np

from dcmkit import (
    SCHEDULES,
    OngridParams,
    build_instance,
    dcmon,
    evaluate,
    gcsr,
    run_comparison,
    solve_cp_offline,
    synthesize_trace,
)
from dcmkit.analysis import (
    decomposition_tightness,
    grid_only_schedule,
)
from dcmkit.cli import main
from dcmkit.harness import SCHEMA_VERSION, validate_config
from dcmkit.offline import cp_cost
from dcmkit.verify import (
    verify_causality,
    verify_decomposition_oracle,
    verify_dispatch,
    verify_ep_hybrid_bounds,
    verify_gcsr_bounds,
    verify_offline_oracle,
    verify_slice_structure,
)


def _accept(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPT {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def _preset_instance(preset: str):
    trace = synthesize_trace(seed=0, days=22, servers=600, preset=preset)
    return build_instance(trace, validate_config({"preset": preset}))


def test_accept_01_exact_solver_oracle():
    start = time.perf_counter()
    ok, detail = verify_offline_oracle(samples=200)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    _accept(1, ok, f"{detail}; {elapsed:.1f}s of 60s budget")


def test_accept_02_decomposition_oracle():
    ok, detail = verify_decomposition_oracle(samples=200)
    _accept(2, ok, detail)


def test_accept_03_dispatch_grid_oracle():
    ok, detail = verify_dispatch(samples=1000)
    _accept(3, ok, detail)


def test_accept_04_decomposition_penalty_tightness():
    out = decomposition_tightness()
    rel = abs(out["measured"] - out["predicted"]) / out["predicted"]
    ok = rel <= 1e-6
    _accept(4, ok, f"measured {out['measured']:.9f} vs predicted {out['predicted']:.9f}, "
                   f"rel err {rel:.2e}")


def test_accept_05_provisioning_ratio_bound():
    ok, detail = verify_gcsr_bounds(samples=500)
    _accept(5, ok, detail)


def test_accept_06_supply_and_pipeline_ratio_bounds():
    ok, detail = verify_ep_hybrid_bounds(samples=500)
    _accept(6, ok, detail)


def test_accept_07_slice_structure_invariants():
    ok, detail = verify_slice_structure(samples=500)
    _accept(7, ok, detail)


def test_accept_08_qualitative_directions():
    start = time.perf_counter()
    failures = []

    ny = _preset_instance("ny")
    sj = _preset_instance("sj")
    flat = _preset_instance("flat")

    # hybrid supply beats grid-only provisioning on both regional presets
    for name, inst in (("ny", ny), ("sj", sj)):
        rep = run_comparison(inst, 0)
        if not rep.savings("dcmon") > rep.savings("gcsr"):
            failures.append(f"{name}: hybrid {rep.savings('dcmon'):.4f} "
                            f"<= on-grid {rep.savings('gcsr'):.4f}")

    # cost non-increasing in the look-ahead window, saturating at the
    # break-even span where the online series equals the offline one
    w_sat = math.ceil(OngridParams.from_instance(ny).breakeven_idle_window)
    windows = [0, 1, 2, 4, w_sat]
    costs = [cp_cost(ny, gcsr(ny, w)) for w in windows]
    if not all(a >= b - 1e-9 for a, b in zip(costs, costs[1:])):
        failures.append(f"gcsr cost not non-increasing over w={windows}: {costs}")
    if not np.array_equal(gcsr(ny, w_sat), solve_cp_offline(ny)):
        failures.append(f"gcsr at w={w_sat} does not match offline provisioning")

    # generator sweep: non-increasing, exactly flat once the fleet covers
    # the peak energy demand
    energy = ny.demand(gcsr(ny, 0))
    cover = math.ceil(float(energy.max()) / ny.generator.capacity)
    counts = sorted({0, 1, 2, 3, cover, cover + 2, 10})
    by_count = {}
    for n in counts:
        inst_n = ny.with_generator_count(n)
        by_count[n] = evaluate(inst_n, dcmon(inst_n, 0)).total
    series = [by_count[n] for n in counts]
    if not all(a >= b - 1e-9 for a, b in zip(series, series[1:])):
        failures.append(f"generator sweep not non-increasing: {dict(zip(counts, series))}")
    tail = [by_count[n] for n in counts if n >= cover]
    if not all(abs(v - tail[0]) <= 1e-9 for v in tail):
        failures.append(f"generator sweep not flat beyond coverage {cover}: {tail}")

    # lever ordering: supply lever wins when the day price clears the
    # generator break-even by >= 50%, provisioning lever wins on flat prices
    for name, inst, ep_should_win in (("ny", ny, True), ("flat", flat, False)):
        static = evaluate(inst, SCHEDULES["static"](inst, 0)).total
        ep = 1.0 - evaluate(inst, SCHEDULES["ofa"](inst, 0)).total / static
        cp = 1.0 - evaluate(inst, SCHEDULES["cpoff"](inst, 0)).total / static
        if (ep > cp) != ep_should_win:
            failures.append(f"{name}: ep-only {ep:.4f} vs cp-only {cp:.4f}, "
                            f"expected ep {'>' if ep_should_win else '<'} cp")

    elapsed = time.perf_counter() - start
    if elapsed >= 300.0:
        failures.append(f"runtime {elapsed:.0f}s exceeds 5 min")
    _accept(8, not failures, "; ".join(failures) or
            f"all directional checks hold on 528-slot traces; {elapsed:.0f}s of 300s budget")


def test_accept_09_causality_audit():
    ok, detail = verify_causality()
    _accept(9, ok, detail)


def test_accept_10_cli_and_format_contract(tmp_path, capsys):
    failures = []

    # verification subcommand: exit 0 with a PASS line per suite
    rc = main(["verify"])
    out = capsys.readouterr().out
    lines = [ln for ln in out.strip().splitlines() if ln]
    if rc != 0:
        failures.append(f"verify exited {rc}")
    if not (lines and all(": PASS" in ln for ln in lines)):
        failures.append(f"verify output not all PASS: {out!r}")

    cfg_path = tmp_path / "run.json"
    cfg_doc = {"servers": 6, "days": 2, "lookahead": 2, "generator": {"count": 2}, "seed": 7}
    cfg_path.write_text(json.dumps(cfg_doc))

    # fixed-seed reruns must emit byte-identical reports
    out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    rc1 = main(["compare", "--config", str(cfg_path), "--out", out1])
    rc2 = main(["compare", "--config", str(cfg_path), "--out", out2])
    with open(out1, "rb") as f1, open(out2, "rb") as f2:
        b1, b2 = f1.read(), f2.read()
    if not (rc1 == rc2 == 0 and b1 == b2):
        failures.append("compare reruns are not byte-identical")

    # JSON round trip preserves the schema tag and the exact cost floats
    doc = json.loads(b1)
    if doc.get("schema_version") != SCHEMA_VERSION:
        failures.append(f"schema_version {doc.get('schema_version')!r}")
    cfg = validate_config(cfg_doc)
    inst = build_instance(
        synthesize_trace(cfg["seed"], cfg["days"], cfg["servers"], cfg["preset"]), cfg
    )
    expected = evaluate(inst, grid_only_schedule(inst, gcsr(inst, 2))).total
    got = doc["algorithms"]["gcsr"]["total"]
    if got != expected:
        failures.append(f"gcsr total {got!r} != recomputed {expected!r}")

    # CSV carries the same totals at full precision
    rc = main(["compare", "--config", str(cfg_path), "--format", "csv"])
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    if rc != 0 or rows[0] != ["algorithm", "metric", "value"]:
        failures.append("csv compare emission failed")
    else:
        cell = next(r[2] for r in rows[1:] if r[0] == "gcsr" and r[1] == "total")
        if float(cell) != expected:
            failures.append(f"csv gcsr total {cell} != recomputed {expected!r}")

    # error-path exit codes: validation 1, capacity exhaustion 2
    if main(["solve", "--algo", "dcmon", "--trace", str(tmp_path / "missing.csv")]) != 1:
        failures.append("missing trace did not exit 1")
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"servers": 600, "days": 1}))
    if main(["solve", "--algo", "bruteforce", "--config", str(big)]) != 2:
        failures.append("over-budget brute force did not exit 2")
    capsys.readouterr()

    _accept(10, not failures, "; ".join(failures) or
            "verify/compare/solve exit codes, determinism, and round trips all hold")
