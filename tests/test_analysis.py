"""Experiment lineup, ablations, sweeps, and the worst-case families."""

import json
import math

import numpy as np
import pytest

from dcmkit import (
    BoundParams,
    ConfigError,
    GeneratorModel,
    Instance,
    OngridParams,
    ServerModel,
    ablation_cp_only,
    ablation_ep_only,
    dcmon,
    decomposition_tightness,
    evaluate,
    gcsr,
    ratio_bound_hybrid,
    ratio_bound_ongrid,
    run_comparison,
    solve_cp_offline,
    solve_dcm_offline,
    static_benchmark,
    sweep_generators,
    sweep_lookahead,
    worst_case_gcsr_instance,
    worst_case_rho_instance,
)
from dcmkit import analysis, harness, offline
from dcmkit.analysis import (
    AlgoResult,
    ExperimentReport,
    decomposed_offline_schedule,
    gcsr_family_measurement,
    grid_only_schedule,
    static_schedule,
)
from dcmkit.offline import cp_cost
from dcmkit.verify import random_tiny_instance


def toy_instance(workload, price, count=1, beta_s=0.08):
    return Instance(
        workload=workload,
        price=price,
        server=ServerModel(c_idle=0.1, c_peak=0.25, beta_s=beta_s),
        generator=GeneratorModel(60.0, 0.08, 1.2, 24.0, count),
    )


# ---------------------------------------------------------------------------
# benchmark and lineup


def test_static_benchmark_flat_integer_workload_leaves_no_slack():
    inst = toy_instance(np.full(6, 3.0), np.full(6, 0.2))
    static = static_benchmark(inst).total
    cpoff = cp_cost(inst, solve_cp_offline(inst))
    assert static == pytest.approx(cpoff, abs=1e-12)


def test_static_benchmark_zero_workload_costs_nothing():
    inst = toy_instance(np.zeros(4), np.full(4, 0.2), count=0)
    assert static_benchmark(inst).total == 0.0


def test_provisioning_slack_makes_static_beatable():
    inst = toy_instance([3.0, 0.0, 0.0, 0.0, 0.0, 0.0, 3.0], np.full(7, 0.2))
    report = run_comparison(inst, 0)
    assert report.savings("cpoff") > 0.0
    assert report.savings("offline") >= report.savings("cpoff") - 1e-12


def test_run_comparison_invariants():
    rng = np.random.default_rng(30)
    for _ in range(15):
        inst = random_tiny_instance(rng)
        report = run_comparison(inst, 2)
        assert set(report.results) == {"static", "offline", "cpoff", "gcsr", "dcmon"}
        assert report.reference_kind == "exact"
        off = report.results["offline"].total
        for name in report.results:
            assert report.results[name].total >= off - 1e-9
        assert report.ratio("gcsr", "cpoff") >= 1.0 - 1e-9
        assert report.ratio("dcmon", "offline") >= 1.0 - 1e-9


def test_decomposed_reference_solves_cpoff_once(monkeypatch):
    rng = np.random.default_rng(32)
    inst = random_tiny_instance(rng)
    lineup = {
        "static": static_schedule(inst),
        "offline": decomposed_offline_schedule(inst),
        "cpoff": grid_only_schedule(inst, solve_cp_offline(inst)),
        "gcsr": grid_only_schedule(inst, gcsr(inst, 2)),
        "dcmon": dcmon(inst, 2),
    }
    want = ExperimentReport(
        inst.label, inst.horizon, 2, "decomposed",
        {name: AlgoResult(name, s, evaluate(inst, s)) for name, s in lineup.items()},
    )
    calls = []
    solve = analysis.solve_cp_offline
    monkeypatch.setattr(analysis, "solve_cp_offline", lambda i: calls.append(1) or solve(i))

    report = run_comparison(inst, 2, state_budget=1)  # over budget: decomposed
    assert report.reference_kind == "decomposed"
    assert len(calls) == 0
    assert report.to_dict() == want.to_dict()
    assert np.array_equal(report.results["cpoff"].schedule.x, lineup["cpoff"].x)

    calls.clear()
    rows = sweep_lookahead(inst, (0, 2), state_budget=1)
    assert len(calls) == 0
    assert rows[1]["costs"]["cpoff"] == want.results["cpoff"].total


def test_comparison_and_sweep_walk_each_slots_idle_costs_once(monkeypatch):
    # gcsr, dcmon and cpoff read one walk: each slot's P row is evaluated
    # once per compare and once per sweep, whatever the number of windows
    inst = harness.build_instance(harness.synthesize_trace(3, 12, 8, "ny"),
                                  harness.validate_config({"servers": 8}))
    assert inst.horizon > offline.BLOCK_SLOTS
    slots = []
    block = offline.idle_cost_block

    def recorded(instance, start, end, carried):
        slots.extend(range(start, end + 1))
        return block(instance, start, end, carried)

    monkeypatch.setattr(offline, "idle_cost_block", recorded)
    for lookahead in (0, 16):
        slots.clear()
        run_comparison(inst, lookahead)
        assert slots == list(range(1, inst.horizon + 1))
    slots.clear()
    sweep_lookahead(inst, (0, 1, 16), state_budget=1)  # decomposed reference: cpoff too
    assert slots == list(range(1, inst.horizon + 1))


def test_sweep_leaves_out_a_hybrid_bound_that_overflows():
    # c_o + c_m/L = 1e-310 is economical, but p_max over it overflows: the
    # row keeps only the finite ongrid bound, and the report is strict JSON
    inst = Instance(
        workload=[2.0, 0.0, 0.0, 2.0, 1.0],
        price=np.full(5, 0.1),
        server=ServerModel(c_idle=0.1, c_peak=0.25, beta_s=0.08),
        generator=GeneratorModel(capacity=1e10, c_o=0.0, c_m=1e-300, beta_g=24.0, count=2),
    )
    assert math.isinf(ratio_bound_hybrid(0, BoundParams.from_instance(inst)))
    rows = sweep_lookahead(inst, (0, 2))
    assert [set(row["bounds"]) for row in rows] == [{"ongrid"}, {"ongrid"}]
    json.loads(harness.report_to_json({"rows": rows}), parse_constant=pytest.fail)


def test_run_comparison_without_generators_collapses_to_ongrid():
    rng = np.random.default_rng(31)
    inst = random_tiny_instance(rng).with_generator_count(0)
    report = run_comparison(inst, 1)
    assert report.results["dcmon"].total == pytest.approx(
        report.results["gcsr"].total, abs=1e-9)


def test_report_to_dict_shape():
    inst = toy_instance([1.0, 0.0, 1.0], np.full(3, 0.2))
    d = run_comparison(inst, 1).to_dict()
    assert d["horizon"] == 3 and d["lookahead"] == 1
    assert set(d["algorithms"]) == {"static", "offline", "cpoff", "gcsr", "dcmon"}
    assert "static" not in d["savings_vs_static"]
    assert set(d["ratios"]) == {"gcsr_vs_cpoff", "dcmon_vs_offline"}
    one = d["algorithms"]["dcmon"]
    assert {"name", "total", "breakdown", "mean_servers", "peak_servers",
            "mean_generators"} <= set(one)


def test_zero_cost_reference_reports_neutral_numbers():
    inst = toy_instance(np.zeros(3), np.full(3, 0.2), count=0)
    report = run_comparison(inst, 0)
    assert report.savings("dcmon") == 0.0
    assert report.ratio("dcmon", "offline") == 1.0


# ---------------------------------------------------------------------------
# ablations


def test_restriction_chain_orders_the_ablations():
    rng = np.random.default_rng(32)
    for _ in range(15):
        inst = random_tiny_instance(rng)
        joint = evaluate(inst, solve_dcm_offline(inst)).total
        static = static_benchmark(inst).total
        assert ablation_ep_only(inst).total <= static + 1e-9
        assert ablation_cp_only(inst).total <= static + 1e-9
        assert joint <= ablation_ep_only(inst).total + 1e-9
        assert joint <= ablation_cp_only(inst).total + 1e-9


def test_supply_lever_wins_on_priced_up_fixed_load():
    # constant integer workload: no provisioning slack, but demand large
    # enough to load a generator, so only the supply lever finds savings
    inst = toy_instance(np.full(8, 300.0), np.full(8, 0.2))
    static = static_benchmark(inst).total
    ep = ablation_ep_only(inst).total
    cp = ablation_cp_only(inst).total
    assert cp == pytest.approx(static, abs=1e-12)
    assert ep < static - 1e-9


def test_provisioning_lever_wins_when_generation_is_off_the_table():
    # the 5-slot gap costs strictly more than beta_s, so right-sizing pays
    inst = toy_instance([2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 2.0], np.full(7, 0.2), count=0)
    static = static_benchmark(inst).total
    assert ablation_ep_only(inst).total == pytest.approx(static, abs=1e-12)
    assert ablation_cp_only(inst).total < static - 1e-9


# ---------------------------------------------------------------------------
# sweeps


def test_sweep_lookahead_rows_and_monotonicity():
    inst = toy_instance([2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 2.0, 0.0, 2.0], np.full(9, 0.2))
    rows = sweep_lookahead(inst, (0, 1, 2, 4, 8))
    assert [r["value"] for r in rows] == [0, 1, 2, 4, 8]
    for row in rows:
        assert row["axis"] == "lookahead"
        assert {"offline", "cpoff", "gcsr", "dcmon"} <= set(row["costs"])
        assert row["bounds"]["ongrid"] <= 2.0
    gcsr_costs = [r["costs"]["gcsr"] for r in rows]
    assert all(a >= b - 1e-9 for a, b in zip(gcsr_costs, gcsr_costs[1:]))
    ongrid = [r["bounds"]["ongrid"] for r in rows]
    assert all(a >= b for a, b in zip(ongrid, ongrid[1:]))


def test_sweep_lookahead_without_economical_generators_has_only_the_ongrid_bound():
    # no generators, so the instance is valid although c_o + c_m/L = 0.1 is
    # not below the price peak; only the supply bounds are undefined
    inst = toy_instance([2.0, 0.0, 0.0, 2.0, 1.0], np.full(5, 0.1), count=0)
    ongrid = OngridParams.from_instance(inst)
    with pytest.raises(ConfigError, match="economical generation"):
        BoundParams.from_instance(inst)
    windows = (0, 1, 2, 8)
    rows = sweep_lookahead(inst, windows)
    assert [r["bounds"] for r in rows] == [{"ongrid": ratio_bound_ongrid(w, ongrid)} for w in windows]


def test_sweep_generators_flattens_once_demand_is_covered():
    # peak demand stays below 2 * capacity, so fleets beyond 2 change nothing
    inst = Instance(
        workload=np.array([4.0, 4.0, 0.0, 4.0, 4.0, 4.0]),
        price=np.full(6, 0.3),
        server=ServerModel(c_idle=0.3, c_peak=0.5, beta_s=0.08),
        generator=GeneratorModel(1.0, 0.08, 0.05, 0.5, 1),
    )
    rows = sweep_generators(inst, (0, 1, 2, 3, 4), lookahead=1)
    costs = [r["costs"]["dcmon"] for r in rows]
    # slices beyond peak coverage carry no load, so the tail goes exactly flat
    assert costs[2] == pytest.approx(costs[3], abs=1e-9)
    assert costs[3] == pytest.approx(costs[4], abs=1e-9)
    # the exact reference can only improve with a larger feasible fleet
    offline = [r["costs"]["offline"] for r in rows]
    assert all(a >= b - 1e-9 for a, b in zip(offline, offline[1:]))
    assert offline[2] == pytest.approx(offline[4], abs=1e-9)


def test_sweep_generators_solves_cpoff_once(monkeypatch):
    # 90 days: the exact DP fits the budget with no generators only, so the
    # counts 5 and 10 fall back to the decomposition; its provisioning
    # series does not depend on the generators and is solved once, and the
    # rows are those of a per-count solve
    trace = harness.synthesize_trace(seed=2, days=90, servers=600)
    inst = harness.build_instance(trace, harness.validate_config({}))
    calls = []

    def spy(instance):
        calls.append(instance.generator.count)
        return solve_cp_offline(instance)

    monkeypatch.setattr(analysis, "solve_cp_offline", spy)
    rows = sweep_generators(inst, [0, 5, 10], lookahead=4)
    assert len(calls) == 1
    assert [r["reference_kind"] for r in rows] == ["exact", "decomposed", "decomposed"]
    for row in rows[1:]:
        each = inst.with_generator_count(row["value"])
        reference, _ = analysis.offline_reference(each)
        assert row["costs"]["offline"] == evaluate(each, reference).total


# ---------------------------------------------------------------------------
# worst-case family: decomposition penalty


def test_rho_family_shape_and_joint_optimum():
    inst = worst_case_rho_instance(periods=6)
    assert inst.server.beta_s == 12.0  # gap * unit_power * p_max, all dyadic
    assert inst.horizon == 6 * 7 + 1
    busy = inst.workload > 0
    assert np.array_equal(np.flatnonzero(busy), np.arange(0, inst.horizon, 7))
    # the joint optimum holds the full fleet on and runs the generator flat
    sched = solve_dcm_offline(inst)
    assert np.all(sched.x == 8.0)
    assert np.all(sched.y == 1.0)
    # the staged pipeline instead shuts down on every break-even tie
    x = solve_cp_offline(inst)
    assert np.array_equal(x, inst.workload)


def test_decomposition_penalty_measures_exactly_two():
    out = decomposition_tightness(periods_small=10, periods_large=20)
    assert out["predicted"] == pytest.approx(2.0, abs=1e-12)
    assert out["measured"] == pytest.approx(out["predicted"], rel=1e-9)


# ---------------------------------------------------------------------------
# worst-case family: provisioning look-ahead


def test_gcsr_family_gap_regimes():
    # gap one short of the break-even window: both online and offline hold on
    cheap = worst_case_gcsr_instance(periods=3, gap=7, idle_ratio=8.0)
    m = gcsr_family_measurement(0, periods=3, gap=7, idle_ratio=8.0)
    assert np.array_equal(solve_cp_offline(cheap), np.ones(cheap.horizon))
    assert m["ratio"] == pytest.approx(1.0, abs=1e-12)

    # gap equal to the window: offline ties off, online without look-ahead
    # idles 7 of 8 slots; dyadic costs make the ratio land exactly on 19/12
    # (3 gaps: online 4 busy + 21 idle + 4 restarts of 8, offline 4 + 32)
    m = gcsr_family_measurement(0, periods=3, gap=8, idle_ratio=8.0)
    assert m["ratio"] == pytest.approx(19.0 / 12.0, abs=1e-12)
    assert m["bound"] == pytest.approx(2.0, abs=1e-12)

    m = gcsr_family_measurement(4, periods=3, gap=8, idle_ratio=8.0)
    assert m["ratio"] == pytest.approx(45.0 / 36.0, abs=1e-12)
    assert m["bound"] == pytest.approx(1.5, abs=1e-12)
    assert m["ratio"] <= m["bound"]

    # window covering the whole break-even span: online equals offline
    m = gcsr_family_measurement(8, periods=3, gap=8, idle_ratio=8.0)
    assert m["ratio"] == 1.0 and m["fraction"] == pytest.approx(1.0)


def test_static_schedule_is_peak_everywhere():
    inst = toy_instance([1.0, 3.2, 0.0], np.full(3, 0.2))
    sched = static_schedule(inst)
    assert np.all(sched.x == 4.0)
    assert np.all(sched.y == 0.0)
