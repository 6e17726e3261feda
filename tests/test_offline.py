"""Offline solvers: exact joint optimum, slice decomposition, critical segments."""

import math

import numpy as np
import pytest

from dcmkit import (
    CapacityError,
    ConfigError,
    GeneratorModel,
    Instance,
    ServerModel,
    brute_force_cp,
    brute_force_dcm,
    brute_force_ep,
    cp_cost,
    cp_offline_slices,
    critical_segments,
    demand_series,
    dispatched_schedule,
    ep_cost,
    evaluate,
    ofa_ep_slice,
    solve_cp_offline,
    solve_dcm_offline,
    solve_ep_offline,
)
from dcmkit.offline import (
    _min_increase_transform,
    clamped_regret,
    cpoff_slice,
    dcm_dijkstra,
    marginal_demand_matrix,
    regret_steps,
    slice_energy,
    slice_workload,
)
from dcmkit.verify import random_ep_problem, random_tiny_instance


def flat_power_instance(workload, price, beta_s=0.08):
    """c_idle == c_peak, so every server unit draws exactly 0.2 regardless of load."""
    return Instance(
        workload=workload,
        price=price,
        server=ServerModel(c_idle=0.2, c_peak=0.2, beta_s=beta_s),
        generator=GeneratorModel(60.0, 0.08, 1.2, 24.0, 0),
    )


# ---------------------------------------------------------------------------
# workload and energy slices


def test_slice_workload_unit_decomposition():
    a = [2.5, 0.0, 1.2]
    assert np.allclose(slice_workload(a, 1), [1.0, 0.0, 1.0])
    assert np.allclose(slice_workload(a, 2), [1.0, 0.0, 0.2])
    assert np.allclose(slice_workload(a, 3), [0.5, 0.0, 0.0])
    with pytest.raises(ValueError):
        slice_workload(a, 0)


def test_slice_workload_sums_back():
    rng = np.random.default_rng(7)
    a = rng.uniform(0.0, 5.0, 12)
    total = sum(slice_workload(a, i) for i in range(1, 6))
    assert np.allclose(total, a, atol=1e-12)


def test_slice_energy_capacity_decomposition():
    e = [130.0, 20.0, 0.0]
    assert np.allclose(slice_energy(e, 1, 60.0), [60.0, 20.0, 0.0])
    assert np.allclose(slice_energy(e, 2, 60.0), [60.0, 0.0, 0.0])
    assert np.allclose(slice_energy(e, 3, 60.0), [10.0, 0.0, 0.0])


# ---------------------------------------------------------------------------
# provisioning slices (gap rule)


def test_cpoff_keeps_cheap_gap_on():
    # idle cost 0.2 * 0.1 = 0.02 per slot; 3-slot gap costs 0.06 < 0.08
    inst = flat_power_instance([1, 0, 0, 0, 1], np.full(5, 0.1))
    assert np.array_equal(solve_cp_offline(inst), [1, 1, 1, 1, 1])


def test_cpoff_turns_off_on_breakeven_tie():
    # 4-slot gap costs exactly beta_s = 0.08; ties prefer turning off
    inst = flat_power_instance([1, 0, 0, 0, 0, 1], np.full(6, 0.1))
    assert np.array_equal(solve_cp_offline(inst), [1, 0, 0, 0, 0, 1])


def test_cpoff_leading_and_trailing_idle_off():
    inst = flat_power_instance([0, 0, 1, 0, 0], np.full(5, 0.001))
    assert np.array_equal(solve_cp_offline(inst), [0, 0, 1, 0, 0])


def test_cpoff_gap_rule_is_per_slice():
    # slice 2 idles through the middle slot only if its price is low enough
    cheap = flat_power_instance([2.0, 0.5, 2.0], np.full(3, 0.1))
    assert np.array_equal(solve_cp_offline(cheap), [2, 2, 2])
    dear = flat_power_instance([2.0, 0.5, 2.0], np.full(3, 0.5))
    assert np.array_equal(solve_cp_offline(dear), [2, 1, 2])


def test_cpoff_matches_brute_force_cost():
    rng = np.random.default_rng(8)
    for _ in range(40):
        inst = random_tiny_instance(rng)
        x = solve_cp_offline(inst)
        _, best = brute_force_cp(inst)
        assert cp_cost(inst, x) == pytest.approx(best, abs=1e-9)


def test_cp_slices_are_nested():
    rng = np.random.default_rng(9)
    for _ in range(40):
        inst = random_tiny_instance(rng)
        slices = cp_offline_slices(inst)
        for hi, lo in zip(slices, slices[1:]):
            assert np.all(hi >= lo)


def test_cp_cost_rejects_uncovered_workload():
    inst = flat_power_instance([1.0, 2.0], [0.1, 0.1])
    with pytest.raises(ConfigError, match="slot 2"):
        cp_cost(inst, [1.0, 1.0])


def test_cpoff_slice_empty_and_tiny():
    marg = np.full(3, 0.2)
    assert np.array_equal(cpoff_slice(np.zeros(3), np.full(3, 0.1), marg, 0.08), np.zeros(3))
    assert np.array_equal(cpoff_slice([0.0, 0.4, 0.0], np.full(3, 0.1), marg, 0.08), [0, 1, 0])


# ---------------------------------------------------------------------------
# exact joint solvers


def test_joint_solvers_agree_on_cost():
    rng = np.random.default_rng(10)
    for k in range(40):
        inst = random_tiny_instance(rng)
        dp = evaluate(inst, solve_dcm_offline(inst)).total
        bf = evaluate(inst, brute_force_dcm(inst)).total
        assert dp == pytest.approx(bf, abs=1e-9)
        if k % 10 == 0:
            dj = evaluate(inst, dcm_dijkstra(inst)).total
            assert dj == pytest.approx(bf, abs=1e-9)


def test_joint_solver_zero_workload():
    inst = flat_power_instance(np.zeros(4), np.full(4, 0.3))
    sched = solve_dcm_offline(inst)
    assert np.array_equal(sched.x, np.zeros(4))
    assert evaluate(inst, sched).total == 0.0


def test_solver_budgets_raise_capacity_error():
    inst = flat_power_instance([1, 0, 1], np.full(3, 0.1))
    with pytest.raises(CapacityError):
        solve_dcm_offline(inst, state_budget=5)
    with pytest.raises(CapacityError):
        brute_force_dcm(inst, budget=1)
    with pytest.raises(CapacityError):
        brute_force_cp(inst, budget=1)
    with pytest.raises(CapacityError):
        brute_force_ep(GeneratorModel(60.0, 0.08, 1.2, 24.0, 2), np.ones(3), np.ones(3), budget=3)


def test_min_increase_transform_matches_quadratic_loop():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(1, 9))
        vals = rng.uniform(-5.0, 5.0, (n, int(rng.integers(1, 4))))
        beta = float(rng.uniform(0.0, 3.0))
        got = _min_increase_transform(vals, beta)
        want = np.array(
            [
                [
                    min(vals[j, c] + beta * max(0, j - i) for j in range(n))
                    for c in range(vals.shape[1])
                ]
                for i in range(n)
            ]
        )
        assert np.allclose(got, want, atol=1e-12)


def test_marginal_matrix_matches_per_slot_increments():
    rng = np.random.default_rng(12)
    inst = random_tiny_instance(rng)
    marg = marginal_demand_matrix(inst)
    for t in range(1, inst.horizon + 1):
        for i in range(1, inst.max_servers + 1):
            assert marg[t - 1, i - 1] == pytest.approx(inst.marginal_demand(t, i), abs=1e-12)


# ---------------------------------------------------------------------------
# supply slices (savings process and critical segments)


def test_regret_steps_three_regimes():
    gen = GeneratorModel(60.0, 0.08, 1.2, 24.0, 1)
    r = regret_steps(gen, [50.0, 50.0, 100.0], [0.05, 0.12, 0.12])
    # cheap grid: pure maintenance loss; else covered load times the margin
    assert r[0] == pytest.approx(-1.2)
    assert r[1] == pytest.approx(50 * 0.04 - 1.2)
    assert r[2] == pytest.approx(60 * 0.04 - 1.2)


def test_clamped_regret_stays_in_band():
    reg = clamped_regret([10.0, -100.0, 3.0, 1.5], 4.0)
    assert np.array_equal(reg, [-4.0, 0.0, -4.0, -1.0, 0.0])


def test_segments_never_leaving_bottom():
    reg = clamped_regret(np.full(6, -0.5), 24.0)
    segs = critical_segments(reg, 24.0)
    assert [(s.kind, s.start, s.end) for s in segs] == [("start", 1, 6)]


def test_segments_single_climb():
    # dyadic gains keep the partial sums exact, so the top visit lands crisply
    reg = clamped_regret(np.full(20, 1.5), 24.0)
    assert reg[16] == 0.0
    segs = critical_segments(reg, 24.0)
    assert [(s.kind, s.start, s.end) for s in segs] == [("on", 1, 20)]


def test_segments_up_down_up_with_tail():
    gain = np.concatenate([np.full(16, 1.5), np.full(16, -1.5), np.full(16, 1.5), [-0.5, -0.5]])
    segs = critical_segments(clamped_regret(gain, 24.0), 24.0)
    assert [(s.kind, s.start, s.end) for s in segs] == [
        ("on", 1, 16),
        ("off", 17, 32),
        ("on", 33, 48),
        ("end", 49, 50),
    ]


def test_segments_start_run_then_climb():
    gain = np.concatenate([np.full(4, -0.5), np.full(20, 1.5)])
    segs = critical_segments(clamped_regret(gain, 24.0), 24.0)
    assert [(s.kind, s.start, s.end) for s in segs] == [("start", 1, 4), ("on", 5, 24)]


def test_ofa_slice_follows_on_segments():
    gen = GeneratorModel(capacity=60.0, c_o=0.08, c_m=1.2, beta_g=24.0, count=1)
    # price 0.125 on a loaded slice: gain = 60*0.045 - 1.2 = 1.5 per slot
    price = np.full(24, 0.125)
    y = ofa_ep_slice(gen, np.full(24, 60.0), price)
    assert np.array_equal(y, np.ones(24))
    y = ofa_ep_slice(gen, np.zeros(24), price)
    assert np.array_equal(y, np.zeros(24))


def test_ep_solver_matches_brute_force_cost():
    rng = np.random.default_rng(13)
    for _ in range(40):
        gen, energy, price = random_ep_problem(rng)
        y = solve_ep_offline(gen, energy, price)
        _, best = brute_force_ep(gen, energy, price)
        assert ep_cost(gen, energy, price, y) == pytest.approx(best, abs=1e-9)


def test_ep_cost_hand_value():
    gen = GeneratorModel(60.0, 0.08, 1.2, 24.0, 1)
    # slot 1 on grid at 0.1, slot 2 on-site: 5.0 + (1.2 + 4.0) + one startup
    got = ep_cost(gen, [50.0, 50.0], [0.1, 0.1], [0.0, 1.0])
    assert got == pytest.approx(5.0 + 5.2 + 24.0, abs=1e-12)


def test_decomposed_pipeline_never_beats_joint_optimum():
    rng = np.random.default_rng(14)
    for _ in range(30):
        inst = random_tiny_instance(rng)
        joint = evaluate(inst, solve_dcm_offline(inst)).total
        x = solve_cp_offline(inst)
        y = solve_ep_offline(inst.generator, demand_series(inst, x), inst.price)
        staged = evaluate(inst, dispatched_schedule(inst, x, y)).total
        assert staged >= joint - 1e-9
