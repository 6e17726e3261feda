"""Offline solvers: exact joint optimum, slice decomposition, critical segments."""

import dataclasses
import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest

from dcmkit import (
    CapacityError,
    ConfigError,
    FeasibilityError,
    GeneratorModel,
    Instance,
    ServerModel,
    brute_force_cp,
    brute_force_dcm,
    brute_force_ep,
    cp_cost,
    cp_offline_slices,
    dispatched_schedule,
    ep_cost,
    ep_offline_slices,
    evaluate,
    harness,
    solve_cp_offline,
    solve_dcm_offline,
    solve_ep_offline,
    supply_cost,
)
from dcmkit import offline
from dcmkit.offline import (
    _min_increase_transform,
    dcm_dijkstra,
    idle_cost_block,
    regret_steps,
)
from dcmkit.verify import random_bound_instance, random_ep_problem, random_tiny_instance
from test_chase_reference import clamped_regret, critical_segments, slice_energy


def flat_power_instance(workload, price, beta_s=0.08):
    """c_idle == c_peak, so every server unit draws exactly 0.2 regardless of load."""
    return Instance(
        workload=workload,
        price=price,
        server=ServerModel(c_idle=0.2, c_peak=0.2, beta_s=beta_s),
        generator=GeneratorModel(60.0, 0.08, 1.2, 24.0, 0),
    )


# ---------------------------------------------------------------------------
# energy slices


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


def test_cpoff_memory_does_not_grow_with_horizon_times_fleet():
    # a 90-day trace at M=552: a (T, M) float array alone is 9.1 MiB, and the
    # whole-horizon rule peaked at 46.8 MiB; block-wise gap closing holds
    # O(block * M + T) numbers
    inst = harness.build_instance(harness.synthesize_trace(7, 90, 600),
                                  harness.validate_config({"servers": 600}))
    assert (inst.horizon, inst.max_servers) == (2160, 552)
    tracemalloc.start()
    try:
        solve_cp_offline(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak / 2**20


def test_slice_walk_memory_is_one_demand_chunk_not_a_block_of_rows():
    # a 22-day trace at M=5520: a (257, M) block of P rows alone is 10.8 MiB;
    # the walk holds one chunk's P rows and demand scratch, 5 slots of
    # M+1 cells each, reused by every step
    inst = harness.build_instance(harness.synthesize_trace(7, 22, 6000, "ny"),
                                  harness.validate_config({"servers": 6000}))
    assert (inst.horizon, inst.max_servers) == (528, 5520)
    tracemalloc.start()
    try:
        solve_cp_offline(inst)  # steps one walk to the end
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak / 2**20


def test_walk_records_the_breakeven_slot_of_each_reached_gap():
    inst = flat_power_instance([1.0, 0.0, 0.0, 0.0, 1.0, 0.0], [0.1] * 6, beta_s=0.05)
    walk = offline.GapWalk(inst).walk_to_end()
    # the gap of slots 2..4 idles 0.02 a slot and reaches 0.05 at slot 4
    assert walk.breakevens(0, inst.horizon).tolist() == [[0], [2], [4]]


def test_cp_cost_rejects_uncovered_workload():
    # an uncovered slot is a schedule fault, as in dispatched_schedule and check_schedule
    inst = flat_power_instance([1.0, 2.0], [0.1, 0.1])
    with pytest.raises(FeasibilityError, match=r"^slot 2: fleet 1\.0 below required 2\.0$"):
        cp_cost(inst, [1.0, 1.0])


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


def test_oracle_stage_table_holds_each_slots_supply_costs():
    # one grid for the whole horizon, each slot's row the floats of the per-slot table
    rng = np.random.default_rng(33)
    for _ in range(40):
        inst = random_tiny_instance(rng)
        y_grid = np.arange(inst.generator.count + 1, dtype=float)[None, :]
        table = offline._stage_table(inst)
        assert table.shape == (inst.horizon, inst.max_servers + 1, inst.generator.count + 1)
        for t in range(1, inst.horizon + 1):
            row = supply_cost(inst.generator, y_grid, inst.p(t), inst.demand_table(t)[:, None])
            assert table[t - 1].tobytes() == row.tobytes()


def test_oracle_budgets_are_checked_before_any_demand_is_read(monkeypatch):
    inst = flat_power_instance([1, 0, 1], np.full(3, 0.1))
    def unread(*args, **kwargs):
        raise AssertionError("demand read before the budget check")
    monkeypatch.setattr(Instance, "demand_table", unread)
    with pytest.raises(CapacityError):
        brute_force_dcm(inst, budget=1)
    big = flat_power_instance(np.full(300, 300.0), np.full(300, 0.1))  # 301 * 301 * 300 edges
    with pytest.raises(CapacityError, match="dijkstra edge count"):
        dcm_dijkstra(big)


def test_min_increase_transform_matches_quadratic_loop():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(1, 9))
        vals = rng.uniform(-5.0, 5.0, (int(rng.integers(1, 4)), n))
        beta = float(rng.uniform(0.0, 3.0))
        got = _min_increase_transform(vals, beta * np.arange(n, dtype=float))
        want = np.array(
            [
                [min(vals[r, j] + beta * max(0, j - i) for j in range(n)) for i in range(n)]
                for r in range(vals.shape[0])
            ]
        )
        assert np.allclose(got, want, atol=1e-12)


def test_padded_min_increase_transform_matches_the_full_grid():
    # a grid whose columns below start are +inf, scanned only over the
    # columns that can change the output, gives the full scan's floats, for
    # output columns starting below or inside the finite block
    rng = np.random.default_rng(15)
    for _ in range(200):
        n = int(rng.integers(1, 12))
        start = int(rng.integers(0, n))
        grid = rng.uniform(-5.0, 5.0, (int(rng.integers(1, 4)), n))
        grid[:, :start] = np.inf
        beta = float(rng.uniform(0.0, 3.0))
        offsets = beta * np.arange(n, dtype=float)
        full = _min_increase_transform(grid, offsets)
        first = int(rng.integers(0, n))
        got = _min_increase_transform(grid, offsets, first, n - 1, start, n - 1)
        assert np.array_equal(got, full[:, first:])


def test_padded_min_increase_transform_past_the_block_matches_the_full_grid():
    # a grid that is +inf below and above its columns start..stop, scanned
    # only over the columns that can change the output, gives the full
    # scan's floats for any output columns first..last, including columns
    # past stop and outputs wholly outside the finite block
    rng = np.random.default_rng(19)
    for _ in range(400):
        n = int(rng.integers(1, 12))
        start, stop = sorted(int(v) for v in rng.integers(0, n, 2))
        grid = np.full((int(rng.integers(1, 4)), n), np.inf)
        shape = (len(grid), stop + 1 - start)
        ties = rng.choice([0.0, -0.0, 1.0, -2.5, 0.75], shape)  # equal and signed zeros
        grid[:, start : stop + 1] = np.where(rng.random(shape) < 0.5, ties, rng.uniform(-5.0, 5.0, shape))
        offsets = float(rng.choice([0.0, 0.5, rng.uniform(0.0, 3.0)])) * np.arange(n, dtype=float)
        full = _min_increase_transform(grid, offsets)
        first, last = sorted(int(v) for v in rng.integers(0, n, 2))
        got = _min_increase_transform(grid, offsets, first, last, start, stop)
        assert got.tobytes() == full[:, first : last + 1].tobytes(), (start, stop, first, last)


def _full_grid_transform(values, beta):
    """Two-pass distance transform over the whole grid, offsets beta * row."""
    n = values.shape[0]
    idx = beta * np.arange(n, dtype=float).reshape((n,) + (1,) * (values.ndim - 1))
    up = np.minimum.accumulate((values + idx)[::-1], axis=0)[::-1] - idx
    return np.minimum(up, np.minimum.accumulate(values, axis=0))


def reference_dcm_offline(instance):
    """The joint DP with full value layers: every layer holds all
    (M+1)(N+1) states, and rows x < ceil(a(t)) are +inf and go through both
    transforms and the forward argmin. Returns the schedule and the number
    of forward steps whose minimum was attained more than once."""
    m, n, t_end = instance.max_servers, instance.generator.count, instance.horizon
    gen = instance.generator
    beta_s, beta_g = instance.server.beta_s, gen.beta_g
    x_grid = np.arange(m + 1, dtype=float)[:, None]
    y_grid = np.arange(n + 1, dtype=float)[None, :]
    value = [None] * (t_end + 2)
    value[t_end + 1] = np.zeros((m + 1, n + 1))
    for t in range(t_end, 0, -1):
        stage = supply_cost(gen, y_grid, instance.p(t), instance.demand_table(t)[:, None])
        stage[: instance.min_servers(t), :] = np.inf
        b = _full_grid_transform(value[t + 1], beta_s)
        value[t] = stage + _full_grid_transform(b.T, beta_g).T
    xs, ys = np.empty(t_end), np.empty(t_end)
    px = py = ties = 0
    for t in range(1, t_end + 1):
        move = beta_s * np.clip(x_grid - px, 0.0, None) + beta_g * np.clip(y_grid - py, 0.0, None)
        total = move + value[t]
        ties += int(np.count_nonzero(total == total.min()) > 1)
        px, py = divmod(int(np.argmin(total)), n + 1)
        xs[t - 1], ys[t - 1] = px, py
    return dispatched_schedule(instance, xs, ys), ties


def dyadic_tie_instance(inst, rng):
    """inst's workload with every cost a dyadic rational: one server unit
    draws exactly 0.25 at any load, so many schedules cost exactly the same."""
    price = rng.choice([0.125, 0.25, 0.5], inst.horizon)
    price[rng.integers(0, inst.horizon)] = 0.5  # keeps the generators economical
    return dataclasses.replace(
        inst,
        price=price,
        server=ServerModel(0.25, 0.25, beta_s=float(rng.choice([0.0625, 0.125, 0.25]))),
        generator=GeneratorModel(
            0.5, 0.125, 0.03125, float(rng.choice([0.125, 0.25])), inst.generator.count
        ),
        cooling=dataclasses.replace(inst.cooling, kind="none"),
        conditioning=dataclasses.replace(inst.conditioning, kind="none"),
    )


def test_feasible_row_dp_matches_the_full_layer_reference():
    rng = np.random.default_rng(16)
    seen = dict(zero_stretch=0, no_generators=0, one_slot=0, dyadic_ties=0)
    for k in range(1200):
        inst = random_tiny_instance(rng) if k % 2 else random_bound_instance(rng)
        if k % 3 == 0:
            inst = dyadic_tie_instance(inst, rng)
        if k % 10 == 4:
            inst = inst.truncated(1)
        elif k % 10 == 7:
            inst = inst.truncated(int(rng.integers(1, inst.horizon + 1)))
        want, ties = reference_dcm_offline(inst)
        got = solve_dcm_offline(inst)
        for field in ("x", "y", "u", "v"):
            assert np.array_equal(getattr(got, field), getattr(want, field)), (k, field)
        seen["zero_stretch"] += bool(np.any(inst.workload == 0.0))
        seen["no_generators"] += inst.generator.count == 0
        seen["one_slot"] += inst.horizon == 1
        seen["dyadic_ties"] += k % 3 == 0 and ties > 0
    assert min(seen.values()) >= 50, seen


def test_dp_stage_rows_are_supply_cost_in_both_price_branches(monkeypatch):
    # every layer's stage costs, as the backward pass adds them, are the
    # floats supply_cost gives that layer's band of the feasible demand row,
    # rows 0..Y(t) and columns ceil(a(t))..U(t), whether the price picks the
    # grid-first (p <= c_o) or the generator-first branch; some layers keep
    # fewer rows than N+1. The backward pass prices a block of layers at
    # once and adds layer t its slice of the block's rows, which the
    # recorder cuts out the same way
    stages = []

    def record(instance, first, lows, highs, tops):
        costs, starts = pricing(instance, first, lows, highs, tops)
        for k, top in enumerate(tops.tolist()):
            stages.append((first + k, costs[: top + 1, starts[k] : starts[k + 1]]))
        return costs, starts

    pricing = offline._band_costs
    monkeypatch.setattr(offline, "_band_costs", record)
    rng = np.random.default_rng(18)
    branches = set()
    narrowed = 0
    for k in range(40):
        inst = random_tiny_instance(rng) if k % 2 else random_bound_instance(rng)
        gen = inst.generator
        c_o, high = gen.c_o, 2.0 * (gen.c_o + gen.c_m / gen.capacity)  # keeps gen economical
        price = rng.choice([0.5 * c_o, c_o, 1.5 * c_o, high], inst.horizon)
        price[rng.integers(0, inst.horizon)] = high
        inst = dataclasses.replace(inst, price=price)
        stages.clear()
        solve_dcm_offline(inst)
        y = np.arange(gen.count + 1, dtype=float)[:, None]
        need = np.ceil(inst.workload).astype(int)
        lows, tops = offline._dp_floor(inst, need), offline._dp_band(inst, need)
        rows = offline._dp_rows(inst, tops)
        assert sorted(t for t, _ in stages) == list(range(1, inst.horizon + 1))
        for t, stage in stages:
            lo, hi, top = int(lows[t - 1]), int(tops[t - 1]), int(rows[t - 1])
            d = inst.demand_table(t)[lo:]
            want = supply_cost(gen, y, inst.p(t), d)[: top + 1, : hi - lo + 1]
            assert stage.shape == (top + 1, hi - lo + 1), (k, t)
            assert stage.tobytes() == want.tobytes(), (k, t)
            branches.add(inst.p(t) <= c_o)
            narrowed += top < gen.count
    assert branches == {True, False}
    assert narrowed >= 30, narrowed


def test_dp_schedules_do_not_depend_on_block_or_chunk_size(monkeypatch):
    # the backward pass prices a block's band cells at once, a block being
    # at most BLOCK_SLOTS slots and one demand chunk of
    # max(1, CHUNK_CELLS // (M+1)) slots; no cut moves a float, so the
    # schedules are the full-layer reference's, ties included, with prices
    # on both sides of c_o
    rng = np.random.default_rng(24)
    draws = []
    for k in range(24):
        inst = random_tiny_instance(rng) if k % 3 == 1 else random_bound_instance(rng)
        if k % 3 == 2:
            inst = dyadic_tie_instance(inst, rng)
        elif inst.generator.count:
            gen = inst.generator
            high = 2.0 * gen.breakeven_price
            price = rng.choice([0.5 * gen.c_o, gen.c_o, 1.5 * gen.c_o, high], inst.horizon)
            price[rng.integers(0, inst.horizon)] = high
            inst = dataclasses.replace(inst, price=price)
        draws.append((inst, reference_dcm_offline(inst)[0]))
    for block in (1, 2, 5, 256):
        for chunk in (1, 64, offline.CHUNK_CELLS):
            with monkeypatch.context() as patch:
                patch.setattr(offline, "BLOCK_SLOTS", block)
                patch.setattr(offline, "CHUNK_CELLS", chunk)
                for k, (inst, want) in enumerate(draws):
                    got = solve_dcm_offline(inst)
                    for field in ("x", "y", "u", "v"):
                        assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), \
                            (block, chunk, k, field)


def test_dp_forward_pass_breaks_ties_by_smallest_fleet_then_fewest_generators():
    # every cost is dyadic, so the ties are exact. Slot 3 needs one server
    # of the two that run, and with c_o = c_m = 0 any generators that carry
    # the whole demand make supply free: (x, y) = (1, 1), (1, 2) and (2, 2)
    # all complete at cost 0 from (2, 2), while (1, 0), (2, 0) and (2, 1)
    # pay the grid. The pick is the smallest x, then the smallest y
    inst = Instance(
        workload=[2.0, 2.0, 1.0],
        price=[1.0, 1.0, 1.0],
        server=ServerModel(0.25, 0.25, beta_s=0.25),
        generator=GeneratorModel(0.25, 0.0, 0.0, 0.125, 2),
    )
    got = solve_dcm_offline(inst)
    assert (got.x.tolist(), got.y.tolist()) == ([2.0, 2.0, 1.0], [2.0, 2.0, 1.0])
    best = evaluate(inst, got).total
    for x, y in (([2, 2, 1], [2, 2, 2]), ([2, 2, 2], [2, 2, 2])):
        assert evaluate(inst, dispatched_schedule(inst, x, y)).total == best
    for x, y in (([2, 2, 1], [2, 2, 0]), ([2, 2, 2], [2, 2, 1])):
        assert evaluate(inst, dispatched_schedule(inst, x, y)).total > best
    want, ties = reference_dcm_offline(inst)  # slot 3 is the one step with several minima
    assert (want.x.tolist(), want.y.tolist(), ties) == (got.x.tolist(), got.y.tolist(), 1)


def test_dp_memory_holds_no_demand_grid_of_a_block():
    # a 22-day trace at M=552: the value layers are 0.8 MiB, and the stage
    # costs of a block, one cache-sized chunk of demand rows, keep only its
    # band cells; a (256, 553) demand grid held through a block's layers,
    # with its clamped copy, would add 2.2 MiB
    inst = harness.build_instance(harness.synthesize_trace(0, 22, 600, "ny"),
                                  harness.validate_config({"servers": 600}))
    assert (inst.horizon, inst.max_servers) == (528, 552)
    tracemalloc.start()
    try:
        solve_dcm_offline(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 2**20, peak / 2**20


def band_margin(inst):
    """r*d_min of the DP band: r = min(c_o, p_min), or p_min with no generators."""
    gen = inst.generator
    rate = min(gen.c_o, inst.p_min) if gen.count else inst.p_min
    return rate * inst.min_marginal_demand()


def window_peak_band(inst, need):
    """The band before the gap rule: the peak need over [t, min(T, t+D)],
    D = floor(beta_s/(r*d_min)) + 1, by brute force over the windows."""
    span = math.floor(min(inst.server.beta_s / band_margin(inst), len(need))) + 1
    return np.array([need[t : t + span + 1].max() for t in range(len(need))])


def short_gap_fleets(need, span):
    """max(need(t), min(need(s1), need(s2))) over the pairs s1 < t < s2 with
    s2 - s1 - 1 <= floor(span) + 1, by brute force over the pairs."""
    want = np.array(need)
    longest = math.floor(min(span, len(need))) + 1
    for s1 in range(len(need)):
        for s2 in range(s1 + 2, min(len(need), s1 + longest + 2)):
            np.maximum(want[s1 + 1 : s2], min(need[s1], need[s2]), out=want[s1 + 1 : s2])
    return want


def every_gap_held(values):
    """short_gap_fleets(values, span) once every gap between two busy slots
    is short: values(t), or the smaller of the peaks before and after t."""
    before = np.maximum.accumulate(np.concatenate([[0], values[:-1]]))
    after = np.maximum.accumulate(np.concatenate([[0], values[:0:-1]]))[::-1]
    return np.maximum(values, np.minimum(before, after))


def cheap_gap_floor(inst, need):
    """max(need(t), min(need(s1), need(s2))) over the pairs s1 < t < s2 whose
    slots between cost at most beta_s - r*d_min to idle one server through,
    rho(s) = max(p(s), c_o)*(d_s(M) - d_s(M-1)) (p(s) without generators),
    by brute force over the pairs: for each s1, every short s2 > t."""
    gen, m, t_end = inst.generator, inst.max_servers, inst.horizon
    grid = inst.demand_table(1, t_end)
    rate = np.maximum(inst.price, gen.c_o) if gen.count else inst.price
    rho = rate * (grid[:, m] - grid[:, max(m - 1, 0)])
    before = np.concatenate(([0.0], np.cumsum(rho)))  # before[s]: cost of slots 0..s-1
    budget = inst.server.beta_s - band_margin(inst)
    want = np.array(need)
    for s1 in range(t_end - 2):
        later = np.arange(s1 + 2, t_end)
        held = np.where(before[later] - before[s1 + 1] <= budget, need[later], 0)
        reach = np.maximum.accumulate(held[::-1])[::-1]  # reach[j]: most need(s2) of s2 >= s1 + 2 + j
        np.maximum(want[s1 + 1 : -1], np.minimum(need[s1], reach), out=want[s1 + 1 : -1])
    return want


def test_dp_band_is_the_largest_fleet_a_short_gap_keeps():
    # U(t) = max(ceil(a(t)), min(ceil(a(s1)), ceil(a(s2)))) over s1 < t < s2
    # with s2 - s1 - 1 <= D, D = floor(beta_s / (r*d_min)) + 1 with r =
    # min(c_o, p_min), or p_min with no generators; never above the peak
    # need within one span. r*d_min = 0 (free generation with generators,
    # or a zero price) gives the full row. The floor L(t) is the same rule
    # over the pairs whose gap costs at most beta_s - r*d_min to idle one
    # server through (cheap_gap_floor), never above U(t), and ceil(a) when
    # r*d_min = 0; each draw's one-slot prefix (T = 1) and zeroed workload
    # (M = 0) are checked too
    rng = np.random.default_rng(20)
    seen = dict(narrow=0, narrower_than_window=0, free_generation=0, zero_price=0,
                floor_raised=0, floor_no_generators=0)
    for k in range(300):
        inst = random_bound_instance(rng)
        if k % 3 == 1:
            inst = dataclasses.replace(
                inst,
                server=dataclasses.replace(inst.server, beta_s=0.05 * inst.server.beta_s),
            )
        elif k % 3 == 2 and inst.generator.count:
            inst = dataclasses.replace(inst, generator=dataclasses.replace(inst.generator, c_o=0.0))
        elif k % 3 == 2:
            price = inst.price.copy()
            price[rng.integers(0, inst.horizon)] = 0.0
            inst = dataclasses.replace(inst, price=price)
        need = np.ceil(inst.workload).astype(int)
        tops = offline._dp_band(inst, need)
        floor = offline._dp_floor(inst, need)
        for case in (inst.truncated(1), dataclasses.replace(inst, workload=np.zeros(inst.horizon))):
            low = np.ceil(case.workload).astype(int)
            assert np.array_equal(offline._dp_floor(case, low), cheap_gap_floor(case, low)), k
        margin = band_margin(inst)
        if margin == 0.0:
            assert np.array_equal(tops, np.full(inst.horizon, inst.max_servers))
            assert np.array_equal(floor, need), k
            seen["free_generation" if inst.generator.count else "zero_price"] += 1
            continue
        assert np.array_equal(floor, cheap_gap_floor(inst, need)) and np.all(floor <= tops), k
        seen["floor_raised"] += bool(np.any(floor > need))
        seen["floor_no_generators"] += inst.generator.count == 0
        assert np.array_equal(tops, short_gap_fleets(need, inst.server.beta_s / margin)), k
        window = window_peak_band(inst, need)
        assert np.all(tops <= window), k
        seen["narrow"] += bool(np.any(tops < inst.max_servers))
        seen["narrower_than_window"] += bool(np.any(tops < window))
    assert min(seen.values()) >= 20, seen
    # spans short of a T = 4000 series and past it: once D + 1 >= T - 1 every
    # gap between two busy slots is short, so U(t) is need(t) or the smaller
    # of the peak needs before and after t, and the huge span is one pass too
    need = np.where(rng.random(4000) < 0.3, 0, rng.integers(0, 60, 4000))
    for slots in (0.5, 3.0, 3999.0, 4000.0, 1e300):
        inst = Instance(
            workload=need.astype(float),
            price=np.full(4000, 0.5),
            server=ServerModel(0.25, 0.25, beta_s=0.125 * slots),  # r*d_min = 0.5 * 0.25
            generator=GeneratorModel(1.0, 0.1, 0.1, 1.0, 0),
        )
        start = time.perf_counter()
        tops = offline._dp_band(inst, need)
        elapsed = time.perf_counter() - start
        if math.floor(slots) + 2 < 4000 - 1:  # D + 1 < T - 1
            want = short_gap_fleets(need, slots)
        else:
            want = every_gap_held(need)
        assert np.array_equal(tops, want), slots
        assert elapsed < 0.5, (slots, elapsed)
    # the floor on the same series at dyadic prices: rho(s) = p(s)*0.25
    # sums exactly, so a gap that costs the budget exactly is a tie that
    # counts as short; budgets from no gap to every gap
    price = rng.choice([0.5, 0.75, 1.0, 1.5], 4000)
    price[0] = 0.5
    raised = []
    for slots in (0.5, 3.0, 40.0, 3999.0, 1e300):
        inst = Instance(
            workload=need.astype(float),
            price=price,
            server=ServerModel(0.25, 0.25, beta_s=0.125 * slots),  # r*d_min = 0.5 * 0.25
            generator=GeneratorModel(1.0, 0.1, 0.1, 1.0, 0),
        )
        start = time.perf_counter()
        floor = offline._dp_floor(inst, need)
        elapsed = time.perf_counter() - start
        assert np.array_equal(floor, cheap_gap_floor(inst, need)), slots
        assert elapsed < 0.5, (slots, elapsed)
        raised.append(int(np.count_nonzero(floor > need)))
    assert raised[0] == 0 < raised[1] < raised[-1], raised  # a negative budget holds no gap


def trajectory_costs(inst):
    """Every feasible (x, y) trajectory of inst, enumerated as brute_force_dcm
    does: (x series, cost[x series, y series])."""
    m, n, t_end = inst.max_servers, inst.generator.count, inst.horizon
    xt = np.array(list(itertools.product(*(range(inst.min_servers(t), m + 1)
                                           for t in range(1, t_end + 1)))))
    yt = np.array(list(itertools.product(range(n + 1), repeat=t_end)))
    cost = np.zeros((len(xt), len(yt)))
    for t, psi in enumerate(offline._stage_table(inst)):
        cost += psi[xt[:, t][:, None], yt[:, t][None, :]]
    x_starts = inst.server.beta_s * np.diff(xt, axis=1, prepend=0).clip(min=0).sum(axis=1)
    y_starts = inst.generator.beta_g * np.diff(yt, axis=1, prepend=0).clip(min=0).sum(axis=1)
    return xt, cost + x_starts[:, None] + y_starts[None, :]


def test_near_optimal_schedules_stay_inside_the_dp_band():
    # the exchange argument, not only the DP's pick: a fleet above U(t) can
    # drop its top server over part of a leading, trailing or long gap and
    # save at least r*d_min, and a fleet below L(t) can keep one more server
    # on through a gap that costs at most beta_s - r*d_min to idle and save
    # a restart, so every trajectory from the start state within r*d_min/2
    # of the minimum keeps L(t) <= x(t) <= U(t) at every slot. Each draw is
    # also taken at 3*beta_s, where more dips between two higher needs are
    # cheap enough to idle through
    def near_fleets(inst):
        xt, cost = trajectory_costs(inst)
        return xt[np.any(cost <= cost.min() + 0.5 * band_margin(inst), axis=1)]

    rng = np.random.default_rng(27)
    narrower = raised = 0
    draws = 240
    for k in range(draws):
        inst = random_tiny_instance(rng)
        if k % 2:
            inst = dyadic_tie_instance(inst, rng)
        beta_s = inst.server.beta_s
        need = np.ceil(inst.workload).astype(int)
        for scale in ((0.01, 0.1, 0.3, 1.0)[k // 2 % 4], 3.0):
            inst = dataclasses.replace(inst, server=dataclasses.replace(inst.server, beta_s=scale * beta_s))
            floor, tops = offline._dp_floor(inst, need), offline._dp_band(inst, need)
            near = near_fleets(inst)
            assert np.all(near <= tops), (k, scale)
            assert np.all(near >= floor), (k, scale)
            if scale < 3.0:
                narrower += band_margin(inst) > 0.0 and bool(np.any(tops < window_peak_band(inst, need)))
        raised += bool(np.any(floor > need))  # at 3*beta_s
    assert narrower >= 0.3 * draws, narrower
    assert raised >= 0.3 * draws, raised


def test_dp_floors_at_need_where_its_edges_cross_in_floats():
    # c_peak 1e30 dwarfs an idle server's 0.1 kW: d_s(M) - d_s(M-1) rounds
    # to 0, so rho falls below mu and the floor rises past the band top.
    # The DP then floors at ceil(a), which every schedule keeps, and stays
    # exact against the Dijkstra oracle
    cfg = harness.validate_config({"days": 1, "seed": 3, "servers": 20, "generator": {"count": 0},
                                   "server": {"c_idle": 0.1, "c_peak": 1e30, "beta_s": 0.04}})
    inst = harness.build_instance(harness.synthesize_trace(3, 1, 20), cfg)
    need = np.ceil(inst.workload).astype(int)
    assert np.any(offline._dp_floor(inst, need) > offline._dp_band(inst, need))
    _, lows, highs, _ = offline._value_layers(inst)
    assert lows[1:-1] == need.tolist() and all(lo <= hi for lo, hi in zip(lows, highs))
    total = evaluate(inst, solve_dcm_offline(inst)).total
    assert total == pytest.approx(evaluate(inst, dcm_dijkstra(inst)).total, rel=1e-12)


def test_gap_band_keeps_a_third_of_the_window_peak_states_on_the_presets():
    # on a diurnal trace the peak need within one span takes in the morning
    # ramp, while a gap of D slots holds only what is needed on both sides
    for preset in ("ny", "sj", "flat"):
        inst = harness.build_instance(harness.synthesize_trace(0, 22, 600, preset),
                                      harness.validate_config({"servers": 600}))
        need = np.ceil(inst.workload).astype(int)
        states = []
        for band in (offline._dp_band(inst, need), window_peak_band(inst, need)):
            rows = offline._dp_rows(inst, band)
            states.append(int(((rows + 1) * (band - need + 1)).sum()))
        assert 3 * states[0] <= states[1], (preset, states)


def useful_units(inst, tops):
    """The units k = 1..N with L*(k-1) < d_s(U(s)), counted at each slot s."""
    gen = inst.generator
    return np.array([
        sum(gen.capacity * (unit - 1) < d for unit in range(1, gen.count + 1))
        for d in inst.demand(tops).tolist()
    ])


def test_dp_rows_are_the_loadable_generators_a_short_gap_keeps():
    # Y(t) = max(useful(t), min(useful(s1), useful(s2))) over s1 < t < s2
    # with s2 - s1 - 1 <= D_g, D_g = floor(beta_g/c_m) + 1, where useful(s)
    # counts the units k = 1..N with L*(k-1) < d_s(U(s)); free maintenance
    # (c_m = 0) and no generators give N
    rng = np.random.default_rng(22)
    seen = dict(narrow=0, free_maintenance=0, no_generators=0)
    for k in range(300):
        inst = random_bound_instance(rng, generators=int(rng.integers(0, 6)))
        gen = inst.generator
        if k % 3 == 1:
            gen = dataclasses.replace(gen, beta_g=0.05 * gen.beta_g)
        elif k % 3 == 2:
            gen = dataclasses.replace(gen, c_m=0.0)
        inst = dataclasses.replace(inst, generator=gen)
        tops = offline._dp_band(inst, np.ceil(inst.workload).astype(int))
        rows = offline._dp_rows(inst, tops)
        if gen.count == 0 or gen.c_m == 0.0:
            assert np.array_equal(rows, np.full(inst.horizon, gen.count)), k
            seen["no_generators" if gen.count == 0 else "free_maintenance"] += 1
            continue
        want = short_gap_fleets(useful_units(inst, tops), gen.beta_g / gen.c_m)
        assert np.array_equal(rows, want), k
        seen["narrow"] += bool(np.any(rows < gen.count))
    assert min(seen.values()) >= 20, seen
    # spans short of a T = 4000 series and past it, and a subnormal c_m
    # (beta_g/c_m = inf): once D_g + 1 >= T - 1 every gap between two
    # loaded slots is short, and the huge spans are one pass too
    need = np.where(rng.random(4000) < 0.3, 0, rng.integers(0, 60, 4000))
    held = []
    spans = [(0.1, 0.1 * slots) for slots in (0.5, 3.0, 3999.0, 4000.0, 1e300)]
    for c_m, beta_g in spans + [(5e-324, 1.0)]:
        inst = Instance(
            workload=need.astype(float),
            price=np.full(4000, 0.5),
            server=ServerModel(0.25, 0.25, beta_s=0.001),  # D = 1: U fills one-slot gaps only
            generator=GeneratorModel(1.5, 0.1, c_m, beta_g, 10),
        )
        tops = offline._dp_band(inst, need)
        start = time.perf_counter()
        rows = offline._dp_rows(inst, tops)
        elapsed = time.perf_counter() - start
        useful = useful_units(inst, tops)
        span = beta_g / c_m
        if span + 2 < 4000 - 1:  # D_g + 1 < T - 1
            want = short_gap_fleets(useful, span)
        else:
            want = every_gap_held(useful)
        assert np.array_equal(rows, want), (c_m, beta_g)
        assert elapsed < 0.5, (c_m, beta_g, elapsed)
        held.append(int(np.count_nonzero(rows > useful)))
    assert 0 < held[1] < held[-1], held  # a short span holds fewer gaps than every one


def test_banded_dp_matches_the_full_layer_reference_at_short_breakeven_spans():
    # beta_s scaled down narrows the band to the fleets that gaps of a few
    # slots can hold; the schedules stay those of the full layers bit for
    # bit, ties included
    rng = np.random.default_rng(21)
    narrowed = slots = 0
    for k in range(480):
        inst = random_tiny_instance(rng) if k % 2 else random_bound_instance(rng)
        if k % 3 == 0:
            inst = dyadic_tie_instance(inst, rng)
        scale = (0.01, 0.1, 0.3, 1.0)[k % 4]
        inst = dataclasses.replace(
            inst, server=dataclasses.replace(inst.server, beta_s=scale * inst.server.beta_s)
        )
        want, _ = reference_dcm_offline(inst)
        got = solve_dcm_offline(inst)
        for field in ("x", "y", "u", "v"):
            assert np.array_equal(getattr(got, field), getattr(want, field)), (k, field)
        tops = offline._dp_band(inst, np.ceil(inst.workload).astype(int))
        narrowed += int(np.count_nonzero(tops < inst.max_servers))
        slots += inst.horizon
    assert narrowed >= 0.3 * slots, (narrowed, slots)


def test_banded_dp_matches_the_full_layer_reference_at_short_startup_spans():
    # beta_g scaled down narrows the generator rows to the loadable units
    # that gaps of a few slots can hold; the schedules stay those of the
    # full layers bit for bit, ties and free maintenance (every row kept)
    # included
    rng = np.random.default_rng(23)
    narrowed = slots = 0
    seen = dict(dyadic_ties=0, free_maintenance=0)
    for k in range(480):
        if k % 2:
            inst = random_tiny_instance(rng)
        else:
            inst = random_bound_instance(rng, generators=int(rng.integers(1, 6)))
        if k % 3 == 0:
            inst = dyadic_tie_instance(inst, rng)
        gen = inst.generator
        gen = dataclasses.replace(
            gen,
            beta_g=(0.02, 0.1, 0.5, 1.0)[k % 4] * gen.beta_g,
            c_m=0.0 if k % 10 == 5 else gen.c_m,
        )
        inst = dataclasses.replace(inst, generator=gen)
        want, ties = reference_dcm_offline(inst)
        got = solve_dcm_offline(inst)
        for field in ("x", "y", "u", "v"):
            assert np.array_equal(getattr(got, field), getattr(want, field)), (k, field)
        rows = offline._dp_rows(inst, offline._dp_band(inst, np.ceil(inst.workload).astype(int)))
        narrowed += int(np.count_nonzero(rows < gen.count))
        slots += inst.horizon
        seen["dyadic_ties"] += k % 3 == 0 and ties > 0
        seen["free_maintenance"] += gen.c_m == 0.0
    assert narrowed >= 0.3 * slots, (narrowed, slots)
    assert min(seen.values()) >= 30, seen


def test_block_idle_costs_match_per_slot_increments():
    rng = np.random.default_rng(12)
    inst = random_tiny_instance(rng)
    prefix = idle_cost_block(inst, 1, inst.horizon, np.zeros(inst.max_servers))
    idle = np.diff(prefix, axis=0)
    for t in range(1, inst.horizon + 1):
        marginal = np.diff(inst.demand_table(t))
        for i in range(1, inst.max_servers + 1):
            want = inst.p(t) * marginal[i - 1]
            assert idle[t - 1, i - 1] == pytest.approx(want, abs=1e-12)


# ---------------------------------------------------------------------------
# supply slices (savings process and critical segments)


def test_regret_steps_three_regimes():
    gen = GeneratorModel(60.0, 0.08, 1.2, 24.0, 1)
    r = regret_steps(gen, [50.0, 50.0, 100.0], [0.05, 0.12, 0.12])
    # cheap grid: pure maintenance loss; else covered load times the margin
    assert r[0] == pytest.approx(-1.2)
    assert r[1] == pytest.approx(50 * 0.04 - 1.2)
    assert r[2] == pytest.approx(60 * 0.04 - 1.2)


def test_regret_steps_are_the_one_unit_supply_cost_difference():
    # the savings CHASE and the offline slices step are psi(0) - psi(1),
    # both read from the one merit-order split, the ties p == c_o and
    # e == L and free maintenance included
    rng = np.random.default_rng(19)
    seen = dict(price_tie=0, energy_tie=0, free_maintenance=0)
    for k in range(300):
        gen = GeneratorModel(float(rng.uniform(0.5, 100.0)), float(rng.uniform(0.0, 0.3)),
                             0.0 if k % 3 == 0 else float(rng.uniform(0.0, 5.0)), 1.0, 1)
        energy = rng.choice([0.0, gen.capacity, float(rng.uniform(0.0, 3.0 * gen.capacity))], 16)
        price = rng.choice([gen.c_o, np.nextafter(gen.c_o, 1.0), float(rng.uniform(0.0, 0.5))], 16)
        want = supply_cost(gen, 0, price, energy) - supply_cost(gen, 1, price, energy)
        np.testing.assert_allclose(regret_steps(gen, energy, price), want, rtol=0.0, atol=1e-12)
        seen["price_tie"] += bool(np.any(price == gen.c_o))
        seen["energy_tie"] += bool(np.any(energy == gen.capacity))
        seen["free_maintenance"] += gen.c_m == 0.0
    assert min(seen.values()) >= 90, seen


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
    y = ep_offline_slices(gen, np.full(24, 60.0), price)[0]
    assert np.array_equal(y, np.ones(24))
    y = ep_offline_slices(gen, np.zeros(24), price)[0]
    assert np.array_equal(y, np.zeros(24))


FINITE = "energy and price must be finite"


@pytest.mark.parametrize(
    "energy, price, message",
    [
        ([1.0, math.nan], [0.1, 0.2], FINITE),
        ([1.0, 2.0], [0.1, math.inf], FINITE),
        ([1.0, -math.inf], [0.1, 0.2], FINITE),
        ([1.0, -2.0], [0.1, math.nan], FINITE),  # non-finite is reported before negative
        ([1.0, -2.0], [0.1, 0.2], "energy and price must be nonnegative"),
        ([1.0, 2.0], [-0.1, 0.2], "energy and price must be nonnegative"),
        ([1.0, 2.0, 3.0], [0.1, 0.2], "series length mismatch: 3 energy vs 2 price"),
        ([[1.0, 2.0]], [0.1, 0.2], "energy and price must be 1-d series"),
    ],
)
def test_supply_series_rejections_pin_their_messages(energy, price, message):
    with pytest.raises(ConfigError) as err:
        offline.supply_series(energy, price)
    assert str(err.value) == message


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
        y = solve_ep_offline(inst.generator, inst.demand(x), inst.price)
        staged = evaluate(inst, dispatched_schedule(inst, x, y)).total
        assert staged >= joint - 1e-9
