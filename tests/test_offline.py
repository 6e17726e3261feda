"""Offline solvers: exact joint optimum, slice decomposition, critical segments."""

import dataclasses
import math
import tracemalloc

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
    demand_series,
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
    _running_min,
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


def test_cp_cost_rejects_uncovered_workload():
    inst = flat_power_instance([1.0, 2.0], [0.1, 0.1])
    with pytest.raises(ConfigError, match="slot 2"):
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


def test_min_increase_transform_on_a_block_matches_the_full_grid():
    # a block of columns start.. of a grid whose lower columns are +inf gives
    # the grid's own floats, for output columns starting below or inside the
    # block
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
        got = _min_increase_transform(grid[:, start:], offsets, start, first)
        assert np.array_equal(got, full[:, first:])


def test_min_increase_transform_past_the_block_matches_the_padded_grid():
    # a block of columns start..stop of a grid that is +inf below and above
    # it gives the grid's own floats for any output columns first..last,
    # including columns past stop and outputs wholly outside the block
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
        got = _min_increase_transform(grid[:, start : stop + 1], offsets, start, first, last)
        assert got.tobytes() == full[:, first : last + 1].tobytes(), (start, stop, first, last)


def test_doubling_running_min_is_the_accumulate_bit_for_bit():
    # equal zeros of either sign and +inf entries; one row is the N = 0 layer
    rng = np.random.default_rng(17)
    for length in range(1, 18):
        for _ in range(20):
            shape = (length, int(rng.integers(1, 6)))
            rows = rng.choice([0.0, -0.0, 0.5, 1.0, -1.0, np.inf], shape)
            forward = _running_min(rows.copy())
            assert forward.tobytes() == np.minimum.accumulate(rows, axis=0).tobytes()
            backward = _running_min(rows.copy(), reverse=True)
            assert backward.tobytes() == np.minimum.accumulate(rows[::-1], axis=0)[::-1].tobytes()


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
    # fewer rows than N+1
    stages = []

    def record(*args):
        stages.append(pricing(*args))
        return stages[-1]

    pricing = offline.split_cost
    monkeypatch.setattr(offline, "split_cost", record)
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
        tops = offline._dp_band(inst, np.ceil(inst.workload).astype(int))
        rows = offline._dp_rows(inst, tops)
        assert len(stages) == inst.horizon
        for t, stage in zip(range(inst.horizon, 0, -1), stages):
            lo, hi, top = inst.min_servers(t), int(tops[t - 1]), int(rows[t - 1])
            d = inst.demand_table(t)[lo:]
            want = supply_cost(gen, y, inst.p(t), d)[: top + 1, : hi - lo + 1]
            assert stage.shape == (top + 1, hi - lo + 1), (k, t)
            assert stage.tobytes() == want.tobytes(), (k, t)
            branches.add(inst.p(t) <= c_o)
            narrowed += top < gen.count
    assert branches == {True, False}
    assert narrowed >= 30, narrowed


def test_dp_band_is_the_peak_need_within_one_breakeven_span():
    # U(t) = max ceil(a(s)) over s in [t, min(T, t+D)], D = floor(beta_s /
    # (r*d_min)) + 1 with r = min(c_o, p_min), or p_min with no generators;
    # r*d_min = 0 (free generation with generators, or a zero price) gives
    # the full row
    rng = np.random.default_rng(20)
    seen = dict(narrow=0, free_generation=0, zero_price=0)
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
        gen = inst.generator
        rate = min(gen.c_o, inst.p_min) if gen.count else inst.p_min
        margin = rate * inst.min_marginal_demand()
        if margin == 0.0:
            assert np.array_equal(tops, np.full(inst.horizon, inst.max_servers))
            seen["free_generation" if gen.count else "zero_price"] += 1
            continue
        span = math.floor(inst.server.beta_s / margin) + 1
        want = [need[t : t + span + 1].max() for t in range(inst.horizon)]
        assert np.array_equal(tops, want), k
        seen["narrow"] += bool(np.any(tops < inst.max_servers))
    assert min(seen.values()) >= 20, seen


def test_dp_rows_are_the_loadable_generators_within_one_startup_span():
    # Y(t) = max useful(s) over s in [t, min(T, t+D_g)], D_g =
    # floor(beta_g/c_m) + 1, where useful(s) counts the units k = 1..N with
    # L*(k-1) < d_s(U(s)); free maintenance (c_m = 0) and no generators give N
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
        useful = [
            sum(gen.capacity * (unit - 1) < d for unit in range(1, gen.count + 1))
            for d in demand_series(inst, tops).tolist()
        ]
        span = math.floor(gen.beta_g / gen.c_m) + 1
        want = [max(useful[t : t + span + 1]) for t in range(inst.horizon)]
        assert np.array_equal(rows, want), k
        seen["narrow"] += bool(np.any(rows < gen.count))
    assert min(seen.values()) >= 20, seen


def test_banded_dp_matches_the_full_layer_reference_at_short_breakeven_spans():
    # beta_s scaled down narrows the band to a few slots' peak need; the
    # schedules stay those of the full layers bit for bit, ties included
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
    # beta_g scaled down narrows the generator rows to the units a few
    # slots' demand can load; the schedules stay those of the full layers
    # bit for bit, ties and free maintenance (every row kept) included
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
        y = solve_ep_offline(inst.generator, demand_series(inst, x), inst.price)
        staged = evaluate(inst, dispatched_schedule(inst, x, y)).total
        assert staged >= joint - 1e-9
