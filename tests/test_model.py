"""Device models, demand evaluation, dispatch, and cost accounting."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcmkit import (
    BoundParams,
    ConditioningModel,
    ConfigError,
    CoolingModel,
    CoolingRegime,
    FeasibilityError,
    GeneratorModel,
    Instance,
    OngridParams,
    Schedule,
    ServerModel,
    check_schedule,
    demand_series,
    dispatch,
    dispatched_schedule,
    evaluate,
    supply_cost,
)
from dcmkit.errors import CapacityError
from dcmkit.model import FEAS_TOL, MAX_SERVERS, MAX_SUPPLY_CELLS
from dcmkit import offline
from dcmkit.offline import idle_cost_block
from dcmkit.verify import random_tiny_instance

GEN = GeneratorModel(capacity=60.0, c_o=0.08, c_m=1.2, beta_g=24.0, count=2)


def bare_instance(workload, price, beta_s=0.08, count=0, **kw):
    """Linear-server instance with no overheads and an idle generator fleet."""
    return Instance(
        workload=workload,
        price=price,
        server=ServerModel(c_idle=0.1, c_peak=0.25, beta_s=beta_s),
        generator=GeneratorModel(60.0, 0.08, 1.2, 24.0, count),
        **kw,
    )


def ny_overhead_instance(n_slots=9, servers=2500):
    b_max = 0.25 * servers
    cooling = CoolingModel(
        kind="quadratic",
        regimes=(
            CoolingRegime("day", 8, 20, (0.041, 0.144, 0.047)),
            CoolingRegime("night", 20, 8, (0.03, 0.136, 0.042)),
        ),
        b_max=b_max,
    )
    conditioning = ConditioningModel(
        kind="quadratic", quad=0.012, lin=0.046, const=0.056, b_max=b_max
    )
    return Instance(
        workload=np.zeros(n_slots),
        price=np.full(n_slots, 0.1),
        server=ServerModel(c_idle=0.125, c_peak=0.25, beta_s=0.08),
        generator=GeneratorModel(60.0, 0.08, 1.2, 24.0, 0),
        cooling=cooling,
        conditioning=conditioning,
    )


# ---------------------------------------------------------------------------
# server power and total demand


def test_total_power_without_overheads_is_server_power():
    inst = bare_instance([4.0], [0.1])
    assert demand_series(inst, [10.0])[0] == pytest.approx(1.6, abs=1e-12)
    idle = bare_instance([0.0], [0.1])
    assert idle.demand_table(1)[0] == 0.0
    # an all-idle fleet draws c_idle per server
    assert demand_series(idle, [4.0])[0] == pytest.approx(0.4, abs=1e-12)


def test_total_power_with_overheads_day_regime():
    # b = 312.5 at b_max = 625, so b_hat = 0.5; slot 9 is hour 8 (daytime).
    # cooling (0.041*0.25 + 0.144*0.5 + 0.047)*625 = 80.78125
    # conditioning (0.012*0.25 + 0.046*0.5 + 0.056)*625 = 51.25
    inst = ny_overhead_instance()
    assert demand_series(inst, np.full(9, 2500.0))[8] == pytest.approx(444.53125, abs=1e-9)


def test_total_power_with_overheads_night_regime():
    # same operating point in slot 1 (hour 0) picks the night coefficients
    inst = ny_overhead_instance()
    assert demand_series(inst, np.full(9, 2500.0))[0] == pytest.approx(437.1875, abs=1e-9)


def test_total_power_rejects_undersized_fleet():
    inst = bare_instance([4.0], [0.1])
    with pytest.raises(FeasibilityError, match="x=3 below required fleet 4"):
        dispatched_schedule(inst, [3.0], [0.0])


def wraparound_instance(kind, day, night, n_slots=30):
    # period 10 with a night regime wrapping from hour 7 past hour 0 to hour 3
    cooling = CoolingModel(
        kind=kind,
        regimes=(CoolingRegime("day", 3, 7, day), CoolingRegime("night", 7, 3, night)),
        b_max=2.0,
        period=10,
    )
    rng = np.random.default_rng(8)
    return bare_instance(rng.uniform(0.0, 6.0, n_slots), rng.uniform(0.05, 0.3, n_slots),
                         cooling=cooling)


def test_demand_series_matches_per_slot_tables():
    rng = np.random.default_rng(3)
    instances = [random_tiny_instance(rng) for _ in range(25)]
    instances += [
        wraparound_instance("cubic", (0.4,), (0.25,)),
        wraparound_instance("quadratic", (0.041, 0.144, 0.047), (0.03, 0.136, 0.042)),
    ]
    instances += [inst.truncated(max(1, inst.horizon - 2)) for inst in instances]
    for inst in instances:
        x = np.array([rng.integers(inst.min_servers(t), inst.max_servers + 1)
                      for t in range(1, inst.horizon + 1)], dtype=float)
        gathered = [inst.demand_table(t)[int(x[t - 1])] for t in range(1, inst.horizon + 1)]
        assert np.array_equal(demand_series(inst, x), gathered)
        # every slot at every fleet size at once
        fleets = np.arange(inst.max_servers + 1, dtype=float)
        grid = np.stack([demand_series(inst, np.full(inst.horizon, x_)) for x_ in fleets], axis=1)
        tables = np.stack([inst.demand_table(t) for t in range(1, inst.horizon + 1)])
        assert np.array_equal(grid, tables)
        # slot ranges in one evaluation
        assert np.array_equal(inst.demand_table(1, inst.horizon), tables)
        first = int(rng.integers(1, inst.horizon + 1))
        end = int(rng.integers(first, inst.horizon + 1))
        block = inst.demand_table(first, end)
        assert np.array_equal(block, tables[first - 1 : end])
        assert not block.flags.writeable
    for first, end in ((0, 1), (2, 1), (1, inst.horizon + 1)):
        with pytest.raises(ValueError):
            inst.demand_table(first, end)


def regime_at(cooling, t):
    """The one regime of cooling's list whose hours hold slot t (slot 1 is hour 0)."""
    (regime,) = [r for r in cooling.regimes if r.contains(t - 1, cooling.period)]
    return regime


def polynomial_demand(inst, t, x):
    """d_t(x) written out as the model's formulas, one Python float op at a time."""
    srv = inst.server
    b = srv.c_idle * x + (srv.c_peak - srv.c_idle) * inst.a(t)
    d = b
    cond = inst.conditioning
    if cond.kind == "quadratic":
        bh = b / cond.b_max
        d = b + (cond.quad * bh * bh + cond.lin * bh + cond.const) * cond.b_max
    cool = inst.cooling
    bh = b / cool.b_max
    if cool.kind == "quadratic":
        q, l, c = regime_at(cool, t).coeffs
        d = d + (q * bh * bh + l * bh + c) * cool.b_max
    elif cool.kind == "cubic":
        d = d + regime_at(cool, t).coeffs[0] * bh * bh * bh * cool.b_max
    return d


def test_grid_rows_match_scalar_demand_for_every_overhead_kind():
    # grids larger than 128 KiB are evaluated through reused buffers; each
    # row must still be the floats of one slot's table and of the formulas
    # written out
    servers, n_slots = 2000, 40
    b_max = 0.25 * servers
    regimes = {
        "quadratic": ((0.041, 0.144, 0.047), (0.03, 0.136, 0.042)),
        "cubic": ((0.4,), (0.25,)),
    }
    coolings = [CoolingModel()] + [
        CoolingModel(kind=kind, regimes=(CoolingRegime("day", 8, 20, day),
                                         CoolingRegime("night", 20, 8, night)), b_max=b_max)
        for kind, (day, night) in regimes.items()
    ]
    conditionings = [
        ConditioningModel(),
        ConditioningModel(kind="quadratic", quad=0.012, lin=0.046, const=0.056, b_max=b_max),
    ]
    rng = np.random.default_rng(12)
    workload = rng.uniform(0.0, servers, n_slots)
    for cooling in coolings:
        for conditioning in conditionings:
            inst = bare_instance(workload, np.full(n_slots, 0.1),
                                 cooling=cooling, conditioning=conditioning)
            grid = inst.demand_table(1, n_slots)
            assert grid.nbytes > 128 * 1024
            for t in range(1, n_slots + 1):
                assert np.array_equal(grid[t - 1], inst.demand_table(t))
                for x in (inst.min_servers(t), (inst.min_servers(t) + inst.max_servers) // 2,
                          inst.max_servers):
                    assert grid[t - 1, x] == polynomial_demand(inst, t, x)


def test_block_evaluator_matches_stacked_tables(monkeypatch):
    # idle-cost sums over the demand_table(t) rows continue sequentially
    # across blocks, whatever the block size
    rng = np.random.default_rng(6)
    instances = [random_tiny_instance(rng) for _ in range(25)]
    instances += [
        wraparound_instance("cubic", (0.4,), (0.25,)),
        wraparound_instance("quadratic", (0.041, 0.144, 0.047), (0.03, 0.136, 0.042)),
    ]
    instances += [inst.truncated(max(1, inst.horizon - 2)) for inst in instances]
    for block in (1, 2, 5, offline.BLOCK_SLOTS):
        monkeypatch.setattr(offline, "BLOCK_SLOTS", block)
        for inst in instances:
            tables = np.stack([inst.demand_table(t) for t in range(1, inst.horizon + 1)])
            idle = inst.price[:, None] * np.diff(tables, axis=1)
            sums = np.add.accumulate(np.vstack([np.zeros(inst.max_servers), idle]), axis=0)
            carried, start = np.zeros(inst.max_servers), 1
            while start <= inst.horizon:
                stop = min(inst.horizon, start + block - 1)
                prefix = idle_cost_block(inst, start, stop, carried)
                assert np.array_equal(prefix, sums[start - 1 : stop + 1])
                carried, start = prefix[-1], stop + 1


def test_marginal_demand_nondecreasing_in_unit_index():
    # convex overheads make each additional server at least as expensive
    rng = np.random.default_rng(4)
    for _ in range(50):
        inst = random_tiny_instance(rng)
        for t in range(1, inst.horizon + 1):
            incs = np.diff(inst.demand_table(t))
            assert all(b >= a - 1e-12 for a, b in zip(incs, incs[1:]))


def test_min_marginal_demand_is_a_lower_bound():
    rng = np.random.default_rng(5)
    for _ in range(50):
        inst = random_tiny_instance(rng)
        floor = inst.min_marginal_demand()
        for t in range(1, inst.horizon + 1):
            assert np.all(np.diff(inst.demand_table(t)) >= floor - 1e-12)


def test_breakeven_idle_window_infinite_when_idling_is_free():
    inst = Instance(
        workload=[1.0],
        price=[0.1],
        server=ServerModel(c_idle=0.0, c_peak=0.25, beta_s=0.08),
        generator=GeneratorModel(60.0, 0.08, 1.2, 24.0, 0),
    )
    assert math.isinf(OngridParams.from_instance(inst).breakeven_idle_window)


def test_breakeven_idle_window_plain_ratio():
    inst = bare_instance([1.0, 0.0], [0.1, 0.2])
    # beta_s / (c_idle * p_min) = 0.08 / 0.01
    assert OngridParams.from_instance(inst).breakeven_idle_window == pytest.approx(8.0)


# ---------------------------------------------------------------------------
# supply cost and dispatch


def test_supply_cost_three_regimes():
    assert supply_cost(GEN, 0, 0.10, 50.0) == pytest.approx(5.0, abs=1e-12)
    assert supply_cost(GEN, 1, 0.05, 50.0) == pytest.approx(3.7, abs=1e-12)
    assert supply_cost(GEN, 1, 0.10, 50.0) == pytest.approx(5.2, abs=1e-12)


def test_supply_cost_overflow_to_grid():
    # y=1 caps on-site at 60; remaining 40 buys at grid price
    got = supply_cost(GEN, 1, 0.10, 100.0)
    assert got == pytest.approx(1.2 + 0.08 * 60 + 0.10 * 40, abs=1e-12)


def test_dispatch_worked_splits():
    assert dispatch(GEN, 1, 0.05, 50.0) == (0.0, 50.0)
    assert dispatch(GEN, 1, 0.10, 50.0) == (50.0, 0.0)
    assert dispatch(GEN, 1, 0.10, 100.0) == (60.0, 40.0)


def test_supply_kernel_arrays_match_scalar_calls():
    rng = np.random.default_rng(9)
    y = rng.integers(0, GEN.count + 1, (40, 1))
    p = rng.uniform(0.0, 0.3, (1, 7))
    d = rng.uniform(0.0, 200.0, (40, 7))
    cost = supply_cost(GEN, y, p, d)
    u, v = dispatch(GEN, y, p, d)
    assert cost.shape == u.shape == v.shape == (40, 7)
    for i in range(40):
        for j in range(7):
            args = (GEN, int(y[i, 0]), float(p[0, j]), float(d[i, j]))
            assert cost[i, j] == supply_cost(*args)
            assert (u[i, j], v[i, j]) == dispatch(*args)
    with pytest.raises(FeasibilityError):
        supply_cost(GEN, np.array([0, 3]), 0.1, 10.0)
    with pytest.raises(FeasibilityError):
        dispatch(GEN, 1, 0.1, np.array([10.0, -5.0]))


def both_branch_supply_cost(gen, y, p, d):
    """supply_cost with both price branches evaluated everywhere."""
    y, p = np.asarray(y), np.asarray(p, dtype=float)
    d = np.maximum(np.asarray(d, dtype=float), 0.0)
    cap = gen.capacity * y
    return np.where(
        p <= gen.c_o,
        gen.c_m * y + p * d,
        np.where(d > cap, gen.c_m * y + gen.c_o * cap + p * (d - cap), gen.c_m * y + gen.c_o * d),
    )


def test_scalar_price_branch_matches_the_both_branch_form():
    rng = np.random.default_rng(11)
    y = np.arange(GEN.count + 1)[None, :]
    d = rng.uniform(0.0, 200.0, (30, 1))
    d[:4, 0] = [0.0, -FEAS_TOL / 2, GEN.capacity, 2 * GEN.capacity]
    for p in (0.0, GEN.c_o / 2, GEN.c_o, np.nextafter(GEN.c_o, 1.0), 0.1, 0.3):
        want = both_branch_supply_cost(GEN, y, p, d)
        cost = supply_cost(GEN, y, p, d)
        assert cost.shape == want.shape == (30, GEN.count + 1)
        assert np.array_equal(cost, want)
        scalar = supply_cost(GEN, 1, p, 70.0)
        assert type(scalar) is float and scalar == both_branch_supply_cost(GEN, 1, p, 70.0)
    p = rng.uniform(0.0, 0.3, (30, 1))
    p[:3, 0] = [GEN.c_o / 2, GEN.c_o, 0.2]
    assert np.array_equal(supply_cost(GEN, y, p, d), both_branch_supply_cost(GEN, y, p, d))
    for p in (GEN.c_o / 2, 0.2):
        with pytest.raises(FeasibilityError, match="outside generator fleet"):
            supply_cost(GEN, np.array([0, 3]), p, 10.0)
        with pytest.raises(FeasibilityError, match="demand must be nonnegative"):
            supply_cost(GEN, 1, p, np.array([10.0, -5.0]))


def test_dispatch_validates_fleet_and_demand():
    with pytest.raises(FeasibilityError):
        dispatch(GEN, 3, 0.1, 10.0)
    with pytest.raises(FeasibilityError):
        dispatch(GEN, -1, 0.1, 10.0)
    with pytest.raises(FeasibilityError):
        supply_cost(GEN, 1, 0.1, -5.0)


@given(
    cap=st.floats(0.5, 120.0),
    co=st.floats(0.0, 0.3),
    cm=st.floats(0.0, 5.0),
    y=st.integers(0, 4),
    p=st.floats(0.0, 0.5),
    d=st.floats(0.0, 500.0),
)
@settings(max_examples=200, deadline=None)
def test_dispatch_attains_supply_cost(cap, co, cm, y, p, d):
    gen = GeneratorModel(cap, co, cm, 1.0, 4)
    u, v = dispatch(gen, y, p, d)
    assert -1e-12 <= u <= cap * y + 1e-9
    assert v >= -1e-12
    assert u + v == pytest.approx(d, abs=1e-9)
    realized = gen.c_m * y + gen.c_o * u + p * v
    assert realized == pytest.approx(supply_cost(gen, y, p, d), abs=1e-9)


@given(
    co=st.floats(0.0, 0.3),
    cm=st.floats(0.0, 5.0),
    y=st.integers(0, 3),
    p=st.floats(0.0, 0.5),
    d=st.floats(0.0, 300.0),
    frac=st.floats(0.0, 1.0),
)
@settings(max_examples=200, deadline=None)
def test_no_feasible_split_beats_supply_cost(co, cm, y, p, d, frac):
    gen = GeneratorModel(60.0, co, cm, 1.0, 3)
    u_alt = frac * min(gen.capacity * y, d)
    alt = gen.c_m * y + gen.c_o * u_alt + p * (d - u_alt)
    assert alt >= supply_cost(gen, y, p, d) - 1e-9


# ---------------------------------------------------------------------------
# schedules, feasibility, cost accounting


def test_evaluate_single_slot_worked_example():
    inst = bare_instance([1.0], [0.1])
    sched = dispatched_schedule(inst, [1.0], [0.0])
    costs = evaluate(inst, sched)
    assert costs.grid_energy == pytest.approx(0.025, abs=1e-12)
    assert costs.server_switching == pytest.approx(0.08, abs=1e-12)
    assert costs.onsite_energy == 0.0
    assert costs.maintenance == 0.0
    assert costs.generator_startup == 0.0
    assert costs.total == pytest.approx(0.105, abs=1e-12)


def test_evaluate_counts_only_positive_state_increases():
    inst = bare_instance([1.0, 0.0, 1.0], [0.11, 0.11, 0.11], count=1)
    sched = dispatched_schedule(inst, [1.0, 0.0, 1.0], [1.0, 0.0, 1.0])
    costs = evaluate(inst, sched)
    # two server starts and two generator starts; shutdowns are free
    assert costs.server_switching == pytest.approx(2 * 0.08, abs=1e-12)
    assert costs.generator_startup == pytest.approx(2 * 24.0, abs=1e-12)


def test_breakdown_components_sum_to_total():
    rng = np.random.default_rng(6)
    for _ in range(25):
        inst = random_tiny_instance(rng)
        x = [float(inst.min_servers(t)) for t in range(1, inst.horizon + 1)]
        y = [float(rng.integers(0, inst.generator.count + 1)) for _ in x]
        costs = evaluate(inst, dispatched_schedule(inst, x, y))
        parts = costs.as_dict()
        total = sum(v for k, v in parts.items() if k != "total")
        assert parts["total"] == pytest.approx(total, abs=1e-9)
        assert costs.total == parts["total"]


def test_evaluate_names_a_cost_that_is_not_finite():
    # no report may carry an inf or NaN total: the first cost that overflows,
    # the total included, is named
    inst = bare_instance([1.0, 1.0], [1.0, 1.0], beta_s=1e308)
    one, zero = np.ones(2), np.zeros(2)
    with pytest.raises(ConfigError, match=r"^total cost is inf: "):
        evaluate(inst, Schedule(x=one, y=zero, u=zero, v=[1e308, 1.0]))
    with np.errstate(over="ignore"), pytest.raises(ConfigError, match=r"^grid_energy cost is inf: "):
        evaluate(inst, Schedule(x=one, y=zero, u=zero, v=[1e308, 1e308]))
    assert math.isfinite(evaluate(inst, Schedule(x=one, y=zero, u=zero, v=[1e307, 1.0])).total)


def test_instance_rejects_demand_that_overflows():
    # the largest demand d_t(M), its grid price, or their sum over the
    # horizon overflowing is rejected at construction, without a numpy
    # overflow warning
    def instance(c_idle, price):
        return Instance(workload=[1.0, 2.0], price=price,
                        server=ServerModel(c_idle=c_idle, c_peak=c_idle, beta_s=1.0),
                        generator=GeneratorModel(60.0, 0.08, 1.2, 24.0, 0))

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for c_idle, price, bill in (
            (1e308, [0.1, 0.1], "inf"),  # d_t(M) = 2e308
            (1e300, [0.1, 1e10], "inf"),  # p(t)*d_t(M) = 2e310
            (1e308, [0.0, 0.0], "nan"),  # inf demand at a zero price
            (1e300, [0.6e8, 0.6e8], "inf"),  # 1.2e308 a slot, finite; the sum is not
        ):
            with pytest.raises(ConfigError, match=rf"^the full fleet's grid bill, .* is {bill}: "):
                instance(c_idle, price)
        inst = instance(1e300, [0.1, 1e7])  # a bill of 2e307 + 2e299: finite
        assert inst.demand_table(2)[2] == 2e300


def test_instance_rejects_sizes_past_the_limits():
    # a peak fleet or a generator fleet too large for the solvers' arrays is
    # rejected at construction, from the input series alone
    with pytest.raises(CapacityError, match=r"^a fleet of 100000000 servers exceeds the limit of 65536$"):
        bare_instance([1.0, 1e8], [0.1, 0.2])
    with pytest.raises(CapacityError, match=r"^a fleet of 65537 servers exceeds"):
        bare_instance([float(MAX_SERVERS) + 0.5], [0.1])
    assert bare_instance([float(MAX_SERVERS)], [0.1]).max_servers == MAX_SERVERS
    with pytest.raises(CapacityError, match=r"^2 slots x 100000001 generator states exceed the limit "
                                            r"of 16777216 cells$"):
        bare_instance([1.0, 1.0], [0.1, 0.2], count=10**8)
    assert bare_instance([1.0], [0.2], count=MAX_SUPPLY_CELLS - 1).generator.count + 1 == MAX_SUPPLY_CELLS


def test_zero_workload_all_off_costs_nothing():
    inst = bare_instance(np.zeros(5), np.full(5, 0.2))
    z = np.zeros(5)
    costs = evaluate(inst, Schedule(x=z, y=z, u=z, v=z))
    assert costs.total == 0.0


def test_check_schedule_names_first_bad_slot():
    inst = bare_instance([1.0, 2.0], [0.11, 0.11], count=1)
    z = np.zeros(2)
    with pytest.raises(FeasibilityError, match="slot 2"):
        check_schedule(inst, Schedule(x=[1.0, 1.0], y=z, u=z, v=[0.25, 0.25]))
    with pytest.raises(FeasibilityError, match="slot 1"):
        check_schedule(inst, Schedule(x=[1.5, 2.0], y=z, u=z, v=[9.0, 9.0]))
    # on-site supply above active capacity
    with pytest.raises(FeasibilityError, match="capacity"):
        check_schedule(
            inst, Schedule(x=[1.0, 2.0], y=[0.0, 0.0], u=[0.3, 0.0], v=[0.0, 9.0])
        )
    # supply short of demand
    with pytest.raises(FeasibilityError, match="below demand"):
        check_schedule(inst, Schedule(x=[1.0, 2.0], y=z, u=z, v=[0.1, 9.0]))


def first_violation(inst, sched):
    """Slot-by-slot reference for check_schedule's verdict."""
    gen = inst.generator
    demand = demand_series(inst, sched.x)
    for t in range(1, inst.horizon + 1):
        x, y, u, v = (s[t - 1] for s in (sched.x, sched.y, sched.u, sched.v))
        if x != int(x) or x < inst.min_servers(t):
            return f"slot {t}: x={x} must be an integer >= ceil(a)={inst.min_servers(t)}"
        if y != int(y) or not 0 <= y <= gen.count:
            return f"slot {t}: y={y} must be an integer in [0, {gen.count}]"
        if u < -FEAS_TOL or v < -FEAS_TOL:
            return f"slot {t}: negative dispatch u={u}, v={v}"
        if u > gen.capacity * y + FEAS_TOL:
            return f"slot {t}: on-site supply u={u} exceeds active capacity {gen.capacity * y}"
        d = demand[t - 1]
        if u + v < d - FEAS_TOL:
            return f"slot {t}: supply u+v={u + v} below demand {d}"
    return None


def test_schedule_kernels_match_slot_by_slot_reference():
    rng = np.random.default_rng(7)
    for _ in range(200):
        inst = random_tiny_instance(rng)
        t_end = inst.horizon
        x = [float(rng.integers(inst.min_servers(t), inst.max_servers + 1))
             for t in range(1, t_end + 1)]
        y = rng.integers(0, inst.generator.count + 1, t_end).astype(float)
        sched = dispatched_schedule(inst, x, y)
        for t in range(1, t_end + 1):
            d = inst.demand_table(t)[int(x[t - 1])]
            split = dispatch(inst.generator, int(y[t - 1]), inst.p(t), d)
            assert (sched.u[t - 1], sched.v[t - 1]) == split
        cols = {name: getattr(sched, name).copy() for name in "xyuv"}
        for _ in range(int(rng.integers(0, 3))):
            k = int(rng.integers(t_end))
            cols[str(rng.choice(list("xyuv")))][k] += rng.choice([-1.0, -0.5, 0.5, 1.0, 5.0])
        broken = Schedule(**cols)
        want = first_violation(inst, broken)
        if want is None:
            check_schedule(inst, broken)
        else:
            with pytest.raises(FeasibilityError) as err:
                check_schedule(inst, broken)
            assert str(err.value) == want


def test_schedule_padding_with_idle_tail_is_free():
    inst = bare_instance([1.0, 1.0], [0.1, 0.2])
    padded = bare_instance([1.0, 1.0, 0.0, 0.0], [0.1, 0.2, 0.3, 0.3])
    c2 = evaluate(inst, dispatched_schedule(inst, [1.0, 1.0], [0.0, 0.0]))
    c4 = evaluate(padded, dispatched_schedule(padded, [1.0, 1.0, 0.0, 0.0], np.zeros(4)))
    assert c4.total == pytest.approx(c2.total, abs=1e-12)


# ---------------------------------------------------------------------------
# construction-time validation


def test_model_parameter_validation():
    with pytest.raises(ConfigError):
        ServerModel(c_idle=0.3, c_peak=0.25, beta_s=0.08)
    with pytest.raises(ConfigError):
        ServerModel(c_idle=0.1, c_peak=0.25, beta_s=0.0)
    with pytest.raises(ConfigError):
        GeneratorModel(0.0, 0.08, 1.2, 24.0, 1)
    with pytest.raises(ConfigError):
        GeneratorModel(60.0, 0.08, 1.2, 24.0, -1)
    with pytest.raises(ConfigError):
        CoolingModel(kind="mystery")
    with pytest.raises(ConfigError):
        ConditioningModel(kind="quadratic", quad=-0.1, b_max=1.0)


def test_cooling_regimes_must_tile_the_period():
    day = CoolingRegime("day", 8, 20, (0.1, 0.1, 0.1))
    with pytest.raises(ConfigError, match="hour"):
        CoolingModel(kind="quadratic", regimes=(day,), b_max=1.0)
    overlap = CoolingRegime("extra", 19, 21, (0.1, 0.1, 0.1))
    night = CoolingRegime("night", 20, 8, (0.1, 0.1, 0.1))
    with pytest.raises(ConfigError, match="hour"):
        CoolingModel(kind="quadratic", regimes=(day, night, overlap), b_max=1.0)


def test_cooling_regime_bounds_must_lie_in_the_period():
    # (26, 4) and (4, 26) tile the hours when compared raw, but the first
    # would own hours 0-3 rather than 2-3: bounds are hours of the period
    for start, end in ((26, 4), (4, 26), (24, 8), (8, 24)):
        first = CoolingRegime("first", start, end, (0.1,))
        second = CoolingRegime("second", end, start, (0.2,))
        with pytest.raises(ConfigError, match=r"must lie in \[0, 24\)"):
            CoolingModel(kind="cubic", regimes=(first, second), b_max=1.0)
    with pytest.raises(ConfigError, match=r"start 0 and end 6 must lie in \[0, 6\)"):
        CoolingModel(kind="cubic", regimes=(CoolingRegime("all", 0, 6, (0.1,)),), period=6)
    CoolingModel(kind="cubic", regimes=(CoolingRegime("all", 0, 0, (0.1,)),), period=6)


def test_slot_accessors_reject_slots_outside_the_horizon():
    inst = bare_instance([1.0, 2.5, 0.0], [0.1, 0.2, 0.3])
    assert (inst.a(2), inst.p(3), inst.min_servers(2)) == (2.5, 0.3, 3)
    assert inst.demand_table(3).tobytes() == inst.demand_table(3, 3)[0].tobytes()
    for t in (0, -1, 4):
        for accessor in (inst.a, inst.p, inst.min_servers, inst.demand_table):
            with pytest.raises(ValueError, match=rf"^slot {t} is outside 1\.\.3$"):
                accessor(t)


def test_instance_series_validation():
    with pytest.raises(ConfigError, match="mismatch"):
        bare_instance([1.0, 2.0], [0.1])
    with pytest.raises(ConfigError, match="nonnegative"):
        bare_instance([-1.0], [0.1])
    with pytest.raises(ConfigError, match="nonnegative"):
        bare_instance([1.0], [-0.1])
    with pytest.raises(ConfigError, match="at least one"):
        bare_instance([], [])
    with pytest.raises(ConfigError, match="finite"):
        bare_instance([math.nan], [0.1])
    with pytest.raises(ConfigError, match="finite"):
        bare_instance([1.0], [math.inf])


VALID_MODELS = {
    ServerModel: dict(c_idle=0.1, c_peak=0.25, beta_s=0.08),
    GeneratorModel: dict(capacity=60.0, c_o=0.08, c_m=1.2, beta_g=24.0, count=2),
    CoolingModel: dict(kind="none", b_max=1.0, period=24),
    ConditioningModel: dict(kind="quadratic", quad=0.1, lin=0.1, const=0.1, b_max=1.0),
    OngridParams: dict(beta_s=0.08, p_min=0.1, d_min=0.1),
    BoundParams: dict(beta_s=0.08, p_min=0.1, d_min=0.1, beta_g=24.0, c_o=0.08, c_m=1.2,
                      capacity=60.0, p_max=0.2),
}


def _one_regime(**fields):
    regime = {"name": "all", "start": 0, "end": 0, "coeffs": (0.1, 0.2, 0.3), **fields}
    return CoolingModel(kind="quadratic", regimes=(CoolingRegime(**regime),))


def _scalar_cases():
    """pytest params (field, build, valid value): build(value) is a model
    with one scalar, the named field, set to value."""
    for cls, valid in VALID_MODELS.items():
        for name, good in valid.items():
            if name != "kind":
                build = lambda v, cls=cls, valid=valid, name=name: cls(**{**valid, name: v})
                yield pytest.param(name, build, good, id=f"{cls.__name__}.{name}")
    # kind "none" reads no conditioning scalar, yet checks each one
    yield pytest.param("quad", lambda v: ConditioningModel(quad=v), 0.0, id="ConditioningModel.none")
    for k in range(3):
        build = lambda v, k=k: _one_regime(coeffs=tuple(v if j == k else 0.1 for j in range(3)))
        yield pytest.param(rf"coeffs\[{k}\]", build, 0.1, id=f"CoolingRegime.coeffs[{k}]")
    for name in ("start", "end"):
        build = lambda v, name=name: _one_regime(**{name: v})
        yield pytest.param(name, build, 0, id=f"CoolingRegime.{name}")


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field, build, good", list(_scalar_cases()))
def test_every_model_scalar_rejects_non_finite_values(field, build, good, value):
    # each model scalar's range is checked once, in its dataclass, and NaN
    # and the infinities fail it with a ConfigError that names the field
    build(good)
    with pytest.raises(ConfigError, match=rf"{field} must be a (finite|whole) number"):
        build(value)


def test_instance_rejects_uneconomical_fleet():
    # break-even 0.08 + 1.2/60 = 0.1 is not strictly below the price peak
    with pytest.raises(ConfigError, match="uneconomical"):
        bare_instance([1.0], [0.1], count=1)
    bare_instance([1.0], [0.1], count=0)  # idle fleet is fine
    bare_instance([1.0], [0.11], count=1)


def test_truncated_prefix_views():
    inst = bare_instance([1.0, 2.0, 0.5], [0.05, 0.2, 0.1], count=1)
    cut = inst.truncated(1)
    assert cut.horizon == 1
    assert cut.a(1) == 1.0 and cut.p(1) == 0.05
    # prefix price peak (0.05) sits below generator break-even (0.1), yet
    # the view stays usable because validation is inherited from the parent
    assert cut.generator.count == 1
    for k in range(1, inst.horizon + 1):
        assert inst.truncated(k).max_servers == np.ceil(inst.workload[:k]).max()
    with pytest.raises(ValueError):
        inst.truncated(0)
    with pytest.raises(ValueError):
        inst.truncated(4)


def test_with_generator_count_swaps_only_the_fleet():
    inst = bare_instance([1.0], [0.2], count=2)
    alt = inst.with_generator_count(0)
    assert alt.generator.count == 0
    assert alt.generator.capacity == inst.generator.capacity
    assert alt.server is inst.server


def test_instance_arrays_are_frozen():
    inst = bare_instance([1.0, 2.0], [0.1, 0.2])
    with pytest.raises(ValueError):
        inst.workload[0] = 5.0
    with pytest.raises(ValueError):
        inst.price[0] = 5.0
    table = inst.demand_table(1)
    with pytest.raises(ValueError):
        table[0] = 5.0
