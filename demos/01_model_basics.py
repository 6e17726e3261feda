"""Cost model walkthrough: power, demand, dispatch, and full evaluation.

Builds a small nine-slot instance by hand, inspects each layer of the
cost model, then evaluates a complete schedule and prints the breakdown.

Run with: python3 demos/01_model_basics.py
"""

import numpy as np

from dcmkit import (
    CoolingModel,
    CoolingRegime,
    GeneratorModel,
    Instance,
    ServerModel,
    demand_series,
    dispatch,
    dispatched_schedule,
    evaluate,
    supply_cost,
)


def main() -> None:
    # A morning ramp: workload in server-equivalents, price in $/kWh.
    workload = np.array([1.0, 1.0, 2.0, 3.0, 3.5, 3.0, 2.0, 1.0, 1.0])
    price = np.array([0.10, 0.10, 0.12, 0.18, 0.22, 0.20, 0.14, 0.10, 0.10])

    server = ServerModel(c_idle=0.1, c_peak=0.25, beta_s=0.08)
    gen = GeneratorModel(capacity=60.0, c_o=0.08, c_m=1.2, beta_g=24.0, count=2)

    # Cooling switches coefficients at hour 6 of a 9-hour cycle; the
    # quadratic acts on facility power normalized by b_max.
    cooling = CoolingModel(
        kind="quadratic",
        regimes=(
            CoolingRegime("day", start=0, end=6, coeffs=(0.4, 0.05, 0.0)),
            CoolingRegime("night", start=6, end=0, coeffs=(0.25, 0.0, 0.0)),
        ),
        b_max=2.0,
        period=9,
    )

    inst = Instance(
        workload=workload,
        price=price,
        server=server,
        generator=gen,
        cooling=cooling,
        label="walkthrough",
    )

    print(f"instance: T={inst.horizon} slots, peak fleet M={inst.max_servers}, "
          f"N={gen.count} generators")
    print(f"prices span [{inst.p_min:.2f}, {inst.p_max:.2f}], "
          f"generator break-even {gen.breakeven_price:.3f} $/kWh")
    print()

    # Layer 1: facility power. Server draw is linear in fleet size and
    # workload; cooling and conditioning amplify it convexly.
    # demand_table(5) stops at the peak fleet M=4, so a fleet series held
    # at x gives the larger fleets too.
    print("power at slot 5 (peak workload, a=3.5) as the fleet grows:")
    for x in (4, 6, 9):
        p = demand_series(inst, np.full(inst.horizon, float(x)))[4]
        print(f"  x={x}: facility power = {p:.4f} kW")
    print("  every powered-on server adds idle draw plus overhead, which is")
    print("  why right-sizing the fleet matters at all.")
    print()

    # Layer 2: per-slot energy demand d_t(x) over feasible fleet sizes.
    print("demand at slot 2 (a=1.0) by fleet size, kWh per slot:")
    table = inst.demand_table(2)
    print("  " + "  ".join(
        f"x={x}:{table[x]:.3f}" for x in range(inst.min_servers(2), inst.max_servers + 1)
    ))
    print()

    # Layer 3: dispatch. Given y committed generators, the cheapest split
    # of demand d between on-site (u) and grid (v) has a closed form.
    print("dispatch of d=80 kWh with y=1 generator (capacity 60):")
    for p in (0.06, 0.10):
        u, v = dispatch(gen, 1, p, 80.0)
        cost = supply_cost(gen, 1, p, 80.0)
        side = "grid is cheaper than c_o" if p <= gen.c_o else "generator runs at cap"
        print(f"  price {p:.2f}: u={u:.0f} on-site, v={v:.0f} grid, "
              f"supply cost {cost:.2f}  ({side})")
    print()

    # Layer 4: full evaluation. Track the workload with one spare server,
    # run a generator across the expensive afternoon, and price it all.
    x = np.ceil(workload) + 1.0
    y = np.array([0, 0, 0, 1, 1, 1, 0, 0, 0], dtype=float)
    sched = dispatched_schedule(inst, x, y)
    cost = evaluate(inst, sched)

    print("hand schedule (track workload + 1 spare, generator on slots 4-6):")
    print(f"  x = {sched.x.astype(int).tolist()}")
    print(f"  y = {sched.y.astype(int).tolist()}")
    d = demand_series(inst, sched.x)
    print(f"  demand (kWh)  = {[round(v, 2) for v in d.tolist()]}")
    print(f"  on-site (kWh) = {[round(v, 2) for v in sched.u.tolist()]}")
    print()
    print("cost breakdown:")
    for name, value in cost.as_dict().items():
        if name != "total":
            print(f"  {name:>17}: {value:10.4f}")
    print(f"  {'total':>17}: {cost.total:10.4f}")
    print()
    print("note the 24.0 startup for a generator that displaced about 3 kWh:")
    print("at this toy scale committing a generator never pays. Deciding when")
    print("it does pay is the solvers' job; see the next demos.")


if __name__ == "__main__":
    main()
