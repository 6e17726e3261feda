"""Offline optima: the joint solver, per-unit slicing, and what slicing costs.

Four stops: the exact dynamic program cross-checked against brute force,
the per-server break-even rule for provisioning, the per-generator regret
walk for supply, and the worst-case penalty of solving the two stages
separately instead of jointly.

Run with: python3 demos/02_offline_optimal.py
"""

import numpy as np

from dcmkit import (
    GeneratorModel,
    Instance,
    ServerModel,
    brute_force_dcm,
    decomposition_tightness,
    ep_offline_slices,
    evaluate,
    solve_cp_offline,
    solve_dcm_offline,
    solve_ep_offline,
)
from dcmkit.analysis import decomposed_offline_schedule
from dcmkit.offline import brute_force_ep, cp_offline_slices, ep_cost, regret_rows, regret_steps


def tiny_instance(rng: np.random.Generator) -> Instance:
    t_end = rng.integers(3, 6)
    return Instance(
        workload=rng.uniform(0.0, 2.5, t_end),
        price=rng.uniform(0.05, 0.4, t_end),
        server=ServerModel(c_idle=0.1, c_peak=0.25, beta_s=0.08),
        generator=GeneratorModel(capacity=0.5, c_o=0.08, c_m=0.02, beta_g=0.12, count=1),
    )


def main() -> None:
    rng = np.random.default_rng(7)

    # -- stop 1: exact joint optimum, verified by enumeration ---------------
    print("=== joint optimum vs brute force ===")
    worst = 0.0
    for _ in range(10):
        inst = tiny_instance(rng)
        dp = evaluate(inst, solve_dcm_offline(inst)).total
        bf = evaluate(inst, brute_force_dcm(inst)).total
        worst = max(worst, abs(dp - bf))
    print(f"10 random tiny instances: max |dp - brute| = {worst:.2e}")
    print()

    # -- stop 2: provisioning decomposes into unit slices -------------------
    # Flat power and price make the arithmetic visible: each idle slot
    # costs c_idle * p = 0.02, so a restart breaks even after
    # beta_s / 0.02 = 4 idle slots. Shorter gaps: stay on. Longer: off.
    print("=== provisioning by break-even rule (one slice) ===")
    workload = np.array([1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1], dtype=float)
    inst = Instance(
        workload=workload,
        price=np.full(11, 0.1),
        server=ServerModel(c_idle=0.2, c_peak=0.2, beta_s=0.08),
        generator=GeneratorModel(capacity=60.0, c_o=0.08, c_m=1.2, beta_g=24.0, count=0),
    )
    x = solve_cp_offline(inst)
    print(f"workload gaps of 3 and 5 slots, break-even window 4:")
    print(f"  a = {workload.astype(int).tolist()}")
    print(f"  x = {x.astype(int).tolist()}")
    print("  the 3-slot gap is ridden through, the 5-slot gap is worth a restart")
    print()

    # Fractional workload slices into per-server busy fractions; each slice
    # gets its own break-even schedule and the fleet is their sum.
    print("slicing a fractional workload (a = 2.0, 0.4, 1.3):")
    frac = Instance(
        workload=np.array([2.0, 0.4, 1.3]),
        price=np.full(3, 0.1),
        server=ServerModel(c_idle=0.2, c_peak=0.2, beta_s=0.08),
        generator=GeneratorModel(capacity=60.0, c_o=0.08, c_m=1.2, beta_g=24.0, count=0),
    )
    slices = cp_offline_slices(frac)
    for i, row in enumerate(slices, start=1):
        busy = np.clip(frac.workload - (i - 1), 0.0, 1.0)
        print(f"  slice {i}: busy {[round(v, 3) for v in busy.tolist()]}  ->  "
              f"x_{i} = {row.astype(int).tolist()}")
    print(f"  fleet: x = {slices.sum(axis=0).astype(int).tolist()}")
    print("  slice 2 is idle in slot 2 but rides through (1 idle slot < window 4)")
    print()

    # -- stop 3: supply decomposes the same way -----------------------------
    # One generator slice over a two-spell energy series. The regret walk
    # accumulates per-slot gain (run vs buy), clamped to [-beta_g, 0];
    # hitting 0 certifies a spell worth a startup, hitting -beta_g
    # certifies a shutdown.
    print("=== supply by clamped regret walk (one slice) ===")
    gen = GeneratorModel(capacity=64.0, c_o=0.0625, c_m=1.25, beta_g=24.0, count=1)
    price_level = 0.10546875  # dyadic: gain is exactly +1.5 busy, -1.25 idle
    energy = np.concatenate([
        np.zeros(6), np.full(18, 96.0), np.zeros(24), np.full(20, 96.0), np.zeros(4),
    ])
    price = np.full(len(energy), price_level)
    gain = regret_steps(gen, energy, price)
    savings = regret_rows(gen, energy, price, np.full(1, -gen.beta_g))[:, 0]
    y = ep_offline_slices(gen, energy, price)[0]
    print(f"series: 6 idle, 18 busy, 24 idle, 20 busy, 4 idle slots")
    print(f"per-slot gain: busy {gain.max():+.2f}, idle {gain.min():+.2f}")
    print("optimal on/off runs (start, end) and the savings R across each:")
    for run in np.split(np.arange(len(y)), np.flatnonzero(np.diff(y)) + 1):
        state = "on" if y[run[0]] else "off"
        print(f"  [{run[0] + 1:3d}, {run[-1] + 1:3d}]  {state:3}  "
              f"R {savings[run[0]]:6.2f} -> {savings[run[-1]]:6.2f}")
    print("each on run ends at the top (R = 0) and the 24-slot lull at the")
    print("bottom (-beta_g), so the unit cycles; the trailing 4-slot lull")
    print("reaches neither extreme before the series ends, so the unit is off")
    print()

    print("enumeration check on random supply problems:")
    worst = 0.0
    for _ in range(10):
        t_end = int(rng.integers(3, 6))
        e = rng.uniform(0.0, 1.5, t_end)
        p = rng.uniform(0.05, 0.4, t_end)
        g = GeneratorModel(capacity=0.5, c_o=0.08, c_m=0.02, beta_g=0.12, count=2)
        y = solve_ep_offline(g, e, p)
        _, best = brute_force_ep(g, e, p)
        worst = max(worst, abs(ep_cost(g, e, p, y) - best))
    print(f"10 random problems, 2 generators: max |sliced - brute| = {worst:.2e}")
    print()

    # -- stop 4: the price of solving the stages separately -----------------
    # Staged solving (provision first, then supply against the resulting
    # demand) is never better than the joint optimum, and in the worst
    # case costs exactly (L c_o + c_m + L p_max) / (L c_o + c_m) times as
    # much. The adversarial family alternates price spikes with lulls
    # sized so the staged solution keeps restarting what the joint
    # solution keeps warm.
    print("=== decomposition penalty ===")
    inst = tiny_instance(rng)
    joint = evaluate(inst, solve_dcm_offline(inst)).total
    staged = evaluate(inst, decomposed_offline_schedule(inst)).total
    print(f"random instance: joint {joint:.4f} <= staged {staged:.4f}")
    report = decomposition_tightness(periods_small=10, periods_large=20)
    print(f"adversarial family, steady-state staged/joint ratio:")
    print(f"  measured  {report['measured']:.9f}")
    print(f"  predicted {report['predicted']:.9f}")


if __name__ == "__main__":
    main()
