"""Experiment layer on synthetic month-long traces.

Synthesizes regional workload/price traces, runs the standard algorithm
lineup head to head, sweeps the look-ahead window and the generator fleet
size, and closes with the two single-lever ablations.

Run with: python3 demos/04_experiments.py   (about half a minute)
"""

import math

from dcmkit import (
    OngridParams,
    ablation_cp_only,
    ablation_ep_only,
    build_instance,
    run_comparison,
    static_benchmark,
    sweep_generators,
    sweep_lookahead,
    synthesize_trace,
)
from dcmkit.harness import validate_config
from dcmkit.model import demand_series
import numpy as np


def preset_instance(preset: str):
    trace = synthesize_trace(seed=0, days=22, servers=600, preset=preset)
    return build_instance(trace, validate_config({"preset": preset}))


def main() -> None:
    ny = preset_instance("ny")
    print(f"trace: {ny.label!r}, {ny.horizon} slots, peak fleet {ny.max_servers}, "
          f"{ny.generator.count} generators")
    print()

    # -- head-to-head lineup ------------------------------------------------
    print("=== algorithm lineup, 4-slot look-ahead ===")
    report = run_comparison(ny, lookahead=4)
    print(f"offline reference: {report.reference_kind}")
    print(f"{'algorithm':>10}  {'total cost':>12}  {'vs static':>9}  {'mean x':>7}  {'mean y':>6}")
    for name in ("static", "offline", "cpoff", "gcsr", "dcmon"):
        res = report.results[name]
        sav = f"{100 * report.savings(name):5.1f}%" if name != "static" else "     -"
        print(f"{name:>10}  {res.total:12.2f}  {sav:>9}  "
              f"{res.schedule.x.mean():7.1f}  {res.schedule.y.mean():6.2f}")
    print("dcmon layers generator commitment on gcsr's fleet decisions; on")
    print("this trace that supply lever carries most of the online savings")
    print()

    # -- look-ahead sweep ---------------------------------------------------
    print("=== look-ahead sweep ===")
    rows = sweep_lookahead(ny, [0, 1, 2, 4, 8])
    print(f"{'w':>3}  {'gcsr':>10}  {'dcmon':>10}  {'dcmon/offline':>13}  {'grid bound':>10}")
    for row in rows:
        print(f"{row['value']:>3}  {row['costs']['gcsr']:10.2f}  {row['costs']['dcmon']:10.2f}  "
              f"{row['ratios']['dcmon_vs_offline']:13.4f}  {row['bounds']['ongrid']:10.3f}")
    span = OngridParams.from_instance(ny).breakeven_idle_window
    print(f"break-even idle window is {span:.2f} slots; past w = {math.ceil(span)} the")
    print(f"provisioning stage is offline-optimal and the bound pins to 1")
    print()

    # -- generator fleet sweep ----------------------------------------------
    print("=== generator fleet sweep (look-ahead 4) ===")
    peak_energy = demand_series(ny, np.full(ny.horizon, float(ny.max_servers))).max()
    cover = math.ceil(peak_energy / ny.generator.capacity)
    rows = sweep_generators(ny, [0, 1, 2, 3, cover, cover + 2], lookahead=4)
    print(f"{'N':>3}  {'offline':>10}  {'dcmon':>10}")
    for row in rows:
        print(f"{row['value']:>3}  {row['costs']['offline']:10.2f}  {row['costs']['dcmon']:10.2f}")
    print(f"full coverage takes {cover} generators ({peak_energy:.1f} kWh peak vs "
          f"{ny.generator.capacity:.0f} kWh each);")
    print("marginal value can hit zero even earlier, and past coverage extra")
    print("units are never committed, so the curve is exactly flat")
    print()

    # -- single-lever ablations ---------------------------------------------
    # Supply-only: static peak fleet, optimal generator use. Provision-only:
    # optimal fleet, grid energy only. Which lever matters depends on the
    # trace: price spreads favor supply, workload swings favor provisioning.
    print("=== one lever at a time ===")
    for preset in ("ny", "flat"):
        inst = preset_instance(preset)
        base = static_benchmark(inst).total
        ep = 1.0 - ablation_ep_only(inst).total / base
        cp = 1.0 - ablation_cp_only(inst).total / base
        lever = "supply" if ep > cp else "provisioning"
        print(f"{preset:>5}: supply-only saves {100 * ep:5.1f}%, provisioning-only "
              f"{100 * cp:5.1f}%  ({lever} lever dominates)")
    print("the regional preset has strong price spikes, so generators carry")
    print("the savings; flatten the price and right-sizing the fleet is all")
    print("that is left")


if __name__ == "__main__":
    main()
