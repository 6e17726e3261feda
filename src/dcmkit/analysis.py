"""Experiment layer: benchmarks, head-to-head comparisons, ablations,
parameter sweeps, and the two worst-case trace families that make the
theoretical ratios measurable on real runs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ConfigError
from .model import (
    CostBreakdown,
    GeneratorModel,
    Instance,
    Schedule,
    ServerModel,
    dispatched_schedule,
    evaluate,
    staged_schedule,
)
from .offline import (
    DEFAULT_STATE_BUDGET,
    cp_cost,
    solve_cp_offline,
    solve_dcm_offline,
    solve_ep_offline,
)
from .online import (
    BoundParams,
    OngridParams,
    dcmon,
    gcsr,
    ratio_bound_hybrid,
    ratio_bound_ongrid,
    rho_decomposition,
)

# ---------------------------------------------------------------------------
# building blocks


def grid_only_schedule(instance: Instance, x) -> Schedule:
    """Complete a provisioning series with grid-only supply (y = 0)."""
    return dispatched_schedule(instance, np.asarray(x, dtype=float), np.zeros(instance.horizon))


def static_fleet(instance: Instance) -> np.ndarray:
    """The peak fleet in every slot."""
    return np.full(instance.horizon, float(instance.max_servers))


def static_schedule(instance: Instance) -> Schedule:
    """The do-nothing benchmark: peak fleet always on, everything from the grid."""
    return grid_only_schedule(instance, static_fleet(instance))


def static_benchmark(instance: Instance) -> CostBreakdown:
    """Evaluated cost of the peak-provisioned grid-only benchmark."""
    return evaluate(instance, static_schedule(instance))


def decomposed_offline_schedule(instance: Instance) -> Schedule:
    """Offline reference built stage-wise: slice-optimal provisioning, then
    slice-optimal supply on the induced energy demand."""
    return staged_schedule(instance, solve_cp_offline(instance), solve_ep_offline)


@dataclass(frozen=True)
class AlgoResult:
    """One algorithm's schedule and its evaluated cost on an instance."""

    name: str
    schedule: Schedule
    cost: CostBreakdown

    @property
    def total(self) -> float:
        return self.cost.total

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "total": self.total,
            "breakdown": self.cost.as_dict(),
            "mean_servers": float(self.schedule.x.mean()),
            "peak_servers": float(self.schedule.x.max()),
            "mean_generators": float(self.schedule.y.mean()),
        }


@dataclass(frozen=True)
class ExperimentReport:
    """Head-to-head comparison of the standard algorithm lineup."""

    label: str
    horizon: int
    lookahead: int
    reference_kind: str  # "exact" when the joint solver fit its budget
    results: dict[str, AlgoResult]

    def savings(self, name: str) -> float:
        base = self.results["static"].total
        if base == 0.0:
            return 0.0
        return 1.0 - self.results[name].total / base

    def ratio(self, name: str, reference: str) -> float:
        ref = self.results[reference].total
        if ref == 0.0:
            return 1.0 if self.results[name].total == 0.0 else math.inf
        return self.results[name].total / ref

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "horizon": self.horizon,
            "lookahead": self.lookahead,
            "reference_kind": self.reference_kind,
            "algorithms": {name: res.to_dict() for name, res in self.results.items()},
            "savings_vs_static": {
                name: self.savings(name) for name in self.results if name != "static"
            },
            "ratios": {
                "gcsr_vs_cpoff": self.ratio("gcsr", "cpoff"),
                "dcmon_vs_offline": self.ratio("dcmon", "offline"),
            },
        }


def offline_reference(
    instance: Instance, state_budget: int = DEFAULT_STATE_BUDGET, cpoff=None
) -> tuple[Schedule, str]:
    """Joint optimum when the state graph fits the budget, else the
    stage-wise decomposition on cpoff's provisioning series, which the
    zero-argument function cpoff returns (solve_cp_offline when not given)
    and which is asked for only then; the second element names which one
    ran."""
    try:
        return solve_dcm_offline(instance, state_budget=state_budget), "exact"
    except CapacityError:
        x = solve_cp_offline(instance) if cpoff is None else cpoff()
        return staged_schedule(instance, x, solve_ep_offline), "decomposed"


def run_comparison(
    instance: Instance,
    lookahead: int,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> ExperimentReport:
    """Run the full lineup on one instance at one look-ahead window.

    static: peak fleet, grid only. offline: cost reference. cpoff: optimal
    provisioning, grid only. gcsr: online provisioning, grid only.
    dcmon: online provisioning and supply.

    cpoff's series comes from the GCSR run, which applies the offline slice
    rule to every gap it walks, and feeds the decomposed reference too; so
    the comparison makes two P-row walks, GCSR's and DCMON's.
    """
    gcsr_x, cpoff_x = gcsr(instance, lookahead, return_offline=True)
    reference, kind = offline_reference(instance, state_budget, lambda: cpoff_x)
    lineup = {
        "static": static_schedule(instance),
        "offline": reference,
        "cpoff": grid_only_schedule(instance, cpoff_x),
        "gcsr": grid_only_schedule(instance, gcsr_x),
        "dcmon": dcmon(instance, lookahead),
    }
    results = {
        name: AlgoResult(name, sched, evaluate(instance, sched))
        for name, sched in lineup.items()
    }
    return ExperimentReport(
        label=instance.label,
        horizon=instance.horizon,
        lookahead=lookahead,
        reference_kind=kind,
        results=results,
    )


# ---------------------------------------------------------------------------
# ablations: one lever at a time


def ep_only_schedule(instance: Instance) -> Schedule:
    """Supply lever alone: static peak fleet, offline-optimal generator use."""
    return staged_schedule(instance, static_fleet(instance), solve_ep_offline)


def cp_only_schedule(instance: Instance) -> Schedule:
    """Provisioning lever alone: right-sized fleet, grid-only supply."""
    return grid_only_schedule(instance, solve_cp_offline(instance))


def ablation_ep_only(instance: Instance) -> CostBreakdown:
    return evaluate(instance, ep_only_schedule(instance))


def ablation_cp_only(instance: Instance) -> CostBreakdown:
    return evaluate(instance, cp_only_schedule(instance))


# ---------------------------------------------------------------------------
# sweeps


def sweep_lookahead(
    instance: Instance,
    lookaheads,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> list[dict]:
    """Cost of the online algorithms as the look-ahead window grows.

    Offline references are computed once; each row carries online costs,
    ratios against the references, and the matching theory bounds (the
    hybrid bound only when the generator economics make it well defined;
    for a valid instance that is the only way BoundParams can fail).
    cpoff's series comes from the first window's GCSR run.
    """
    lookaheads = [int(w) for w in lookaheads]
    if not lookaheads:
        return []
    first_x, cpoff_x = gcsr(instance, lookaheads[0], return_offline=True)
    reference, kind = offline_reference(instance, state_budget, lambda: cpoff_x)
    ref_total = evaluate(instance, reference).total
    cpoff_total = evaluate(instance, grid_only_schedule(instance, cpoff_x)).total
    ongrid = OngridParams.from_instance(instance)
    try:
        params: BoundParams | None = BoundParams.from_instance(instance)
    except ConfigError:
        params = None
    rows = []
    for k, w in enumerate(lookaheads):
        x = first_x if k == 0 else gcsr(instance, w)
        gcsr_total = evaluate(instance, grid_only_schedule(instance, x)).total
        dcmon_total = evaluate(instance, dcmon(instance, w, ongrid)).total
        bounds = {"ongrid": ratio_bound_ongrid(w, ongrid)}
        if params is not None:
            bounds["hybrid"] = ratio_bound_hybrid(w, params)
        rows.append(
            {
                "axis": "lookahead",
                "value": w,
                "reference_kind": kind,
                "costs": {
                    "offline": ref_total,
                    "cpoff": cpoff_total,
                    "gcsr": gcsr_total,
                    "dcmon": dcmon_total,
                },
                "ratios": {
                    "gcsr_vs_cpoff": gcsr_total / cpoff_total if cpoff_total else 1.0,
                    "dcmon_vs_offline": dcmon_total / ref_total if ref_total else 1.0,
                },
                "bounds": bounds,
            }
        )
    return rows


def sweep_generators(
    instance: Instance,
    counts,
    lookahead: int,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> list[dict]:
    """Cost as the generator fleet grows; everything re-solved per count
    except cpoff's provisioning series, which does not depend on the
    generators: it is solved once, for the first count whose reference
    falls back to the decomposition."""
    cpoff = functools.cache(lambda: solve_cp_offline(instance))
    rows = []
    for n in counts:
        inst = instance.with_generator_count(int(n))
        reference, kind = offline_reference(inst, state_budget, cpoff)
        ref_total = evaluate(inst, reference).total
        dcmon_total = evaluate(inst, dcmon(inst, lookahead)).total
        rows.append(
            {
                "axis": "generators",
                "value": int(n),
                "reference_kind": kind,
                "costs": {"offline": ref_total, "dcmon": dcmon_total},
                "ratios": {
                    "dcmon_vs_offline": dcmon_total / ref_total if ref_total else 1.0
                },
                "bounds": {},
            }
        )
    return rows


# ---------------------------------------------------------------------------
# worst-case family 1: decomposition penalty


def worst_case_rho_instance(
    periods: int = 40,
    capacity: float = 64.0,
    p_max: float = 0.25,
    c_o: float = 0.09375,
    c_m: float = 2.0,
    unit_power: float = 8.0,
    gap: int = 6,
    beta_g: float = 24.0,
    generators: int = 1,
) -> Instance:
    """Spike-and-idle trace on which stage-wise solving pays the full
    decomposition penalty.

    Servers draw unit_power flat (idle equals peak), the price sits at p_max
    throughout, and each period is one spike needing the whole generator
    fleet's worth of demand followed by `gap` empty slots. The restart cost
    is set so every idle gap exactly ties the break-even rule, which makes
    the provisioning stage shut down and buy spikes from the grid, while the
    joint optimum holds everything on and runs the generators flat out.

    Defaults are dyadic so every break-even comparison is float-exact (the
    construction lives on knife-edge ties); they give a penalty of exactly 2.
    """
    if periods < 1 or gap < 1:
        raise ValueError("periods and gap must be >= 1")
    beta_s = gap * unit_power * p_max
    servers = capacity * generators / unit_power
    if abs(servers - round(servers)) > 1e-12:
        raise ValueError("capacity * generators must be a multiple of unit_power")
    t_end = periods * (gap + 1) + 1
    workload = np.zeros(t_end)
    workload[:: gap + 1] = servers
    return Instance(
        workload=workload,
        price=np.full(t_end, p_max),
        server=ServerModel(c_idle=unit_power, c_peak=unit_power, beta_s=beta_s),
        generator=GeneratorModel(
            capacity=capacity, c_o=c_o, c_m=c_m, beta_g=beta_g, count=generators
        ),
        label="worst-case-rho",
    )


def decomposition_tightness(
    periods_small: int = 40,
    periods_large: int = 80,
    state_budget: int = DEFAULT_STATE_BUDGET,
    **family,
) -> dict:
    """Measure the decomposition penalty on the worst-case family.

    Plain cost ratios carry boundary transients that die off only over
    enormous horizons, so the steady-state ratio is taken as a difference
    quotient between two horizon lengths: transient terms cancel exactly
    and the per-period ratio comes out clean.
    """
    if periods_large <= periods_small:
        raise ValueError("periods_large must exceed periods_small")
    totals = {}
    for periods in (periods_small, periods_large):
        inst = worst_case_rho_instance(periods=periods, **family)
        joint = evaluate(inst, solve_dcm_offline(inst, state_budget=state_budget)).total
        staged = evaluate(inst, decomposed_offline_schedule(inst)).total
        totals[periods] = (staged, joint)
    d_staged = totals[periods_large][0] - totals[periods_small][0]
    d_joint = totals[periods_large][1] - totals[periods_small][1]
    inst = worst_case_rho_instance(periods=periods_small, **family)
    return {
        "measured": d_staged / d_joint,
        "predicted": rho_decomposition(BoundParams.from_instance(inst)),
        "staged": {p: totals[p][0] for p in totals},
        "joint": {p: totals[p][1] for p in totals},
    }


# ---------------------------------------------------------------------------
# worst-case family 2: provisioning look-ahead


def worst_case_gcsr_instance(
    periods: int = 50,
    gap: int = 100,
    idle_ratio: float = 100.0,
    unit_power: float = 0.015625,
    price: float = 1.0,
) -> Instance:
    """Single-slice trace that drives the break-even rule to its bound.

    One unit of workload appears every gap+1 slots; servers draw unit_power
    whether busy or idle and the price is flat, so the break-even idle
    window is exactly idle_ratio slots. With gap equal to idle_ratio every
    idle stretch ties the offline rule (turn off) while a short window
    keeps the online rule holding almost to the end of the stretch. The
    default per-slot idle cost is dyadic so tie comparisons are float-exact.
    """
    if periods < 1 or gap < 1:
        raise ValueError("periods and gap must be >= 1")
    t_end = periods * (gap + 1) + 1
    workload = np.zeros(t_end)
    workload[:: gap + 1] = 1.0
    return Instance(
        workload=workload,
        price=np.full(t_end, price),
        server=ServerModel(
            c_idle=unit_power, c_peak=unit_power, beta_s=idle_ratio * unit_power * price
        ),
        generator=GeneratorModel(capacity=60.0, c_o=0.08, c_m=1.2, beta_g=24.0, count=0),
        label="worst-case-gcsr",
    )


def gcsr_family_measurement(lookahead: int, **family) -> dict:
    """Measured online/offline provisioning ratio on the adversarial family,
    next to the closed-form bound it is supposed to approach."""
    inst = worst_case_gcsr_instance(**family)
    online = cp_cost(inst, gcsr(inst, lookahead))
    offline = cp_cost(inst, solve_cp_offline(inst))
    bound = ratio_bound_ongrid(lookahead, OngridParams.from_instance(inst))
    ratio = online / offline
    return {"ratio": ratio, "bound": bound, "fraction": ratio / bound}
