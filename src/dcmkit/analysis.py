"""Experiment layer: the algorithm table, head-to-head comparisons,
parameter sweeps, and the two worst-case trace families that make the
theoretical ratios measurable on real runs.

SCHEDULES is the one table of algorithms, keyed by the names that
`solve --algo` takes and reports print. Beside the offline and online
solvers it holds the static benchmark (peak fleet, grid only) and the two
single-lever ablations: cpoff is the provisioning lever alone (right-sized
fleet, grid only) and ofa the supply lever alone (offline supply on the
static peak fleet).

One lineup (_comparisons) builds and evaluates the compared algorithms:
run_comparison is it at one window, and a look-ahead sweep row is it at
each window, with the theory bounds added. The generator sweep keeps its
own loop over counts, as a comparison per count would add a gcsr run it
does not read. Every report and row takes its ratios from one table,
_RATIOS, and every sweep row comes from one builder, _sweep_row.
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
    check_scalar,
    dispatched_schedule,
    evaluate,
    staged_schedule,
)
from .offline import (
    DEFAULT_STATE_BUDGET,
    GapWalk,
    brute_force_dcm,
    cp_cost,
    solve_cp_offline,
    solve_dcm_offline,
    solve_ep_offline,
)
from .online import (
    BoundParams,
    OngridParams,
    chase,
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


# algorithm -> its schedule on (instance, look-ahead window), in --algo's order:
# the one table of the names that reports print. Each entry looks its solver up
# when called, so a name rebound in this module (a tracer's wrapper, say) is the
# one that runs. The table's offline is the exact DP, which raises CapacityError
# past its budget; compare's offline is offline_reference, which then falls back
# to the decomposition and names the one that ran in reference_kind.
SCHEDULES = {
    "offline": lambda instance, w: solve_dcm_offline(instance),
    "bruteforce": lambda instance, w: brute_force_dcm(instance),
    "gcsr": lambda instance, w: grid_only_schedule(instance, gcsr(instance, w)),
    "chase": lambda instance, w: staged_schedule(
        instance, static_fleet(instance), functools.partial(chase, lookahead=w)),
    "dcmon": lambda instance, w: dcmon(instance, w),
    "static": lambda instance, w: grid_only_schedule(instance, static_fleet(instance)),
    "cpoff": lambda instance, w: grid_only_schedule(instance, solve_cp_offline(instance)),
    "ofa": lambda instance, w: staged_schedule(instance, static_fleet(instance), solve_ep_offline),
}


# (ratio name, algorithm, reference): the one table of the ratios that
# compare reports and sweep rows print
_RATIOS = (("gcsr_vs_cpoff", "gcsr", "cpoff"), ("dcmon_vs_offline", "dcmon", "offline"))


def cost_ratio(total: float, reference: float) -> float:
    """total / reference, the competitive ratio of a cost: 1.0 when both
    costs are 0, inf when only the reference is."""
    if reference == 0.0:
        return 1.0 if total == 0.0 else math.inf
    return total / reference


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
        return cost_ratio(self.results[name].total, self.results[reference].total)

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
            "ratios": {name: self.ratio(algo, ref) for name, algo, ref in _RATIOS},
        }


def offline_reference(
    instance: Instance, cpoff_x, state_budget: int = DEFAULT_STATE_BUDGET
) -> tuple[Schedule, str]:
    """Joint optimum when the state graph fits the budget, else the
    stage-wise decomposition on cpoff's provisioning series cpoff_x (a
    GapWalk's offline_series); the second element names which one ran."""
    try:
        return solve_dcm_offline(instance, state_budget=state_budget), "exact"
    except CapacityError:
        return staged_schedule(instance, cpoff_x, solve_ep_offline), "decomposed"


def _evaluated(instance: Instance, lineup: dict[str, Schedule]) -> dict[str, AlgoResult]:
    """Each schedule of lineup with its evaluated cost, in lineup's order."""
    return {name: AlgoResult(name, sched, evaluate(instance, sched)) for name, sched in lineup.items()}


def _comparisons(instance: Instance, lookaheads, state_budget: int) -> list[ExperimentReport]:
    """run_comparison's report at each window of lookaheads, in order.

    One GapWalk serves every window: the first window's gcsr run steps it,
    each dcmon's lagged fleet reads its window-free verdicts through its own
    window, and once every gcsr has run it gives cpoff's series, which
    feeds the decomposed reference too. static, offline and cpoff are built
    and evaluated once and shared by every report; gcsr and dcmon once per
    window. The lineup makes one P-row walk and solves one reference.
    """
    walk = GapWalk(instance)
    gcsr_xs = [gcsr(instance, w, walk=walk) for w in lookaheads]
    cpoff_x = walk.offline_series()
    reference, kind = offline_reference(instance, cpoff_x, state_budget)
    shared = {
        "static": SCHEDULES["static"](instance, 0),
        "offline": reference,
        "cpoff": grid_only_schedule(instance, cpoff_x),
    }
    windows = [
        {"gcsr": grid_only_schedule(instance, x), "dcmon": dcmon(instance, w, walk=walk)}
        for w, x in zip(lookaheads, gcsr_xs)
    ]
    results = _evaluated(instance, shared)
    return [
        ExperimentReport(instance.label, instance.horizon, w, kind,
                         {**results, **_evaluated(instance, lineup)})
        for w, lineup in zip(lookaheads, windows)
    ]


def run_comparison(
    instance: Instance,
    lookahead: int,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> ExperimentReport:
    """Run the full lineup on one instance at one look-ahead window.

    static: peak fleet, grid only. offline: cost reference. cpoff: optimal
    provisioning, grid only. gcsr: online provisioning, grid only.
    dcmon: online provisioning and supply. The comparison makes one P-row
    walk (_comparisons).
    """
    return _comparisons(instance, [lookahead], state_budget)[0]


# ---------------------------------------------------------------------------
# sweeps


def _sweep_row(axis: str, value: int, kind: str, costs: dict[str, float], bounds: dict) -> dict:
    """One sweep row: its costs, the _RATIOS whose algorithm and reference
    both have a cost, and bounds."""
    ratios = {
        name: cost_ratio(costs[algo], costs[ref])
        for name, algo, ref in _RATIOS
        if algo in costs and ref in costs
    }
    return {"axis": axis, "value": value, "reference_kind": kind, "costs": costs,
            "ratios": ratios, "bounds": bounds}


def sweep_lookahead(
    instance: Instance,
    lookaheads,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> list[dict]:
    """Cost of the online algorithms as the look-ahead window grows.

    Each row is run_comparison's report at its window: every algorithm's
    total but static's, the ratios, reference_kind, and the matching theory
    bounds (the hybrid bound only when the generator economics make it well
    defined, for a valid instance the only way BoundParams can fail, and its
    value is finite). Every window is checked before any work; the windows
    share one lineup (_comparisons), so the sweep makes one P-row walk and
    solves one reference.
    """
    lookaheads = [check_scalar("lookahead", w, whole=True) for w in lookaheads]
    if not lookaheads:
        return []
    ongrid = OngridParams.from_instance(instance)
    try:
        params: BoundParams | None = BoundParams.from_instance(instance)
    except ConfigError:
        params = None
    rows = []
    for report in _comparisons(instance, lookaheads, state_budget):
        w = report.lookahead
        bounds = {"ongrid": ratio_bound_ongrid(w, ongrid)}
        hybrid = math.inf if params is None else ratio_bound_hybrid(w, params)
        if math.isfinite(hybrid):
            bounds["hybrid"] = hybrid
        costs = {name: res.total for name, res in report.results.items() if name != "static"}
        rows.append(_sweep_row("lookahead", w, report.reference_kind, costs, bounds))
    return rows


def sweep_generators(
    instance: Instance,
    counts,
    lookahead: int,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> list[dict]:
    """Cost as the generator fleet grows. Provisioning does not read the
    generators, so every count's dcmon reads one GapWalk, stepped by the
    first count's run, which then gives cpoff's series to every decomposed
    reference. The sweep makes one P-row walk."""
    walk = GapWalk(instance)
    rows = []
    for inst in [instance.with_generator_count(n) for n in counts]:  # every count checked first
        dcmon_total = evaluate(inst, dcmon(inst, lookahead, walk=walk)).total
        reference, kind = offline_reference(inst, walk.offline_series(), state_budget)
        costs = {"offline": evaluate(inst, reference).total, "dcmon": dcmon_total}
        rows.append(_sweep_row("generators", inst.generator.count, kind, costs, {}))
    return rows


# ---------------------------------------------------------------------------
# worst-case family 1: decomposition penalty


def _spike_train(periods: int, gap: int) -> np.ndarray:
    """The worst-case families' trace shape: 1.0 at slot 1 and every gap+1
    slots after it, 0.0 between; periods spikes each followed by gap empty
    slots, then a closing spike. ValueError unless periods and gap are >= 1."""
    if periods < 1 or gap < 1:
        raise ValueError("periods and gap must be >= 1")
    train = np.zeros(periods * (gap + 1) + 1)
    train[:: gap + 1] = 1.0
    return train


def worst_case_rho_instance(periods: int = 40, gap: int = 6, generators: int = 1) -> Instance:
    """Spike-and-idle trace on which stage-wise solving pays the full
    decomposition penalty.

    Servers draw unit_power = 8 flat (idle equals peak), the price sits at
    p_max = 0.25 throughout, and each period is one spike needing the whole
    generator fleet's worth of demand followed by `gap` empty slots. The
    restart cost is set so every idle gap exactly ties the break-even rule,
    which makes the provisioning stage shut down and buy spikes from the
    grid, while the joint optimum holds everything on and runs the
    generators flat out.

    The generators have capacity 64, c_o = 0.09375, c_m = 2 and beta_g = 24.
    Every fixed value is dyadic, so every break-even comparison is
    float-exact (the construction lives on knife-edge ties); the penalty is
    exactly 2.
    """
    capacity, p_max, unit_power = 64.0, 0.25, 8.0
    spikes = _spike_train(periods, gap)
    return Instance(
        workload=spikes * (capacity * generators / unit_power),
        price=np.full(len(spikes), p_max),
        server=ServerModel(c_idle=unit_power, c_peak=unit_power, beta_s=gap * unit_power * p_max),
        generator=GeneratorModel(
            capacity=capacity, c_o=0.09375, c_m=2.0, beta_g=24.0, count=generators
        ),
        label="worst-case-rho",
    )


def decomposition_tightness(periods_small: int = 40, periods_large: int = 80) -> dict:
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
        inst = worst_case_rho_instance(periods=periods)
        joint = evaluate(inst, solve_dcm_offline(inst)).total
        staged = evaluate(inst, staged_schedule(inst, solve_cp_offline(inst), solve_ep_offline)).total
        totals[periods] = (staged, joint)
    d_staged = totals[periods_large][0] - totals[periods_small][0]
    d_joint = totals[periods_large][1] - totals[periods_small][1]
    inst = worst_case_rho_instance(periods=periods_small)
    return {
        "measured": d_staged / d_joint,
        "predicted": rho_decomposition(BoundParams.from_instance(inst)),
        "staged": {p: totals[p][0] for p in totals},
        "joint": {p: totals[p][1] for p in totals},
    }


# ---------------------------------------------------------------------------
# worst-case family 2: provisioning look-ahead


def worst_case_gcsr_instance(periods: int = 50, gap: int = 100, idle_ratio: float = 100.0) -> Instance:
    """Single-slice trace that drives the break-even rule to its bound.

    One unit of workload appears every gap+1 slots; servers draw
    unit_power = 2^-6 whether busy or idle and the price is flat at 1, so
    the break-even idle window is exactly idle_ratio slots. With gap equal
    to idle_ratio every idle stretch ties the offline rule (turn off) while
    a short window keeps the online rule holding almost to the end of the
    stretch. The per-slot idle cost is dyadic so tie comparisons are
    float-exact.
    """
    workload = _spike_train(periods, gap)
    unit_power = 0.015625
    return Instance(
        workload=workload,
        price=np.ones(len(workload)),
        server=ServerModel(c_idle=unit_power, c_peak=unit_power, beta_s=idle_ratio * unit_power),
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
