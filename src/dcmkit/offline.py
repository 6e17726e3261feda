"""Offline solvers: exact joint optimum, brute-force oracles, and the
per-unit decomposition (server slices and generator slices).

The joint problem is a shortest path over layered states (x, y) per slot with
switching costs on increases only. A backward dynamic program over the
layers solves it. Each value layer holds only the feasible rows
x = ceil(a(t))..M, so a layer costs O((M+1-ceil(a(t)))(N+1)) work and
memory. A Dijkstra search over the same graph and an exhaustive
enumeration are kept as reference oracles. The decomposition splits
provisioning into M unit server slices solved by a break-even rule and
supply into N unit generator slices solved by tracking a clamped cumulative
savings process.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ConfigError
from .model import (
    GeneratorModel,
    Instance,
    Schedule,
    demand_series,
    dispatched_schedule,
    supply_cost,
)

DEFAULT_STATE_BUDGET = 5_000_000
DEFAULT_ENUM_BUDGET = 10_000_000


# ---------------------------------------------------------------------------
# shared pieces


def positive_increases(series) -> float:
    """Sum of positive one-step increases, counting the all-off start state."""
    arr = np.asarray(series, dtype=float)
    return float(np.diff(np.concatenate(([0.0], arr))).clip(min=0.0).sum())


def cp_cost(instance: Instance, x) -> float:
    """Provisioning-side objective: grid-priced demand plus server switching."""
    x = np.asarray(x, dtype=float)
    need = np.ceil(instance.workload)
    if np.any(x < need):
        t = int(np.argmax(x < need)) + 1
        raise ConfigError(f"slot {t}: fleet {x[t - 1]} below required {need[t - 1]}")
    energy = float(np.dot(instance.price, demand_series(instance, x)))
    return energy + instance.server.beta_s * positive_increases(x)


def ep_cost(gen: GeneratorModel, energy, price, y) -> float:
    """Supply-side objective: per-slot supply cost plus generator startups."""
    energy, price = supply_series(energy, price)
    y = np.asarray(y, dtype=float)
    if y.shape != energy.shape:
        raise ConfigError(f"commitment series has shape {y.shape}, expected {energy.shape}")
    total = sum(supply_cost(gen, y, price, energy).tolist())
    return float(total) + gen.beta_g * positive_increases(y)


# ---------------------------------------------------------------------------
# joint exact solvers


def _min_increase_transform(
    values: np.ndarray, beta: float, start: int = 0, first: int | None = None
) -> np.ndarray:
    """B[i] = min_j values[j] + beta * max(0, j - i), along axis 0.

    A one-dimensional distance transform with the asymmetric cost
    beta * max(0, j - i): two running-minimum passes, one per direction,
    replace the quadratic scan, as in Felzenszwalb & Huttenlocher,
    "Distance Transforms of Sampled Functions", Theory of Computing 8 (2012).

    values may hold rows start.. of a taller array whose rows below start
    are +inf. Offsets are absolute (beta * row), so each output float is
    the one the taller array gives. The output starts at row first
    (default start). A row i below start can only climb into the block:
    B[i] = min_j(values[j] + beta * j) - beta * i.
    """
    first = start if first is None else first
    n = values.shape[0]
    shape = (-1,) + (1,) * (values.ndim - 1)
    idx = beta * np.arange(start, start + n, dtype=float).reshape(shape)
    reach = np.minimum.accumulate((values + idx)[::-1], axis=0)[::-1]
    body = np.minimum(reach - idx, np.minimum.accumulate(values, axis=0))
    if first >= start:
        return body[first - start :]
    climb = reach[:1] - beta * np.arange(first, start, dtype=float).reshape(shape)
    return np.concatenate((climb, body))


def solve_dcm_offline(
    instance: Instance,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> Schedule:
    """Exact minimum-cost schedule via a backward dynamic program over the
    layered state graph.

    Layer t keeps only its feasible rows x = ceil(a(t))..M, so work and
    memory are O((M+1-ceil(a(t)))(N+1)) per layer. The state budget still
    counts the full (M+1)(N+1)(T+2) grid. Ties resolve to the
    lexicographically smallest x series, then y series.
    """
    m, n, t_end = instance.max_servers, instance.generator.count, instance.horizon
    states = (m + 1) * (n + 1) * (t_end + 2)
    if states > state_budget:
        raise CapacityError(
            f"state graph needs {states} nodes, budget is {state_budget}; "
            "use the decomposed pipeline instead"
        )

    gen = instance.generator
    beta_s, beta_g = instance.server.beta_s, gen.beta_g
    x_grid = np.arange(m + 1, dtype=float)[:, None]
    y_grid = np.arange(n + 1, dtype=float)[None, :]
    # lows[t] = first feasible row of layer t; the end layer T+1 is all feasible
    lows = [0] + [instance.min_servers(t) for t in range(1, t_end + 1)] + [0]
    # backward pass: value[t][x - lows[t], y] = cheapest completion from
    # state (x, y) at slot t, for the feasible rows x >= lows[t] only
    value: list[np.ndarray | None] = [None] * (t_end + 2)
    value[t_end + 1] = np.zeros((m + 1, n + 1))
    for t in range(t_end, 0, -1):
        lo = lows[t]
        stage = supply_cost(gen, y_grid, instance.p(t), instance.demand_table(t)[lo:, None])
        over_x = _min_increase_transform(value[t + 1], beta_s, lows[t + 1], lo)
        value[t] = stage + _min_increase_transform(over_x.T, beta_g).T

    # forward pass: walk the argmin, scanning x-major so equal-cost choices
    # pick the smallest (x, y)
    xs = np.empty(t_end)
    ys = np.empty(t_end)
    px = py = 0
    for t in range(1, t_end + 1):
        lo = lows[t]
        move = beta_s * np.clip(x_grid[lo:] - px, 0.0, None)
        move = move + beta_g * np.clip(y_grid - py, 0.0, None)
        flat = int(np.argmin(move + value[t]))
        px, py = divmod(flat, n + 1)
        px += lo
        xs[t - 1], ys[t - 1] = px, py
    return dispatched_schedule(instance, xs, ys)


def dcm_dijkstra(instance: Instance) -> Schedule:
    """Exact minimum-cost schedule by Dijkstra search over the same state
    graph as solve_dcm_offline; a slow reference oracle for cross-checks."""
    m, n, t_end = instance.max_servers, instance.generator.count, instance.horizon
    edges = (m + 1) * (n + 1) * (m + 1) * (n + 1) * t_end
    if edges > 20_000_000:
        raise CapacityError(f"dijkstra edge count {edges} too large; use solve_dcm_offline")
    gen = instance.generator
    beta_s, beta_g = instance.server.beta_s, gen.beta_g
    y_grid = np.arange(n + 1, dtype=float)[None, :]
    stages = [
        supply_cost(gen, y_grid, instance.p(t), instance.demand_table(t)[:, None])
        for t in range(1, t_end + 1)
    ]
    los = [instance.min_servers(t) for t in range(1, t_end + 1)]

    start = (0, 0, 0)  # (t, x, y)
    dist: dict[tuple[int, int, int], float] = {start: 0.0}
    parent: dict[tuple[int, int, int], tuple[int, int, int]] = {}
    heap: list[tuple[float, tuple[int, int, int]]] = [(0.0, start)]
    goal = None
    while heap:
        d0, node = heapq.heappop(heap)
        if d0 > dist.get(node, math.inf):
            continue
        t, x, y = node
        if t == t_end:
            goal = node
            break
        stage = stages[t]  # costs for slot t+1
        for nx in range(los[t], m + 1):
            for ny in range(n + 1):
                w = (
                    beta_s * max(0, nx - x)
                    + beta_g * max(0, ny - y)
                    + float(stage[nx, ny])
                )
                nxt = (t + 1, nx, ny)
                nd = d0 + w
                if nd < dist.get(nxt, math.inf):
                    dist[nxt] = nd
                    parent[nxt] = node
                    heapq.heappush(heap, (nd, nxt))
    assert goal is not None
    xs, ys = [], []
    node = goal
    while node != start:
        xs.append(node[1])
        ys.append(node[2])
        node = parent[node]
    return dispatched_schedule(instance, xs[::-1], ys[::-1])


def brute_force_dcm(instance: Instance, budget: int = DEFAULT_ENUM_BUDGET) -> Schedule:
    """Exhaustive minimum over all feasible (x, y) trajectories.

    Oracle for tiny instances only; ties resolve to the lexicographically
    smallest x series, then y series (enumeration order).
    """
    m, n, t_end = instance.max_servers, instance.generator.count, instance.horizon
    x_ranges = [range(instance.min_servers(t), m + 1) for t in range(1, t_end + 1)]
    n_x = math.prod(len(r) for r in x_ranges)
    n_y = (n + 1) ** t_end
    if n_x * n_y > budget:
        raise CapacityError(f"enumeration size {n_x * n_y} exceeds budget {budget}")

    xt = np.array(list(itertools.product(*x_ranges)), dtype=int).reshape(n_x, t_end)
    yt = np.array(list(itertools.product(range(n + 1), repeat=t_end)), dtype=int).reshape(
        n_y, t_end
    )
    gen = instance.generator
    y_grid = np.arange(n + 1, dtype=float)[None, :]
    cost = np.zeros((n_x, n_y))
    for t in range(1, t_end + 1):
        psi = supply_cost(gen, y_grid, instance.p(t), instance.demand_table(t)[:, None])
        cost += psi[xt[:, t - 1][:, None], yt[:, t - 1][None, :]]
    beta_s, beta_g = instance.server.beta_s, gen.beta_g
    sw_x = beta_s * np.diff(np.hstack([np.zeros((n_x, 1), dtype=int), xt]), axis=1).clip(
        min=0
    ).sum(axis=1)
    sw_y = beta_g * np.diff(np.hstack([np.zeros((n_y, 1), dtype=int), yt]), axis=1).clip(
        min=0
    ).sum(axis=1)
    cost += sw_x[:, None] + sw_y[None, :]
    ix, iy = np.argwhere(cost == cost.min())[0]  # row-major: smallest x then y series
    return dispatched_schedule(instance, xt[ix], yt[iy])


# ---------------------------------------------------------------------------
# provisioning decomposition (server slices)


def marginal_demand_matrix(instance: Instance) -> np.ndarray:
    """Matrix [t-1, i-1] = d_t(i) - d_t(i-1) for all slots and server slices."""
    return np.diff(instance.demand_table(1, instance.horizon), axis=1)


def reaches_breakeven(prefix, base, beta_s: float):
    """The break-even predicate shared by the online and offline slice rules.

    prefix and base are values of one running idle-cost sum P, built by
    sequential float adds (P[s] = P[s-1] + price(s) * marginal(s)); base is
    P at the last busy slot before a gap. Idling from there through slot j
    costs at least the restart cost beta_s iff P[j] - base >= beta_s. Both
    rules evaluate exactly this expression on the same floats, so they agree
    at exact ties (a tie turns off).
    """
    return prefix - base >= beta_s


def _cpoff_keep(busy: np.ndarray, idle_cost: np.ndarray, beta_s: float) -> np.ndarray:
    """On/off matrix of the offline slice rule, one column per slice.

    busy and idle_cost have shape (T, slices). A slot is on when busy, or
    when it lies in a gap between two busy slots whose idle cost stays below
    beta_s. The prefix sum P is nondecreasing along each column, so for an
    idle slot the gap's anchor P[last busy] is the running maximum of P over
    earlier busy slots, and its end P[next busy - 1] is the running minimum
    over later busy slots; leading and trailing gaps get -inf / +inf there
    and turn off.
    """
    prefix = np.zeros((len(busy) + 1, busy.shape[1]))
    np.add.accumulate(idle_cost, axis=0, out=prefix[1:])
    # P at the end of each busy slot, P just before it
    base = np.where(busy, prefix[1:], -np.inf)
    end = np.where(busy, prefix[:-1], np.inf)
    del prefix
    np.maximum.accumulate(base, axis=0, out=base)
    end = np.minimum.accumulate(end[::-1], axis=0)[::-1]
    return busy | ~reaches_breakeven(end, base, beta_s)


def cpoff_slice(workload_slice, price, marginal, beta_s: float) -> np.ndarray:
    """Optimal on/off series for one unit server slice.

    On wherever the slice has workload. In an idle gap between busy slots the
    slice stays on iff the idle energy cost over the gap is below the restart
    cost beta_s (a tie turns off). Leading and trailing idle runs are off.
    """
    busy = np.asarray(workload_slice, dtype=float) > 0.0
    idle_cost = np.asarray(price, dtype=float) * np.asarray(marginal, dtype=float)
    return _cpoff_keep(busy[:, None], idle_cost[:, None], beta_s)[:, 0].astype(float)


def cp_offline_slices(instance: Instance) -> np.ndarray:
    """Per-slice optimal series, shape (max_servers, horizon).

    All slices at once: slice i (1-based) is busy where a(t) > i-1, and its
    gap costs are differences of the running idle-cost sum
    P[s] = P[s-1] + p(s) * (d_s(i) - d_s(i-1)), which GCSR builds row by
    row from the same floats (see reaches_breakeven).
    """
    m = instance.max_servers
    busy = instance.workload[:, None] > np.arange(m)
    idle_cost = marginal_demand_matrix(instance)
    idle_cost *= instance.price[:, None]
    return _cpoff_keep(busy, idle_cost, instance.server.beta_s).T.astype(float)


def solve_cp_offline(instance: Instance) -> np.ndarray:
    """Optimal provisioning series as the sum of unit-slice optima.

    The offline rule knows where the horizon ends: trailing gaps (like
    leading ones) turn off for free. The online rules treat the end as
    unknown and may hold through them (see online.gcsr).
    """
    slices = cp_offline_slices(instance)
    return slices.sum(axis=0) if len(slices) else np.zeros(instance.horizon)


def brute_force_cp(instance: Instance, budget: int = DEFAULT_ENUM_BUDGET) -> tuple[np.ndarray, float]:
    """Exhaustive minimum of the provisioning objective (oracle)."""
    m, t_end = instance.max_servers, instance.horizon
    ranges = [range(instance.min_servers(t), m + 1) for t in range(1, t_end + 1)]
    if math.prod(len(r) for r in ranges) > budget:
        raise CapacityError("provisioning enumeration exceeds budget")
    best_x, best = None, math.inf
    for combo in itertools.product(*ranges):
        c = cp_cost(instance, np.array(combo, dtype=float))
        if c < best:
            best_x, best = np.array(combo, dtype=float), c
    assert best_x is not None
    return best_x, best


# ---------------------------------------------------------------------------
# supply decomposition (generator slices)


def supply_series(energy, price) -> tuple[np.ndarray, np.ndarray]:
    """Energy-demand and price series as float arrays; ConfigError unless
    both are 1-d, of equal length, finite and nonnegative."""
    energy = np.asarray(energy, dtype=float)
    price = np.asarray(price, dtype=float)
    if energy.ndim != 1 or price.ndim != 1:
        raise ConfigError("energy and price must be 1-d series")
    if len(energy) != len(price):
        raise ConfigError(f"series length mismatch: {len(energy)} energy vs {len(price)} price")
    if not (np.isfinite(energy).all() and np.isfinite(price).all()):
        raise ConfigError("energy and price must be finite")
    if np.any(energy < 0.0) or np.any(price < 0.0):
        raise ConfigError("energy and price must be nonnegative")
    return energy, price


def slice_energy(energy, i: int, capacity: float) -> np.ndarray:
    """Unit supply slice i: e_i(t) = min(L, max(0, e(t) - (i-1)L))."""
    if i < 1:
        raise ValueError(f"slice index must be >= 1, got {i}")
    return np.clip(np.asarray(energy, dtype=float) - (i - 1) * capacity, 0.0, capacity)


def regret_steps(gen: GeneratorModel, energy, price) -> np.ndarray:
    """Per-slot savings of one generator over the grid, psi(0) - psi(1)."""
    e = np.asarray(energy, dtype=float)
    p = np.asarray(price, dtype=float)
    covered = np.minimum(e, gen.capacity)
    return np.where(p <= gen.c_o, -gen.c_m, covered * (p - gen.c_o) - gen.c_m)


def clamped_regret(gain, beta_g: float) -> np.ndarray:
    """Cumulative savings clamped to [-beta_g, 0], starting at -beta_g."""
    r = -beta_g
    out = [r]
    for g in np.asarray(gain, dtype=float).tolist():
        r = min(0.0, max(-beta_g, r + g))
        out.append(r)
    return np.array(out)


@dataclass(frozen=True)
class Segment:
    """Inclusive slot range with a behavior kind: start, on, off, or end."""

    start: int
    end: int
    kind: str


def critical_segments(regret: np.ndarray, beta_g: float) -> list[Segment]:
    """Partition [1, T] by the last slots of each extreme-visit run.

    The clamped process starts at -beta_g. Maximal runs of visits to one
    extreme (with no opposite-extreme visit between them) end at critical
    slots; the stretch between consecutive critical slots is "on" when it
    carries the process from -beta_g up to 0 and "off" for the reverse.
    Before the first critical slot the process has never completed a
    traversal ("start"); after the last one it never reaches an extreme
    again ("end").
    """
    t_end = len(regret) - 1
    bottom = -beta_g
    runs: list[tuple[bool, int]] = []  # (at_top, last slot of run)
    at_top, last = False, 0  # slot 0 sits at the bottom
    for t in range(1, t_end + 1):
        v = regret[t]
        if v == 0.0:
            ext = True
        elif v == bottom:
            ext = False
        else:
            continue
        if ext == at_top:
            last = t
        else:
            runs.append((at_top, last))
            at_top, last = ext, t
    runs.append((at_top, last))

    segments: list[Segment] = []
    if runs[0][1] >= 1:
        segments.append(Segment(1, runs[0][1], "start"))
    for (left_top, left), (right_top, right) in zip(runs, runs[1:]):
        segments.append(Segment(left + 1, right, "on" if right_top else "off"))
    if runs[-1][1] < t_end:
        segments.append(Segment(runs[-1][1] + 1, t_end, "end"))
    return segments


@dataclass(frozen=True)
class RegretProcess:
    """Savings process for one generator slice and its segment structure."""

    gain: np.ndarray
    regret: np.ndarray  # length T+1, index 0 is the initial state
    segments: list[Segment]


def regret_process(gen: GeneratorModel, energy, price) -> RegretProcess:
    gain = regret_steps(gen, energy, price)
    regret = clamped_regret(gain, gen.beta_g)
    return RegretProcess(gain, regret, critical_segments(regret, gen.beta_g))


def ofa_ep_slice(gen: GeneratorModel, energy_slice, price) -> np.ndarray:
    """Optimal on/off series for one generator slice: on at slot t iff the
    first extreme of the clamped savings process at or after t is the top
    (the "on" segments of critical_segments); off after the last extreme."""
    regret = clamped_regret(regret_steps(gen, energy_slice, price), gen.beta_g)[1:]
    top = regret == 0.0
    t_end = len(regret)
    extreme_slots = np.where(top | (regret == -gen.beta_g), np.arange(t_end), t_end)
    next_extreme = np.minimum.accumulate(extreme_slots[::-1])[::-1]
    return np.append(top, False)[next_extreme].astype(float)


def ep_offline_slices(gen: GeneratorModel, energy, price) -> np.ndarray:
    """Per-slice optimal generator series, shape (count, horizon)."""
    energy, price = supply_series(energy, price)
    slices = np.zeros((gen.count, len(energy)))
    for i in range(gen.count):
        slices[i] = ofa_ep_slice(gen, slice_energy(energy, i + 1, gen.capacity), price)
    return slices


def solve_ep_offline(gen: GeneratorModel, energy, price) -> np.ndarray:
    """Optimal generator commitment as the sum of unit-slice optima."""
    return ep_offline_slices(gen, energy, price).sum(axis=0)


def brute_force_ep(
    gen: GeneratorModel, energy, price, budget: int = DEFAULT_ENUM_BUDGET
) -> tuple[np.ndarray, float]:
    """Exhaustive minimum of the supply objective (oracle)."""
    energy, price = supply_series(energy, price)
    t_end = len(energy)
    if (gen.count + 1) ** t_end > budget:
        raise CapacityError("supply enumeration exceeds budget")
    best_y, best = None, math.inf
    for combo in itertools.product(range(gen.count + 1), repeat=t_end):
        c = ep_cost(gen, energy, price, np.array(combo, dtype=float))
        if c < best:
            best_y, best = np.array(combo, dtype=float), c
    assert best_y is not None
    return best_y, best
