"""Offline solvers: exact joint optimum, brute-force oracles, and the
per-unit decomposition (server slices and generator slices).

The joint problem is a shortest path over layered states (x, y) per slot with
switching costs on increases only. A backward dynamic program over the
layers solves it. Each value layer holds only the fleet sizes an optimum can
use, the band x = ceil(a(t))..U(t) with U(t) the peak need ceil(a(s)) over
s in [t, min(T, t+D)]. D = floor(beta_s/(r*d_min)) + 1 is one break-even span:
d_min is the least demand increment of a server and r = min(c_o, p_min)
(p_min without generators) the least rate at which a slot's supply cost
falls per unit of demand at fixed y. Above U(t) the top server idles
through slots t..t+D; turning it off until it is next needed (or for good,
when its run ends) saves at least (D+1)*r*d_min and costs at most one
restart beta_s, so every optimal schedule, from any state, stays inside the
band by a margin of at least r*d_min (the exchange argument of lazy
capacity provisioning; Lin et al., INFOCOM 2011). When r*d_min is 0 the band
is the full row. The same argument bands the generator axis to
y = 0..Y(t): Y(t) is the peak of useful(s) over s in [t, min(T, t+D_g)],
useful(s) counts the units k with L*(k-1) < d_s(U(s)), and
D_g = floor(beta_g/c_m) + 1. Demand is nondecreasing in x and an optimum
keeps x(s) <= U(s), so a unit above useful(s) leaves the merit-order split
u = min(L*y, d) as it is and only costs c_m. Above Y(t) the top unit is
such a unit through slots t..t+D_g. Turning it off through t+D_g saves
c_m*(D_g+1) for at most one startup beta_g; if its run ends sooner,
turning it off for the rest of the run costs nothing. Either way the gain
is at least c_m. When c_m is 0 the rows are all N+1. A layer costs
O((Y(t)+1)(U(t)+1-ceil(a(t)))) work and memory; the state budget still
counts the full (M+1)(N+1)(T+2) grid. A Dijkstra search over the same graph
and an exhaustive enumeration are kept as reference oracles. The
decomposition splits provisioning into M unit server slices solved by a
break-even rule and supply into N unit generator slices solved by tracking
a clamped cumulative savings process.

Both the DP and the server slices walk the horizon in blocks of BLOCK_SLOTS
slots. The DP reads one demand grid per block. For the slices,
idle_cost_block returns only the running idle-cost sums P of a block,
continued from the previous block's last row; it builds them from
cache-sized chunks of demand rows (CHUNK_CELLS grid cells each) and holds no
grid of the whole block. gap_pieces turns a block's changes in the busy
count into the gaps of the nested slices. GapWalk is the one walk over
them: it steps both functions block by block, decides each gap at the slot
where it closes, follows the open gaps that have not reached break-even,
finds each reached gap's break-even slot j* and records, per slot, the
kept gaps' opens and closes and, in j* order, one (slice, g, j*) record per
reached gap. None of that depends on a window, so solve_cp_offline holds
O(BLOCK_SLOTS * M + T + reached gaps) numbers, never a (T, M) array, and
every online GCSR fleet of an instance can read one walk: online and
offline slice rules compare the same floats, and compare and sweep make
one P-row walk for GCSR, DCMON and cpoff together. solve_cp_offline stays
the standalone solver and the reference the checks compare against.

The generator slices share one kernel with online CHASE: regret_rows steps
every slice's clamped savings over a block of slots, and next_extremes finds
each row's next extreme. Offline the block is the whole horizon, and a slice
is off past its last extreme; CHASE steps the same kernel in blocks of
BLOCK_SLOTS decisions.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math

import numpy as np

from .errors import CapacityError, ConfigError
from .model import (
    GeneratorModel,
    Instance,
    Schedule,
    demand_series,
    dispatched_schedule,
    merit_split,
    positive_increases,
    split_cost,
    supply_cost,
)
from .model import _supply_inputs

DEFAULT_STATE_BUDGET = 5_000_000
DEFAULT_ENUM_BUDGET = 10_000_000
BLOCK_SLOTS = 256  # slots per block of demand grids, idle-cost sums and block-stepped decisions
CHUNK_CELLS = 1 << 15  # demand-grid cells per idle_cost_block chunk: 256 KiB of floats


# ---------------------------------------------------------------------------
# shared pieces


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
    values: np.ndarray,
    offsets: np.ndarray,
    start: int = 0,
    first: int | None = None,
    last: int | None = None,
) -> np.ndarray:
    """B[:, i] = min_j values[:, j] + beta * max(0, j - i), along axis 1.

    Two running-minimum passes, one per direction, replace the quadratic
    scan (Felzenszwalb & Huttenlocher, "Distance Transforms of Sampled
    Functions", Theory of Computing 8 (2012)). offsets[k] = beta * k, made
    once per solve. values may hold columns start..stop of a wider array
    whose other columns are +inf; offsets are absolute, so each output float
    is the wider array's. The output holds columns first..last (default
    start..stop). A column i below start can only climb into the block:
    B[:, i] = min_j(values[:, j] + beta * j) - beta * i. A column above stop
    can only fall into it: B[:, i] is the row minimum, the last entry of the
    running minimum.
    """
    width = values.shape[1]
    stop = start + width - 1
    first = start if first is None else first
    last = stop if last is None else last
    k = min(max(first - start, 0), width)  # block columns k..j-1 are output columns
    j = max(min(last - start + 1, width), k)
    idx = offsets[start + k : stop + 1]
    reach = np.minimum.accumulate((values[:, k:] + idx)[:, ::-1], axis=1)[:, ::-1]
    fall = np.minimum.accumulate(values[:, : width if last > stop else j], axis=1)
    parts = [np.minimum(reach[:, : j - k] - idx[: j - k], fall[:, k:j])]
    if first < start:
        parts.insert(0, reach[:, :1] - offsets[first : min(last + 1, start)])
    if last > stop:
        parts.append(np.repeat(fall[:, -1:], last - max(first, stop + 1) + 1, axis=1))
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)


def _running_min(rows: np.ndarray, reverse: bool = False) -> np.ndarray:
    """np.minimum.accumulate(rows, axis=0), or over reversed rows, in place in
    ceil(log2(len(rows))) doubling steps over contiguous rows. min selects one
    of its operands, and each step passes second the row the scan reaches
    later, as the accumulate does: the same floats, even for 0.0 and -0.0."""
    for step in (1 << k for k in range((len(rows) - 1).bit_length())):
        earlier, later = (rows[step:], rows[:-step]) if reverse else (rows[:-step], rows[step:])
        np.minimum(earlier, later, out=later)
    return rows


def _window_max(values: np.ndarray, span: int) -> np.ndarray:
    """out[k] = max(values[k : k + span]), the window cut at the series end,
    in ceil(log2(span)) doubling steps."""
    out = values.copy()
    width = 1
    while width < min(span, len(out)):
        step = min(width, span - width)
        np.maximum(out[:-step], out[step:], out=out[:-step])
        width += step
    return out


def _dp_band(instance: Instance, need: np.ndarray) -> np.ndarray:
    """Top column U(t) of each layer of the exact DP, given need = ceil(a).

    U(t) = max need(s) over s in [t, min(T, t+D)] with
    D = floor(beta_s/(r*d_min)) + 1, d_min = Instance.min_marginal_demand()
    and r = min(c_o, p_min) (p_min without generators); the full row M when
    r*d_min is 0. The module docstring gives the exchange argument that
    keeps every optimal schedule, from any state, inside the band.
    """
    gen = instance.generator
    rate = min(gen.c_o, instance.p_min) if gen.count else instance.p_min
    margin = rate * instance.min_marginal_demand()
    if not margin > 0.0:
        return np.full(len(need), instance.max_servers)
    slots = instance.server.beta_s / margin  # D = floor(slots) + 1
    span = int(slots) + 2 if slots < len(need) else len(need)  # slots t..t+D
    return _window_max(need, span)


def _dp_rows(instance: Instance, band: np.ndarray) -> np.ndarray:
    """Top row Y(t) of each layer of the exact DP, given band = U from _dp_band.

    useful(s) counts the units k in 1..N with L*(k-1) < d_s(U(s)), the
    units a fleet inside the band can load at slot s. Y(t) = max useful(s)
    over s in [t, min(T, t+D_g)] with D_g = floor(beta_g/c_m) + 1; N when
    c_m is 0 or N is 0. The module docstring gives the exchange argument.
    """
    gen = instance.generator
    if not (gen.count and gen.c_m > 0.0):
        return np.full(len(band), gen.count)
    demand = demand_series(instance, band)
    # searchsorted counts the loads L*(k-1), k = 1..N, below each demand
    useful = np.searchsorted(gen.capacity * np.arange(gen.count, dtype=float), demand)
    slots = gen.beta_g / gen.c_m  # D_g = floor(slots) + 1
    span = int(slots) + 2 if slots < len(band) else len(band)  # slots t..t+D_g
    return _window_max(useful, span)


def solve_dcm_offline(
    instance: Instance,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> Schedule:
    """Exact minimum-cost schedule via a backward dynamic program over the
    layered state graph.

    Layer t is stored y-major, shape (Y(t)+1, U(t)+1-ceil(a(t))),
    C-contiguous, holding only the states of two bands. The columns
    x = ceil(a(t))..U(t) are the break-even band (_dp_band): U(t) is the
    peak need within one break-even span D of slot t. A schedule above U(t)
    idles its top server through slots t..t+D, and turning that server off
    until it is next needed gains at least r*d_min net. The rows
    y = 0..Y(t) are the startup band (_dp_rows): Y(t) is the most units the
    demand at fleet U(s) can load over slots s = t..t+D_g. A schedule above
    Y(t) pays c_m for a unit that carries nothing through slots t..t+D_g,
    and turning that unit off gains at least c_m net. So no optimal
    schedule from any state leaves either band, and the optimal set and the
    tie order are those of the full layers. Work and memory are
    O((Y(t)+1)(U(t)+1-ceil(a(t)))) per layer. The backward pass reads demand
    from one demand_table grid per block of BLOCK_SLOTS slots, checks it
    once (model._supply_inputs) and takes each layer's stage costs from
    model.split_cost, the pricing supply_cost reads. The state budget
    counts the full (M+1)(N+1)(T+2) grid, checked before any band work.
    Ties resolve to the lexicographically smallest x series, then y series:
    the forward argmin scans x-major.
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
    y_grid = np.arange(n + 1, dtype=float)[:, None]
    x_offsets, y_offsets = beta_s * np.arange(m + 1, dtype=float), beta_g * y_grid
    # layer t holds rows 0..tops[t] and columns lows[t]..highs[t]; the end
    # layer T+1 is all zeros, so its row 0 and column 0 stand for every state
    need = np.ceil(instance.workload).astype(int)
    band = _dp_band(instance, need)
    lows = [0, *need.tolist(), 0]
    highs = [0, *band.tolist(), 0]
    tops = [0, *_dp_rows(instance, band).tolist(), 0]
    # backward pass: value[t][y, x - lows[t]] = cheapest completion from
    # state (x, y) at slot t, for the band's states only
    value: list[np.ndarray | None] = [None] * (t_end + 2)
    value[t_end + 1] = np.zeros((1, 1))
    first = t_end + 1  # demand rows of slots first..first+len(grid)-1, read backward
    for t in range(t_end, 0, -1):
        if t < first:
            first = max(1, t - BLOCK_SLOTS + 1)
            demand = instance.demand_table(first, t)
            _, price, grid = _supply_inputs(gen, y_grid, instance.price, demand)
        lo, hi, top = lows[t], highs[t], tops[t]
        over_x = _min_increase_transform(value[t + 1], x_offsets, lows[t + 1], lo, hi)
        # the same transform over the generator axis: rows 0..k-1 are in
        # both layers, and a row above layer t+1's can only fall into it, so
        # it takes the column minimum, the last row of the running minimum
        k = min(top + 1, len(over_x))
        value[t] = layer = np.empty((top + 1, hi + 1 - lo))
        reach = _running_min(over_x + y_offsets[: len(over_x)], reverse=True)
        np.subtract(reach[:k], y_offsets[:k], out=layer[:k])
        fall = _running_min(over_x[:k])
        np.minimum(layer[:k], fall, out=layer[:k])
        layer[k:] = fall[-1]
        layer += split_cost(gen, y_grid[: top + 1], price[t - 1], grid[t - first, lo : hi + 1])

    # forward pass: walk the argmin over the band, scanning x-major so
    # equal-cost choices pick the smallest (x, y); the move costs are read
    # from tables of beta_s*max(k, 0), k = -M..M, and beta_g*max(y - py, 0)
    x_moves = beta_s * np.maximum(np.arange(-m, m + 1, dtype=float), 0.0)
    y_moves = beta_g * np.maximum(y_grid.T - y_grid, 0.0)
    xs = np.empty(t_end)
    ys = np.empty(t_end)
    px = py = 0
    for t in range(1, t_end + 1):
        lo, hi, top = lows[t], highs[t], tops[t]
        move = x_moves[lo - px + m : hi - px + m + 1, None] + y_moves[py, : top + 1]
        px, py = divmod(int(np.argmin(move + value[t].T)), top + 1)
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


def idle_cost_block(instance: Instance, start: int, end: int, carried) -> np.ndarray:
    """Running idle-cost sums P(s) for s = start-1..end, shape (end-start+2, M).

    Row 0 is carried, the sum P(start-1) (zeros at slot 1), and each later
    row continues it with one sequential float add per slot,
    P_i(s) = P_i(s-1) + p(s) * (d_s(i+1) - d_s(i)). The demand rows come from
    demand_table calls of at most max(1, CHUNK_CELLS // (M+1)) slots each, so
    each chunk's grid stays cache-sized; a chunk is differenced and priced
    straight into its P rows, and no grid of the whole block is held. The
    floats do not depend on the chunking. GapWalk, and so the online GCSR
    fleet and the offline slice rule, reads P from here, so both rules
    compare the same floats (see reaches_breakeven).
    """
    m = instance.max_servers
    prefix = np.empty((end - start + 2, m))
    prefix[0] = carried
    rows = max(1, CHUNK_CELLS // (m + 1))
    for first in range(start, end + 1, rows):
        last = min(first + rows - 1, end)
        grid = instance.demand_table(first, last)
        block = prefix[first - start : last - start + 2]  # the row before the chunk, then its rows
        np.subtract(grid[:, 1:], grid[:, :-1], out=block[1:])
        block[1:] *= instance.price[first - 1 : last, None]
        np.add.accumulate(block, axis=0, out=block)
    return prefix


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


def _breakeven_rows(prefix: np.ndarray, slices, base, first, last, beta_s: float) -> np.ndarray:
    """For each gap k, the first row r in first[k]..last[k] where
    reaches_breakeven(prefix[r, slices[k]], base[k], beta_s) holds, given
    that it holds at last[k] and that P is nondecreasing down the rows.

    A binary search on all gaps at once: ceil(log2(rows)) gathers of one
    row per gap, rows the longest gap's count of candidate rows. Each gather
    takes flat indices into the C-contiguous rows, about twice as fast as a
    two-array index.
    """
    flat, width = prefix.ravel(), prefix.shape[1]
    lo, hi = first.copy(), last.copy()
    for _ in range(int((hi - lo).max()).bit_length()):
        mid = (lo + hi) // 2
        hit = reaches_breakeven(flat.take(mid * width + slices), base, beta_s)
        np.copyto(hi, mid, where=hit)
        np.copyto(lo, mid + 1, where=~hit)
    return hi


def gap_pieces(need: np.ndarray, prefix: np.ndarray, start: int, carried):
    """Every gap of the server slices that one block of slots shows.

    Slices are nested: with c(s) = ceil(a(s)) busy slices at slot s, slices
    0..c(s)-1 are busy. So a gap opens at slot s, the slice turning idle,
    for exactly the slices c(s)..c(s-1)-1 when the count falls, and closes,
    the slice turning busy again, for c(s-1)..c(s)-1 when it rises. need[k]
    and prefix[k] are c(s) and P(s) for s = start-1+k, k = 0..n; carried is
    (slices, first, base) of the gaps open at slot start-1 that the caller
    still follows.

    Returns (slices, first, base, last), one entry per gap carried into the
    block or opening in it, sorted by slice and then slot: first is the
    gap's first idle slot g, base its anchor P(g-1), and last the row of
    prefix at its last idle slot in the block: the row before its close
    (P(h) for the gap's last idle slot h = start-1+last) or n if the gap is
    still open at the block's last slot. A close that ends no such gap (a
    slice's leading gap, or one the caller no longer follows) is left out.
    """
    was, now = need[:-1], need[1:]
    count = np.abs(now - was)
    # one event per slice whose gap opens or closes at slot s = start + row;
    # either reads its anchor P(s-1) = prefix[row]
    row = np.repeat(np.arange(len(count)), count)
    i = np.arange(len(row)) + np.repeat(np.minimum(was, now) - np.cumsum(count) + count, count)
    opens = np.repeat(now < was, count)
    # carried gaps go first, as opens at row 0, so the stable sort puts each
    # before its slice's events
    slices, first, base = carried
    held = len(slices)
    first = np.concatenate((first, start + row))
    base = np.concatenate((base, prefix[row, i]))
    i = np.concatenate((slices, i))
    row = np.concatenate((np.zeros(held, dtype=int), row))
    opens = np.concatenate((np.ones(held, dtype=bool), opens))
    # by slice, then by slot; numpy's stable sort is a radix sort on
    # integers of 16 bits or fewer, so the slice indices take the smallest
    # unsigned type that holds M
    order = np.argsort(i.astype(np.min_scalar_type(prefix.shape[1])), kind="stable")
    i, row, opens, first, base = i[order], row[order], opens[order], first[order], base[order]
    # a slice's events alternate, so an event that follows one of its own
    # slice is the close of that open
    last = np.full(len(i), len(need) - 1)
    follows = np.flatnonzero(i[1:] == i[:-1]) + 1
    last[follows - 1] = row[follows]
    return i[opens], first[opens], base[opens], last[opens]


def _paint(need: np.ndarray, slices: int, offs) -> np.ndarray:
    """On/off matrix (slices, T) of nested slices, given need = c(s) and
    offs = (slice, slot) of every turn-off in a gap: slice i is on where it
    is busy (need > i) and in each gap after its first busy slot up to the
    gap's turn-off, if any."""
    t_end = len(need)
    slot = np.arange(1, t_end + 1)
    busy = np.arange(slices)[:, None] < need
    # the last busy slot and the last turn-off at or before each slot, 0 if none
    last_busy = np.maximum.accumulate(np.where(busy, slot, 0), axis=1)
    last_off = np.zeros((slices, t_end), dtype=int)
    i, s = offs
    last_off[i, s - 1] = s
    np.maximum.accumulate(last_off, axis=1, out=last_off)
    return (busy | (last_off < last_busy)).astype(float)


class GapWalk:
    """The one walk of the server-slice rules, offline and online (GCSR).

    step walks the next slots as one block: c(s) = ceil(a(s)), the P rows of
    idle_cost_block continued from the last stepped row, and the gaps of
    gap_pieces, each decided at its last idle slot in the block: reached iff
    reaches_breakeven holds there, kept iff it closes in the block unreached.
    P is nondecreasing, so the offline rule keeps exactly the kept gaps, and
    a reached gap stays reached: only the open, unreached gaps are followed
    into the next block (open_gaps). A reached gap's break-even slot j*, the
    first slot of the gap where the predicate holds, is found by
    _breakeven_rows over the block's rows, O(gaps * log BLOCK_SLOTS) work.

    Nothing here reads a window, and nothing depends on how the slots are
    cut into blocks: j*, both verdicts and the P floats are the same for
    every window and every block size. So one walk serves every GCSR fleet
    of an instance (online.GcsrFleet), whatever its window, and the offline
    rule. It keeps:
    - c(s) of the stepped slots (need)
    - per slot, the kept gaps that open there and that close there
      (kept_opens, kept_closes)
    - one record (slice, g, j*) per reached gap, in j* order, in the
      smallest unsigned type that holds T and M (breakevens reads them)
    - one P row and the open gaps it still follows

    That is O(M + T + reached gaps) numbers between steps; no P row outlives
    its block. The records are 6 bytes a gap at uint16: 0.2 MB for the 34.5k
    reached gaps of a 90-day trace at M=552, 8.4 MB for the 1.4M of a
    365-day trace at M=5520.
    """

    def __init__(self, instance: Instance):
        self.instance = instance
        t_end = instance.horizon
        self.need = np.zeros(t_end + 1, dtype=int)  # c(s) of the stepped slots, c(0) = 0
        self.stepped = 0  # the last stepped slot
        self._row = np.zeros(instance.max_servers)  # P of the last stepped slot
        self.kept_opens = np.zeros(t_end + 1, dtype=int)  # at index s: kept gaps with g = s
        self.kept_closes = np.zeros(t_end + 1, dtype=int)  # kept gaps whose close is slot s
        # (slice, g, j*) of the reached gaps, by j*: one array per step that
        # reached any, of the smallest unsigned type that holds T and M, and
        # one past each array's last record index
        self._records: list[np.ndarray] = []
        self._stops: list[int] = []
        self._dtype = np.min_scalar_type(max(t_end, instance.max_servers))
        # (slice, g, base) of the unreached gaps open at the last stepped slot
        self.open_gaps = (np.zeros(0, dtype=int), np.zeros(0, dtype=int), np.zeros(0))

    def step(self, workload, stop: int) -> None:
        """Walk slots stepped+1..stop, given their workload a(s)."""
        start = self.stepped + 1
        beta_s = self.instance.server.beta_s
        need = self.need[start - 1 : stop + 1]
        need[1:] = np.ceil(workload)
        prefix = idle_cost_block(self.instance, start, stop, self._row)
        slices, first, base, last = gap_pieces(need, prefix, start, self.open_gaps)
        reached = reaches_breakeven(prefix.ravel().take(last * prefix.shape[1] + slices), base, beta_s)
        closed = last < stop - start + 1
        kept = closed & ~reached
        np.add.at(self.kept_opens, first[kept], 1)
        np.add.at(self.kept_closes, start + last[kept], 1)
        hit = np.flatnonzero(reached)
        if len(hit):
            rows = _breakeven_rows(prefix, slices[hit], base[hit],
                                   np.maximum(first[hit] - start + 1, 1), last[hit], beta_s)
            # a radix sort, as in gap_pieces: rows take the smallest type that holds them
            order = np.argsort(rows.astype(np.min_scalar_type(len(prefix))), kind="stable")
            records = np.array((slices[hit], first[hit], start - 1 + rows), dtype=self._dtype)
            self._records.append(records[:, order])
            self._stops.append(self._stops[-1] + len(hit) if self._stops else len(hit))
        held = ~(closed | reached)
        self.open_gaps = (slices[held], first[held], base[held])
        self._row = prefix[-1].copy()
        self.stepped = stop

    def breakevens(self, taken: int, end: int) -> np.ndarray:
        """Records taken, taken+1, ... of the reached gaps through the last
        whose j* is at most end, as int rows (slices, g, j*); every gap whose
        j* is at most end is recorded once the walk has stepped to end."""
        parts = [np.zeros((3, 0), dtype=self._dtype)]
        k = bisect.bisect_right(self._stops, taken)  # the array holding record taken
        for stop, records in zip(self._stops[k:], self._records[k:]):
            part = records[:, records.shape[1] - (stop - taken) :]
            cut = np.searchsorted(part[2], end, side="right")
            parts.append(part[:, :cut])
            if cut < part.shape[1]:
                break
            taken = stop
        return np.concatenate(parts, axis=1).astype(int)

    def offline_series(self) -> np.ndarray:
        """solve_cp_offline's series: c(s) plus the kept gaps covering s;
        complete once every slot is stepped."""
        return (self.need[1:] + np.cumsum(self.kept_opens - self.kept_closes)[1:]).astype(float)

    def walk_to_end(self) -> "GapWalk":
        """Step the rest of the horizon in blocks of BLOCK_SLOTS slots."""
        t_end = self.instance.horizon
        while self.stepped < t_end:
            stop = min(self.stepped + BLOCK_SLOTS, t_end)
            self.step(self.instance.workload[self.stepped : stop], stop)
        return self


def cp_offline_slices(instance: Instance) -> np.ndarray:
    """Per-slice optimal series, shape (max_servers, horizon).

    Slice i (1-based) is busy where a(t) > i-1. The offline rule turns a
    slice off for the whole of every gap that reaches break-even or is
    still open at the horizon end, and keeps it on through the others;
    the walk solve_cp_offline makes gives those gaps, painted into one row
    per slice. Unlike solve_cp_offline this holds the whole (M, T) result.
    """
    walk = GapWalk(instance).walk_to_end()
    slices, first, _ = walk.open_gaps
    reached = walk.breakevens(0, instance.horizon)
    return _paint(walk.need[1:], instance.max_servers,
                  (np.concatenate((reached[0], slices)), np.concatenate((reached[1], first))))


def solve_cp_offline(instance: Instance) -> np.ndarray:
    """Optimal provisioning series as the sum of unit-slice optima.

    Steps a GapWalk over the horizon in blocks of BLOCK_SLOTS slots, which
    decides each slice's idle gap at the slot where it closes. Memory is
    O(BLOCK_SLOTS * M + T + reached gaps): no (T, M) array is built. The
    offline rule knows where the horizon ends: trailing gaps (like leading
    ones) turn off for free. The online rules treat the end as unknown and
    may hold through them (see online.gcsr).
    """
    return GapWalk(instance).walk_to_end().offline_series()


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
    both = np.concatenate((energy, price))  # NaN propagates through min and max
    low, high = np.minimum.reduce(both, initial=0.0), np.maximum.reduce(both, initial=0.0)
    if not (low >= 0.0 and high < np.inf):
        if not (np.isfinite(low) and np.isfinite(high)):
            raise ConfigError("energy and price must be finite")
        raise ConfigError("energy and price must be nonnegative")
    return energy, price


def regret_steps(gen: GeneratorModel, energy, price) -> np.ndarray:
    """Per-slot savings of one generator over the grid, psi(0) - psi(1):
    u1*(p - c_o) - c_m, u1 the one-unit merit_split (cap L) of the energy."""
    p = np.asarray(price, dtype=float)
    return merit_split(gen, 1, p, np.asarray(energy, dtype=float)) * (p - gen.c_o) - gen.c_m


def regret_rows(gen: GeneratorModel, energy, price, regret) -> np.ndarray:
    """Clamped savings rows R(s), one column per slice, of a block of slots.

    energy and price hold the block's slots; regret is R of the slot before
    the block. Slice i sees max(e - i*L, 0), which regret_steps caps at L.
    Each row takes one add and two clamps over the slices, in place: the
    floats of min(0.0, max(-beta_g, R(s-1) + gain(s))), the same as that
    recurrence gives one slice and one slot at a time.
    """
    offsets = np.arange(gen.count) * gen.capacity  # slice i starts at i*L
    energy = np.maximum(np.asarray(energy, dtype=float)[:, None] - offsets, 0.0)
    rows = regret_steps(gen, energy, np.asarray(price, dtype=float)[:, None])
    bottom = -gen.beta_g
    for row in rows:
        np.add(regret, row, out=row)
        np.maximum(row, bottom, out=row)
        np.minimum(row, 0.0, out=row)
        regret = row
    return rows


def next_extremes(regret: np.ndarray, bottom: float) -> tuple[np.ndarray, np.ndarray]:
    """The next extreme of each slice at each row of clamped savings rows.

    Returns (row, top), both shaped like regret: row[r, i] is the first row
    at or after r where R_i touches 0 or bottom (len(regret) if none), and
    top[r, i] whether that extreme is the top (False if none). One reversed
    running minimum of the extreme rows gives them all.
    """
    rows, slices = regret.shape
    top = np.zeros((rows + 1, slices), dtype=bool)  # row `rows`: no extreme
    np.equal(regret, 0.0, out=top[:-1])
    extreme = np.where(top[:-1] | (regret == bottom), np.arange(rows)[:, None], rows)
    row = np.minimum.accumulate(extreme[::-1], axis=0)[::-1]
    return row, top[row, np.arange(slices)]


def ep_offline_slices(gen: GeneratorModel, energy, price) -> np.ndarray:
    """Per-slice optimal generator series, shape (count, horizon).

    Slice i is on at slot t iff the first extreme its clamped savings touch
    at or after t is the top (0), and off past its last extreme. This is the
    kernel online.ChaseFleet steps in blocks, run over the whole horizon as
    one block.
    """
    energy, price = supply_series(energy, price)
    regret = regret_rows(gen, energy, price, np.full(gen.count, -gen.beta_g))
    return next_extremes(regret, -gen.beta_g)[1].T.astype(float)


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
