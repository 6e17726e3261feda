"""Offline solvers: exact joint optimum, brute-force oracles, and the
per-unit decomposition (server slices and generator slices).

The joint problem is a shortest path over layered states (x, y) per slot with
switching costs on increases only. A backward dynamic program over the
layers solves it. Each value layer holds only the states an optimum can
use, columns x = L(t)..U(t) and rows y = 0..Y(t), and one gap rule
(_short_gaps) sets all three bounds. Take a count series c and a cost per
slot: unit i is busy at s when c(s) >= i and idle in the gaps between, and a
gap between two busy slots is short when its slots cost at most a budget; a
leading gap (no busy slot before it) or a trailing gap (none after it) is
not. The bound at t is the largest unit a short gap can hold: the largest
of c(t) and min(c(s1), c(s2)) over s1 < t < s2 with the slots between
costing at most the budget.

The top bounds say which units an optimum may hold through a gap. Take a
restart cost beta and a rate: a unit above c(s) at slot s costs at least the
rate there, and D = floor(beta/rate) + 1 is one break-even span. Each slot
costs 1 and the budget is D, so a gap of at most D slots is short. A
schedule above the bound at t keeps its top unit i on at t in a gap of i
that is leading, trailing or at least D+1 slots long. Lower the count by one
over the longest run of slots around t inside that gap where it is >= i:
each slot of the run saves at least the rate. If the run starts after the
gap does, it saves one restart; if it ends before the gap does, it adds
none; if it is the whole gap, the gap is leading (the first start is
saved), trailing (no restart follows) or so long that its cost (D+1)*rate
exceeds beta + rate. Every case saves at least the rate, so every optimal
schedule from the start state stays inside the bound by that margin (the
exchange argument of lazy capacity provisioning; Lin et al., INFOCOM 2011).

The fleet band takes c = ceil(a), beta = beta_s and the rate mu = r*d_min:
d_min is the least demand increment of a server and r = min(c_o, p_min)
(p_min without generators) the least rate at which a slot's supply cost
falls per unit of demand at fixed y, so lowering x where x(s) > ceil(a(s))
keeps demand covered and saves at least mu a slot. When mu is 0 the band is
the full row. The generator rows take c = useful, beta = beta_g and the rate
c_m, so D_g = floor(beta_g/c_m) + 1: useful(s) counts the units k with
L*(k-1) < d_s(U(s)), and unit k is busy at s when useful(s) >= k. Demand is
nondecreasing in x and an optimum keeps x(s) <= U(s), so lowering y by one
where y(s) > useful(s) leaves the merit-order split u = min(L*y, d) as it is
and saves c_m a slot; on a leading, trailing or > D_g gap the exchange saves
at least c_m. When c_m is 0 the rows are all N+1.

The fleet floor L(t) (L alone is a generator's capacity) says which units
an optimum must hold through a gap, by the converse exchange. It takes
c = ceil(a), the cost rho(s) = max(p(s), c_o)*(d_s(M) - d_s(M-1)) (p(s) in
place of max(p(s), c_o) without generators) and the budget beta_s - mu. At
fixed y the merit-order split prices extra demand at c_o or at p(s), and
demand is convex in x, so rho(s) bounds what one more server costs at
slot s. A schedule below the floor at t has a short pair
s1 < t < s2 with i = x(t) + 1 <= min(c(s1), c(s2)). Raise the count by one
over the longest run of slots around t where it is below i: as x >= c, the
run lies strictly between s1 and s2, so its start adds no restart and its
end saves one, beta_s, while its supply costs grow by at most the costs of
the slots between s1 and s2, beta_s - mu. The exchange saves at least mu,
so every optimal schedule from the start state keeps L(t) <= x(t) <= U(t)
by the one margin mu. As rho(s) >= mu, a gap short for the floor is short
for the band, so L <= U. When mu is 0 the floor is ceil(a).

No bound bounds the completions from other states: a band state that no
optimal schedule passes through may hold a value above its full-layer one.
The forward pass never steps there, as even its full-layer value exceeds
the optimum. A state that an optimal schedule passes through has all its
optimal completions inside the bounds, so it holds the full-layer float,
and the forward pass picks what the full layers pick, in the same tie
order. A layer costs O((Y(t)+1)(U(t)+1-L(t))) work and memory; the state
budget still counts the full (M+1)(N+1)(T+2) grid. A Dijkstra search
over the same graph and an exhaustive enumeration are kept as reference
oracles. The decomposition splits provisioning into M unit server slices
solved by a break-even rule and supply into N unit generator slices solved
by tracking a clamped cumulative savings process.

Every demand number here comes from Instance.demand, whole series for
cp_cost, _dp_floor and _dp_rows and demand_table cells for the rest.
Both the DP and the server slices walk the horizon in blocks of slots, and
block_span is the one rule for a block's size: at most BLOCK_SLOTS slots,
and at most one cache-sized chunk of demand_table rows, CHUNK_CELLS grid
cells at M+1 cells a slot (but at least one slot). Each block reads its
demand in one demand_table call, so no demand grid outgrows one chunk
unless one slot does. In the DP, _band_costs reads only the band cells
x = L(t)..U(t) of a block's layers and makes one split_cost call per
generator count y = 0..max Y(t); the layers then run only the value
recursion. A layer is small (about 5 rows by 100 columns on the 22-day
presets), so much of its time is numpy's fixed cost per call. A layer of
one fleet column over a layer t+1 of one column (57.4% of them on ny,
58.5% on sj and flat) is therefore stepped on 1-D views of the two columns:
that skips the buffer writes and the x-axis scans, and a 1-D call costs
less than a call on a 2-D column, at any number of rows.
For the slices, idle_cost_block returns only the running
idle-cost sums P of one block, continued from the previous row, and
gap_pieces turns their changes in the busy count into the gaps of the
nested slices. idle_cost_block differences the block's demand grid in one
1-D subtract and continues P one np.add per row, across all M slices at
once; gap_pieces finds each gap's close by binary lifting over the range
maxima of the block's counts, O(gaps * log rows), and puts the gaps in
slice order by one stable sort of the gaps alone, with no close event
made or sorted. GapWalk is the one walk over them: it steps both functions
one block at a time, through one buffer of one block it allocates once,
decides each gap at the slot where it closes, follows the open gaps that
have not reached break-even and records, per slot, the kept gaps' opens and
closes; it also finds each reached gap's break-even slot j*, which GCSR
fleets read, and keeps, in j* order, one (slice, g, j*) record per reached
gap. None of that depends on a window or the generators, so
solve_cp_offline holds one block's buffer, reused by every step, plus
O(M + T + reached gaps) numbers, never a (T, M) array, and GCSR fleets of
the same provisioning inputs can read one walk: online and offline slice
rules compare the same floats, and compare and sweep make one P-row walk
for GCSR, DCMON and cpoff together.
solve_cp_offline stays the standalone solver and the checks' reference.

The generator slices share one kernel with online CHASE: regret_rows steps
every slice's clamped savings over a block of slots, and next_extremes finds
each row's next extreme. Offline the block is the whole horizon, and a slice
is off past its last extreme; CHASE steps the same kernel in blocks of
BLOCK_SLOTS decisions. The savings recurrence is sequential in time, so
regret_rows prices a block's gains in one numpy call, then steps each moving
slice's column in Python floats (about 0.13 us per slot and moving slice)
and fills a slice held at a clamp for the whole block without stepping it.
That beats the row loop of three ufunc calls per slot it replaced (2.3-3 us
per slot, whatever the fleet) below about 20 moving slices; past that the
row loop would win, by about 2x at 40, and no switch picks it.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math

import numpy as np

from .errors import CapacityError, ConfigError, FeasibilityError
from .model import (
    GeneratorModel,
    Instance,
    Schedule,
    check_series,
    dispatched_schedule,
    merit_split,
    positive_increases,
    split_cost,
    supply_cost,
)
from .model import _supply_inputs

DEFAULT_STATE_BUDGET = 5_000_000
DEFAULT_ENUM_BUDGET = 10_000_000
BLOCK_SLOTS = 256  # most slots of a block (block_span) and of a driver's batch of online decisions
CHUNK_CELLS = 1 << 15  # most demand-grid cells a block reads at once: 256 KiB of floats


# ---------------------------------------------------------------------------
# shared pieces


def block_span(max_servers: int) -> int:
    """Slots of a block at M = max_servers: at most BLOCK_SLOTS, and at most
    one chunk of CHUNK_CELLS demand-grid cells, M+1 to a slot. The one block
    rule of the DP's stage costs and the slice walk's steps."""
    return min(BLOCK_SLOTS, max(1, CHUNK_CELLS // (max_servers + 1)))


def cp_cost(instance: Instance, x) -> float:
    """Provisioning-side objective: grid-priced demand plus server switching."""
    x = np.asarray(x, dtype=float)
    energy = float(np.dot(instance.price, instance.demand(x)))  # checks x's shape
    need = np.ceil(instance.workload)
    if np.any(x < need):
        t = int(np.argmax(x < need)) + 1
        raise FeasibilityError(f"slot {t}: fleet {x[t - 1]} below required {need[t - 1]}")
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


def _min_increase_transform(values: np.ndarray, offsets: np.ndarray, first: int = 0,
                            last: int | None = None, start: int = 0,
                            stop: int | None = None) -> np.ndarray:
    """B[:, i] = min_j values[:, j] + beta * max(0, j - i) for the columns
    i = first..last (default all), given offsets[k] = beta * k.

    Two running-minimum passes, one per direction, replace the quadratic
    scan (Felzenszwalb & Huttenlocher, "Distance Transforms of Sampled
    Functions", Theory of Computing 8 (2012)). values is +inf outside its
    columns start..stop (default all), so the climb scans only columns
    first..max(last, stop) and the fall min(first, start)..last; as
    min(v, +inf) = v and +inf - beta*i = +inf, no column is a case of its own.
    """
    last = values.shape[1] - 1 if last is None else last
    stop = values.shape[1] - 1 if stop is None else stop
    high, low = max(last, stop) + 1, min(first, start)
    reach = np.minimum.accumulate((values[:, first:high] + offsets[first:high])[:, ::-1], axis=1)
    out = reach[:, ::-1][:, : last + 1 - first] - offsets[first : last + 1]
    fall = np.minimum.accumulate(values[:, low : last + 1], axis=1)
    return np.minimum(out, fall[:, first - low :], out=out)


def _short_gaps(values: np.ndarray, costs: np.ndarray, budget: float) -> np.ndarray:
    """out[t] = max(values[t], min(values[s1], values[s2])) over the slot
    pairs s1 < t < s2 whose slots between cost at most budget, costs[s]
    summed over s1 < s < s2: the largest unit that a short gap can hold,
    the one band rule of both DP axes and the fleet floor (module
    docstring). A leading or trailing gap holds nothing. Costs are
    nonnegative; with unit costs a pair is short when s2 - s1 - 1 <= budget.

    Only the pairs that a stack of strictly falling values meets can set
    out: a pair with a value of at least their minimum between them holds
    no more than that value or the shorter pairs on either side of it, which
    cost no more. Those pairs nest, and of two nested pairs the outer holds
    at least the inner's unit, so each slot takes the unit of the outermost
    short pair around it. One pass over the slots finds the pairs and one
    writes the outermost: O(T) steps, whatever the budget is.
    """
    items = values.tolist()
    before = np.concatenate(([0.0], np.cumsum(costs))).tolist()  # before[s]: cost of slots 0..s-1
    stack: list[int] = []  # slots of strictly falling values
    pairs = []  # short (s1, s2), found by s2, inner before outer
    for s2, high in enumerate(items):
        while stack and items[stack[-1]] <= high:
            stack.pop()
            if stack and before[s2] - before[stack[-1] + 1] <= budget:
                pairs.append((stack[-1], s2))
        stack.append(s2)
    out = values.copy()
    left = len(items)  # least s1 written: a later pair starting at or past it lies inside
    for s1, s2 in reversed(pairs):  # outer before inner
        if s1 < left:
            out[s1 + 1 : s2] = min(items[s1], items[s2])
            left = s1
    return out


def _band_margin(instance: Instance) -> float:
    """mu = r*d_min, the margin of both fleet edges: d_min =
    Instance.min_marginal_demand() and r = min(c_o, p_min) (p_min without
    generators)."""
    gen = instance.generator
    rate = min(gen.c_o, instance.p_min) if gen.count else instance.p_min
    return rate * instance.min_marginal_demand()


def _dp_band(instance: Instance, need: np.ndarray) -> np.ndarray:
    """Top column U(t) of each layer of the exact DP, given need = ceil(a):
    _short_gaps on unit costs, so a gap of at most D = floor(beta_s/mu) + 1
    slots is short, with mu = _band_margin(instance); the full row M when mu
    is 0. The module docstring gives the exchange argument that keeps every
    optimal schedule from the start state inside the band; from other states
    a completion may leave it.
    """
    margin = _band_margin(instance)
    if not margin > 0.0:
        return np.full(len(need), instance.max_servers)
    return _short_gaps(need, np.ones(len(need)), np.floor(instance.server.beta_s / margin) + 1)


def _dp_floor(instance: Instance, need: np.ndarray) -> np.ndarray:
    """Bottom column L(t) of each layer of the exact DP, given need = ceil(a):
    _short_gaps(need, rho, beta_s - mu), so a gap is short when idling one
    server through it costs at most beta_s - mu at the dearest rate, rho(s)
    = max(p(s), c_o)*(d_s(M) - d_s(M-1)) (p(s) without generators) and mu =
    _band_margin(instance); need itself when mu is 0. The module docstring
    gives the exchange argument that keeps every optimal schedule from the
    start state at or above the floor. As rho >= mu, a gap short here is
    short for _dp_band too, so L <= U.

    That premise holds in exact arithmetic, not always in floats: when
    d_s(M) dwarfs one server's increment (c_peak 1e14 against c_idle 0.1
    on a 22-day trace), d_s(M) - d_s(M-1) rounds to 0 and rho falls below
    mu, so L(t) can exceed U(t). _value_layers then takes need as the
    floor, which every feasible schedule keeps, and U >= need always. rho
    below mu alone is no sign of that: at a slot priced p_min without
    generators rho and mu can differ only by rounding, with rho a few ulps
    below, and the edges uncrossed.
    """
    margin = _band_margin(instance)
    if not margin > 0.0:
        return need
    gen, full = instance.generator, np.full(len(need), float(instance.max_servers))
    rate = np.maximum(instance.price, gen.c_o) if gen.count else instance.price
    rho = rate * (instance.demand(full) - instance.demand(full - 1.0))
    return _short_gaps(need, rho, instance.server.beta_s - margin)


def _dp_rows(instance: Instance, band: np.ndarray) -> np.ndarray:
    """Top row Y(t) of each layer of the exact DP, given band = U from _dp_band.

    useful(s) counts the units k in 1..N with L*(k-1) < d_s(U(s)), the
    units a fleet inside the band can load at slot s, and Y(t) =
    _short_gaps on unit costs with budget floor(beta_g/c_m) + 1, so a gap of
    at most D_g = floor(beta_g/c_m) + 1 slots is short; N when c_m is 0 or N
    is 0. An optimal schedule from the start state keeps x(s) <= U(s), so a
    unit above useful(s) only costs c_m there; the module docstring gives
    the exchange argument. Like the band's, it bounds the optimal schedules
    from the start state, not completions from any state.
    """
    gen = instance.generator
    if not (gen.count and gen.c_m > 0.0):
        return np.full(len(band), gen.count)
    demand = instance.demand(band)
    # searchsorted counts the loads L*(k-1), k = 1..N, below each demand
    useful = np.searchsorted(gen.capacity * np.arange(gen.count, dtype=float), demand)
    return _short_gaps(useful, np.ones(len(band)), np.floor(gen.beta_g / gen.c_m) + 1)


def _band_costs(instance: Instance, first: int, lows, highs, tops) -> tuple[np.ndarray, list[int]]:
    """Stage costs of the band cells of the DP layers first..first+len(lows)-1,
    given their L(t), U(t) and Y(t) (lows, highs, tops).

    Returns (rows, starts): layer k's cells x = lows[k]..highs[k] are the
    columns starts[k]..starts[k+1]-1, and rows[y] their split_cost at y
    generators, y = 0..max(tops). solve_dcm_offline says why these are the
    floats of a per-layer call.
    """
    gen = instance.generator
    y_grid = np.arange(gen.count + 1, dtype=float)[:, None]
    end = first + len(lows) - 1
    width = highs - lows + 1
    starts = np.zeros(len(width) + 1, dtype=int)
    np.cumsum(width, out=starts[1:])
    demand = instance.demand_table(first, end, lows, highs)
    cells = _supply_inputs(gen, y_grid, instance.price, demand)[2]
    price = np.repeat(instance.price[first - 1 : end], width)
    rows = np.empty((int(tops.max()) + 1, len(cells)))
    for y, row in enumerate(rows):
        row[:] = split_cost(gen, float(y), price, cells)
    return rows, starts.tolist()


def _value_layers(instance: Instance) -> tuple[list, list[int], list[int], list[int]]:
    """The backward pass of solve_dcm_offline: (value, lows, highs, tops),
    value[t][y, x - lows[t]] the cheapest completion from state (x, y) at t,
    lows, highs and tops the floor L(t) (_dp_floor), the band U(t)
    (_dp_band) and the rows Y(t) (_dp_rows), padded with 0 at t = 0, T+1."""
    m, n, t_end = instance.max_servers, instance.generator.count, instance.horizon
    x_offsets = instance.server.beta_s * np.arange(m + 1, dtype=float)
    y_offsets = instance.generator.beta_g * np.arange(n + 1, dtype=float)[:, None]
    # layer t holds rows 0..tops[t] and columns lows[t]..highs[t]; the end
    # layer T+1 is all zeros, so its row 0 and column 0 stand for every state
    need = np.ceil(instance.workload).astype(int)
    floor, band = _dp_floor(instance, need), _dp_band(instance, need)
    if np.any(floor > band):  # rho >= mu failed in floats (_dp_floor); need holds for every schedule
        floor = need
    row_tops = _dp_rows(instance, band)
    lows = [0, *floor.tolist(), 0]
    highs = [0, *band.tolist(), 0]
    tops = [0, *row_tops.tolist(), 0]
    # padded holds layer `held` at its band's place and +inf everywhere else;
    # only wide steps read it, so it takes layer t+1 just before one
    value: list[np.ndarray | None] = [None] * (t_end + 2)
    value[t_end + 1] = np.zeros((1, 1))
    padded = np.full((max(tops) + 1, m + 1), np.inf)
    held, steps, tail = t_end + 1, y_offsets[:, 0], np.full(n + 1, np.inf)
    # stage costs of slots first..first+len(starts)-2, read backward a block at a time
    span = block_span(m)
    first = t_end + 1
    for t in range(t_end, 0, -1):
        if t < first:
            first = max(1, t - span + 1)
            block, stage = slice(first - 1, t), None  # drop the last block's rows first
            stage, starts = _band_costs(instance, first, floor[block], band[block], row_tops[block])
        lo, hi, top = lows[t], highs[t], tops[t]
        below, above, under = lows[t + 1], highs[t + 1], tops[t + 1]
        rows = max(top, under) + 1  # rows past layer t+1's are +inf
        flat = lo == hi and below == above  # one column over one column, on 1-D views
        if flat:
            over = value[t + 1][:, 0]
            if below >= lo:
                climb = over + x_offsets[below]
                climb -= x_offsets[lo]
                over = np.minimum(climb, over, out=climb) if below == lo else climb
            if top > under:
                over = np.concatenate((over, tail[: top - under]))
            offsets, cells = steps, starts[t - first]
        else:
            padded[: tops[held] + 1, lows[held] : highs[held] + 1] = np.inf
            padded[: under + 1, below : above + 1] = value[t + 1]
            held = t + 1
            over = _min_increase_transform(padded[:rows], x_offsets, lo, hi, below, above)
            offsets, cells = y_offsets, slice(starts[t - first], starts[t - first + 1])
        # the same transform over the generator axis; a row above layer
        # t+1's climbs from +inf, so it takes the column minimum
        reach = np.minimum.accumulate((over + offsets[:rows])[::-1], axis=0)[::-1]
        value[t] = layer = np.empty((top + 1, hi + 1 - lo))
        out = layer[:, 0] if flat else layer
        np.subtract(reach[: top + 1], offsets[: top + 1], out=out)
        np.minimum(out, np.minimum.accumulate(over[: top + 1], axis=0), out=out)
        out += stage[: top + 1, cells]
    return value, lows, highs, tops


def solve_dcm_offline(instance: Instance, state_budget: int = DEFAULT_STATE_BUDGET) -> Schedule:
    """Exact minimum-cost schedule via a backward dynamic program over the
    layered state graph.

    Layer t holds only the states of two bands, columns x = L(t)..U(t)
    (_dp_floor, _dp_band) and rows y = 0..Y(t) (_dp_rows), y-major and
    C-contiguous; the module docstring gives the exchange arguments that
    keep every optimal schedule from the start state inside both. Such a
    schedule keeps a server on through every gap that costs less to idle
    through than a restart (so x >= L), and through no gap longer than a
    break-even span (so x <= U). A band state that no optimal schedule
    passes through may hold a value above its full-layer one, but the
    forward pass never steps there, and the states it steps through hold
    the full-layer floats, so the optimal set and the tie order are those of
    the full layers. The state budget counts the full (M+1)(N+1)(T+2) grid,
    checked before any band work.

    The backward pass (_value_layers) prices a block of layers at a time
    (_band_costs), block_span(M) slots. Their band cells alone are read, one
    demand_table call with one slot and one x per cell checked as supply_cost
    checks its inputs, and priced by one split_cost call per y, so no demand
    grid is built. A wide layer's x-transform reads layer t+1 from one buffer
    that is +inf outside its band, written just before that layer (the band
    it held reset to +inf). A layer of one column x over a layer t+1 of one
    column x' takes that column v as a 1-D view instead, and its x-transform
    is what the two scans give on one finite column: the climb (v +
    beta_s*x') - beta_s*x when x' >= x, else +inf, the fall v when x' <= x,
    else +inf, and np.minimum(climb, fall), each +inf case left out as
    min(w, +inf) = w; a row above layer t+1's is padded with +inf.
    Every layer's generator-axis transform is one np.minimum.accumulate over
    the rows each way, on the 1-D column or the 2-D layer. No float differs
    from full layers: every operation acts element by element, min(v, +inf)
    = v and +inf - beta*k = +inf, and each scan is the accumulate a full
    layer takes, the same ufunc calls in the same operand order whether a
    column is a 1-D view or part of a 2-D array, so even signed zeros come
    out the same.

    Ties resolve to the lexicographically smallest x series, then y series:
    the forward pass takes the first minimum, in column-major order, of the
    y-major sum of move costs and layer.
    """
    m, n, t_end = instance.max_servers, instance.generator.count, instance.horizon
    states = (m + 1) * (n + 1) * (t_end + 2)
    if states > state_budget:
        raise CapacityError(
            f"state graph needs {states} nodes, budget is {state_budget}; "
            "use the decomposed pipeline instead"
        )
    value, lows, highs, tops = _value_layers(instance)
    # forward pass: walk the argmin over the band; equal-cost choices pick
    # the smallest x, then the smallest y. The move costs are read from
    # tables of beta_s*max(k, 0), k = -M..M, and beta_g*max(y - py, 0)
    y_grid = np.arange(n + 1, dtype=float)
    x_moves = instance.server.beta_s * np.maximum(np.arange(-m, m + 1, dtype=float), 0.0)
    y_moves = instance.generator.beta_g * np.maximum(y_grid - y_grid[:, None], 0.0)
    xs, ys = np.empty(t_end), np.empty(t_end)
    px = py = 0
    for t in range(1, t_end + 1):
        lo, hi, top = lows[t], highs[t], tops[t]
        total = y_moves[py, : top + 1, None] + x_moves[lo - px + m : hi - px + m + 1]
        total += value[t]
        column, py = divmod(int(total.T.argmin()), top + 1)
        px = lo + column
        xs[t - 1], ys[t - 1] = px, py
    return dispatched_schedule(instance, xs, ys)


def _stage_table(instance: Instance) -> np.ndarray:
    """Supply cost of slot t at fleet x with y generators on, at [t-1, x, y],
    for the oracles: one demand_table(1, T) grid, whose row t-1 holds the
    floats of demand_table(t)."""
    y_grid = np.arange(instance.generator.count + 1, dtype=float)
    grid = instance.demand_table(1, instance.horizon)[:, :, None]
    return supply_cost(instance.generator, y_grid, instance.price[:, None, None], grid)


def dcm_dijkstra(instance: Instance) -> Schedule:
    """Exact minimum-cost schedule by Dijkstra search over the same state
    graph as solve_dcm_offline; a slow reference oracle for cross-checks."""
    m, n, t_end = instance.max_servers, instance.generator.count, instance.horizon
    edges = (m + 1) * (n + 1) * (m + 1) * (n + 1) * t_end
    if edges > 20_000_000:
        raise CapacityError(f"dijkstra edge count {edges} too large; use solve_dcm_offline")
    beta_s, beta_g = instance.server.beta_s, instance.generator.beta_g
    stages = _stage_table(instance)
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
    if n_x * n_y > budget:  # as a power of ten: its digits may pass int-to-str's limit
        raise CapacityError(f"enumeration size 10^{math.log10(n_x * n_y):.1f} exceeds budget {budget}")

    xt = np.array(list(itertools.product(*x_ranges)), dtype=int).reshape(n_x, t_end)
    yt = np.array(list(itertools.product(range(n + 1), repeat=t_end)), dtype=int).reshape(
        n_y, t_end
    )
    cost = np.zeros((n_x, n_y))
    for t, psi in enumerate(_stage_table(instance)):
        cost += psi[xt[:, t][:, None], yt[:, t][None, :]]
    beta_s, beta_g = instance.server.beta_s, instance.generator.beta_g
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


def idle_cost_block(instance: Instance, start: int, end: int, carried, work=None) -> np.ndarray:
    """Running idle-cost sums P(s) for s = start-1..end, shape (end-start+2, M).

    Row 0 is carried, the sum P(start-1) (zeros at slot 1), and each later
    row continues it with one sequential float add per slot,
    P_i(s) = P_i(s-1) + p(s) * (d_s(i+1) - d_s(i)). The slots start..end are
    one block: one demand_table call reads their grid, and one 1-D subtract
    over the grid's cells, read row by row, differences it (cell M of a row
    spans two slots and is never read); one multiply prices that into the P
    rows. P is then continued one np.add per row, P(s-1) + cost(s), the
    operand order of np.add.accumulate down the rows, so the bits are the
    same; an accumulate along axis 0 steps one cell at a time, about 3 ns a
    cell, while a row's add runs across the M slices at once. The add's
    fixed cost makes the row loop the slower one at small M (about M < 130;
    about 1 us a row at M = 1, where numpy's in-place add is slowest).
    The caller cuts the blocks (GapWalk, by block_span), so the grid stays
    one cache-sized chunk; the floats do not depend on the cut. GapWalk, and
    so the online GCSR fleet and the offline slice rule, reads P from here,
    so both rules compare the same floats (see reaches_breakeven).

    work, arrays shaped (n+1, M) and (3, n, M+1) with end-start+1 <= n,
    takes the P rows, the demand grid and its scratch (work[1][1], which
    then holds the differences), so no array of the block's size is
    allocated: the result is then a view of work[0], valid until work is
    written again.
    """
    rows, m = end - start + 1, instance.max_servers
    prefix = np.empty((rows + 1, m)) if work is None else work[0][: rows + 1]
    prefix[0] = carried
    grid = instance.demand_table(start, end, work=(None,) * 3 if work is None else work[1][:, :rows])
    # the flat difference's cell i < M of row s is d_s(i+1) - d_s(i), written
    # to demand's scratch b
    step = np.empty(grid.shape) if work is None else work[1][1]
    cells = grid.ravel()
    np.subtract(cells[1:], cells[:-1], out=step.ravel()[: len(cells) - 1])
    np.multiply(step[:rows, :m], instance.price[start - 1 : end, None], out=prefix[1:])
    sums = iter(prefix)  # np.add.accumulate's adds, one row at a time
    before = next(sums)
    for row in sums:
        np.add(before, row, row)
        before = row
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
    lo, hi = first, last
    for _ in range(int((hi - lo).max()).bit_length()):
        mid = (lo + hi) >> 1
        hit = reaches_breakeven(flat.take(mid * width + slices), base, beta_s)
        hi = np.where(hit, mid, hi)
        lo = np.where(hit, lo, mid + 1)
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

    Only the gaps are made, never the close events. A gap of slice i that is
    idle at row k (k = 0 for a carried gap) closes at the first row q > k
    with need[q] > i, so last = q - 1. Binary lifting finds q for all gaps
    at once: with the most of need over each run of 2^l rows from each row,
    one table per level, a gap skips 2^l rows while that most is <= i, from
    the top level down; past the block need reads M, so no skip passes a
    block's end. That is O(gaps * log n) work on O(n log n) table cells,
    nothing quadratic in n. Carried gaps come before the opens, which come
    in slot order, so one stable sort of the gaps by slice gives the order.
    """
    was, now, width = need[:-1], need[1:], prefix.shape[1]
    fall = np.maximum(was - now, 0)
    # one gap per slice turning idle at slot s = start + row, c(s)..c(s-1)-1,
    # with its anchor P(s-1) = prefix[row]
    row = np.arange(len(fall)).repeat(fall)
    i = np.arange(len(row)) + (now - fall.cumsum() + fall).repeat(fall)
    # the carried gaps go first, so the stable sort puts each before its
    # slice's opens: by slice, then by slot. numpy's stable sort is a radix
    # sort on integers of 16 bits or fewer, so the slice indices take the
    # smallest unsigned type that holds M
    slices, first, base = carried
    first = np.concatenate((first, start + row))
    base = np.concatenate((base, prefix.ravel().take(row * width + i)))
    i = np.concatenate((slices, i))
    order = i.astype(np.min_scalar_type(width)).argsort(kind="stable")
    i, first, base = (part.take(order) for part in (i, first, base))
    # reach[l][q] is the most of c over slots start+q..start+q+2^l-1, M past
    # the block: from its first idle row, g - start + 1 (0 if carried), each
    # gap skips 2^l rows at each level l from the top while that is <= i
    last = np.maximum(first - (start - 1), 0)
    levels = len(now).bit_length()
    reach = [np.concatenate((now, np.full(1 << levels >> 1, width)))]
    for half in (1 << level for level in range(levels - 1)):
        reach.append(np.maximum(reach[-1][:-half], reach[-1][half:]))
    for level in range(levels - 1, -1, -1):
        last += (reach[level].take(last) <= i) << level
    return i, first, base, last


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

    step walks the next slots in sub-steps of one block, block_span(M) slots
    each (fewer at the horizon or the step's end): c(s) = ceil(a(s)), the P
    rows of idle_cost_block continued from the last stepped row, and the gaps
    of gap_pieces, each decided at its last idle slot in the sub-step: reached
    iff reaches_breakeven holds there, kept iff it closes in the sub-step
    unreached. P is nondecreasing, so the offline rule keeps exactly the kept
    gaps, and a reached gap stays reached: only the open, unreached gaps are
    followed into the next sub-step (open_gaps). A reached gap's break-even
    slot j*, the first slot of the gap where the predicate holds, is found in
    the sub-step that reaches it by _breakeven_rows over its rows,
    O(gaps * log block) work, and recorded for GCSR, gcsr_slices and
    cp_offline_slices.

    Much of a sub-step's time is numpy's fixed cost per call, so both stages
    besides demand evaluation act on whole blocks. gap_pieces makes only the
    gaps, never their close events, and pairs each with its close by a
    binary-lifting search over the block's counts, O(gaps * log block);
    idle_cost_block continues the P rows one add per row across the M
    slices, as an accumulate down the rows steps one cell at a time. At
    small M the per-row add costs more than the accumulate did: a 365-day
    walk at M=56, in 256-slot blocks, takes about 1.1x the time it took.

    Nothing here reads a window or the generators, and nothing depends on
    how the slots are cut into blocks: j*, both verdicts and the P floats
    are the same for every window, generator fleet and block size. So one
    walk serves every GCSR fleet of the instance's provisioning inputs
    (workload, price, server, cooling and conditioning; online.GcsrFleet),
    whatever its window and generator count, and the offline rule. It keeps:
    - c(s) of the stepped slots (need)
    - per slot, the kept gaps that open there and that close there
      (kept_opens, kept_closes)
    - one record (slice, g, j*) per reached gap, in j* order, in the
      smallest unsigned type that holds T and M (breakevens reads them)
    - one P row and the open gaps it still follows

    That is one block's P rows and demand scratch, at most CHUNK_CELLS
    cells each (allocated once, reused by every step and dropped at the
    horizon), plus O(M + T + reached gaps) numbers; no P row outlives its
    sub-step. The records are 6 bytes a gap at uint16: 0.2 MB for the 34.5k
    reached gaps of a 90-day trace at M=552, 8.4 MB for the 1.4M of a
    365-day trace at M=5520.
    """

    def __init__(self, instance: Instance):
        self.instance = instance
        t_end = instance.horizon
        self.need = np.zeros(t_end + 1, dtype=int)  # c(s) of the stepped slots, c(0) = 0
        self.stepped = 0  # the last stepped slot
        m = instance.max_servers
        self._row = np.zeros(m)  # P of the last stepped slot
        # the P rows and demand grid of a sub-step (idle_cost_block), until the horizon
        span = min(block_span(m), t_end)
        self._work = (np.empty((span + 1, m)), np.empty((3, span, m + 1)))
        self.kept_opens = np.zeros(t_end + 1, dtype=int)  # at index s: kept gaps with g = s
        self.kept_closes = np.zeros(t_end + 1, dtype=int)  # kept gaps whose close is slot s
        # (slice, g, j*) of the reached gaps, by j*: one array per sub-step that
        # reached any, of the smallest unsigned type that holds T and M, and
        # one past each array's last record index
        self._records: list[np.ndarray] = []
        self._stops: list[int] = []
        self._dtype = np.min_scalar_type(max(t_end, instance.max_servers))
        # (slice, g, base) of the unreached gaps open at the last stepped slot
        self.open_gaps = (np.zeros(0, dtype=int), np.zeros(0, dtype=int), np.zeros(0))

    def step(self, workload, stop: int) -> None:
        """Walk slots stepped+1..stop, given their workload a(s), in sub-steps
        of one block (block_span), through the walk's buffers."""
        start, span = self.stepped + 1, len(self._work[0]) - 1
        for first in range(start, stop + 1, span):
            self._step(workload[first - start : first - start + span], min(first + span - 1, stop))
        if stop == self.instance.horizon:
            self._work = None  # no step follows, and CHASE runs on after the walk

    def _step(self, workload, stop: int) -> None:
        start = self.stepped + 1
        beta_s = self.instance.server.beta_s
        need = self.need[start - 1 : stop + 1]
        need[1:] = np.ceil(workload)
        prefix = idle_cost_block(self.instance, start, stop, self._row, self._work)
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
        self._row[:] = prefix[-1]
        self.stepped = stop

    def breakevens(self, taken: int, end: int) -> np.ndarray:
        """Records taken, taken+1, ... of the reached gaps through the last
        whose j* is at most end, as int rows (slices, g, j*); every gap whose
        j* is at most end is recorded once the walk stepped to end."""
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
        """Step the rest of the horizon in one step call (a no-op at the end)."""
        if self.stepped < self.instance.horizon:
            self.step(self.instance.workload[self.stepped :], self.instance.horizon)
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

    Steps a GapWalk over the horizon, which decides each slice's idle gap
    at the slot where it closes. Memory is one block's P rows and demand
    grid, at most CHUNK_CELLS cells each and reused by every step, plus
    O(M + T + reached gaps): no (T, M) array. The offline rule
    knows where the horizon ends: trailing gaps (like leading ones) turn
    off for free. The online rules treat the end as unknown and
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
    """Energy-demand and price series as float arrays, by check_series."""
    return check_series(("energy", "price"), energy, price)


def regret_steps(gen: GeneratorModel, energy, price) -> np.ndarray:
    """Per-slot savings of one generator over the grid, psi(0) - psi(1):
    u1*(p - c_o) - c_m, u1 the one-unit merit_split (cap L) of the energy."""
    p = np.asarray(price, dtype=float)
    return merit_split(gen, 1, p, np.asarray(energy, dtype=float)) * (p - gen.c_o) - gen.c_m


def regret_rows(gen: GeneratorModel, energy, price, regret) -> np.ndarray:
    """Clamped savings rows R(s), one column per slice, of a block of slots.

    energy and price hold the block's slots; regret is R of the slot before
    the block. Slice i sees max(e - i*L, 0), which regret_steps caps at L,
    and the whole block's gains are priced in one vectorised call. The
    recurrence R(s) = min(0.0, max(-beta_g, R(s-1) + gain(s))) is
    sequential in s, so each slice's column is stepped in Python floats in
    that order: r += gain, then r if r > bottom else bottom, then r if
    r < 0.0 else 0.0. On a tie that keeps the second operand, as
    np.maximum and np.minimum do, so the floats, signed zeros included,
    are those of one np.add and two clamps over a row per slot (the
    reference in tests/test_regret_reference.py). A slice that stays at a
    clamp for the whole block (R = -beta_g with every gain <= 0, or R = 0
    with every gain >= 0) is filled with that clamp without stepping; on
    the perfbench traces 3 of 10 slices move in every block and the other
    7 sit at -beta_g throughout.

    Cost on a 2-core Xeon: about 0.13 us per (slot, moving slice) and a few
    numpy calls per slice, against 2.3-3 us per slot for the row loop's
    three ufunc calls, whatever the fleet. With every slice moving that is
    0.5-0.6x the row loop's time at 10 slices, 1.0-1.1x at 20 and 1.8-2.1x
    at 40 (BENCH_30.json); there is one path, with no switch on that
    crossover.
    """
    offsets = np.arange(gen.count) * gen.capacity  # slice i starts at i*L
    energy = np.maximum(np.asarray(energy, dtype=float)[:, None] - offsets, 0.0)
    rows = regret_steps(gen, energy, np.asarray(price, dtype=float)[:, None])
    bottom = -gen.beta_g  # < 0: GeneratorModel takes beta_g > 0
    rising, falling = (rows >= 0.0).all(axis=0).tolist(), (rows <= 0.0).all(axis=0).tolist()
    for i, r in enumerate(np.asarray(regret, dtype=float).tolist()):
        if r == 0.0 and rising[i] or r == bottom and falling[i]:
            rows[:, i] = 0.0 if r == 0.0 else bottom  # held at a clamp: no step moves it
            continue
        column = []
        append = column.append
        for gain in memoryview(rows[:, i].copy()):  # one Python float at a time
            r += gain
            r = r if r > bottom else bottom
            r = r if r < 0.0 else 0.0
            append(r)
        rows[:, i] = column
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
