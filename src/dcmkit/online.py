"""Look-ahead online algorithms and their competitive-ratio bounds.

Provisioning (GCSR): each unit server slice idles through a workload gap
until the idle cost since the gap began, plus what the look-ahead window
shows is still coming, reaches the restart cost beta_s; then it turns off.
All M slices are decided together, one numpy step per slot: slice state is
two length-M arrays (on/off, and the gap anchor P(g-1) of the running
idle-cost sum P), and each slice tests the anchored predicate
P(j) - P(g-1) >= beta_s, which the offline slice rule shares, so online and
offline agree at exact ties. Because P never decreases, the test is made
once per slice, at the last idle slot of its run in the window (the slot
before its first busy one), so a decision's work grows only as log w. The
look-ahead stream evaluates demand and P in blocks of slots with the block
evaluator the offline slice rule uses, and holds O((block + w) * M) floats.

Supply (CHASE): each unit generator slice tracks R, its cumulative savings
of running versus buying from the grid, clamped to [-beta_g, 0]. It is on at
slot t iff the first extreme R touches at or after t is the top, the offline
slice rule, once that extreme is in the window; until then it holds.

The combined pipeline (DCMON) feeds GCSR's provisioning decisions, computed
slightly ahead of the output slot, to CHASE as its energy demand. Every read
goes through a window object (LookaheadStream over the instance,
RevealedWindow over the series CHASE reads) that raises on any access past
the revealed window, so causality violations are structural errors rather
than silent bugs.

A-priori values and bounds: besides the revealed window, the pipeline and
every ratio bound read only declared values. OngridParams holds beta_s,
P_min and d_min, and alone derives the break-even span
Delta_s = beta_s/(P_min*d_min), alpha_s = w/Delta_s (coverage) and DCMON's
supply window w - Delta_s in whole slots (ep_window); BoundParams adds the
generator economics and P_max. A truncated replay passes its parent's params.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError, LookaheadViolation
from .model import GeneratorModel, Instance, Schedule, dispatched_schedule
from .offline import idle_cost_block, reaches_breakeven, regret_steps, supply_series

# ---------------------------------------------------------------------------
# revealed-window plumbing


def _whole_slots(lookahead) -> int:
    """lookahead as an int; ConfigError unless it is a whole slot count >= 0."""
    if not (lookahead >= 0 and float(lookahead).is_integer()):
        raise ConfigError(f"lookahead must be a nonnegative integer, got {lookahead}")
    return int(lookahead)


class LookaheadStream:
    """Sequential view of an instance with a fixed look-ahead window.

    At cursor t, slots 1..min(T, t+w) are revealed. Reading any later slot
    raises LookaheadViolation; the cursor only moves forward.

    The stream also serves the running idle-cost sum of every server slice,
    P_i(s) = P_i(s-1) + p(s) * (d_s(i+1) - d_s(i)) with P_i(0) = 0. It holds
    the whole instance, but evaluates lazily, when a reader first reaches
    past what it holds: one offline.idle_cost_block call per block of
    BLOCK_SLOTS slots (or more, when a request reaches further), whose P rows
    continue the previous block's last row. The offline slice rule walks the
    horizon with the same function, so both read the same floats. The
    checked readers still give out only revealed slots, whatever has been
    evaluated. Each block evaluation drops the rows before the oldest slot of
    the request that triggered it, so the stream holds
    O((BLOCK_SLOTS + w) * M) floats.
    """

    def __init__(self, instance: Instance, lookahead: int):
        self.instance = instance
        self.lookahead = _whole_slots(lookahead)
        self._cursor = 1
        # demand rows d_s(0..M) and idle-cost sums P(s) for held slots s = _first.._last
        m = instance.max_servers
        self._first, self._last = 1, 0
        self._grid = np.empty((0, m + 1))
        self._prefix = np.empty((0, m))

    @property
    def cursor(self) -> int:
        return self._cursor

    @property
    def revealed_end(self) -> int:
        return min(self.instance.horizon, self._cursor + self.lookahead)

    def advance(self) -> None:
        if self._cursor <= self.instance.horizon:
            self._cursor += 1

    def _check(self, first: int, end: int | None = None) -> None:
        """Raise LookaheadViolation unless slots first and end (if given) are revealed."""
        revealed = self.revealed_end
        for t in (first,) if end is None else (first, end):
            if not 1 <= t <= revealed:
                raise LookaheadViolation(
                    f"slot {t} is outside the revealed window [1, {revealed}] "
                    f"(cursor {self._cursor}, lookahead {self.lookahead})"
                )

    def demand(self, t: int, x) -> float:
        """d_t(x) for one fleet size x: the same float as demand_table(t)[x]."""
        self._check(t)
        row, col = t - self._first, int(x)
        if 0 <= row < len(self._grid) and col == x and 0 <= col < self._grid.shape[1]:
            return float(self._grid[row, col])
        return float(self.instance._demand(t - 1, float(x)))

    def workloads(self, first: int, end: int) -> np.ndarray:
        """a(s) for slots s = first..end (read-only)."""
        self._check(first, end)
        return self.instance.workload[first - 1 : end]

    def idle_prefix(self, first: int, end: int) -> np.ndarray:
        """Rows P(s) for slots s = first..end, shape (end-first+1, M), read-only."""
        self._check(first, end)
        if first < self._first:
            raise ValueError(f"slot {first} was dropped; the stream holds slots from {self._first}")
        if end > self._last:
            self._evaluate(first, end)
        rows = self._prefix[first - self._first : end + 1 - self._first]
        rows.flags.writeable = False
        return rows

    def _evaluate(self, first: int, end: int) -> None:
        """Evaluate the next block, reaching at least slot end; drop rows before first."""
        carried = self._prefix[-1] if len(self._prefix) else np.zeros(self._prefix.shape[1])
        grid, prefix = idle_cost_block(self.instance, self._last + 1, end, carried)
        drop = min(first - self._first, len(self._grid))
        self._grid = np.concatenate((self._grid[drop:], grid))
        self._prefix = np.concatenate((self._prefix[drop:], prefix[1:]))
        self._first += drop
        self._last += len(grid)


class RevealedWindow:
    """Slots 1..end of slot-indexed series, read through checked readers.

    The owner moves end forward as slots are revealed; a reader raises
    LookaheadViolation for any slot outside [1, end]. A reader sees the
    series object itself, so a list that grows as decisions are made can be
    read as it grows.
    """

    def __init__(self) -> None:
        self.end = 0

    def reader(self, series):
        """Callable slot -> float over series, checked against this window."""

        def read(t: int) -> float:
            if not 1 <= t <= self.end:
                raise LookaheadViolation(f"slot {t} beyond revealed window [1, {self.end}]")
            return float(series[t - 1])

        return read


# ---------------------------------------------------------------------------
# provisioning: GCSR


class GcsrFleet:
    """All unit server slices of one GCSR run, decided slot by slot.

    Slice i (0-based) is busy in slot t iff a(t) > i. Its state is two
    entries of length-M arrays: the previous on/off decision and the anchor
    base_i = P_i(g-1), the running idle-cost sum at the last busy slot (see
    LookaheadStream.idle_prefix). An idle, powered slice turns off at slot t
    once reaches_breakeven(P_i(j), base_i, beta_s) holds for some revealed
    j >= t with no busy slot in t..j; the offline rule evaluates the same
    predicate on the same floats.

    Each decision is one numpy step over all slices. Slices are nested, so
    the running maximum of the workload over the window, searched for each
    slice index, gives each slice's idle run length k from t (k = 0: busy at
    t). It suffices to test the last idle slot t+k-1: P_i is nondecreasing
    (prices are nonnegative and d_s(x) is a nondecreasing float function of
    x, being built from monotone float operations on nonnegative terms), and
    float subtraction and comparison are monotone, so the predicate holds at
    some j in the run iff it holds at its end. A decision is therefore a
    running maximum over w+1 workloads and one binary search and one
    gathered P entry per slice, O(w + M log w) numpy work with no
    (window x M) block; the fleet keeps no rows of its own, and per-slice
    decisions are stored only when asked for.
    """

    def __init__(self, stream: LookaheadStream, record_slices: bool = False):
        self.stream = stream
        self.n_slices = stream.instance.max_servers
        self.beta_s = stream.instance.server.beta_s
        self._slices = np.arange(self.n_slices)
        self._on = np.zeros(self.n_slices, dtype=bool)
        self._base = np.zeros(self.n_slices)  # P(g-1) of each slice's current gap
        self.next_slot = 1
        self.series: list[int] = []
        self.slice_series: list[np.ndarray] | None = [] if record_slices else None

    def decide_next(self, window_end: int) -> int:
        """Decide slot self.next_slot using revealed data up to window_end."""
        t = self.next_slot
        window_end = min(window_end, self.stream.instance.horizon)
        if window_end < t:
            raise LookaheadViolation(f"window end {window_end} precedes decision slot {t}")
        load = np.maximum.accumulate(self.stream.workloads(t, window_end))
        rows = self.stream.idle_prefix(t, window_end)  # P(t..window_end)
        run = np.searchsorted(load, self._slices, side="right")  # idle run length from t
        busy = run == 0  # busy slices read row -1 below; their verdict is discarded
        turn_off = reaches_breakeven(rows[run - 1, self._slices], self._base, self.beta_s)
        self._on = busy | (self._on & ~turn_off)
        self._base = np.where(busy, rows[0], self._base)
        if self.slice_series is not None:
            self.slice_series.append(self._on)
        total = int(np.count_nonzero(self._on))
        self.series.append(total)
        self.next_slot += 1
        return total


def gcsr(instance: Instance, lookahead: int, return_slices: bool = False):
    """Run GCSR over the whole horizon; returns the provisioning series.

    The rule treats the horizon end as unknown even when the window reaches
    it: a powered slice in its trailing gap holds unless the gap's idle cost
    reaches beta_s, where the offline rule turns off for free. At w >= T it
    differs from solve_cp_offline only in trailing gaps.
    """
    stream = LookaheadStream(instance, lookahead)
    fleet = GcsrFleet(stream, record_slices=return_slices)
    for _ in range(instance.horizon):
        fleet.decide_next(stream.revealed_end)
        stream.advance()
    x = np.array(fleet.series, dtype=float)
    if return_slices:
        slices = np.array(fleet.slice_series, dtype=float).reshape(
            instance.horizon, fleet.n_slices
        )
        return x, slices.T
    return x


# ---------------------------------------------------------------------------
# supply: CHASE


class ChaseFleet:
    """All unit generator slices of one CHASE run.

    Each revealed slot advances every slice's savings process R_i one
    clamped step, with the floats of offline.clamped_regret, and queues the
    slots where R_i touches an extreme (0: on, -beta_g: off). The window
    never shrinks, so every queued slot is in view. A decision at t takes
    the kind of each queue's head, the first extreme at or after t, holds on
    an empty queue, and pops the head at its slot: O(N) work whatever the
    window. Past R_i's last extreme (the "end" segment of
    critical_segments) the slice holds where the offline rule, knowing the
    horizon ends, turns off.
    """

    def __init__(self, gen: GeneratorModel, energy_at, price_at, record_slices: bool = False):
        self.gen = gen
        self.energy_at = energy_at  # callable slot -> revealed energy demand
        self.price_at = price_at
        self._offsets = np.arange(gen.count) * gen.capacity  # slice i starts at i*L
        self._revealed = 0
        self._regret = [-gen.beta_g] * gen.count  # R_i at slot self._revealed
        # (slot, on) for each extreme of R_i at or after next_slot, in slot order
        self._extremes: list[deque] = [deque() for _ in range(gen.count)]
        self._on = [0] * gen.count
        self.next_slot = 1
        self.series: list[int] = []
        self.slice_series: list[list[int]] | None = [] if record_slices else None

    def _reveal(self) -> None:
        """Step every R_i over the next slot and queue the extremes it touches."""
        tau = self._revealed + 1
        energy = np.clip(self.energy_at(tau) - self._offsets, 0.0, self.gen.capacity)
        gains = regret_steps(self.gen, energy, self.price_at(tau)).tolist()
        bottom = -self.gen.beta_g
        for i, gain in enumerate(gains):
            r = self._regret[i] = min(0.0, max(bottom, self._regret[i] + gain))
            if r == 0.0 or r == bottom:
                self._extremes[i].append((tau, int(r == 0.0)))
        self._revealed = tau

    def decide_next(self, window_end: int) -> int:
        """Decide slot self.next_slot using revealed data up to window_end."""
        t = self.next_slot
        if window_end < t:
            raise LookaheadViolation(f"window end {window_end} precedes decision slot {t}")
        while self._revealed < window_end:
            self._reveal()
        for i, pending in enumerate(self._extremes):
            if pending:
                slot, self._on[i] = pending[0]
                if slot == t:
                    pending.popleft()
        if self.slice_series is not None:
            self.slice_series.append(list(self._on))
        total = sum(self._on)
        self.series.append(total)
        self.next_slot += 1
        return total


def chase(
    gen: GeneratorModel,
    energy,
    price,
    lookahead: int,
    return_slices: bool = False,
):
    """Run CHASE on an energy-demand series; returns the commitment series.

    The rule (see ChaseFleet) treats the series end as unknown even when
    the window reaches it, so at w >= T its slices differ from
    ep_offline_slices only inside their "end" segments, where they hold.
    """
    lookahead = _whole_slots(lookahead)
    energy, price = supply_series(energy, price)
    t_end = len(energy)
    window = RevealedWindow()
    fleet = ChaseFleet(gen, window.reader(energy), window.reader(price), record_slices=return_slices)
    for t in range(1, t_end + 1):
        window.end = min(t + lookahead, t_end)
        fleet.decide_next(window.end)
    y = np.array(fleet.series, dtype=float)
    if return_slices:
        return y, np.array(fleet.slice_series, dtype=float).reshape(t_end, gen.count).T
    return y


# ---------------------------------------------------------------------------
# combined pipeline: DCMON


def dcmon(instance: Instance, lookahead: int, params: OngridParams | None = None) -> Schedule:
    """Run the full online pipeline and return a complete schedule.

    GCSR decides provisioning up to params.ep_window(lookahead) slots ahead
    of the output cursor (its break-even scans clipped to the master window,
    which changes nothing once the surplus exists), the induced energy
    demand feeds CHASE, and the dispatch rule completes each slot from the
    decided (x, y).

    params holds the declared a-priori values (default: read off the
    instance); a replay of a truncated view passes its parent's.
    """
    t_end = instance.horizon
    gen = instance.generator
    stream = LookaheadStream(instance, lookahead)
    fleet = GcsrFleet(stream)
    if params is None:
        params = OngridParams.from_instance(instance)
    w_ep = params.ep_window(lookahead)

    energy: list[float] = []  # energy[k] = demand at slot k+1 under GCSR fleet
    window = RevealedWindow()
    supply = ChaseFleet(gen, window.reader(energy), window.reader(instance.price))
    for t in range(1, t_end + 1):
        ahead = min(t + w_ep, t_end)
        while fleet.next_slot <= ahead:
            tau = fleet.next_slot
            x_tau = fleet.decide_next(stream.revealed_end)
            energy.append(stream.demand(tau, x_tau))
        window.end = ahead
        supply.decide_next(ahead)
        stream.advance()
    return dispatched_schedule(instance, fleet.series, supply.series)


# ---------------------------------------------------------------------------
# competitive-ratio bounds


@dataclass(frozen=True, kw_only=True)
class OngridParams:
    """Declared a-priori values of the provisioning stage: restart cost
    beta_s, price floor p_min, and d_min, the floor on any demand increment
    (Instance.min_marginal_demand)."""

    beta_s: float
    p_min: float
    d_min: float

    def __post_init__(self) -> None:
        if self.beta_s <= 0.0:
            raise ConfigError(f"beta_s must be positive, got {self.beta_s}")
        if min(self.p_min, self.d_min) < 0.0:
            raise ConfigError("p_min and d_min must be nonnegative")

    @classmethod
    def from_instance(cls, instance: Instance) -> "OngridParams":
        return cls(
            beta_s=instance.server.beta_s,
            p_min=instance.p_min,
            d_min=instance.min_marginal_demand(),
        )

    @property
    def breakeven_idle_window(self) -> float:
        """Delta_s = beta_s/(d_min*p_min): idle slots at the cheapest rate that
        cost one server start; infinite when idling is free (a window can then
        never certify a turn-off)."""
        denom = self.d_min * self.p_min
        return math.inf if denom <= 0.0 else self.beta_s / denom

    def coverage(self, lookahead: int) -> float:
        """alpha_s: the fraction of the break-even span a window covers, in [0, 1]."""
        span = self.breakeven_idle_window
        return 0.0 if math.isinf(span) else min(1.0, lookahead / span)

    def ep_window(self, lookahead: int) -> int:
        """DCMON's supply window: whole slots of look-ahead left after the
        break-even span, which the provisioning stage needs for itself."""
        span = self.breakeven_idle_window
        return 0 if math.isinf(span) or lookahead <= span else math.floor(lookahead - span)


@dataclass(frozen=True, kw_only=True)
class BoundParams(OngridParams):
    """Everything the closed-form ratio bounds need to know about a model:
    the on-grid values plus generator economics and the price peak."""

    beta_g: float
    c_o: float
    c_m: float
    capacity: float
    p_max: float

    def __post_init__(self) -> None:
        super().__post_init__()
        if min(self.beta_g, self.capacity) <= 0.0:
            raise ConfigError("beta_g, capacity must be positive")
        if min(self.c_o, self.c_m) < 0.0:
            raise ConfigError("generator costs must be nonnegative")
        if self.c_o + self.c_m / self.capacity >= self.p_max:
            raise ConfigError(
                "bounds require economical generation: c_o + c_m/capacity < p_max "
                f"({self.c_o + self.c_m / self.capacity:.6g} >= {self.p_max:.6g})"
            )

    @classmethod
    def from_instance(cls, instance: Instance) -> "BoundParams":
        gen = instance.generator
        return cls(
            **asdict(OngridParams.from_instance(instance)),
            beta_g=gen.beta_g,
            c_o=gen.c_o,
            c_m=gen.c_m,
            capacity=gen.capacity,
            p_max=instance.p_max,
        )


def ratio_bound_ongrid(lookahead: int, params: OngridParams) -> float:
    """Worst-case GCSR / offline ratio for grid-only provisioning, 2 - alpha_s."""
    return 2.0 - params.coverage(lookahead)


def ratio_bound_ep(lookahead: int, params: BoundParams) -> float:
    """Worst-case CHASE / offline ratio for the supply subproblem."""
    cap, p = params.capacity, params.p_max
    margin = cap * p - cap * params.c_o - params.c_m
    denom = params.beta_g * cap * p + lookahead * params.c_m * p * (
        cap - params.c_m / (p - params.c_o)
    )
    return 1.0 + 2.0 * params.beta_g * margin / denom


def ratio_bound_hybrid(lookahead: int, params: BoundParams) -> float:
    """Worst-case pipeline / joint-offline ratio for hybrid supply."""
    cap, p = params.capacity, params.p_max
    alpha_g = params.c_m * params.ep_window(lookahead) / params.beta_g
    margin = cap * p - cap * params.c_o - params.c_m
    bracket = 1.0 + 2.0 * margin / (
        cap * p + alpha_g * p * (cap - params.c_m / (p - params.c_o))
    )
    return (p * (2.0 - params.coverage(lookahead)) / (params.c_o + params.c_m / cap)) * bracket


def ratio_bound_hybrid_loose(lookahead: int, params: BoundParams) -> float:
    """Simpler, weaker form of the hybrid bound (no-look-ahead tabletop form)."""
    p = params.p_max
    alpha_g = params.c_m * params.ep_window(lookahead) / params.beta_g
    head = p * (2.0 - params.coverage(lookahead)) / (params.c_o + params.c_m / params.capacity)
    return head * (1.0 + 2.0 * (p - params.c_o) / p / (1.0 + alpha_g))


def rho_decomposition(params: BoundParams) -> float:
    """Worst-case cost inflation of solving provisioning before supply."""
    return params.capacity * params.p_max / (params.capacity * params.c_o + params.c_m)
