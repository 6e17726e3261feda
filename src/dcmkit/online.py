"""Look-ahead online algorithms and their competitive-ratio bounds.

Every online stage reads its inputs only through a RevealedWindow, slots
1..end of the horizon. Before the decision for slot t the driver reveals up
to t + w; a fleet's decide_next decides its next slot from window.end, and
every read passes the window's one check, which raises LookaheadViolation
outside [1, end]. A causality violation is thus a structural error rather
than a silent bug.

Provisioning (GCSR, GcsrFleet): each unit server slice idles through a
workload gap until the idle cost since the gap began, plus what the window
shows is still coming, reaches the restart cost beta_s; then it turns off.
It tests the offline slice rule's predicate on the same floats, so online
and offline agree at exact ties.

Supply (CHASE, ChaseFleet): each unit generator slice tracks R, its
cumulative savings of running versus buying from the grid, clamped to
[-beta_g, 0]. It is on at slot t iff the first extreme R touches at or after
t is the top, the offline slice rule, once that extreme is in the window;
until then it holds.

The combined pipeline (DCMON) runs GCSR under the master window t + w and
CHASE under a second window t + ep_window(w) over GCSR's energy series,
which grows as GCSR decides the slots that window reveals.

A-priori values and bounds: besides the revealed window, the pipeline and
every ratio bound read only declared values. OngridParams holds beta_s,
P_min and d_min, and alone derives the break-even span
Delta_s = beta_s/(P_min*d_min), alpha_s = w/Delta_s (coverage) and DCMON's
supply window w - Delta_s in whole slots (ep_window); BoundParams adds the
generator economics and P_max. A truncated replay passes its parent's params.
"""

from __future__ import annotations

import math
import numbers
from collections import deque
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError, LookaheadViolation
from .model import GeneratorModel, Instance, Schedule, dispatched_schedule
from .offline import idle_cost_block, reaches_breakeven, regret_steps, supply_series

# ---------------------------------------------------------------------------
# the revealed window


def _whole_slots(lookahead) -> int:
    """lookahead as an int; ConfigError unless it is a whole slot count >= 0."""
    if not (isinstance(lookahead, numbers.Real) and lookahead >= 0
            and float(lookahead).is_integer()):
        raise ConfigError(f"lookahead must be a nonnegative integer, got {lookahead!r}")
    return int(lookahead)


class RevealedWindow:
    """Slots 1..end of a horizon: all an online fleet may read.

    The driver calls reveal before each decision; read and check raise
    LookaheadViolation for any slot outside [1, end]. A read sees the series
    object itself, so a list that grows as decisions are made can be read as
    it grows.
    """

    def __init__(self, horizon: int) -> None:
        self.horizon = horizon
        self.end = 0

    def reveal(self, end: int) -> None:
        """Reveal slots up to end, clipped to the horizon."""
        self.end = min(end, self.horizon)

    def check(self, first: int, last: int | None = None) -> None:
        """Raise LookaheadViolation unless slots first and last (if given) are revealed."""
        for t in (first,) if last is None else (first, last):
            if not 1 <= t <= self.end:
                raise LookaheadViolation(f"slot {t} is outside the revealed window [1, {self.end}]")

    def read(self, series, first: int, last: int | None = None):
        """series at slot first, or its slots first..last, once checked."""
        self.check(first, last)
        return series[first - 1] if last is None else series[first - 1 : last]


# ---------------------------------------------------------------------------
# provisioning: GCSR


class GcsrFleet:
    """All unit server slices of one GCSR run, decided slot by slot.

    Slice i (0-based) is busy in slot t iff a(t) > i. Its state is two
    entries of length-M arrays: the previous on/off decision and the anchor
    base_i = P_i(g-1), the running idle-cost sum at the last busy slot (see
    idle_prefix). An idle, powered slice turns off at slot t once
    reaches_breakeven(P_i(j), base_i, beta_s) holds for some revealed j >= t
    with no busy slot in t..j; the offline rule evaluates the same predicate
    on the same floats.

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
    (window x M) block. Per-slice decisions are stored only when asked for.

    The fleet evaluates demand rows d_s(0..M) and the running idle-cost sums
    P_i(s) = P_i(s-1) + p(s) * (d_s(i+1) - d_s(i)), P_i(0) = 0, lazily: one
    offline.idle_cost_block call per block of BLOCK_SLOTS slots (or more,
    when a read reaches further), whose P rows continue the previous block's
    last row, so the offline slice rule reads the same floats. Each block
    evaluation drops the rows before the slot being decided, so the fleet
    holds O((BLOCK_SLOTS + w) * M) floats. Deciding slot t appends
    d_t(x_t), read from the held demand row, to energy.
    """

    def __init__(self, instance: Instance, window: RevealedWindow, record_slices: bool = False):
        self.instance = instance
        self.window = window
        self.n_slices = m = instance.max_servers
        self.beta_s = instance.server.beta_s
        self._slices = np.arange(m)
        self._on = np.zeros(m, dtype=bool)
        self._base = np.zeros(m)  # P(g-1) of each slice's current gap
        # demand rows d_s(0..M) and idle-cost sums P(s) for held slots s = _first.._last
        self._first, self._last = 1, 0
        self._grid = np.empty((0, m + 1))
        self._prefix = np.empty((0, m))
        self.next_slot = 1
        self.series: list[int] = []
        self.energy: list[float] = []  # energy[t-1] = d_t(series[t-1])
        self.slice_series: list[np.ndarray] | None = [] if record_slices else None

    def idle_prefix(self, first: int, last: int) -> np.ndarray:
        """Rows P(s) for slots s = first..last, shape (last-first+1, M), read-only."""
        self.window.check(first, last)
        if first < self._first:
            raise ValueError(f"slot {first} was dropped; the fleet holds slots from {self._first}")
        if last > self._last:
            carried = self._prefix[-1] if len(self._prefix) else np.zeros(self.n_slices)
            grid, prefix = idle_cost_block(self.instance, self._last + 1, last, carried)
            drop = min(first - self._first, len(self._grid))
            self._grid = np.concatenate((self._grid[drop:], grid))
            self._prefix = np.concatenate((self._prefix[drop:], prefix[1:]))
            self._first += drop
            self._last += len(grid)
        rows = self._prefix[first - self._first : last + 1 - self._first]
        rows.flags.writeable = False
        return rows

    def decide_next(self) -> int:
        """Decide slot self.next_slot from the slots up to window.end."""
        t, end = self.next_slot, self.window.end
        load = np.maximum.accumulate(self.window.read(self.instance.workload, t, end))
        rows = self.idle_prefix(t, end)  # P(t..end)
        run = np.searchsorted(load, self._slices, side="right")  # idle run length from t
        busy = run == 0  # busy slices read row -1 below; their verdict is discarded
        turn_off = reaches_breakeven(rows[run - 1, self._slices], self._base, self.beta_s)
        self._on = busy | (self._on & ~turn_off)
        self._base = np.where(busy, rows[0], self._base)
        if self.slice_series is not None:
            self.slice_series.append(self._on)
        total = int(np.count_nonzero(self._on))
        self.series.append(total)
        self.energy.append(float(self._grid[t - self._first, total]))
        self.next_slot += 1
        return total


def gcsr(instance: Instance, lookahead: int, return_slices: bool = False):
    """Run GCSR over the whole horizon; returns the provisioning series.

    The rule treats the horizon end as unknown even when the window reaches
    it: a powered slice in its trailing gap holds unless the gap's idle cost
    reaches beta_s, where the offline rule turns off for free. At w >= T it
    differs from solve_cp_offline only in trailing gaps.
    """
    lookahead = _whole_slots(lookahead)
    window = RevealedWindow(instance.horizon)
    fleet = GcsrFleet(instance, window, record_slices=return_slices)
    for t in range(1, instance.horizon + 1):
        window.reveal(t + lookahead)
        fleet.decide_next()
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
    """All unit generator slices of one CHASE run on an energy and a price series.

    Each revealed slot advances every slice's savings process R_i one
    clamped step, with the floats of offline.clamped_regret, and queues the
    slots where R_i touches an extreme (0: on, -beta_g: off). The window
    never shrinks, so every queued slot is in view. A decision at t takes
    the kind of each queue's head, the first extreme at or after t, holds on
    an empty queue, and pops the head at its slot: O(N) work whatever the
    window. Past R_i's last extreme (the "end" segment of
    critical_segments) the slice holds where the offline rule, knowing the
    horizon ends, turns off. The series are read only through the window;
    energy may be a list that grows as the provisioning stage decides.
    """

    def __init__(self, gen: GeneratorModel, energy, price, window: RevealedWindow,
                 record_slices: bool = False):
        self.gen = gen
        self.energy = energy
        self.price = price
        self.window = window
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
        read = self.window.read
        energy = np.clip(read(self.energy, tau) - self._offsets, 0.0, self.gen.capacity)
        gains = regret_steps(self.gen, energy, read(self.price, tau)).tolist()
        bottom = -self.gen.beta_g
        for i, gain in enumerate(gains):
            r = self._regret[i] = min(0.0, max(bottom, self._regret[i] + gain))
            if r == 0.0 or r == bottom:
                self._extremes[i].append((tau, int(r == 0.0)))
        self._revealed = tau

    def decide_next(self) -> int:
        """Decide slot self.next_slot from the slots up to window.end."""
        t = self.next_slot
        self.window.check(t)
        while self._revealed < self.window.end:
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
    window = RevealedWindow(t_end)
    fleet = ChaseFleet(gen, energy, price, window, record_slices=return_slices)
    for t in range(1, t_end + 1):
        window.reveal(t + lookahead)
        fleet.decide_next()
    y = np.array(fleet.series, dtype=float)
    if return_slices:
        return y, np.array(fleet.slice_series, dtype=float).reshape(t_end, gen.count).T
    return y


# ---------------------------------------------------------------------------
# combined pipeline: DCMON


def dcmon(instance: Instance, lookahead: int, params: OngridParams | None = None) -> Schedule:
    """Run the full online pipeline and return a complete schedule.

    GCSR decides provisioning up to params.ep_window(lookahead) slots ahead
    of the output slot under the master window (its break-even scans see
    no further than t + w, which changes nothing once the surplus exists),
    its energy series feeds CHASE through the supply window, and the
    dispatch rule completes each slot from the decided (x, y).

    params holds the declared a-priori values (default: read off the
    instance); a replay of a truncated view passes its parent's.
    """
    lookahead = _whole_slots(lookahead)
    if params is None:
        params = OngridParams.from_instance(instance)
    w_ep = params.ep_window(lookahead)
    t_end = instance.horizon
    window, supply_window = RevealedWindow(t_end), RevealedWindow(t_end)
    fleet = GcsrFleet(instance, window)
    supply = ChaseFleet(instance.generator, fleet.energy, instance.price, supply_window)
    for t in range(1, t_end + 1):
        window.reveal(t + lookahead)
        supply_window.reveal(t + w_ep)
        while fleet.next_slot <= supply_window.end:
            fleet.decide_next()
        supply.decide_next()
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
