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
and offline agree at exact ties. Because idle cost only grows, the verdict
hangs on one slot per gap, the first where the cost reaches beta_s; the
fleet tests each slot once as the window reveals it and arms the turn-off
for the first decision that sees that slot, so a decision's work does not
grow with the window.

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
    """All unit server slices of one GCSR run, as events on revealed slots.

    Slice i (0-based) is busy in slot s iff a(s) > i, so with
    c(s) = ceil(a(s)) the busy slices are 0..c(s)-1. A gap of slice i is a
    maximal run of idle slots g..h after a busy slot g-1; its anchor is
    base_i = P_i(g-1), the running idle-cost sum at that busy slot (see
    idle_prefix). The rule: an idle, powered slice turns off at decision t
    once reaches_breakeven(P_i(j), base_i, beta_s) holds for some revealed
    j >= t with no busy slot in t..j; the offline rule evaluates the same
    predicate on the same floats. Slices in their leading gap were never
    on and stay off.

    The verdict depends only on j*, the first slot of the gap where the
    predicate holds. P_i is nondecreasing (prices are nonnegative and d_s(x)
    is a nondecreasing float function of x, built from monotone float
    operations on nonnegative terms), and float subtraction and comparison
    are monotone, so at decision t in the gap the rule turns off iff the
    predicate holds at min(h, end_t), end_t being the window end; that is
    iff end_t >= j*. The window end never falls, so the slice turns off at
    max(g, t*), where t* is the first decision whose window reveals j*, and
    stays off to the end of the gap. That holds for any window that never
    shrinks: gcsr's t + w and DCMON's master window alike.

    So the fleet steps once per revealed slot e, reading a(e) and P(e)
    through the window. Gaps that open at e (slices c(e)..c(e-1)-1) take
    base = P(e-1) and start g = e and are pending; gaps that close at e
    are no longer pending. The pending slices are tested on P(e). Each hit
    (e = j*) stops pending and arms one turn-off at slot max(g, next_slot),
    which lies in the gap (g <= e and next_slot <= e) and is never a slot
    already decided. A decision applies the turn-offs armed for its slot,
    turns slices 0..c(t)-1 on and counts. Each revealed slot thus costs a
    few numpy operations over the slices, whatever the window. Per-slice
    decisions are stored only when asked for.

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
        self._on = np.zeros(m, dtype=bool)
        self._base = np.zeros(m)  # P(g-1) of each slice's latest gap
        self._start = np.zeros(m, dtype=int)  # g of each slice's latest gap
        self._pending = np.zeros(m, dtype=bool)  # idle in a gap, break-even not yet revealed
        self._armed: dict[int, list[np.ndarray]] = {}  # slot -> slices that turn off there
        # the last revealed slot, c(s) of the revealed slots not yet decided,
        # and c and P of the last revealed slot
        self._revealed = 0
        self._busy: deque[int] = deque()
        self._busy_last = 0
        self._row_last = np.zeros(m)
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
            drop = min(self.next_slot - self._first, len(self._grid))
            self._grid = np.concatenate((self._grid[drop:], grid))
            self._prefix = np.concatenate((self._prefix[drop:], prefix[1:]))
            self._first += drop
            self._last += len(grid)
        rows = self._prefix[first - self._first : last + 1 - self._first]
        rows.flags.writeable = False
        return rows

    def _reveal(self) -> None:
        """Step the gaps over the next revealed slot e and arm the turn-offs it certifies."""
        e = self._revealed + 1
        c = math.ceil(self.window.read(self.instance.workload, e))
        row = self.idle_prefix(e, e)[0]
        was = self._busy_last
        if c < was:  # gaps open at e
            self._base[c:was] = self._row_last[c:was]
            self._start[c:was] = e
            self._pending[c:was] = True
        elif c > was:  # gaps close at e
            self._pending[was:c] = False
        due = self._pending[c:] & reaches_breakeven(row[c:], self._base[c:], self.beta_s)
        hits = due.nonzero()[0]
        if len(hits):
            hits += c
            self._pending[hits] = False
            slots = np.maximum(self._start[hits], self.next_slot)
            # one turn-off list per run of equal slots (gap starts fall along hits)
            cuts = [0, *((slots[1:] != slots[:-1]).nonzero()[0] + 1).tolist(), len(hits)]
            for lo, hi in zip(cuts, cuts[1:]):
                self._armed.setdefault(int(slots[lo]), []).append(hits[lo:hi])
        self._busy.append(c)
        self._busy_last, self._row_last, self._revealed = c, row, e

    def decide_next(self) -> int:
        """Decide slot self.next_slot from the slots up to window.end."""
        t = self.next_slot
        self.window.check(t)
        while self._revealed < self.window.end:
            self._reveal()
        for slices in self._armed.pop(t, ()):
            self._on[slices] = False
        self._on[: self._busy.popleft()] = True
        if self.slice_series is not None:
            self.slice_series.append(self._on.copy())
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
        energy = np.maximum(read(self.energy, tau) - self._offsets, 0.0)  # capped in regret_steps
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
