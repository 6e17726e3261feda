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
t is the top, the offline slice rule, once that extreme lies within
decision t's own window end; until then it holds. The fleet decides in
blocks: the driver reveals the ends of BLOCK_SLOTS decisions, and one step
of offline.regret_rows and offline.next_extremes, the offline rule's kernel,
decides them all. The window gives each decision its end (s + w in chase,
s + ep_window(w) in dcmon) and checks every extreme a decision used against
it, so a block is as causal as a slot. CHASE holds O((BLOCK_SLOTS + w) * N)
floats.

The combined pipeline (DCMON) runs GCSR under the master window t + w and
CHASE under a second window s + ep_window(w) over GCSR's energy series,
which grows as GCSR decides the slots that window reveals; CHASE decides
each block of output slots once GCSR has decided through its last end.

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

from . import offline
from .errors import ConfigError, LookaheadViolation
from .model import GeneratorModel, Instance, Schedule, dispatched_schedule
from .offline import idle_cost_block, next_extremes, reaches_breakeven, regret_rows, supply_series

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

    A fleet that decides a block of slots at once (ChaseFleet) also needs
    each decision's own window: decision s may read slots up to its end,
    min(s + lookahead, horizon). ends gives the ends of the decisions a
    fleet may make, and check_each raises LookaheadViolation for any slot a
    decision used past its own end.
    """

    def __init__(self, horizon: int, lookahead: int = 0) -> None:
        self.horizon = horizon
        self.lookahead = lookahead
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

    def ends(self, first: int) -> np.ndarray:
        """Window ends of decisions first, first+1, ... through the last whose
        end is revealed; LookaheadViolation unless decision first's is."""
        self.check(min(first + self.lookahead, self.horizon))
        last = self.horizon if self.end == self.horizon else self.end - self.lookahead
        return self._ends(first, last)

    def check_each(self, first: int, slots: np.ndarray) -> None:
        """Raise LookaheadViolation unless every slot in row k of slots lies
        in the window of decision first + k."""
        ends = self._ends(first, first + len(slots) - 1)
        late = slots > ends[:, None]
        if late.any():
            k, i = np.argwhere(late)[0]
            raise LookaheadViolation(f"slot {slots[k, i]} is outside the window "
                                     f"[1, {ends[k]}] of decision {first + k}")

    def _ends(self, first: int, last: int) -> np.ndarray:
        """Window ends of decisions first..last, within the revealed slots."""
        return np.minimum(np.arange(first, last + 1) + self.lookahead, self.end)


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
    offline.idle_cost_block call per block of BLOCK_SLOTS slots, whose P
    rows continue the previous block's last row, so the offline slice rule
    reads the same floats. The fleet keeps the blocks as evaluated and drops
    a block whole once the slot being decided has passed it, so no held row
    is copied. Rows are read one slot at a time, in slot order, so each
    block holds BLOCK_SLOTS slots, and at decision t the held ones run from
    the block of slot t - 1 through at most slot t + w + BLOCK_SLOTS - 1:
    at most 2 * BLOCK_SLOTS + w rows of each array, O((BLOCK_SLOTS + w) * M)
    floats. Deciding slot t appends d_t(x_t), read from the held demand row,
    to energy.
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
        # the held blocks, each its first slot, demand rows d_s(0..M) and
        # idle-cost sums P(s); the newest ends at slot _last
        self._last = 0
        self._blocks: deque[tuple[int, np.ndarray, np.ndarray]] = deque()
        self.next_slot = 1
        self.series: list[int] = []
        self.energy: list[float] = []  # energy[t-1] = d_t(series[t-1])
        self.slice_series: list[np.ndarray] | None = [] if record_slices else None

    def idle_prefix(self, s: int) -> np.ndarray:
        """Row P(s), shape (M,), read-only, for s in the newest held block or
        past it: the fleet reads each row once, in slot order."""
        self.window.check(s)
        if s > self._last:
            carried = self._blocks[-1][2][-1] if self._blocks else np.zeros(self.n_slices)
            grid, prefix = idle_cost_block(self.instance, self._last + 1, s, carried)
            prefix = prefix[1:]
            prefix.flags.writeable = False
            self._blocks.append((self._last + 1, grid, prefix))
            self._last += len(grid)
        start, _, prefix = self._blocks[-1]
        if s < start:
            raise ValueError(f"row {s} precedes the newest held block, which starts at {start}")
        return prefix[s - start]

    def _reveal(self) -> None:
        """Step the gaps over the next revealed slot e and arm the turn-offs it certifies."""
        e = self._revealed + 1
        c = math.ceil(self.window.read(self.instance.workload, e))
        row = self.idle_prefix(e)
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
        while t >= self._blocks[0][0] + len(self._blocks[0][1]):  # drop the blocks before t
            self._blocks.popleft()
        start, grid, _ = self._blocks[0]
        self.energy.append(float(grid[t - start, total]))
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

    Slice i tracks R_i, its clamped savings of running versus buying from
    the grid. It is on at slot t iff the first extreme R_i touches at or
    after t is the top (0; the bottom, -beta_g, turns it off), once that
    extreme lies within decision t's own window end, min(t + lookahead,
    horizon) (RevealedWindow.ends); until then it holds. Past R_i's last
    extreme, where no extreme follows, the slice holds where the offline
    rule, knowing the horizon ends, turns off.

    decide_next decides a block of slots at once: every slot from next_slot
    whose own end is revealed. It reads the new energy and price rows
    through the window, steps every slice over them in one
    offline.regret_rows call and finds each row's next extreme with
    offline.next_extremes, the offline rule's kernel. A decision whose next
    extreme lies past its own end holds: a running maximum of the decided
    rows fills each slice forward from the last decided row, or from the
    previous block's last decision. Every gathered extreme passes
    window.check_each against its own decision's end. The fleet holds the
    savings rows from next_slot - 1 on, O((BLOCK_SLOTS + w) * N) floats
    when the driver reveals blocks of offline.BLOCK_SLOTS decisions. energy
    may be a list that grows as the provisioning stage decides.
    """

    def __init__(self, gen: GeneratorModel, energy, price, window: RevealedWindow):
        self.gen = gen
        self.energy = energy
        self.price = price
        self.window = window
        self._regret = np.full((1, gen.count), -gen.beta_g)  # R of slots next_slot-1..
        self._on = np.zeros(gen.count, dtype=bool)  # the last decided slot
        self.next_slot = 1
        self.series: list[int] = []

    def decide_next(self) -> None:
        """Decide slots self.next_slot.. through the last whose own window end is revealed."""
        t, window = self.next_slot, self.window
        ends = window.ends(t)
        revealed = t + len(self._regret) - 2
        if ends[-1] > revealed:
            new = regret_rows(self.gen, window.read(self.energy, revealed + 1, ends[-1]),
                              window.read(self.price, revealed + 1, ends[-1]), self._regret[-1])
            self._regret = np.concatenate((self._regret, new))
        k = len(ends)
        row, top = next_extremes(self._regret[1:], -self.gen.beta_g)
        slot = row[:k] + t  # each decision's next extreme, past the rows read if none
        decided = slot <= ends[:, None]
        window.check_each(t, np.where(decided, slot, 0))
        # the decided row to copy, 0 for the previous block's last decision
        source = np.where(decided, np.arange(1, k + 1)[:, None], 0)
        np.maximum.accumulate(source, axis=0, out=source)
        on = np.concatenate((self._on[None], top[:k]))[source, np.arange(len(self._on))]
        self._on = on[-1]
        self._regret = self._regret[k:]
        self.series.extend(on.sum(axis=1).tolist())
        self.next_slot += k


def chase(gen: GeneratorModel, energy, price, lookahead: int) -> np.ndarray:
    """Run CHASE on an energy-demand series; returns the commitment series.

    Decision t's window ends at t + lookahead. The driver reveals the ends
    of offline.BLOCK_SLOTS decisions at a time and the fleet decides them
    in one step (see ChaseFleet). Slices are independent: slice i is this
    run with count=1 on max(e - i*L, 0). The rule treats the series end as
    unknown even when the window reaches it, so at w >= T its slices differ
    from ep_offline_slices only past each slice's last extreme, where they
    hold.
    """
    lookahead = _whole_slots(lookahead)
    energy, price = supply_series(energy, price)
    t_end = len(energy)
    window = RevealedWindow(t_end, lookahead)
    fleet = ChaseFleet(gen, energy, price, window)
    while fleet.next_slot <= t_end:
        window.reveal(fleet.next_slot + offline.BLOCK_SLOTS - 1 + lookahead)
        fleet.decide_next()
    return np.array(fleet.series, dtype=float)


# ---------------------------------------------------------------------------
# combined pipeline: DCMON


def dcmon(instance: Instance, lookahead: int, params: OngridParams | None = None) -> Schedule:
    """Run the full online pipeline and return a complete schedule.

    For each output slot t, GCSR decides provisioning through
    t + params.ep_window(lookahead) under the master window t + w (its
    break-even scans see no further than t + w, which changes nothing once
    the surplus exists). Its energy series feeds CHASE, whose decision s
    reads the supply window up to s + ep_window: once GCSR has decided
    through the end of a block of offline.BLOCK_SLOTS output slots, CHASE
    decides the block in one step. The dispatch rule completes each slot
    from the decided (x, y). Once the supply window reaches the horizon,
    GCSR has decided every slot and CHASE decides the rest at once.

    params holds the declared a-priori values (default: read off the
    instance); a replay of a truncated view passes its parent's.
    """
    lookahead = _whole_slots(lookahead)
    if params is None:
        params = OngridParams.from_instance(instance)
    w_ep = params.ep_window(lookahead)
    t_end = instance.horizon
    window, supply_window = RevealedWindow(t_end), RevealedWindow(t_end, w_ep)
    fleet = GcsrFleet(instance, window)
    supply = ChaseFleet(instance.generator, fleet.energy, instance.price, supply_window)
    while supply.next_slot <= t_end:
        for t in range(supply.next_slot, min(supply.next_slot + offline.BLOCK_SLOTS, t_end + 1)):
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
        if self.breakeven_idle_window == 0.0:
            raise ConfigError(f"break-even span beta_s/(d_min*p_min) is 0.0 (beta_s={self.beta_s}, "
                              f"d_min={self.d_min}, p_min={self.p_min})")

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
