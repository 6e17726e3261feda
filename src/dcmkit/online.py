"""Look-ahead online algorithms and their competitive-ratio bounds.

Every online stage reads its inputs only through a RevealedWindow, slots
1..end of the horizon. Before the decision for slot t the driver reveals up
to t + w; a fleet's decide_next decides every slot whose own window end is
revealed, and every read passes the window's one check, which raises
LookaheadViolation outside [1, end]. A causality violation is thus a
structural error rather than a silent bug.

Provisioning (GCSR, GcsrFleet): each unit server slice idles through a
workload gap until the idle cost since the gap began, plus what the window
shows is still coming, reaches the restart cost beta_s; then it turns off.
It tests the offline slice rule's predicate on the same floats, so online
and offline agree at exact ties. The running idle-cost sum P is
nondecreasing, so the predicate is monotone along a gap: it fails up to the
gap's break-even slot j* and holds from there on. j* can thus be found by a
binary search over the gap's P rows, and the slice turns off at max(g, t*),
g the gap's first slot and t* the first decision whose window reveals j*.
The fleet is the offline rule's walk (offline.GapWalk) stepped in blocks
like CHASE: each step decides the gaps the newly revealed P rows show, and
the fleet searches the ones that reached break-even for j*, so its work is
O(rows * M + gaps * log BLOCK_SLOTS), whatever the window. The gaps the
offline rule keeps, the closed gaps with no j*, do not depend on the
window: the walk records them, so one GCSR run also yields
solve_cp_offline's series (gcsr's return_offline).

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

One driver (_drive) steps every fleet: it reveals the window ends of the
next offline.BLOCK_SLOTS decisions and lets the fleet decide them. The
combined pipeline (DCMON) is the composition of the two stages: a GCSR run
whose decisions lag ep_window(w) slots behind the master window, then CHASE
with window ep_window(w) on the energy series of the decided fleet.

A-priori values and bounds: besides the revealed window, the pipeline and
every ratio bound read only declared values. OngridParams holds beta_s,
P_min and d_min, and alone derives the break-even span
Delta_s = beta_s/(P_min*d_min), alpha_s = w/Delta_s (coverage) and DCMON's
supply window w - Delta_s in whole slots (ep_window); BoundParams adds the
generator economics and P_max. A truncated replay passes its parent's params.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import offline
from .errors import ConfigError, LookaheadViolation
from .model import GeneratorModel, Instance, Schedule, check_scalar, staged_schedule
from .offline import GapWalk, next_extremes, reaches_breakeven, regret_rows, supply_series

# ---------------------------------------------------------------------------
# the revealed window


def _whole_slots(lookahead) -> int:
    """lookahead as an int; ConfigError unless it is a whole slot count >= 0."""
    check_scalar("lookahead", lookahead, whole=True)
    return int(lookahead)


class RevealedWindow:
    """Slots 1..end of a horizon: all an online fleet may read.

    The driver calls reveal before each decision; read and check raise
    LookaheadViolation for any slot outside [1, end].

    A fleet that decides a block of slots at once (ChaseFleet, GcsrFleet)
    also needs each decision's own window. Decision s is made when the
    driver stands at slot max(1, s - lag) and may read slots up to its end,
    min(max(1, s - lag) + lookahead, horizon); lag is 0 except for DCMON's
    provisioning stage, which decides ahead of its output slot. ends gives
    the ends of the decisions a fleet may make, and check_each raises
    LookaheadViolation for any slot a decision used past its own end.

    lookahead and lag are held clamped to the horizon, so window ends stay
    within int64 whatever the window. That changes no end: each is
    min(., end) with end <= horizon, and a driver slot is at least 1.
    """

    def __init__(self, horizon: int, lookahead: int = 0, lag: int = 0) -> None:
        self.horizon = horizon
        self.lookahead = min(lookahead, horizon)
        self.lag = min(lag, horizon)
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
        self.check(min(max(1, first - self.lag) + self.lookahead, self.horizon))
        last = self.horizon if self.end == self.horizon else self.end - self.lookahead + self.lag
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
        driver = np.maximum(np.arange(first, last + 1) - self.lag, 1)
        return np.minimum(driver + self.lookahead, self.end)


def _drive(fleet, window: RevealedWindow, keep: bool = False) -> list:
    """Step fleet over the whole horizon: reveal the window ends of the next
    offline.BLOCK_SLOTS decisions, then let the fleet decide every slot
    whose end is revealed. With keep, returns the decide_next results."""
    kept = []
    while fleet.next_slot <= window.horizon:
        window.reveal(max(1, fleet.next_slot + offline.BLOCK_SLOTS - 1 - window.lag)
                      + window.lookahead)
        step = fleet.decide_next()
        if keep:
            kept += step
    return kept


# ---------------------------------------------------------------------------
# provisioning: GCSR


def _breakeven_rows(prefix: np.ndarray, slices, base, first, last, beta_s: float) -> np.ndarray:
    """For each gap k, the first row r in first[k]..last[k] where
    reaches_breakeven(prefix[r, slices[k]], base[k], beta_s) holds, given
    that it holds at last[k] and that P is nondecreasing down the rows.

    A binary search on all gaps at once: ceil(log2(rows)) gathers of one
    row per gap, rows the longest gap's count of candidate rows.
    """
    lo, hi = first.copy(), last.copy()
    for _ in range(int((hi - lo).max()).bit_length()):
        mid = (lo + hi) // 2
        hit = reaches_breakeven(prefix[mid, slices], base, beta_s)
        np.copyto(hi, mid, where=hit)
        np.copyto(lo, mid + 1, where=~hit)
    return hi


class GcsrFleet(GapWalk):
    """All unit server slices of one GCSR run, decided gap by gap in blocks.

    Slice i (0-based) is busy in slot s iff a(s) > i, so with
    c(s) = ceil(a(s)) the busy slices are 0..c(s)-1. A gap of slice i is a
    maximal run of idle slots g..h after a busy slot g-1; its anchor is
    base_i = P_i(g-1), P_i the running idle-cost sum
    (offline.idle_cost_block). The rule: an idle, powered slice turns off at
    decision t once reaches_breakeven(P_i(j), base_i, beta_s) holds for some
    j >= t in the gap within decision t's window; the offline rule evaluates
    the same predicate on the same floats. Slices in their leading gap were
    never on and stay off.

    P_i is nondecreasing (prices are nonnegative and d_s(x) is a
    nondecreasing float function of x, built from monotone float operations
    on nonnegative terms), and float subtraction and comparison are
    monotone, so along a gap the predicate is false up to some slot j*, the
    gap's break-even slot, and true from there on. j* can thus be found by
    binary search over the gap's P rows, and at decision t in the gap the
    rule turns off iff t's window end reaches j*. Window ends never fall, so
    the slice turns off at max(g, t*), t* the first decision whose end is
    >= j*, and stays off to the end of the gap; a gap with no j* stays on.
    That holds for any window that never shrinks: gcsr's s + w and DCMON's
    master window alike.

    decide_next decides a block of slots at once: every slot from next_slot
    whose own window end is revealed (RevealedWindow.ends). It first steps
    the walk (offline.GapWalk) over the newly revealed slots, in blocks of
    at most offline.BLOCK_SLOTS, with a(s) read through the window. A gap
    whose P reaches beta_s by its last row in the block has its j* found by
    _breakeven_rows, O(gaps * log BLOCK_SLOTS) work, and every j* passes
    window.check_each against the end of the decision t* it is charged to.
    Since t* <= j*, such a gap resolves in its block, and the walk carries
    only the others still open, so no P row outlives its block.

    Each resolved gap adds a kept interval, g through its turn-off or its
    close, to a difference array over the slots. Every event at or before
    a decided slot is known when it is decided, so decision t's fleet is
    c(t) plus the kept intervals covering t. decide_next returns the kept
    intervals it resolved, for painting slices; the fleet holds
    O(BLOCK_SLOTS * M + T) numbers. Once every slot is revealed the walk's
    offline_series is solve_cp_offline's series, whatever the window.
    """

    def __init__(self, instance: Instance, window: RevealedWindow):
        super().__init__(instance)
        self.window = window
        # +1 at a kept interval's first slot, -1 past its last
        self._diff = np.zeros(instance.horizon + 1, dtype=int)
        self._held = 0  # kept intervals covering the last decided slot
        self.next_slot = 1
        self.series: list[int] = []

    def _step(self, stop: int, t: int, ends: np.ndarray):
        """Step the walk over the revealed slots after the last stepped one
        through stop, for decisions t.. with window ends ends; returns the
        (slices, first, last) kept intervals of the gaps it resolved."""
        start = self.stepped + 1
        # the read checks slots start..stop, the P rows the walk evaluates
        prefix, slices, g, base, last, reached, _ = self.step(
            self.window.read(self.instance.workload, start, stop), stop)
        until = start + last  # one past the kept interval: a close, or stop + 1 while open
        hit = np.flatnonzero(reached)
        if len(hit):
            rows = _breakeven_rows(prefix, slices[hit], base[hit],
                                   np.maximum(g[hit] - start + 1, 1), last[hit],
                                   self.instance.server.beta_s)
            j_star = start - 1 + rows
            decision = np.searchsorted(ends, j_star)  # t* - t
            latest = np.zeros((len(ends), 1), dtype=int)
            np.maximum.at(latest[:, 0], decision, j_star)
            self.window.check_each(t, latest)
            until[hit] = np.maximum(g[hit], t + decision)
        np.add.at(self._diff, g[g >= start] - 1, 1)
        done = until <= stop
        np.add.at(self._diff, until[done] - 1, -1)
        return slices[done], g[done], until[done] - 1

    def decide_next(self) -> list:
        """Decide slots self.next_slot.. through the last whose own window end
        is revealed; returns the kept intervals resolved on the way, one
        (slices, first, last) triple per block of revealed slots."""
        t = self.next_slot
        ends = self.window.ends(t)
        kept = []
        while self.stepped < ends[-1]:
            kept.append(self._step(min(self.stepped + offline.BLOCK_SLOTS, ends[-1]), t, ends))
        k = len(ends)
        held = self._held + np.cumsum(self._diff[t - 1 : t - 1 + k])
        self._held = int(held[-1])
        fleet = self.need[t : t + k] + held
        self.series.extend(fleet.tolist())
        self.next_slot += k
        return kept


def gcsr(instance: Instance, lookahead: int, return_slices: bool = False,
         return_offline: bool = False):
    """Run GCSR over the whole horizon; returns the provisioning series, then
    with return_slices the (max_servers, horizon) on/off matrix of its
    slices, and with return_offline solve_cp_offline's series, read off the
    same walk (offline.GapWalk.offline_series).

    Decision t's window ends at t + lookahead. The driver reveals the ends
    of offline.BLOCK_SLOTS decisions at a time and the fleet decides them
    in one step (see GcsrFleet). The rule treats the horizon end as unknown
    even when the window reaches it: a powered slice in its trailing gap
    holds unless the gap's idle cost reaches beta_s, where the offline rule
    turns off for free. At w >= T it differs from solve_cp_offline only in
    trailing gaps.
    """
    t_end = instance.horizon
    window = RevealedWindow(t_end, _whole_slots(lookahead))
    fleet = GcsrFleet(instance, window)
    kept = _drive(fleet, window, keep=return_slices)
    out = [np.array(fleet.series, dtype=float)]
    if return_slices:
        slices, first, _ = fleet.open_gaps  # gaps still open at the end stay on through it
        gaps = [np.concatenate(parts)
                for parts in zip(*kept, (slices, first, np.full(len(slices), t_end)))]
        out.append(offline._paint(fleet.need[1:], instance.max_servers, gaps))
    if return_offline:
        out.append(fleet.offline_series())
    return out[0] if len(out) == 1 else tuple(out)


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
    when the driver reveals blocks of offline.BLOCK_SLOTS decisions.
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
    window = RevealedWindow(len(energy), lookahead)
    fleet = ChaseFleet(gen, energy, price, window)
    _drive(fleet, window)
    return np.array(fleet.series, dtype=float)


# ---------------------------------------------------------------------------
# combined pipeline: DCMON


def dcmon(instance: Instance, lookahead: int, params: OngridParams | None = None) -> Schedule:
    """Run the full online pipeline and return a complete schedule.

    A GCSR run decides slot s under the master window of output slot
    max(1, s - w_ep), w_ep = params.ep_window(lookahead), so its window ends
    at max(1, s - w_ep) + w. CHASE then runs with window w_ep on the energy
    series of that fleet, and the dispatch rule completes each slot
    (model.staged_schedule). Causal: CHASE decision s reads energy up to slot
    s + w_ep, whose fleet was decided on inputs up to max(1, s) + w; so no
    decision for slot s depends on an input past s + w.

    params holds the declared a-priori values (default: read off the
    instance); a replay of a truncated view passes its parent's.
    """
    lookahead = _whole_slots(lookahead)
    if params is None:
        params = OngridParams.from_instance(instance)
    w_ep = params.ep_window(lookahead)
    window = RevealedWindow(instance.horizon, lookahead, lag=w_ep)
    fleet = GcsrFleet(instance, window)
    _drive(fleet, window)
    return staged_schedule(instance, fleet.series, functools.partial(chase, lookahead=w_ep))


# ---------------------------------------------------------------------------
# competitive-ratio bounds


@dataclass(frozen=True, kw_only=True)
class OngridParams:
    """Declared a-priori values of the provisioning stage: restart cost
    beta_s, price floor p_min, and d_min, the floor on any demand increment
    (Instance.min_marginal_demand). Each is finite; beta_s > 0, the others
    >= 0."""

    beta_s: float
    p_min: float
    d_min: float

    def __post_init__(self) -> None:
        check_scalar("beta_s", self.beta_s, strict=True)
        check_scalar("p_min", self.p_min)
        check_scalar("d_min", self.d_min)
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
    the on-grid values plus generator economics, checked by the
    GeneratorModel they describe, and the price peak, finite and >= p_min."""

    beta_g: float
    c_o: float
    c_m: float
    capacity: float
    p_max: float

    def __post_init__(self) -> None:
        super().__post_init__()
        check_scalar("p_max", self.p_max, self.p_min)
        unit = GeneratorModel(self.capacity, self.c_o, self.c_m, self.beta_g, count=1)
        # the hybrid bound and rho divide by the break-even price
        if not 0.0 < unit.breakeven_price < self.p_max:
            raise ConfigError(
                "bounds require economical generation: 0 < c_o + c_m/capacity < p_max, "
                f"got {unit.breakeven_price:.6g} and p_max {self.p_max:.6g}"
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
