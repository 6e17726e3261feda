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
Only t* depends on the window. The offline rule's walk (offline.GapWalk)
finds j* and both verdicts of every gap, the same for every window and
generator fleet, so the fleet (GcsrFleet) reads a walk that fleets of the
same provisioning inputs may share. It steps the walk, reading a(s) through
its own window, only past where some fleet has, and takes only the walk's
records whose evidence lies within its own window end, each checked against
its own decision's end: a shared walk is as causal as a private one. The
walk costs O(rows * M + gaps * log block) work once, each fleet O(T +
reached gaps). One walk serves a compare's gcsr, dcmon and cpoff, and every
window and generator count of a sweep. The fleet keeps only its series;
gcsr_slices replays a run's (M, T) slice matrix from a walk's records,
outside the fleet's path, as offline.cp_offline_slices does for cpoff.

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
from .offline import GapWalk, next_extremes, regret_rows, supply_series

# ---------------------------------------------------------------------------
# the revealed window


class RevealedWindow:
    """Slots 1..end of a horizon: all an online fleet may read.

    The driver calls reveal before each decision; read and check raise
    LookaheadViolation for any slot outside [1, end].

    A fleet that decides a block of slots at once (ChaseFleet, GcsrFleet)
    also needs each decision's own window. Decision s is made when the
    driver stands at slot max(1, s - lag) and may read slots up to its end,
    min(max(1, s - lag) + lookahead, horizon) (decision_end, the one rule
    for it); lag is 0 except for DCMON's provisioning stage, which decides
    ahead of its output slot. ends gives the ends of the decisions a fleet
    may make, and check_each raises LookaheadViolation for any slot a
    decision used past its own end. check_each computes those ends itself
    and takes none from the fleet, so a fleet that miscounts its ends is
    still caught.

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

    def decision_end(self, s):
        """The window end of decision s, an int or an int array:
        min(max(1, s - lag) + lookahead, horizon), revealed or not."""
        return np.minimum(np.maximum(s - self.lag, 1) + self.lookahead, self.horizon)

    def ends(self, first: int) -> np.ndarray:
        """Window ends of decisions first, first+1, ... through the last whose
        end is revealed; LookaheadViolation unless decision first's is."""
        self.check(self.decision_end(first))
        # the one inverse of decision_end: the last decision whose end is revealed
        last = self.end - self.lookahead + self.lag if self.end < self.horizon else self.horizon
        return self._ends(first, min(last, self.horizon))

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
        return np.minimum(self.decision_end(np.arange(first, last + 1)), self.end)


def _drive(fleet, window: RevealedWindow) -> None:
    """Step fleet over the whole horizon: reveal the window ends of the next
    offline.BLOCK_SLOTS decisions, then let the fleet decide every slot
    whose end is revealed."""
    while fleet.next_slot <= window.horizon:
        window.reveal(window.decision_end(fleet.next_slot + offline.BLOCK_SLOTS - 1))
        fleet.decide_next()


# ---------------------------------------------------------------------------
# provisioning: GCSR


class GcsrFleet:
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
    gap's break-even slot, and true from there on. At decision t in the gap
    the rule thus turns off iff t's window end reaches j*. Window ends never
    fall, so the slice turns off at max(g, t*), t* the first decision whose
    end is >= j*, and stays off to the end of the gap; a gap with no j*
    stays on. That holds for any window that never shrinks: gcsr's s + w
    and DCMON's master window alike.

    The fleet reads a walk (offline.GapWalk) of its instance's provisioning
    inputs, its own or one that other fleets share, whatever their generator
    counts: the walk finds j* and both verdicts of every gap, and none of
    them depends on the window or the generators. decide_next
    decides every slot from next_slot whose own window end is revealed
    (RevealedWindow.ends); the last of those ends is E. It steps the walk
    to E, with a(s) read through this fleet's window, only if the walk has
    not yet reached E; the walk cuts the step into its own blocks. It then
    takes the walk's records of the reached gaps with j* <= E not taken
    before, maps each j* to its t* by a search over the ends, and passes
    every j* through window.check_each against the end of its t*. With
    opens(s) = max(c(s-1) - c(s), 0), decision t's fleet is

        x(t) = c(t) + sum over s <= t of (opens(s) - kept closes(s))
               - #{reached gaps with max(g, t*) <= t},

    every non-leading gap open since g, less the kept gaps closed and the
    reached gaps turned off by t (gap_pieces leaves out only leading gaps).

    Causal by construction: every fact a decision uses has an evidence
    slot within E. A turn-off's is j*, which the fleet takes only once
    j* <= E and which check_each ties to t*'s own end. A kept close's is
    its close slot s <= t, and c(s) is read for s <= t only. A walk
    stepped past E by another fleet thus gives this one nothing it could
    not have computed itself. The fleet holds O(T) numbers, and the walk one
    block's buffer plus O(M + T + reached gaps).
    """

    def __init__(self, instance: Instance, window: RevealedWindow, walk: GapWalk | None = None):
        if walk is not None and any(getattr(walk.instance, k) is not getattr(instance, k) for k in
                                    ("workload", "price", "server", "cooling", "conditioning")):
            raise ConfigError("a GCSR fleet reads a walk of its own instance's provisioning inputs")
        self.instance = instance
        self.window = window
        self.walk = GapWalk(instance) if walk is None else walk
        self._offs = np.zeros(instance.horizon + 1, dtype=int)  # turn-offs taken, by slot
        self._held = 0  # sum over s <= the last decided slot of opens - kept closes - offs
        self._taken = 0  # the walk's reached-gap records taken
        self.next_slot = 1
        self.series: list[int] = []

    def decide_next(self) -> None:
        """Decide slots self.next_slot.. through the last whose own window end is revealed."""
        t, walk, window = self.next_slot, self.walk, self.window
        ends = window.ends(t)
        if walk.stepped < ends[-1]:
            walk.step(window.read(self.instance.workload, walk.stepped + 1, ends[-1]), ends[-1])
        _, g, j_star = walk.breakevens(self._taken, ends[-1])
        self._taken += len(j_star)
        k = len(ends)
        if len(j_star):
            decision = np.searchsorted(ends, j_star)  # t* - t
            latest = np.zeros((k, 1), dtype=int)
            np.maximum.at(latest[:, 0], decision, j_star)
            window.check_each(t, latest)
            off = np.maximum(g, t + decision)
            np.add.at(self._offs, off, 1)
        need = walk.need[t - 1 : t + k]
        held = self._held + np.cumsum(np.maximum(need[:-1] - need[1:], 0)
                                      - walk.kept_closes[t : t + k] - self._offs[t : t + k])
        self._held = int(held[-1])
        self.series.extend((need[1:] + held).tolist())
        self.next_slot += k


def gcsr(instance: Instance, lookahead: int, *, walk: GapWalk | None = None) -> np.ndarray:
    """Run GCSR over the whole horizon; returns the provisioning series.

    walk is a GapWalk of instance's provisioning inputs (see GcsrFleet), a
    new one when None; the result is the same either way. The run steps it
    to the end, so its offline_series is then solve_cp_offline's series.
    Decision t's window ends at t + lookahead. The driver reveals the ends
    of offline.BLOCK_SLOTS decisions at a time and the fleet decides them in
    one step (see GcsrFleet). The rule treats the horizon end as unknown
    even when the window reaches it: a powered slice in its trailing gap
    holds unless the gap's idle cost reaches beta_s, where the offline rule
    turns off for free. At w >= T it differs from solve_cp_offline only in
    trailing gaps. gcsr_slices gives the run's slices.
    """
    window = RevealedWindow(instance.horizon, check_scalar("lookahead", lookahead, whole=True))
    fleet = GcsrFleet(instance, window, walk)
    _drive(fleet, window)
    return np.array(fleet.series, dtype=float)


def gcsr_slices(instance: Instance, lookahead: int) -> np.ndarray:
    """The (max_servers, horizon) on/off matrix of gcsr's unit server slices,
    whose column sums are gcsr's series.

    A replay over the whole instance, not an online run: it steps its own
    walk to the end and reads every reached gap's record (slice, g, j*) at
    once. Each such slice turns off at max(g, t*), t* the first decision
    whose window end (RevealedWindow.decision_end) reaches j*, as in GcsrFleet.
    """
    window = RevealedWindow(instance.horizon, check_scalar("lookahead", lookahead, whole=True))
    walk = GapWalk(instance).walk_to_end()
    slices, g, j_star = walk.breakevens(0, instance.horizon)
    t_star = 1 + np.searchsorted(window.decision_end(np.arange(1, instance.horizon + 1)), j_star)
    return offline._paint(walk.need[1:], instance.max_servers, (slices, np.maximum(g, t_star)))


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
    lookahead = check_scalar("lookahead", lookahead, whole=True)
    energy, price = supply_series(energy, price)
    window = RevealedWindow(len(energy), lookahead)
    fleet = ChaseFleet(gen, energy, price, window)
    _drive(fleet, window)
    return np.array(fleet.series, dtype=float)


# ---------------------------------------------------------------------------
# combined pipeline: DCMON


def dcmon(instance: Instance, lookahead: int, params: OngridParams | None = None, *,
          walk: GapWalk | None = None) -> Schedule:
    """Run the full online pipeline and return a complete schedule.

    A GCSR run decides slot s under the master window of output slot
    max(1, s - w_ep), w_ep = params.ep_window(lookahead), so its window ends
    at max(1, s - w_ep) + w. It reads walk, a GapWalk of instance's
    provisioning inputs (a new one when None; see GcsrFleet). CHASE then runs
    with window w_ep on the energy series of that fleet, and the dispatch
    rule completes each slot (model.staged_schedule). Causal: CHASE decision
    s reads energy up to slot s + w_ep, whose fleet was decided on inputs up
    to max(1, s) + w; so no decision for slot s depends on an input past
    s + w.

    params holds the declared a-priori values (default: read off the
    instance); a replay of a truncated view passes its parent's.
    """
    lookahead = check_scalar("lookahead", lookahead, whole=True)
    if params is None:
        params = OngridParams.from_instance(instance)
    w_ep = params.ep_window(lookahead)
    window = RevealedWindow(instance.horizon, lookahead, lag=w_ep)
    fleet = GcsrFleet(instance, window, walk)
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

    # the terms of the ratio bounds, each written once; with L = capacity,
    # P_max = p_max, alpha_s = coverage(w) and w_ep = ep_window(w)

    def alpha_g(self, lookahead: int) -> float:
        """alpha_g = c_m * w_ep / beta_g: the supply window in units of beta_g/c_m."""
        return self.c_m * self.ep_window(lookahead) / self.beta_g

    @property
    def margin(self) -> float:
        """L*P_max - L*c_o - c_m: a full unit's saving over the grid at the price peak."""
        return self.capacity * self.p_max - self.capacity * self.c_o - self.c_m

    @property
    def slope(self) -> float:
        """L - c_m/(P_max - c_o): the window's weight in the bounds' denominators."""
        return self.capacity - self.c_m / (self.p_max - self.c_o)

    def head(self, lookahead: int) -> float:
        """P_max(2 - alpha_s)/(c_o + c_m/L): the hybrid bounds' provisioning factor."""
        return self.p_max * ratio_bound_ongrid(lookahead, self) / (self.c_o + self.c_m / self.capacity)


def ratio_bound_ongrid(lookahead: int, params: OngridParams) -> float:
    """Worst-case GCSR / offline ratio for grid-only provisioning, 2 - alpha_s."""
    return 2.0 - params.coverage(lookahead)


def ratio_bound_ep(lookahead: int, params: BoundParams) -> float:
    """Worst-case CHASE / offline ratio for the supply subproblem,
    1 + 2*beta_g*margin / (beta_g*L*P_max + w*c_m*P_max*slope)."""
    p = params.p_max
    denom = params.beta_g * params.capacity * p + lookahead * params.c_m * p * params.slope
    return 1.0 + 2.0 * params.beta_g * params.margin / denom


def ratio_bound_hybrid(lookahead: int, params: BoundParams) -> float:
    """Worst-case pipeline / joint-offline ratio for hybrid supply: the
    paper's product head * [1 + 2*margin / (L*P_max + alpha_g*P_max*slope)]."""
    cap, p = params.capacity, params.p_max
    bracket = 1.0 + 2.0 * params.margin / (cap * p + params.alpha_g(lookahead) * p * params.slope)
    return params.head(lookahead) * bracket


def ratio_bound_hybrid_loose(lookahead: int, params: BoundParams) -> float:
    """Simpler, weaker form of the hybrid bound (no-look-ahead tabletop form)."""
    p, alpha_g = params.p_max, params.alpha_g(lookahead)
    return params.head(lookahead) * (1.0 + 2.0 * (p - params.c_o) / p / (1.0 + alpha_g))


def rho_decomposition(params: BoundParams) -> float:
    """Worst-case cost inflation of solving provisioning before supply."""
    return params.capacity * params.p_max / (params.capacity * params.c_o + params.c_m)
