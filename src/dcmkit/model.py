"""Core cost model for a data center with on-site generation.

A problem instance couples a workload trace a(t) (active servers, fractional)
and an electricity price trace p(t) with four device models:

* servers: aggregate power b = c_idle*x + (c_peak - c_idle)*a for x powered-on
  servers serving workload a,
* cooling and power conditioning: overheads as convex polynomials of b,
  evaluated in normalized units b/b_max and scaled back by b_max,
* generators: N identical units of capacity L with incremental cost c_o per
  kWh, maintenance cost c_m per active slot, and startup cost beta_g.

Slots are of unit length, so power (kW) and energy (kWh) coincide and a single
demand number d_t(x) per slot captures everything downstream solvers need.
Instance.demand is its one evaluator, at any slots and fleets.

Each device model checks its own fields when built (check_scalar) and
stores each number as a float, or as an int for a whole one such as the
generator count. All dataclasses are frozen and arrays are marked
read-only: instances can be shared freely between threads and memoized
solvers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Literal, get_args

import numpy as np

from .errors import CapacityError, ConfigError, FeasibilityError

# Absolute tolerance for feasibility comparisons on continuous quantities.
FEAS_TOL = 1e-9

# Size limits, checked before any array of that size is built. The largest
# arrays are chunks of demand rows and idle-cost sums with one column per
# server (at least one row of M+1 floats) and the generator slices' savings
# rows over the whole horizon (T x N floats).
MAX_SLOTS = 1 << 20  # slots of one horizon: about 120 years of hours
MAX_SERVERS = 1 << 16  # the peak fleet M: one row of its cells is 512 KiB
MAX_SUPPLY_CELLS = 1 << 24  # slots x (generators + 1): 128 MiB of floats


def check_size(slots, servers, generators) -> None:
    """CapacityError unless a horizon of `slots` slots, a peak fleet of
    `servers` servers and `generators` generators fit the size limits."""
    if slots > MAX_SLOTS:
        raise CapacityError(f"a horizon of {slots} slots exceeds the limit of {MAX_SLOTS}")
    if servers > MAX_SERVERS:
        raise CapacityError(f"a fleet of {servers} servers exceeds the limit of {MAX_SERVERS}")
    if slots * (generators + 1) > MAX_SUPPLY_CELLS:
        raise CapacityError(
            f"{slots} slots x {generators + 1} generator states exceed the limit of "
            f"{MAX_SUPPLY_CELLS} cells"
        )


def check_scalar(name: str, value, low: float = 0.0, *, strict: bool = False,
                 whole: bool = False):
    """value as its model stores it: an int when whole, else a float.
    ConfigError naming `name` unless value is a finite number >= low (> low
    when strict): the one value rule of every model scalar, so NaN cannot
    pass a range test by failing its comparison. A whole number is an int,
    a Python or numpy one, never 2.0; bools are not numbers here."""
    try:
        stored = int(value) if whole else float(value)
        ok = math.isfinite(value) and (stored > low if strict else stored >= low)
    except (TypeError, ValueError, OverflowError):  # not a number, or an int past the float range
        ok = False
    if not ok or isinstance(value, (bool, np.bool_)) or (
            whole and not isinstance(value, (int, np.integer))):
        need = f"{'a whole' if whole else 'a finite'} number {'>' if strict else '>='} {low:g}"
        raise ConfigError(f"{name} must be {need}, got {value!r}")
    return stored


def _store_checked(model, section: str, *names: str, low: float = 0.0, **rule) -> None:
    """Check each named field of a frozen model by check_scalar under one
    rule, naming it '<section> <name>', and store the value it returns."""
    for name in names:
        value = check_scalar(f"{section} {name}", getattr(model, name), low, **rule)
        object.__setattr__(model, name, value)


def check_series(names, *series) -> tuple[np.ndarray, ...]:
    """The series as float arrays, one per name in names; ConfigError unless
    they are 1-d, of equal length, finite and nonnegative: the one check of
    every input series. Non-finite values are named before negative ones."""
    series = tuple(np.asarray(s, dtype=float) for s in series)
    joined = " and ".join(names)
    if any(s.ndim != 1 for s in series):
        raise ConfigError(f"{joined} must be 1-d series")
    if len({len(s) for s in series}) > 1:
        counts = " vs ".join(f"{len(s)} {name}" for s, name in zip(series, names))
        raise ConfigError(f"series length mismatch: {counts}")
    values = np.concatenate(series)  # NaN propagates through min and max
    low, high = np.minimum.reduce(values, initial=0.0), np.maximum.reduce(values, initial=0.0)
    if not (low >= 0.0 and high < np.inf):
        if not (np.isfinite(low) and np.isfinite(high)):
            raise ConfigError(f"{joined} must be finite")
        raise ConfigError(f"{joined} must be nonnegative")
    return series


# ---------------------------------------------------------------------------
# device models


@dataclass(frozen=True)
class ServerModel:
    """Linear server power model with switching cost.

    Attributes:
        c_idle: idle power draw per powered-on server (kW), finite, >= 0.
        c_peak: power draw of a fully utilized server (kW), finite, >= c_idle.
        beta_s: cost of turning one server on, finite, > 0.
    """

    c_idle: float
    c_peak: float
    beta_s: float

    def __post_init__(self) -> None:
        _store_checked(self, "server", "c_idle")
        _store_checked(self, "server", "c_peak", low=self.c_idle)
        _store_checked(self, "server", "beta_s", strict=True)


@dataclass(frozen=True)
class GeneratorModel:
    """A fleet of N identical on-site generators.

    Attributes:
        capacity: output cap L per active generator (kW), finite, > 0.
        c_o: incremental generation cost per kWh, finite, >= 0.
        c_m: maintenance cost per generator per active slot, finite, >= 0.
        beta_g: cost of starting one generator, finite, > 0.
        count: fleet size N, an int >= 0 (a Python or numpy int).
    """

    capacity: float
    c_o: float
    c_m: float
    beta_g: float
    count: int

    def __post_init__(self) -> None:
        _store_checked(self, "generator", "capacity", strict=True)
        _store_checked(self, "generator", "c_o", "c_m")
        _store_checked(self, "generator", "beta_g", strict=True)
        _store_checked(self, "generator", "count", whole=True)

    @property
    def breakeven_price(self) -> float:
        """Grid price above which a fully loaded generator is economical."""
        return self.c_o + self.c_m / self.capacity


def _scaled_quadratic(bh, q, l, c, scale, out=None):
    """(q * bh * bh + l * bh + c) * scale, in that operation order, with one
    buffer besides bh: the result, written to out when given. bh is
    overwritten when it is an array."""
    r = np.multiply(q, bh, out=out)
    r *= bh
    bh *= l
    r += bh
    r += c
    r *= scale
    return r


@dataclass(frozen=True)
class CoolingRegime:
    """One cooling operating regime, active on period hours [start, end).

    The interval is half-open modulo the period, so start=20, end=8 covers
    the wrap-around night hours. Coefficients apply to normalized power
    b_hat = b/b_max: quadratic kind uses (quad, lin, const), cubic uses
    (cube,). Bounds are whole numbers >= 0 and coefficients finite and >= 0,
    whatever the cooling kind; the coefficient count a kind needs and the
    bounds' range [0, period) are CoolingModel's to check.
    """

    name: str
    start: int
    end: int
    coeffs: tuple[float, ...]

    def __post_init__(self) -> None:
        _store_checked(self, f"regime {self.name!r}:", "start", "end", whole=True)
        coeffs = (check_scalar(f"regime {self.name!r}: coeffs[{k}]", c)
                  for k, c in enumerate(self.coeffs))
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def contains(self, hour, period: int):
        """Whether this regime owns hour modulo period: a bool for an int
        hour, a bool array for an int array of hours. start == end owns
        every hour, as a wrap-around interval holding all of them."""
        h = hour % period
        if self.start < self.end:
            return (self.start <= h) & (h < self.end)
        return (h >= self.start) | (h < self.end)


CoolingKind = Literal["none", "quadratic", "cubic"]


@dataclass(frozen=True)
class CoolingModel:
    """Cooling overhead as a convex polynomial of normalized server power.

    kind "none" has no overhead; "quadratic" regimes carry (quad, lin, const)
    coefficients, "cubic" regimes carry a single leading coefficient. The
    polynomial is evaluated at b/b_max and the result scaled by b_max. b_max
    is finite and > 0; period is a whole number >= 1 and regime bounds are
    hours in [0, period). The regimes tile the period, one per hour; that
    is checked at hour 0 and at the bounds, where ownership can change, so
    no cost grows with the period.
    """

    kind: CoolingKind = "none"
    regimes: tuple[CoolingRegime, ...] = ()
    b_max: float = 1.0
    period: int = 24

    def __post_init__(self) -> None:
        if self.kind not in get_args(CoolingKind):
            raise ConfigError(f"unknown cooling kind {self.kind!r}")
        _store_checked(self, "cooling", "b_max", strict=True)
        _store_checked(self, "cooling", "period", low=1, whole=True)
        if self.kind == "none":
            return
        n_coef = 3 if self.kind == "quadratic" else 1
        for reg in self.regimes:
            if not (reg.start < self.period and reg.end < self.period):
                raise ConfigError(f"regime {reg.name!r}: start {reg.start} and end {reg.end} "
                                  f"must lie in [0, {self.period})")
            if len(reg.coeffs) != n_coef:
                raise ConfigError(
                    f"regime {reg.name!r}: expected {n_coef} coefficients, got {len(reg.coeffs)}"
                )
        # every hour of the period must belong to exactly one regime. Ownership
        # changes only at regime bounds, so hour 0 and the bounds, in order,
        # meet the first hour that breaks this, with the owners it has
        for h in sorted({0, *(b for r in self.regimes for b in (r.start, r.end))}):
            owners = [r.name for r in self.regimes if r.contains(h, self.period)]
            if len(owners) != 1:
                raise ConfigError(
                    f"hour {h} covered by {len(owners)} cooling regimes ({owners}); need exactly 1"
                )

    def regime_coeffs(self) -> np.ndarray:
        """Coefficient j of regime k at [j, k]."""
        return np.array([r.coeffs for r in self.regimes], dtype=float).T

    def overhead(self, b, coeffs, out=None, scaled=None):
        """Cooling power for server power b under regime coefficients coeffs.

        coeffs holds one entry per polynomial coefficient; each entry may be
        a number or an array broadcastable against b (to b's shape when b is
        an array). out and scaled, arrays of the result's shape, receive the
        result and b/b_max; out may be b itself.
        """
        bh = np.divide(b, self.b_max, out=scaled)
        if self.kind == "quadratic":
            return _scaled_quadratic(bh, *coeffs, self.b_max, out)
        r = np.multiply(coeffs[0], bh, out=out)  # c * bh * bh * bh * b_max
        r *= bh
        r *= bh
        r *= self.b_max
        return r


ConditioningKind = Literal["none", "quadratic"]


@dataclass(frozen=True)
class ConditioningModel:
    """Power conditioning overhead, time-invariant quadratic in b/b_max, with
    finite coefficients >= 0 and a finite b_max > 0."""

    kind: ConditioningKind = "none"
    quad: float = 0.0
    lin: float = 0.0
    const: float = 0.0
    b_max: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in get_args(ConditioningKind):
            raise ConfigError(f"unknown conditioning kind {self.kind!r}")
        _store_checked(self, "conditioning", "quad", "lin", "const")
        _store_checked(self, "conditioning", "b_max", strict=True)

    def power(self, b: float | np.ndarray, out=None, scaled=None) -> float | np.ndarray:
        """Conditioning power for server power b; out and scaled, arrays of
        b's shape, receive the result and b/b_max."""
        if self.kind == "none":
            if out is None:
                return np.zeros_like(b) if isinstance(b, np.ndarray) else 0.0
            out.fill(0.0)
            return out
        scaled = np.divide(b, self.b_max, out=scaled)
        return _scaled_quadratic(scaled, self.quad, self.lin, self.const, self.b_max, out)


# ---------------------------------------------------------------------------
# instance


def _frozen_array(values) -> np.ndarray:
    arr = np.asarray(values, dtype=float).copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Instance:
    """A complete scheduling problem over a finite horizon.

    workload and price pass check_series and hold at least one slot. They
    are 1-based conceptually: series index k holds slot t = k+1. The accessor methods (a, p, min_servers, demand, demand_table)
    take int slot numbers and reject bools, fractions and slots outside
    1..T with ValueError; demand is the one evaluator of d_t(x). The solvers
    read whole blocks by slicing the 0-based arrays directly, slots t..end
    at [t-1:end].
    max_servers, the largest fleet any slot requires (max_t ceil(a(t))), is
    computed once at construction. Construction rejects magnitudes that
    overflow, so no solver runs on inf demands or costs: the full fleet's
    grid bill, p(t)*d_t(M) summed over the horizon, and the static plan,
    that bill plus beta_s*M + (beta_g + c_m*T)*N with capacity L*N. It
    rejects sizes past the limits of check_size too (CapacityError).
    """

    workload: np.ndarray
    price: np.ndarray
    server: ServerModel
    generator: GeneratorModel
    cooling: CoolingModel = CoolingModel()
    conditioning: ConditioningModel = ConditioningModel()
    label: str = ""
    max_servers: int = field(init=False, repr=False, compare=False)
    # cooling coefficients of each slot's regime, shape (coefficients, horizon)
    _slot_coeffs: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        series = check_series(("workload", "price"), self.workload, self.price)
        object.__setattr__(self, "workload", _frozen_array(series[0]))
        object.__setattr__(self, "price", _frozen_array(series[1]))
        if self.horizon == 0:
            raise ConfigError("horizon must have at least one slot")
        check_size(self.horizon, math.ceil(self.workload.max()), self.generator.count)
        if self.generator.count >= 1 and self.generator.breakeven_price >= self.p_max:
            raise ConfigError(
                "uneconomical generators: need c_o + c_m/capacity < max price "
                f"({self.generator.breakeven_price:.6g} >= {self.p_max:.6g})"
            )
        self._derive()
        # demand is nondecreasing in x and prices are nonnegative, so the
        # full fleet's grid bill bounds every demand, idle-cost sum and bill;
        # the static plan, all M servers and N generators on, adds the
        # solvers' start-up offsets and maintenance
        gen = self.generator
        with np.errstate(over="ignore", invalid="ignore"):
            full = np.full(self.horizon, float(self.max_servers))
            bill = float(np.dot(self.price, self.demand(full)))
            plan = (bill + self.server.beta_s * self.max_servers
                    + (gen.beta_g + gen.c_m * self.horizon) * gen.count)
        if not math.isfinite(bill):
            raise ConfigError(f"the full fleet's grid bill, p(t)*d_t(M) summed over the horizon, "
                              f"is {bill}: the model's magnitudes overflow")
        if not (math.isfinite(plan) and math.isfinite(gen.capacity * gen.count)):
            raise ConfigError(f"the static plan's cost, the grid bill + beta_s*M + (beta_g + c_m*T)*N, "
                              f"is {plan} with capacity L*N = {gen.capacity * gen.count}: "
                              "the model's magnitudes overflow")

    def _derive(self) -> None:
        """Set the fields computed from the validated series."""
        object.__setattr__(self, "max_servers", int(np.ceil(self.workload).max()))
        cool, coeffs = self.cooling, None
        if cool.kind != "none":  # each slot takes the coefficients of the regime owning its hour
            hours, owner = np.arange(self.horizon), np.zeros(self.horizon, dtype=np.intp)
            for k, reg in enumerate(cool.regimes):
                # every hour is below T, so % min(period, T) is % period; an int
                # array cannot take % period itself once it passes 2**63 - 1
                owner[reg.contains(hours, min(cool.period, self.horizon))] = k
            coeffs = cool.regime_coeffs()[:, owner]
        object.__setattr__(self, "_slot_coeffs", coeffs)

    # -- basic dimensions ---------------------------------------------------

    @property
    def horizon(self) -> int:
        return len(self.workload)

    @property
    def p_min(self) -> float:
        return float(self.price.min())

    @property
    def p_max(self) -> float:
        return float(self.price.max())

    # -- per-slot series access (1-based slots) -----------------------------

    def _index(self, t: int) -> int:
        """0-based index of slot t; ValueError unless t is an int (a Python or
        numpy integer, not a bool) in 1..horizon."""
        if isinstance(t, bool) or not isinstance(t, (int, np.integer)):
            raise ValueError(f"slot {t!r} is not an int")
        if not 1 <= t <= self.horizon:
            raise ValueError(f"slot {t} is outside 1..{self.horizon}")
        return t - 1

    def a(self, t: int) -> float:
        return float(self.workload[self._index(t)])

    def p(self, t: int) -> float:
        return float(self.price[self._index(t)])

    def min_servers(self, t: int) -> int:
        return int(math.ceil(self.workload[self._index(t)]))

    # -- demand -------------------------------------------------------------

    def demand(self, x, slots=None, work=(None, None, None)):
        """d_t(x) at slots t, without the x >= ceil(a(t)) gate.

        slots is a 1-based slot number or an int array of them (ValueError
        for any other dtype, bool included, and outside 1..T), and x
        broadcasts against it; None means every slot, and x is then a fleet
        series of shape (T,) (ConfigError otherwise). Every per-slot demand
        number in the package but min_marginal_demand's comes from here, so
        a value is the same float whichever path asks for it.
        work, three arrays of the result's shape, receives the result, b and
        b/b_max in place of new arrays: the same operations in the same order.
        """
        x = np.asarray(x, dtype=float)
        if slots is None:
            k = slice(None)
            if x.shape != self.workload.shape:
                raise ConfigError(f"fleet series has shape {x.shape}, expected ({self.horizon},)")
        else:
            k = np.asarray(slots)
            if k.dtype.kind not in "iu":  # no bool or fractional slot numbers
                raise ValueError(f"slot numbers must be ints, got {k.dtype}")
            # checked before the shift, which would wrap an unsigned 0 round to its dtype's top
            if k.size and not 1 <= k.min() <= k.max() <= self.horizon:  # name the first bad slot
                self._index(int(k[(k < 1) | (k > self.horizon)][0]))
            k = k - 1
        srv = self.server
        out, b, scaled = work
        # an array even for a scalar call, so the cooling overhead can be written into it
        b = np.asarray(np.add(srv.c_idle * x, (srv.c_peak - srv.c_idle) * self.workload[k], out=b))
        out = self.conditioning.power(b, out, scaled)
        out += b  # b + power(b): the same float either way round
        if self._slot_coeffs is not None:  # b is not read again, so it takes the overhead
            # take gathers an index array's columns several times faster than [:, k]
            coeffs = self._slot_coeffs
            coeffs = coeffs.take(k, axis=1) if isinstance(k, np.ndarray) else coeffs[:, k]
            out += self.cooling.overhead(b, coeffs, out=b, scaled=scaled)
        return out

    def demand_table(self, t: int, end: int | None = None, lows=None, highs=None,
                     work=(None, None, None)) -> np.ndarray:
        """Vector of d_t(x) for x = 0..max_servers (read-only).

        With end, the (end-t+1) x (max_servers+1) grid for slots t..end from
        one evaluation; row s-t is the same floats as demand_table(s). With
        lows and highs too, one per slot, only the cells lows[s-t]..highs[s-t]
        of each row, flat, with one slot and one x per cell: the grid's floats,
        as the demand model acts element by element. work, three arrays of
        the result's shape, holds the result and the temporaries of demand,
        which each mode calls once, so the call allocates no array of that shape.
        """
        x = np.arange(self.max_servers + 1, dtype=float)
        if end is None:
            out = self.demand(x, self._index(t) + 1, work)  # t=None would mean every slot
        elif self._index(t) > self._index(end):
            raise ValueError(f"need t <= end, got t={t}, end={end}")
        elif lows is None:
            out = self.demand(x, np.arange(t, end + 1)[:, None], work)
        else:
            lows, highs = np.asarray(lows), np.asarray(highs)
            width = highs - lows + 1
            if not (lows.shape == highs.shape == (end - t + 1,) and lows.min() >= 0
                    and width.min() >= 0 and highs.max() <= self.max_servers):
                raise ValueError(f"need 0 <= lows <= highs + 1 <= {self.max_servers + 1}, one per slot")
            # cell j of slot s is x = lows[s-t] + j - (cells before slot s)
            x = np.repeat(lows - np.cumsum(width) + width, width).astype(float)
            x += np.arange(len(x))
            out = self.demand(x, np.repeat(np.arange(t, end + 1), width), work)
        out = out if work[0] is None else out.view()  # the caller's buffer stays writable
        out.setflags(write=False)
        return out

    def min_marginal_demand(self) -> float:
        """Model-wide lower bound on any demand increment.

        Computed at the zero-workload reference (b from 0 to c_idle), where
        convexity makes the first increment smallest, minimized over cooling
        regimes. Known a priori from the declared model family, so online
        algorithms may use it without seeing the trace.
        """
        srv = self.server
        b0, b1 = 0.0, srv.c_idle
        base = b1 - b0 + float(self.conditioning.power(b1) - self.conditioning.power(b0))
        cool = self.cooling
        if cool.kind == "none":
            return base
        coeffs = cool.regime_coeffs()  # each regime of a tiling owns an hour: the minimum over hours
        deltas = cool.overhead(b1, coeffs) - cool.overhead(b0, coeffs)
        return base + float(deltas.min())

    def truncated(self, length: int) -> "Instance":
        """Prefix instance over slots 1..length (used by causality audits).

        Construction-time validation is inherited from the parent rather
        than re-run: a prefix can lower the realized price peak below the
        generator break-even point, which would wrongly reject a replay
        view of a perfectly valid instance.
        """
        if not 1 <= length <= self.horizon:
            raise ValueError(f"length must be in [1, {self.horizon}], got {length}")
        clone = object.__new__(Instance)
        object.__setattr__(clone, "workload", self.workload[:length])
        object.__setattr__(clone, "price", self.price[:length])
        for name in ("server", "generator", "cooling", "conditioning", "label"):
            object.__setattr__(clone, name, getattr(self, name))
        clone._derive()
        return clone

    def with_generator_count(self, count: int) -> "Instance":
        """This instance with count generators, checked as at construction;
        it shares every other input and derived field, so one GapWalk serves both."""
        clone = replace(self, generator=replace(self.generator, count=count))
        for name in ("workload", "price", "_slot_coeffs"):
            object.__setattr__(clone, name, getattr(self, name))
        return clone


# ---------------------------------------------------------------------------
# operating-point math


def _supply_inputs(gen: GeneratorModel, y, p, d) -> tuple[np.ndarray, ...]:
    """Validated fleet, price and demand arrays for split_cost and merit_split."""
    y = np.asarray(y)
    d = np.asarray(d, dtype=float)
    bad_y = (y < 0) | (y > gen.count)
    if bad_y.any():
        raise FeasibilityError(f"y={y[bad_y].flat[0]} outside generator fleet [0, {gen.count}]")
    bad_d = d < -FEAS_TOL
    if bad_d.any():
        raise FeasibilityError(f"demand must be nonnegative, got {d[bad_d].flat[0]}")
    return y, np.asarray(p, dtype=float), np.maximum(d, 0.0)


def _unwrap(values: np.ndarray):
    """A plain float for scalar inputs, the array otherwise."""
    return float(values) if values.ndim == 0 else values


def merit_split(gen: GeneratorModel, y, p, d):
    """On-site share u of demand d under the merit order: the grid alone
    when p <= c_o, else the y active generators up to their capacity L*y.
    The grid takes v = d - u. Checked inputs (_supply_inputs); broadcasts."""
    return np.where(p <= gen.c_o, 0.0, np.minimum(gen.capacity * y, d))


def split_cost(gen: GeneratorModel, y, p, d):
    """c_m*y + c_o*u + p*(d - u) for the merit_split u of checked inputs."""
    u = merit_split(gen, y, p, d)
    return gen.c_m * y + gen.c_o * u + p * (d - u)


def supply_cost(gen: GeneratorModel, y, p, d):
    """Cheapest energy cost for demand d with y active generators at price p:
    the price of the merit_split, maintenance of the y units included.
    y, p and d broadcast against each other; scalar inputs give a float.
    """
    return _unwrap(split_cost(gen, *_supply_inputs(gen, y, p, d)))


def dispatch(gen: GeneratorModel, y, p, d):
    """(on-site u, grid v) of the merit_split, which attains supply_cost.

    Broadcasts like supply_cost.
    """
    y, p, d = _supply_inputs(gen, y, p, d)
    u = merit_split(gen, y, p, d)
    return _unwrap(u), _unwrap(d - u)


# ---------------------------------------------------------------------------
# schedules and cost accounting


@dataclass(frozen=True)
class Schedule:
    """A complete decision sequence: fleets x, y and dispatch u, v per slot."""

    x: np.ndarray
    y: np.ndarray
    u: np.ndarray
    v: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", _frozen_array(self.x))
        object.__setattr__(self, "y", _frozen_array(self.y))
        object.__setattr__(self, "u", _frozen_array(self.u))
        object.__setattr__(self, "v", _frozen_array(self.v))
        lengths = {len(self.x), len(self.y), len(self.u), len(self.v)}
        if len(lengths) != 1:
            raise ConfigError(f"schedule series lengths differ: {sorted(lengths)}")

    @property
    def horizon(self) -> int:
        return len(self.x)


def dispatched_schedule(instance: Instance, x, y) -> Schedule:
    """Complete integer decisions (x, y) with the cost-optimal dispatch."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    fleet = np.round(x)
    demand = instance.demand(fleet)
    short = fleet < np.ceil(instance.workload)
    if short.any():
        t = int(short.argmax()) + 1
        raise FeasibilityError(
            f"slot {t}: x={int(fleet[t - 1])} below required fleet {instance.min_servers(t)}"
        )
    u, v = dispatch(instance.generator, np.round(y), instance.price, demand)
    return Schedule(x=x, y=y, u=u, v=v)


def staged_schedule(instance: Instance, x, supply) -> Schedule:
    """Complete a provisioning series x with the commitment series that the
    supply rule supply(generator, energy, price) chooses on the energy
    demand x induces, then the cost-optimal dispatch."""
    y = supply(instance.generator, instance.demand(x), instance.price)
    return dispatched_schedule(instance, x, y)


@dataclass(frozen=True)
class CostBreakdown:
    """Total cost split into its five components."""

    grid_energy: float
    onsite_energy: float
    maintenance: float
    server_switching: float
    generator_startup: float

    @property
    def total(self) -> float:
        return (
            self.grid_energy
            + self.onsite_energy
            + self.maintenance
            + self.server_switching
            + self.generator_startup
        )

    def as_dict(self) -> dict[str, float]:
        return {
            "grid_energy": self.grid_energy,
            "onsite_energy": self.onsite_energy,
            "maintenance": self.maintenance,
            "server_switching": self.server_switching,
            "generator_startup": self.generator_startup,
            "total": self.total,
        }


def positive_increases(series) -> float:
    """Sum of positive one-step increases, counting the all-off start state."""
    arr = np.asarray(series, dtype=float)
    return float(np.diff(np.concatenate(([0.0], arr))).clip(min=0.0).sum())


def check_schedule(instance: Instance, sched: Schedule) -> None:
    """Raise FeasibilityError naming the first violated constraint and slot.

    Within a slot the checks run in the order fleet, generators, dispatch
    sign, on-site capacity, demand cover.
    """
    if sched.horizon != instance.horizon:
        raise FeasibilityError(
            f"schedule horizon {sched.horizon} != instance horizon {instance.horizon}"
        )
    gen = instance.generator
    x, y, u, v = sched.x, sched.y, sched.u, sched.v
    demand = instance.demand(x)
    checks = (
        (x != np.trunc(x)) | (x < np.ceil(instance.workload)),
        (y != np.trunc(y)) | (y < 0) | (y > gen.count),
        (u < -FEAS_TOL) | (v < -FEAS_TOL),
        u > gen.capacity * y + FEAS_TOL,
        v < demand - u - FEAS_TOL,  # dispatch writes v = d - u, which u + v may round below d
    )
    bad = np.logical_or.reduce(checks)
    if not bad.any():
        return
    k = int(bad.argmax())
    t = k + 1
    x, y, u, v, d = x[k], y[k], u[k], v[k], demand[k]
    if checks[0][k]:
        raise FeasibilityError(
            f"slot {t}: x={x} must be an integer >= ceil(a)={instance.min_servers(t)}"
        )
    if checks[1][k]:
        raise FeasibilityError(f"slot {t}: y={y} must be an integer in [0, {gen.count}]")
    if checks[2][k]:
        raise FeasibilityError(f"slot {t}: negative dispatch u={u}, v={v}")
    if checks[3][k]:
        raise FeasibilityError(
            f"slot {t}: on-site supply u={u} exceeds active capacity {gen.capacity * y}"
        )
    raise FeasibilityError(f"slot {t}: supply u+v={u + v} below demand {d}")


def evaluate(instance: Instance, sched: Schedule) -> CostBreakdown:
    """Exact cost of a feasible schedule; boundary state is all-off.

    ConfigError names the first cost, total included, that is not finite:
    the model's magnitudes overflowed, so no report can state it.
    """
    check_schedule(instance, sched)
    with np.errstate(over="ignore"):  # an overflowed sum is named below
        grid = float(np.dot(sched.v, instance.price))
        onsite = float(instance.generator.c_o * sched.u.sum())
        maintenance = float(instance.generator.c_m * sched.y.sum())
        switching = instance.server.beta_s * positive_increases(sched.x)
        startup = instance.generator.beta_g * positive_increases(sched.y)
    costs = CostBreakdown(grid, onsite, maintenance, switching, startup)
    for name, value in costs.as_dict().items():
        if not math.isfinite(value):
            raise ConfigError(f"{name} cost is {value}: the model's magnitudes overflow")
    return costs
