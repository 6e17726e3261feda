"""Randomized verification suites.

Every nontrivial solver in the package is checked against an independent
oracle (exhaustive enumeration or a dense grid), the closed-form ratio
bounds are checked empirically over random instances, and the online
algorithms are audited for causality by replaying truncated inputs. The
suites return (ok, detail) pairs; run_verification collects them.
"""

from __future__ import annotations

import numpy as np

from .analysis import gcsr_family_measurement
from .model import (
    ConditioningModel,
    CoolingModel,
    CoolingRegime,
    GeneratorModel,
    Instance,
    ServerModel,
    dispatch,
    evaluate,
    supply_cost,
)
from .offline import (
    GapWalk,
    brute_force_cp,
    brute_force_dcm,
    brute_force_ep,
    cp_cost,
    cp_offline_slices,
    dcm_dijkstra,
    ep_cost,
    positive_increases,
    solve_cp_offline,
    solve_dcm_offline,
    solve_ep_offline,
)
from .online import (
    BoundParams,
    OngridParams,
    chase,
    dcmon,
    gcsr,
    gcsr_slices,
    ratio_bound_ep,
    ratio_bound_hybrid,
    ratio_bound_ongrid,
)

TOL = 1e-9


# ---------------------------------------------------------------------------
# random problem generators


def _random_server(rng) -> tuple[float, float]:
    c_idle = float(rng.uniform(0.05, 0.25))
    return c_idle, c_idle + float(rng.uniform(0.0, 0.25))


def _random_overheads(rng, c_peak: float, m: int):
    """Random convex cooling/conditioning models (possibly absent)."""
    b_max = c_peak * m + 1.0
    kind = rng.choice(["none", "quadratic", "cubic"])
    if kind == "none":
        cooling = CoolingModel()
    else:
        n_coef = 3 if kind == "quadratic" else 1
        if rng.random() < 0.5:
            regimes = (CoolingRegime("all", 0, 0, tuple(rng.uniform(0.0, 0.15, n_coef))),)
        else:
            regimes = (
                CoolingRegime("day", 8, 20, tuple(rng.uniform(0.0, 0.15, n_coef))),
                CoolingRegime("night", 20, 8, tuple(rng.uniform(0.0, 0.15, n_coef))),
            )
        cooling = CoolingModel(kind=str(kind), regimes=regimes, b_max=b_max)
    if rng.random() < 0.5:
        conditioning = ConditioningModel()
    else:
        q, l, c = rng.uniform(0.0, 0.08, 3)
        conditioning = ConditioningModel(
            kind="quadratic", quad=float(q), lin=float(l), const=float(c), b_max=b_max
        )
    return cooling, conditioning


def _random_generator(rng, p_max: float, count: int) -> GeneratorModel:
    """Generator economical under the realized maximum price."""
    cap = float(rng.uniform(0.2, 1.5))
    u1 = float(rng.uniform(0.15, 0.55))
    u2 = float(rng.uniform(0.1, 0.3))
    return GeneratorModel(
        capacity=cap,
        c_o=u1 * p_max,
        c_m=u2 * cap * p_max,
        beta_g=float(rng.uniform(0.05, 1.0)),
        count=count,
    )


def random_tiny_instance(rng) -> Instance:
    """Oracle tier: small enough for exhaustive enumeration."""
    t_end = int(rng.integers(3, 7))
    m = int(rng.integers(1, 4))
    n = int(rng.integers(0, 3))
    workload = np.where(rng.random(t_end) < 0.3, 0.0, rng.uniform(0.0, m, t_end))
    workload[rng.integers(0, t_end)] = m - float(rng.uniform(0.0, 0.5))  # hit the peak tier
    price = rng.uniform(0.05, 0.4, t_end)
    c_idle, c_peak = _random_server(rng)
    cooling, conditioning = _random_overheads(rng, c_peak, m)
    return Instance(
        workload=workload,
        price=price,
        server=ServerModel(c_idle, c_peak, beta_s=float(rng.uniform(0.05, 0.6))),
        generator=_random_generator(rng, float(price.max()), n),
        cooling=cooling,
        conditioning=conditioning,
    )


def _block_series(rng, t_end: int, levels, lo: int, hi: int) -> np.ndarray:
    """Piecewise-constant series from random levels and block lengths."""
    out = np.empty(t_end)
    pos = 0
    while pos < t_end:
        ln = int(rng.integers(lo, hi + 1))
        out[pos : pos + ln] = levels[rng.integers(0, len(levels))]
        pos += ln
    return out


def random_bound_instance(rng, generators: int | None = None) -> Instance:
    """Bound tier: gapped workload ending busy, block prices, economical
    generators, and a break-even idle window in testable range."""
    t_end = int(rng.integers(16, 41))
    m = int(rng.integers(1, 5))
    n = int(rng.integers(0, 3)) if generators is None else generators

    workload = np.zeros(t_end)
    pos = 0
    while pos < t_end:
        busy = int(rng.integers(1, 5))
        workload[pos : pos + busy] = rng.uniform(0.2, m, min(busy, t_end - pos))
        pos += busy + int(rng.integers(1, 9))
    workload[-1] = m - float(rng.uniform(0.0, 0.8))  # end on a busy-everywhere slot

    levels = rng.uniform(0.05, 0.4, int(rng.integers(2, 5)))
    price = _block_series(rng, t_end, levels, 3, 8)

    c_idle, c_peak = _random_server(rng)
    cooling, conditioning = _random_overheads(rng, c_peak, m)
    probe = Instance(
        workload=workload,
        price=price,
        server=ServerModel(c_idle, c_peak, beta_s=1.0),
        generator=GeneratorModel(1.0, 0.1, 0.1, 1.0, 0),
        cooling=cooling,
        conditioning=conditioning,
    )
    beta_s = float(rng.uniform(0.5, 10.0)) * probe.min_marginal_demand() * float(price.min())
    return Instance(
        workload=workload,
        price=price,
        server=ServerModel(c_idle, c_peak, beta_s=beta_s),
        generator=_random_generator(rng, float(price.max()), n),
        cooling=cooling,
        conditioning=conditioning,
    )


def random_ep_problem(rng):
    """Standalone supply problem: (generator, energy, price) series."""
    t_end = int(rng.integers(3, 7))
    count = int(rng.integers(1, 3))
    cap = float(rng.uniform(0.5, 2.0))
    price = rng.uniform(0.05, 0.4, t_end)
    gen = GeneratorModel(
        capacity=cap,
        c_o=float(rng.uniform(0.02, 0.2)),
        c_m=float(rng.uniform(0.01, 0.3)),
        beta_g=float(rng.uniform(0.05, 1.2)),
        count=count,
    )
    energy = rng.uniform(0.0, 1.3 * count * cap, t_end)
    return gen, energy, price


# ---------------------------------------------------------------------------
# suites


def verify_dispatch(samples: int = 1000) -> tuple[bool, str]:
    """Per-slot dispatch beats a dense grid over on-site output and its cost
    matches the closed-form supply cost."""
    rng = np.random.default_rng(10)
    grid = np.linspace(0.0, 1.0, 1001)
    for k in range(samples):
        count = int(rng.integers(0, 4))
        gen = GeneratorModel(
            capacity=float(rng.uniform(0.2, 2.0)),
            c_o=float(rng.uniform(0.0, 0.3)),
            c_m=float(rng.uniform(0.0, 0.4)),
            beta_g=1.0,
            count=count,
        )
        y = int(rng.integers(0, count + 1))
        p = float(rng.uniform(0.0, 0.5))
        d = float(rng.uniform(0.0, 1.5 * gen.capacity * max(y, 1)))
        u, v = dispatch(gen, y, p, d)
        cap = gen.capacity * y
        if u < -TOL or v < -TOL or u > cap + TOL or abs(u + v - d) > TOL:
            return False, f"sample {k}: infeasible dispatch u={u} v={v} d={d} cap={cap}"
        cost = gen.c_m * y + gen.c_o * u + p * v
        psi = supply_cost(gen, y, p, d)
        if abs(cost - psi) > TOL:
            return False, f"sample {k}: dispatch cost {cost} != psi {psi}"
        u_grid = grid * cap
        grid_cost = gen.c_m * y + gen.c_o * u_grid + p * np.clip(d - u_grid, 0.0, None)
        if psi > float(grid_cost.min()) + TOL:
            return False, f"sample {k}: psi {psi} above grid minimum {grid_cost.min()}"
    return True, f"{samples} dispatch tuples vs 1001-point grid"


def verify_offline_oracle(samples: int = 200) -> tuple[bool, str]:
    """Joint DP equals exhaustive enumeration; Dijkstra spot-checked."""
    rng = np.random.default_rng(11)
    for k in range(samples):
        inst = random_tiny_instance(rng)
        dp = evaluate(inst, solve_dcm_offline(inst)).total
        bf = evaluate(inst, brute_force_dcm(inst)).total
        if abs(dp - bf) > TOL:
            return False, f"instance {k}: dp {dp!r} != brute force {bf!r}"
        if k % 20 == 0:
            dij = evaluate(inst, dcm_dijkstra(inst)).total
            if abs(dij - bf) > TOL:
                return False, f"instance {k}: dijkstra {dij!r} != brute force {bf!r}"
    return True, f"{samples} joint instances, dp == brute force"


def verify_decomposition_oracle(samples: int = 200) -> tuple[bool, str]:
    """Slice-wise provisioning and supply optima equal their brute forces."""
    rng = np.random.default_rng(12)
    for k in range(samples):
        inst = random_tiny_instance(rng)
        xbar = solve_cp_offline(inst)
        got = cp_cost(inst, xbar)
        _, want = brute_force_cp(inst)
        if abs(got - want) > TOL:
            return False, f"cp instance {k}: slices {got!r} != brute force {want!r}"
    for k in range(samples):
        gen, energy, price = random_ep_problem(rng)
        ybar = solve_ep_offline(gen, energy, price)
        got = ep_cost(gen, energy, price, ybar)
        _, want = brute_force_ep(gen, energy, price)
        if abs(got - want) > TOL:
            return False, f"ep problem {k}: slices {got!r} != brute force {want!r}"
    return True, f"{samples} cp + {samples} ep problems, slice optima == brute force"


def verify_gcsr_bounds(samples: int = 500) -> tuple[bool, str]:
    """Break-even online provisioning stays under its ratio bound, matches
    the offline rule exactly once the window covers the break-even span, and
    the adversarial family drives the bound nearly tight."""
    rng = np.random.default_rng(13)
    lookaheads = (0, 1, 2, 4, 8)
    saturated = 0
    for k in range(samples):
        inst = random_bound_instance(rng, generators=0)
        xbar = solve_cp_offline(inst)
        off = cp_cost(inst, xbar)
        params = OngridParams.from_instance(inst)
        span = params.breakeven_idle_window
        walk = GapWalk(inst)  # every window's run reads it; xbar stays independent
        for w in lookaheads:
            xon = gcsr(inst, w, walk=walk)
            on = cp_cost(inst, xon)
            bound = ratio_bound_ongrid(w, params)
            if on > bound * off + TOL:
                return False, f"instance {k} w={w}: ratio {on / off} above bound {bound}"
            if w >= span:
                saturated += 1
                if not np.array_equal(xon, xbar):
                    return False, f"instance {k} w={w}: saturated window but x != offline"
    if saturated == 0:
        return False, "suite never exercised the saturated-window case"
    for w in (0, 10, 50):
        meas = gcsr_family_measurement(w)
        if meas["fraction"] < 0.95:
            return False, (
                f"adversarial family w={w}: ratio {meas['ratio']} is "
                f"{meas['fraction']:.3f} of bound {meas['bound']}, need >= 0.95"
            )
    meas = gcsr_family_measurement(100)
    if abs(meas["ratio"] - 1.0) > TOL:
        return False, f"adversarial family w=100: expected exact match, ratio {meas['ratio']!r}"
    return True, (
        f"{samples} instances x {len(lookaheads)} windows under bound, "
        f"{saturated} saturated cases exact, adversarial family >= 95% of bound"
    )


def verify_ep_hybrid_bounds(samples: int = 500) -> tuple[bool, str]:
    """Supply-side online rule and the combined pipeline stay under their
    closed-form ratio bounds; the zero-window provisioning bound is 2."""
    rng = np.random.default_rng(14)
    lookaheads = (0, 1, 2, 4, 8)
    for k in range(samples):
        inst = random_bound_instance(rng, generators=int(rng.integers(1, 3)))
        params = BoundParams.from_instance(inst)
        gen = inst.generator
        energy = inst.demand(solve_cp_offline(inst))
        ybar = solve_ep_offline(gen, energy, inst.price)
        ep_off = ep_cost(gen, energy, inst.price, ybar)
        joint = evaluate(inst, solve_dcm_offline(inst)).total
        walk = GapWalk(inst)
        for w in lookaheads:
            y_on = chase(gen, energy, inst.price, w)
            ep_on = ep_cost(gen, energy, inst.price, y_on)
            bound = ratio_bound_ep(w, params)
            if ep_on > bound * ep_off + TOL:
                return False, (
                    f"instance {k} w={w}: chase ratio {ep_on / ep_off} above bound {bound}"
                )
            total = evaluate(inst, dcmon(inst, w, walk=walk)).total
            hybrid = ratio_bound_hybrid(w, params)
            if total > hybrid * joint + TOL:
                return False, (
                    f"instance {k} w={w}: pipeline ratio {total / joint} above bound {hybrid}"
                )
        if abs(ratio_bound_ongrid(0, params) - 2.0) > TOL:
            return False, f"instance {k}: zero-window provisioning bound != 2"
    return True, f"{samples} instances x {len(lookaheads)} windows under both bounds"


def verify_slice_structure(samples: int = 200) -> tuple[bool, str]:
    """Per-slice structure: the online rule turns on exactly as often as the
    offline rule, never provisions below it, and slices stay nested. The
    online slices are gcsr_slices' replay, which must sum to gcsr's series."""
    rng = np.random.default_rng(15)
    lookaheads = (0, 2, 8)
    for k in range(samples):
        inst = random_bound_instance(rng, generators=0)
        off_slices = cp_offline_slices(inst)
        for i in range(len(off_slices) - 1):
            if np.any(off_slices[i + 1] > off_slices[i]):
                return False, f"instance {k}: offline slices not nested at {i + 1}"
        for w in lookaheads:
            on_slices = gcsr_slices(inst, w)
            if not np.array_equal(on_slices.sum(axis=0), gcsr(inst, w)):
                return False, f"instance {k} w={w}: slices do not sum to gcsr's series"
            for i in range(len(on_slices)):
                ons = positive_increases(on_slices[i])
                offs = positive_increases(off_slices[i])
                if ons != offs:
                    return False, (
                        f"instance {k} w={w} slice {i + 1}: {ons} turn-ons online "
                        f"vs {offs} offline"
                    )
                if np.any(on_slices[i] < off_slices[i]):
                    return False, f"instance {k} w={w} slice {i + 1}: online below offline"
                if i and np.any(on_slices[i] > on_slices[i - 1]):
                    return False, f"instance {k} w={w}: online slices not nested at {i + 1}"
    return True, f"{samples} instances x {len(lookaheads)} windows, slice structure holds"


def verify_causality(samples: int = 50) -> tuple[bool, str]:
    """Decisions at slot t depend only on inputs up to t+w: truncating the
    instance there and re-running reproduces them bit-exactly."""
    rng = np.random.default_rng(16)
    lookaheads = (0, 1, 3)
    checks = 0
    for k in range(samples):
        inst = random_bound_instance(rng)
        t_end = inst.horizon
        params = OngridParams.from_instance(inst)  # a-priori values, fixed across replays
        for w in lookaheads:
            x_full = gcsr(inst, w)
            full = dcmon(inst, w, params)
            for t in sorted({1, t_end // 2, t_end}):
                cut = inst.truncated(min(t_end, t + w))
                x_cut = gcsr(cut, w)
                if not np.array_equal(x_cut[:t], x_full[:t]):
                    return False, f"instance {k} w={w} t={t}: provisioning not causal"
                part = dcmon(cut, w, params)
                if not (
                    np.array_equal(part.x[:t], full.x[:t])
                    and np.array_equal(part.y[:t], full.y[:t])
                ):
                    return False, f"instance {k} w={w} t={t}: pipeline not causal"
                checks += 1
    return True, f"{checks} truncation replays, all bit-exact"


# ---------------------------------------------------------------------------
# orchestration

# suite name -> (suite, its sample count at level "quick")
_SUITES = {
    "dispatch": (verify_dispatch, 100),
    "offline-oracle": (verify_offline_oracle, 25),
    "decomposition-oracle": (verify_decomposition_oracle, 25),
    "gcsr-bounds": (verify_gcsr_bounds, 40),
    "ep-hybrid-bounds": (verify_ep_hybrid_bounds, 30),
    "slice-structure": (verify_slice_structure, 25),
    "causality": (verify_causality, 8),
}


def run_verification(level: str = "quick") -> list[tuple[str, bool, str]]:
    """Run every suite; level "quick" shrinks sample counts, "full" runs the
    counts the acceptance criteria use."""
    if level not in ("quick", "full"):
        raise ValueError(f"level must be 'quick' or 'full', got {level!r}")
    results = []
    for name, (suite, quick) in _SUITES.items():
        try:
            ok, detail = suite(samples=quick) if level == "quick" else suite()
        except Exception as exc:  # suite crash is a failure, not an abort
            ok, detail = False, f"crashed: {exc!r}"
        results.append((name, ok, detail))
    return results
