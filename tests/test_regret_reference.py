"""The generator slices' savings kernel against the row loop it replaced.

The reference below is offline.regret_rows as it was written before the
per-slice Python stepping: the block's gains priced in one call, then one
np.add, np.maximum and np.minimum over the slices per row, in place. The
kernel's rows must be its floats byte for byte, signed zeros included, for
any fleet size, block length, loading, price and starting savings.
"""

import numpy as np

from dcmkit import GeneratorModel
from dcmkit.offline import regret_rows, regret_steps


def row_loop_regret_rows(gen, energy, price, regret):
    """Clamped savings rows, one add and two clamps over the slices per row."""
    offsets = np.arange(gen.count) * gen.capacity
    energy = np.maximum(np.asarray(energy, dtype=float)[:, None] - offsets, 0.0)
    rows = regret_steps(gen, energy, np.asarray(price, dtype=float)[:, None])
    bottom = -gen.beta_g
    for row in rows:
        np.add(regret, row, out=row)
        np.maximum(row, bottom, out=row)
        np.minimum(row, 0.0, out=row)
        regret = row
    return rows


def random_regret_block(rng):
    """(gen, energy, price, regret): N 0-40, T 1-300, slices empty, full and
    partly loaded, prices below, at and above c_o, c_m often 0, and starting
    savings at -beta_g, at 0.0 (either sign) and in between."""
    count, t_end = int(rng.integers(0, 41)), int(rng.integers(1, 301))
    cap = float(rng.choice([1.0, 0.5, rng.uniform(0.1, 80.0)]))
    c_o = float(rng.choice([0.0, rng.uniform(0.01, 0.2)]))
    gen = GeneratorModel(
        capacity=cap,
        c_o=c_o,
        c_m=float(rng.choice([0.0, 0.0, rng.uniform(0.0, 0.2 * cap)])),
        beta_g=float(rng.choice([1.0, rng.uniform(0.01, 50.0)])),
        count=count,
    )
    # whole units (a slice exactly full or exactly empty) or any level up to the fleet
    reach = int(rng.integers(0, count + 2))
    energy = np.where(rng.random(t_end) < 0.3, rng.integers(0, reach + 1, t_end) * cap,
                      rng.uniform(0.0, reach * cap + 1e-9, t_end))
    side = rng.integers(-1, 2, t_end)  # below, at or above c_o
    price = np.where(side < 0, c_o * rng.random(t_end), c_o + side * rng.uniform(0.0, 0.3, t_end))
    start = rng.choice(np.array([-gen.beta_g, 0.0, -0.0, 0.5]), count)
    between = start == 0.5
    start[between] = -gen.beta_g * rng.uniform(0.0, 1.0, between.sum())
    return gen, energy, price, start


def test_kernel_is_the_row_loop_byte_for_byte():
    rng = np.random.default_rng(30)
    held_bottom = held_top = moving = zero_gains = negative_zero_gains = 0
    for _ in range(1200):
        gen, energy, price, start = random_regret_block(rng)
        want = row_loop_regret_rows(gen, energy, price, start.copy())
        got = regret_rows(gen, energy, price, start.copy())
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        gains = regret_steps(gen, np.maximum(energy[:, None] - np.arange(gen.count) * gen.capacity, 0.0),
                             price[:, None])
        zero_gains += int(((gains == 0.0) & ~np.signbit(gains)).sum())
        negative_zero_gains += int(((gains == 0.0) & np.signbit(gains)).sum())
        bottom = (start == -gen.beta_g) & (gains <= 0.0).all(axis=0)
        top = (start == 0.0) & (gains >= 0.0).all(axis=0)
        held_bottom += int(bottom.sum())
        held_top += int(top.sum())
        moving += int((~bottom & ~top).sum())
    assert min(held_bottom, held_top, moving) >= 1000
    assert min(zero_gains, negative_zero_gains) >= 1000


def test_held_and_moving_slices_in_one_block():
    # slice 0 always full at a price above break-even, so it stays at the top;
    # slice 2 never loaded, so it stays at the bottom; slice 1 is partly
    # loaded and moves between them
    gen = GeneratorModel(capacity=10.0, c_o=0.05, c_m=0.2, beta_g=1.0, count=3)
    energy = np.array([10.0, 19.0, 12.0, 20.0, 11.0, 10.0, 18.0, 19.5, 10.0, 15.0])
    price = np.full(len(energy), 0.2)
    start = np.array([0.0, -0.5, -1.0])
    got = regret_rows(gen, energy, price, start.copy())
    assert got.tobytes() == row_loop_regret_rows(gen, energy, price, start.copy()).tobytes()
    assert (got[:, 0] == 0.0).all() and not np.signbit(got[:, 0]).any()
    assert (got[:, 2] == -1.0).all()
    assert len(set(got[:, 1].tolist())) > 3


def test_empty_block_and_empty_fleet():
    gen = GeneratorModel(capacity=1.0, c_o=0.1, c_m=0.0, beta_g=2.0, count=4)
    got = regret_rows(gen, [], [], np.full(4, -2.0))
    assert got.shape == (0, 4)
    none = GeneratorModel(capacity=1.0, c_o=0.1, c_m=0.0, beta_g=2.0, count=0)
    got = regret_rows(none, [3.0, 0.0], [0.2, 0.0], np.zeros(0))
    assert got.shape == (2, 0)

