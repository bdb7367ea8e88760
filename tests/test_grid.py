"""Grid construction, Morton layout, exact summation, and serialization.

The load-bearing claims tested here: cell averages of analytic weights are
computed from exact antiderivatives; the Morton reordering puts every dyadic
cube's cells into one contiguous slice; integrate() agrees bit for bit with
a correctly rounded sum (one math.fsum per cube, so each mass rounds once)
and with the integer summation tree it replaced; and the CSV/JSON writers
round-trip bit-exactly.  The level matrices' row sums and means equal
numpy's bit for bit, whichever way they are computed.
"""

import io
import json
import math
import os
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dyadic_grids, random_grids
from rhlab import grid
from rhlab.grid import (
    DyadicCube,
    WeightFormatError,
    WeightGrid,
    WeightSpecError,
    base_cube,
    cube_levels,
    integrate,
    level_cubes,
    load_weight,
    make_grid,
    morton_index,
    parse_cube,
    row_means,
    row_sums,
    save_weight,
)


# ---------------------------------------------------------------------------
# cube addresses


def test_cube_addr_roundtrip():
    for addr, d in [("0:0", 1), ("3:5", 1), ("2:1,3", 2), ("0:0,0", 2)]:
        Q = parse_cube(addr, d)
        assert Q.addr() == addr
        assert Q.d == d


def test_cube_addr_rejects_malformed():
    for addr, d in [("0", 1), ("1:2,3", 1), ("2:1", 2), ("-1:0", 1), ("1:2", 1), ("a:b", 1)]:
        with pytest.raises(ValueError):
            parse_cube(addr, d)


def test_cube_geometry():
    Q = DyadicCube(2, (1, 3))
    assert Q.measure == 2.0 ** (-4)
    assert Q.child(0) == DyadicCube(3, (2, 6))
    assert Q.child(3) == DyadicCube(3, (3, 7))
    assert base_cube(2).contains(Q)
    assert Q.contains(Q.child(1))
    assert not Q.child(1).contains(Q)
    with pytest.raises(ValueError):
        DyadicCube(1, (2,))  # coordinate out of range


def test_morton_index_first_quadrants():
    # level 1 children of the unit square come in branch order
    assert [morton_index(DyadicCube(1, c)) for c in [(0, 0), (1, 0), (0, 1), (1, 1)]] == [0, 1, 2, 3]


def _morton2_numpy(ix: np.ndarray, iy: np.ndarray) -> np.ndarray:
    # the numpy bit interleave morton_index used to call on one-element arrays
    def part1by1(x):
        x = x.astype(np.uint64) & np.uint64(0xFFFFFFFF)
        for shift, mask in ((16, 0x0000FFFF0000FFFF), (8, 0x00FF00FF00FF00FF), (4, 0x0F0F0F0F0F0F0F0F),
                            (2, 0x3333333333333333), (1, 0x5555555555555555)):
            x = (x | (x << np.uint64(shift))) & np.uint64(mask)
        return x

    return part1by1(ix) | (part1by1(iy) << np.uint64(1))


def test_morton_index_matches_numpy_interleave():
    # every cube of d=2 levels 0..6, plus the largest coordinates d=2 allows
    for lev in range(7):
        ix, iy = (a.ravel() for a in np.meshgrid(np.arange(1 << lev), np.arange(1 << lev)))
        ref = _morton2_numpy(ix, iy)
        got = [morton_index(DyadicCube(lev, (int(x), int(y)))) for x, y in zip(ix, iy)]
        assert got == ref.tolist()
        assert sorted(got) == list(range(1 << (2 * lev)))
    top = (1 << 31) - 1
    for c in ((top, 0), (0, top), (top, top), (0x55555555, 0x2AAAAAAA)):
        assert morton_index(DyadicCube(31, c)) == int(_morton2_numpy(np.array([c[0]]), np.array([c[1]]))[0])


# ---------------------------------------------------------------------------
# constructors


def test_make_grid_const():
    w = make_grid(1, 3, "const:3.7")
    assert w.ncells == 8
    assert np.all(w.cells == 3.7)
    assert w.label == "const:3.7"


def test_make_grid_step():
    w = make_grid(1, 3, "step:2,1")
    assert list(w.cells) == [2.0] * 4 + [1.0] * 4
    w = make_grid(1, 2, "step:4,1,1,1")
    assert list(w.cells) == [4.0, 1.0, 1.0, 1.0]


def test_make_grid_pow_level0():
    # single cell holds the full integral of x^(-1/2), which is 2
    w = make_grid(1, 0, "pow:-0.5")
    assert w.ncells == 1
    assert w.cells[0] == 2.0


def test_make_grid_pow_cell_averages_exact():
    a = -0.5
    L = 4
    w = make_grid(1, L, f"pow:{a}")
    h = 2.0**-L
    k = np.arange(1 << L)
    # cell average of x^a over [kh, (k+1)h) from the antiderivative
    expected = (((k + 1) * h) ** (a + 1) - (k * h) ** (a + 1)) / ((a + 1) * h)
    np.testing.assert_allclose(w.cells, expected, rtol=1e-14)


@pytest.mark.parametrize("a", [-0.95, -0.5, -0.25, 0.5, 3.0, 40.0])
def test_make_grid_pow_cells_within_ulps_of_the_exact_average(a):
    # against 40-digit averages ((k+1)^(a+1) - k^(a+1)) h^a / (a+1): the
    # difference of powers cancelled to a relative error near k eps (2e-9
    # at a = -0.95, L = 20); a few ulps remain, times a + 1 from the power
    mpmath = pytest.importorskip("mpmath")
    L = 20
    w = make_grid(1, L, f"pow:{a}")
    ks = [0, 1, 2, 3, 7, 100, 1 << (L - 1), (1 << L) - 1, *np.random.default_rng(3).integers(0, 1 << L, 40).tolist()]
    with mpmath.workdps(40):
        A, h = mpmath.mpf(a) + 1, mpmath.mpf(2) ** -L
        rel = [abs(mpmath.mpf(float(w.cells[k])) / (((k + 1) ** A - k**A) * h**A / (A * h)) - 1) for k in ks]
    assert float(max(rel)) <= (8.0 + abs(a + 1.0)) * 2.0**-52


def test_make_grid_rand_deterministic():
    w1 = make_grid(2, 3, "rand:42:lognormal:0.7")
    w2 = make_grid(2, 3, "rand:42:lognormal:0.7")
    assert np.array_equal(w1.cells, w2.cells)
    w3 = make_grid(2, 3, "rand:43:lognormal:0.7")
    assert not np.array_equal(w1.cells, w3.cells)
    assert np.all(w1.cells > 0)


def test_make_grid_rejects_bad_specs():
    bad = [
        (1, 3, "pow:-1"),
        (1, 3, "pow:-1.5"),
        (2, 3, "pow:-0.5"),  # power weights are one-dimensional
        (1, 3, "const:0"),
        (1, 3, "const:-2"),
        (1, 2, "step:3,1,1"),  # three pieces cannot tile four cells
        (1, 3, "gauss:1"),
        (1, 3, "rand:1:uniform:1"),
        (1, 3, "rand:1:lognormal:0"),
        (1, 3, "const:abc"),
    ]
    for d, L, spec in bad:
        with pytest.raises(WeightSpecError):
            make_grid(d, L, spec)


def test_weightgrid_validates_cells():
    with pytest.raises(WeightFormatError):
        WeightGrid(1, 2, [1.0, 2.0, 3.0])  # wrong count
    with pytest.raises(WeightFormatError):
        WeightGrid(1, 1, [1.0, 0.0])  # nonpositive
    with pytest.raises(WeightFormatError):
        WeightGrid(1, 1, [1.0, float("nan")])
    with pytest.raises(WeightSpecError):
        WeightGrid(3, 1, [1.0] * 8)


# ---------------------------------------------------------------------------
# Morton layout


def test_zrange_is_contiguous_cube_slice():
    # cells = row-major index makes the expected slice readable
    w = WeightGrid(2, 2, np.arange(1, 17, dtype=np.float64))
    Q = DyadicCube(1, (1, 0))
    # row-major cell indices x + 4 y for x in {2, 3}, y in {0, 1}
    got = w.cube_cells(Q)
    assert list(got) == [3.0, 4.0, 7.0, 8.0]
    a, b = w.zrange(Q)
    assert b - a == 4
    assert np.array_equal(w.zcells[a:b], got)


def test_zcells_is_permutation():
    w = make_grid(2, 3, "rand:7:lognormal:1")
    assert np.array_equal(np.sort(w.zcells), np.sort(w.cells))


@given(dyadic_grids())
def test_cube_cells_partition(w):
    # every level's cubes tile the base cube's cells exactly once
    for lev in range(w.base.level, w.L + 1):
        seen = np.concatenate([w.cube_cells(Q) for Q in level_cubes(w, lev)])
        assert np.array_equal(seen, w.zcells)


# ---------------------------------------------------------------------------
# exact sums


def test_integrate_small_integers_exact():
    w = WeightGrid(1, 2, [3.0, 1.0, 4.0, 1.0])
    assert integrate(w, w.base) == 9.0 / 4.0
    assert integrate(w, DyadicCube(1, (0,))) == 4.0 / 4.0
    assert integrate(w, DyadicCube(2, (2,))) == 4.0 / 4.0


def _int_tree(w):
    """Frozen copy of the integer sum tree integrate() used to read: every
    cell as a 2^53-scaled integer mantissa over the smallest exponent,
    summed level by level; returns (E, sums per relative level)."""
    mant, expo = np.frexp(w.zcells)
    m = (mant * 9007199254740992.0).astype(np.int64)
    e = expo.astype(np.int64) - 53
    E = int(e.min())
    level = [int(mi) << int(si) for mi, si in zip(m.tolist(), (e - E).tolist())]
    tree = [level]
    fan = 1 << w.d
    while len(level) > 1:
        level = [sum(level[i : i + fan]) for i in range(0, len(level), fan)]
        tree.append(level)
    return E, tree[::-1]


@st.composite
def _wide_lognormal_grids(draw):
    """Lognormal grids with sigma = 20: cells spread over about 2^300."""
    d, L = draw(st.sampled_from([(1, 8), (2, 4)]))
    return make_grid(d, L, f"rand:{draw(st.integers(0, 2**31 - 1))}:lognormal:20")


@given(st.one_of(dyadic_grids(), random_grids(), _wide_lognormal_grids()))
def test_integrate_matches_fsum_bitwise(w):
    E, tree = _int_tree(w)
    for lev in range(w.base.level, w.L + 1):
        width = 1 << (w.d * (w.L - lev))
        for Q in level_cubes(w, lev):
            mass = integrate(w, Q)
            assert mass == math.fsum(float(v) for v in w.cube_cells(Q)) * w.cell_measure
            a, _ = w.zrange(Q)
            assert mass == math.ldexp(tree[lev - w.base.level][a // width], E - w.d * w.L)


def test_integrate_wide_range():
    # the cells span about 2^1329; the integer tree's sum overflowed when
    # converted to float
    w = WeightGrid(1, 1, [1e-200, 1e200])
    assert integrate(w, w.base) == 5e199
    assert integrate(w, DyadicCube(1, (0,))) == 5e-201
    assert integrate(w, DyadicCube(1, (1,))) == 5e199


def test_integrate_cell_sum_beyond_float_range():
    # the cells sum past the float range, their masses do not: summed again
    # with the cells scaled first, each mass is still the correctly rounded
    # exact one
    for cells in ([1e308, 1e308], [1.7e308, 1.6e308, 3.0, 1e-300]):
        L = len(cells).bit_length() - 1
        w = WeightGrid(1, L, cells)
        exact = sum(map(Fraction, cells)) / 2**L
        assert integrate(w, w.base) == float(exact)
        for Q in level_cubes(w, 1):
            assert integrate(w, Q) == float(sum(map(Fraction, w.cube_cells(Q).tolist())) / 2**L)


@given(random_grids(max_level_1d=6, max_level_2d=3))
def test_integrate_additive_over_children(w):
    for Q in level_cubes(w, w.base.level):
        kids = [Q.child(b) for b in range(1 << w.d)]
        total = math.fsum(integrate(w, k) for k in kids)
        assert math.isclose(integrate(w, Q), total, rel_tol=1e-13)


def test_integrate_rejects_foreign_cube():
    w = make_grid(1, 3, "const:1")
    with pytest.raises(ValueError):
        integrate(w, DyadicCube(1, (0, 0)))
    with pytest.raises(ValueError):
        integrate(w, DyadicCube(5, (0,)))  # finer than the grid


def test_float_level_sums_match_cube_sums():
    w = make_grid(2, 3, "rand:11:lognormal:1")
    for lev in range(4):
        rows = w.float_level_sums(lev)
        direct = np.array([w.cube_cells(Q).sum() for Q in level_cubes(w, lev)])
        np.testing.assert_allclose(rows, direct, rtol=1e-12)


# ---------------------------------------------------------------------------
# row sums and means


def _short_row_matrix(rng, n, m, scale):
    """An (n, m) matrix whose row sums depend on the order of the adds:
    signed values over 120 binades ("mixed", with -0.0 rows and scattered
    +-0.0 and subnormals), subnormals and the least normals ("subnormal"),
    or values near the float max, one sign per row, whose sums overflow
    ("overflow")."""
    sign = rng.choice([-1.0, 1.0], (n, m))
    if scale == "overflow":
        return sign[:, :1] * rng.uniform(0.25, 1.0, (n, m)) * np.finfo(np.float64).max
    if scale == "subnormal":
        return sign * np.ldexp(rng.uniform(0.5, 1.0, (n, m)), rng.integers(-1074, -1020, (n, m)))
    x = sign * np.ldexp(rng.uniform(0.5, 1.0, (n, m)), rng.integers(-60, 60, (n, m)))
    spot = rng.random((n, m))
    x[spot < 0.1] = sign[spot < 0.1] * 0.0
    x[spot > 0.95] = sign[spot > 0.95] * 5e-324 * rng.integers(1, 1 << 20)
    x[rng.random(n) < 0.1] = -0.0
    return x


def _layout(x, layout):
    """x as a C-ordered, Fortran-ordered, strided or reversed (negative
    strides) array with the same values."""
    if layout == "C":
        return np.ascontiguousarray(x)
    if layout == "F":
        return np.asfortranarray(x)
    if layout == "strided":
        base = np.full((2 * x.shape[0], 3 * x.shape[1]), np.nan)
        base[::2, 1::3] = x
        return base[::2, 1::3]
    return np.ascontiguousarray(x[::-1, ::-1])[::-1, ::-1]


@given(
    st.integers(1, 16),
    st.sampled_from([1, 2, 7, 255, 256, 293]),
    st.sampled_from(["C", "F", "strided", "reversed"]),
    st.sampled_from(["mixed", "subnormal", "overflow"]),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=300)
def test_row_sums_and_means_are_numpys_bit_for_bit(m, n, layout, scale, seed):
    # rows of fewer than 8 values are added column by column, wider rows by
    # numpy: on every width, row count, layout and range the bits are
    # numpy's, so a numpy that stops adding short rows one value at a time
    # from +0.0 fails here
    x = _layout(_short_row_matrix(np.random.default_rng(seed), n, m, scale), layout)
    with np.errstate(over="ignore"):
        pairs = [(row_sums(x), x.sum(axis=1)), (row_means(x), x.mean(axis=1))]
    for got, want in pairs:
        assert got.shape == want.shape == (n,)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_numpy_adds_short_rows_one_column_at_a_time():
    # 1 + 1e16 rounds to 1e16, so the row 1, 1e16, -1e16 sums to 0 in
    # column order and to 1 when its last two values are paired first; a row
    # of -0.0 sums to +0.0 from the start +0.0
    for n in (1, 300):
        x = np.tile([1.0, 1e16, -1e16], (n, 1))
        assert x.sum(axis=1).tolist() == row_sums(x).tolist() == [0.0] * n
        z = np.full((n, 2), -0.0)
        assert np.array_equal(row_sums(z).view(np.int64), np.zeros(n, dtype=np.int64))
        assert np.array_equal(z.sum(axis=1).view(np.int64), np.zeros(n, dtype=np.int64))


def test_sorted_level_rows():
    w = make_grid(1, 3, "rand:5:lognormal:1")
    vals, cum = w.sorted_level(1)
    assert vals.shape == (2, 4)
    for i, Q in enumerate(level_cubes(w, 1)):
        assert np.array_equal(vals[i], np.sort(w.cube_cells(Q))[::-1])
    np.testing.assert_allclose(cum, np.cumsum(vals, axis=1) * w.cell_measure, rtol=0)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sorted_level_pairs_are_np_sort_bit_for_bit(seed):
    # rows of two and four cells are ordered by a min/max network, not by
    # np.sort, and their masses are summed a column at a time, not by
    # np.cumsum: the same bits, equal values included, and the same
    # reversed view
    rng = np.random.default_rng(seed)
    for d, L, level in ((1, 9, 8), (1, 9, 7), (2, 5, 4), (1, 9, 6)):
        cells = rng.choice([0.5, 1.0, 3.0, 1e-300, 1e300, np.nextafter(1.0, 2.0)], size=1 << (d * L))
        cells[rng.random(cells.size) < 0.3] = np.exp(rng.normal(size=1) * 5)
        w = WeightGrid(d, L, cells)
        vals, cum = w.sorted_level(level)
        want = np.sort(w.zcells.reshape(-1, 1 << (d * (L - level))), axis=1)[:, ::-1]
        assert np.array_equal(vals.view(np.int64), want.view(np.int64))
        assert vals.strides == want.strides
        assert np.array_equal(cum.view(np.int64), (np.cumsum(want, axis=1) * w.cell_measure).view(np.int64))


# ---------------------------------------------------------------------------
# cube policies


def test_cube_levels_parses_every_policy():
    assert cube_levels("all-dyadic", 1, 4) == range(1, 5)
    assert cube_levels("base", 1, 4) == range(1, 2)
    assert cube_levels("level:3", 1, 4) == range(3, 4)
    assert cube_levels("level:1", 1, 4) == range(1, 2)
    for policy, message in (
        ("level:5", "level 5 outside [1, 4]"),
        ("level:0", "level 0 outside [1, 4]"),
        ("level:x", "bad level policy 'level:x'"),
        ("rings", "unknown cube policy 'rings'"),
    ):
        with pytest.raises(ValueError) as exc:
            cube_levels(policy, 1, 4)
        assert str(exc.value) == message


def test_level_cubes_order_matches_morton_rows():
    w = make_grid(2, 2, "rand:9:lognormal:1")
    cubes = level_cubes(w, 1)
    width = 1 << (w.d * (w.L - 1))
    for i, Q in enumerate(cubes):
        assert w.zrange(Q) == (i * width, (i + 1) * width)


# ---------------------------------------------------------------------------
# serialization


def test_csv_roundtrip_bit_exact(tmp_path):
    w = make_grid(1, 5, "rand:31:lognormal:1.5")
    path = str(tmp_path / "w.csv")
    save_weight(w, path)
    with open(path) as fh:
        assert fh.readline() == "# rhlab d=1 L=5\n"
    back = load_weight(path)
    assert (back.d, back.L) == (1, 5)
    assert np.array_equal(back.cells, w.cells)


def test_json_roundtrip_bit_exact(tmp_path):
    w = make_grid(2, 3, "rand:8:lognormal:0.5")
    path = str(tmp_path / "w.json")
    save_weight(w, path)
    back = load_weight(path)
    assert np.array_equal(back.cells, w.cells)
    assert back.label == w.label


@pytest.mark.parametrize("ext", ["csv", "json"])
def test_load_weight_keeps_the_parsed_cells(tmp_path, monkeypatch, ext):
    # the grid keeps the reader's cell array: building it allocates at least
    # one cell array less than the public constructor, which copies
    w = make_grid(1, 16, "rand:5:lognormal:1")
    path = str(tmp_path / f"w.{ext}")
    save_weight(w, path)
    parsed, built = [], []
    real_values, real_file_grid = grid._decimal_values, grid._file_grid

    def values(*a):
        x, ok = real_values(*a)
        parsed.append(x)
        return x, ok

    def file_grid(*a):
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = real_file_grid(*a)
        built.append(tracemalloc.get_traced_memory()[1] - start)
        return out

    monkeypatch.setattr(grid, "_decimal_values", values)
    monkeypatch.setattr(grid, "_file_grid", file_grid)
    tracemalloc.start()
    try:
        back = load_weight(path)
        cells = back.cells.copy()
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        WeightGrid(1, 16, cells)
        copied = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert np.shares_memory(back.cells, parsed[-1])
    assert copied - built[-1] >= w.cells.nbytes
    np.testing.assert_array_equal(back.cells.view(np.uint64), w.cells.view(np.uint64))
    assert not back.cells.flags.writeable
    # the public constructor still copies what a caller passes
    mine = np.ones(4)
    assert not np.shares_memory(WeightGrid(1, 2, mine).cells, mine) and mine.flags.writeable


def _frozen_csv_text(w) -> str:
    """save_weight's CSV text before it wrote row blocks: one line list, one join."""
    return "\n".join([f"# rhlab d={w.d} L={w.L}", *(repr(float(v)) for v in w.cells)]) + "\n"


def _frozen_json_text(w) -> str:
    """save_weight's JSON text before it used the one-shot encoder: json.dump."""
    buf = io.StringIO()
    json.dump({"d": w.d, "L": w.L, "cells": [float(v) for v in w.cells], "label": w.label}, buf)
    return buf.getvalue() + "\n"


_SAVED_GRIDS = [
    make_grid(1, 12, "rand:31:lognormal:3"),
    make_grid(2, 4, "rand:8:lognormal:0.5"),
    make_grid(1, 10, "pow:-0.9"),
    make_grid(1, 3, "const:1e-5"),
    make_grid(1, 0, "const:2"),
    # labels json.dumps escapes: quotes, backslashes, control and non-ASCII characters
    WeightGrid(1, 4, make_grid(1, 4, "rand:6:lognormal:8").cells, label='say "hi" \\ C:\\w\n'),
    WeightGrid(2, 2, make_grid(2, 2, "rand:7:lognormal:1").cells, label="naïve π ✓ 𝄞"),
]


@pytest.mark.parametrize("w", _SAVED_GRIDS, ids=[w.label for w in _SAVED_GRIDS])
def test_saved_bytes_equal_the_frozen_writers(tmp_path, monkeypatch, w):
    csv_path, json_path = tmp_path / "w.csv", tmp_path / "w.json"
    n = w.ncells
    for size in sorted({1, 3, max(n - 1, 1), n, n + 1, grid._ROWS_PER_BLOCK}):
        monkeypatch.setattr(grid, "_ROWS_PER_BLOCK", size)
        save_weight(w, str(json_path))
        assert json_path.read_text() == _frozen_json_text(w)
        assert json_path.read_bytes() == (json.dumps({"d": w.d, "L": w.L, "cells": w.cells.tolist(), "label": w.label}) + "\n").encode()
        save_weight(w, str(csv_path))
        assert csv_path.read_text() == _frozen_csv_text(w)


# ---------------------------------------------------------------------------
# shortest decimals: every float written is repr's text


def _repr_rows(*cols) -> list[str]:
    return [",".join(map(repr, row)) for row in zip(*(c.tolist() for c in cols))]


def _kernel_rows(*cols) -> list[str]:
    """The kernel's lines; a list, so a failing comparison names the first
    differing line instead of diffing megabytes of text."""
    text = "".join(grid._text_blocks(*cols))
    assert text.endswith("\n")
    return text[:-1].split("\n")


_X87_PATHS = [
    pytest.param(True, id="x87", marks=pytest.mark.skipif(not grid._X87_LONG_DOUBLE, reason="long double is not x87")),
    pytest.param(False, id="repr-only"),
]


@pytest.mark.parametrize("e", [18, 20])
def test_kernel_decides_exact_ties_half_to_even_as_repr(e):
    # the t column of a K-curve: i / 2^18 holds 19,661 17-digit ties and
    # 37,683 at the 16-digit step, i / 2^20 26,756 and 38,524; every one is
    # decided exactly, half-to-even, and every line is repr's
    x = np.arange(1 << e) / 2.0**e
    assert _kernel_rows(x) == _repr_rows(x)
    if grid._X87_LONG_DOUBLE:
        assert grid._shortest_digits(x)[3][1:].all()  # all but 0.0
    # 0.100002288818359375 and 0.100009918212890625 tie at 17 digits,
    # 0.062511444091796875 and 0.062503814697265625 at 16: the odd last
    # digit rounds up, the even one stays
    ties = np.array([26215, 26217, 16387, 16385]) / 2.0**18
    assert _kernel_rows(ties) == ["0.10000228881835938", "0.10000991821289062", "0.06251144409179688", "0.06250381469726562"]


def _neighbours(centres: np.ndarray) -> np.ndarray:
    """The floats up to 3 ulps either side of each centre, of either sign."""
    bits = centres.view(np.int64)[:, None] + np.arange(-3, 4)
    x = bits.ravel().view(np.float64)
    return np.concatenate([x, -x])


@pytest.mark.parametrize("x87", _X87_PATHS)
def test_kernel_prints_repr_next_to_powers_of_ten_and_two(monkeypatch, x87):
    monkeypatch.setattr(grid, "_X87_LONG_DOUBLE", x87)
    tens = _neighbours(np.array([float(f"1e{k}") for k in range(-30, 31)]))
    twos = _neighbours(np.ldexp(1.0, np.arange(-1074, 1024)))
    for x in (tens, twos, np.array([0.0, -0.0, 5e-324, 2.0**-1022, np.inf, -np.inf, np.nan, 1e40, 1e-11])):
        assert _kernel_rows(x) == _repr_rows(x)
        assert _kernel_rows(x, x[::-1]) == _repr_rows(x, x[::-1])


@pytest.mark.parametrize("x87", _X87_PATHS)
@given(st.lists(st.tuples(st.integers(0, 2**64 - 1), st.integers(-40, 136)), min_size=1, max_size=64), st.integers(1, 2))
@settings(max_examples=300)
def test_kernel_prints_repr_on_any_bit_pattern(x87, draws, ncols):
    # raw bit patterns cover every binade, subnormals, +-0.0, inf and nan; the
    # same mantissas moved to 2^-40..2^136 cover the range the kernel decides.
    # The patch is undone by hand: hypothesis reruns the body within one fixture
    bits, exps = zip(*draws)
    x = np.array(bits, dtype=np.uint64).view(np.float64)
    moved = np.ldexp(np.frexp(x)[0], np.array(exps))
    saved = grid._X87_LONG_DOUBLE
    grid._X87_LONG_DOUBLE = x87
    try:
        for y in (x, moved):
            cols = [y, y[::-1]][:ncols]
            assert _kernel_rows(*cols) == _repr_rows(*cols)
    finally:
        grid._X87_LONG_DOUBLE = saved


@pytest.mark.skipif(not grid._X87_LONG_DOUBLE, reason="long double is not x87")
def test_kernel_decides_nearly_every_value_of_a_k_curve():
    # the curve-k-rand-d2L9 dump: the kernel leaves 1 of its 262,145 t
    # values (t = 0) and 1,139 K values to repr; below 99 % the speed is lost
    from rhlab.kcalc import k_l1_linf

    K = k_l1_linf(make_grid(2, 9, "rand:1:lognormal:1"), base_cube(2))
    for col in (K.t, K.v):
        assert grid._shortest_digits(col)[3].mean() >= 0.99


# ---------------------------------------------------------------------------
# decimal reader: every cell read is float()'s


def _frozen_load_weight(path: str) -> WeightGrid:
    """load_weight before it read cells through _decimal_values: CSV one
    float() per stripped line in text mode, JSON by json.load."""
    if not path.endswith(".json"):
        with open(path) as fh:
            first = fh.readline()
            m = grid._CSV_HEADER.fullmatch(first)
            if not m:
                raise WeightFormatError("header", f"bad header line {first!r}")
            d, L = int(m.group(1)), int(m.group(2))
            cells = []
            for lineno, line in enumerate(fh, start=2):
                line = line.strip()
                if not line:
                    continue
                try:
                    cells.append(float(line))
                except ValueError as exc:
                    raise WeightFormatError("parse", f"line {lineno}: not a number: {line!r}") from exc
        return grid._file_grid(d, L, cells, f"file:{path}")
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise WeightFormatError("parse", f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict) or not {"d", "L", "cells"} <= set(obj):
        raise WeightFormatError("header", "JSON object must have keys d, L, cells")
    d, L = obj["d"], obj["L"]
    if not (type(d) is int and type(L) is int):
        raise WeightFormatError("header", "d and L must be integers")
    cells = obj["cells"]
    if not isinstance(cells, list):
        raise WeightFormatError("parse", "cells must be a list")
    if not set(map(type, cells)) <= {int, float}:
        raise WeightFormatError("parse", "cells must be JSON numbers")
    return grid._file_grid(d, L, cells, str(obj.get("label", f"file:{path}")))


def _read(reader, path: str) -> tuple:
    """What a reader makes of a file: the grid's d, L, label and cell bits,
    or the code and message of the WeightFormatError it raises."""
    try:
        w = reader(path)
    except WeightFormatError as exc:
        return exc.code, str(exc)
    return w.d, w.L, w.label, w.cells.view(np.int64).tolist()


def _kernel_read(tokens: list[str]):
    """_decimal_values on tokens laid out one a line after the zero padding."""
    buf = np.frombuffer(b"\0" * grid._PAD + "".join("\n" + t for t in tokens).encode() + b"\n", dtype=np.uint8)
    return grid._decimal_values(buf, np.flatnonzero(buf == 10), 1)


_POSITIVE = st.floats(min_value=1e-30, max_value=1e30, allow_nan=False)
# cells as save_weight writes them and as other writers might: repr (most of
# them without an exponent), fixed and exponent forms, integers (more than 19
# digits too), signs, leading zeros
_CELL = st.one_of(
    st.floats(min_value=1e-4, max_value=1e16).map(repr),
    st.floats(min_value=1e-4, max_value=1e16).map(repr),
    _POSITIVE.map(repr),
    st.builds(lambda x, p: f"{x:.{p}f}", _POSITIVE, st.integers(0, 25)),
    st.builds(lambda x, p: f"{x:.{p}e}", _POSITIVE, st.integers(0, 20)),
    st.integers(0, 10**25).map(str),
    st.builds(lambda z, t: "0" * z + t, st.integers(1, 5), _POSITIVE.map(repr)),
    st.builds(lambda sign, t: sign + t, st.sampled_from(["-", "+"]), _POSITIVE.map(repr)),
    st.sampled_from(["1", "0", "1.5", "0.1", "18446744073709551616", "18440000000000000000.5", "9007199254740993",
                     "1000000000000000000000.5", "0000000000000000000001.5", "1" * 401]),
)
# text a CSV line may hold that is not a plain cell
_CSV_ODD = st.sampled_from(
    ["", "   ", "\t", "\x0c1.5", "1.5\x1c", "\x1f2\x1e", " 3.25 ", "١٢٣.٥", "1_0", "inf", "nan", "-inf",
     "1e400", "zzz", "1.2.3", "..", ".", "5.", ".5", "1e5", "0x10", "1 2"]
)
# cell tokens in a JSON list: numbers json reads, and some it refuses
_JSON_ODD = st.sampled_from(
    ["NaN", "Infinity", "-Infinity", str(2**64), str(2**64 + 1), "1" * 401, "1" + "0" * 400 + ".5", "1e400",
     "5.", ".5", "01.5", "00", "-0", "1E5", "2.5e-3", '"1.0"', "true", "null", "[2]", "{}", "1.0 "]
)


@st.composite
def _csv_files(draw) -> bytes:
    d, L = draw(st.sampled_from([(1, 0), (1, 1), (1, 2), (1, 3), (2, 1)]))
    n = (1 << (d * L)) + draw(st.sampled_from([0, 0, 0, -1, 1]))
    lines = [draw(st.one_of(_CELL, _CELL, _CELL, _CSV_ODD)) for _ in range(max(n, 0))]
    for _ in range(draw(st.integers(0, 2))):  # blank and padding lines anywhere
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "  ", "\x0c", "\x1c \x1d"])))
    header = draw(st.sampled_from([f"# rhlab d={d} L={L}", f"# rhlab d={d} L={L}  ", f"#rhlab d={d} L={L}"]))
    newline = draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
    text = newline.join([header, *lines]) + draw(st.sampled_from([newline, ""]))
    return text.encode()


@st.composite
def _json_files(draw) -> bytes:
    d, L = draw(st.sampled_from([(1, 0), (1, 1), (1, 2), (2, 1)]))
    n = (1 << (d * L)) + draw(st.sampled_from([0, 0, 0, -1, 1]))
    cells = [draw(st.one_of(_CELL, _CELL, _CELL, _JSON_ODD)) for _ in range(max(n, 0))]
    comma, colon = draw(st.sampled_from([(", ", ": "), (", ", ": "), (",", ":"), (" , ", " : ")]))
    sep = draw(st.sampled_from([", ", ", ", ",", ",  "]))
    pairs = [("d", str(d)), ("L", str(L)), ("cells", "[" + sep.join(cells) + "]")]
    pairs += draw(st.lists(st.sampled_from([("label", '"w \\"1\\" \\u00e9"'), ("label", '"x"'), ("extra", "[1, {}]"),
                                            ("d", "2"), ("cells", "[1.0]"), ("L", "1.0")]), max_size=2))
    return ("{" + comma.join(f'"{k}"{colon}{v}' for k, v in pairs) + "}\n").encode()


@pytest.mark.parametrize("x87", _X87_PATHS)
@given(st.one_of(_csv_files().map(lambda b: ("w.csv", b)), _json_files().map(lambda b: ("w.json", b))))
@settings(max_examples=400, deadline=None)
def test_reader_is_the_frozen_reader(tmp_path_factory, x87, file):
    # both readers give the same d, L, label and cell bits, or the same error
    # code and message. The patch is undone by hand: hypothesis reruns the
    # body within one fixture
    name, data = file
    path = tmp_path_factory.mktemp("w") / name
    path.write_bytes(data)
    saved = grid._X87_LONG_DOUBLE
    grid._X87_LONG_DOUBLE = x87
    try:
        assert _read(load_weight, str(path)) == _read(_frozen_load_weight, str(path))
    finally:
        grid._X87_LONG_DOUBLE = saved


_NAMED_FILES = [
    ("w.json", '{"d": 1, "L": 1, "cells": [12.5,25.0], "label": "commas without spaces"}'),
    ("w.json", '{"d": 1, "L": 1, "cells": [12.5, 25.0], "cells": [1.5, 2.5]}'),
    ("w.json", '{"d": 1, "L": 1, "cells": [1.5, 01.5]}'),
    ("w.json", '{"d": 1, "L": 1, "cells": [1.5, 18446744073709551616]}'),
    ("w.json", '{"d": 1, "L": 1, "cells": [1.5, 1' + "0" * 400 + "]}"),
    ("w.csv", "# rhlab d=1 L=1\n1000000000000000000000.5\n0000000000000000000001.5\n"),
    ("w.csv", "# rhlab d=1 L=1\r1.5\r2.5\r"),
    ("w.csv", "# rhlab d=1 L=1\n1.5\n\n2.5\n \n"),
]


@pytest.mark.parametrize("x87", _X87_PATHS)
@pytest.mark.parametrize("name, text", _NAMED_FILES)
def test_reader_is_the_frozen_reader_on_named_files(tmp_path, monkeypatch, x87, name, text):
    # cases a random file seldom hits: a JSON cell list without spaces, two
    # cell lists, a leading zero, integers past 2^64 and past the float
    # range; a 24-byte cell, CR newlines, blank lines
    monkeypatch.setattr(grid, "_X87_LONG_DOUBLE", x87)
    path = tmp_path / name
    path.write_text(text, newline="")
    assert _read(load_weight, str(path)) == _read(_frozen_load_weight, str(path))


@pytest.mark.skipif(not grid._X87_LONG_DOUBLE, reason="long double is not x87")
@pytest.mark.parametrize("name", ["w.csv", "w.json"])
def test_kernel_decides_nearly_every_cell_of_a_saved_file(tmp_path, monkeypatch, name):
    # the benchmark's convert input: below 99 % of its cells decided, the
    # speed is lost
    decided = []

    def spy(*args):
        x, ok = real(*args)
        decided.append(ok)
        return x, ok

    real = grid._decimal_values
    monkeypatch.setattr(grid, "_decimal_values", spy)
    w = make_grid(1, 18, "rand:1:lognormal:1")
    path = str(tmp_path / name)
    save_weight(w, path)
    assert np.array_equal(load_weight(path).cells.view(np.int64), w.cells.view(np.int64))
    assert len(decided) == 1 and decided[0].size >= w.ncells
    assert decided[0].mean() >= 0.99


def _midpoint_tokens() -> list[str]:
    """Decimals on and either side of the midpoints between adjacent doubles
    around 1, 2^k and 10^k: each midpoint exactly when it has at most 23
    bytes, and cut to 17..22 significant digits, then one unit either side
    in the last digit."""
    from decimal import Decimal, localcontext
    from fractions import Fraction

    centres = [1.0] + [2.0**k for k in range(-60, 64)] + [float(f"1e{k}") for k in range(-22, 20)]
    tokens = []
    for c in centres:
        for lo in (np.nextafter(c, 0.0), c):
            mid = (Fraction(float(lo)) + Fraction(float(np.nextafter(lo, np.inf)))) / 2
            with localcontext() as ctx:
                ctx.prec = 80
                exact = Decimal(mid.numerator) / Decimal(mid.denominator)
                text = f"{exact:f}"
                if len(text) <= 23:
                    tokens.append(text)
                for prec in range(17, 23):
                    cut = f"{exact:.{prec}g}"
                    if "e" in cut or "E" in cut:
                        continue
                    unit = Decimal(1).scaleb(Decimal(cut).as_tuple().exponent)
                    tokens += [cut, f"{Decimal(cut) - unit:f}", f"{Decimal(cut) + unit:f}"]
    return tokens


@pytest.mark.skipif(not grid._X87_LONG_DOUBLE, reason="long double is not x87")
def test_kernel_reads_float_next_to_rounding_midpoints():
    # the hard cases for a reader: every token the kernel decides is
    # float()'s bit for bit, and an exact midpoint it reads is left to float()
    tokens = _midpoint_tokens()
    x, ok = _kernel_read(tokens)
    want = np.array([float(t) for t in tokens])
    assert ok.sum() > 1500  # of 3,898; the rest are longer than 23 bytes or midpoints
    assert np.array_equal(x[ok].view(np.int64), want[ok].view(np.int64))
    # 2^60 + 2^7 lies halfway between 2^60 and 2^60 + 2^8
    assert _kernel_read(["1152921504606847104", "1152921504606847105"])[1].tolist() == [False, True]


def test_load_rejects_corrupt_files(tmp_path):
    bad_header = tmp_path / "a.csv"
    bad_header.write_text("not a header\n1.0\n")
    with pytest.raises(WeightFormatError):
        load_weight(str(bad_header))

    short = tmp_path / "b.csv"
    short.write_text("# rhlab d=1 L=2\n1.0\n2.0\n")
    with pytest.raises(WeightFormatError):
        load_weight(str(short))

    negative = tmp_path / "c.csv"
    negative.write_text("# rhlab d=1 L=1\n1.0\n-2.0\n")
    with pytest.raises(WeightFormatError):
        load_weight(str(negative))

    garbled = tmp_path / "d.csv"
    garbled.write_text("# rhlab d=1 L=1\n1.0\nzzz\n")
    with pytest.raises(WeightFormatError):
        load_weight(str(garbled))

    bad_json = tmp_path / "e.json"
    bad_json.write_text("{\"d\": 1}")
    with pytest.raises(WeightFormatError):
        load_weight(str(bad_json))

    with pytest.raises(OSError):
        load_weight(str(tmp_path / "missing.csv"))


def test_save_rejects_localized_grid(tmp_path):
    from rhlab.rearrange import dyadic_maximal

    w = make_grid(1, 3, "step:2,1")
    M = dyadic_maximal(w, DyadicCube(1, (0,)))
    with pytest.raises(ValueError):
        save_weight(M, str(tmp_path / "m.csv"))


def test_make_grid_file_spec(tmp_path):
    w = make_grid(1, 4, "rand:3:lognormal:1")
    path = str(tmp_path / "w.csv")
    save_weight(w, path)
    back = make_grid(1, 4, f"file:{path}")
    assert np.array_equal(back.cells, w.cells)
    assert os.path.basename(path) in back.label


# ---------------------------------------------------------------------------
# the rand generator's inverse normal CDF against scipy's, bit for bit


def _draws(seed, n):
    raw = np.random.Philox(key=seed).random_raw(n)
    return ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


def _assert_bits(got, want):
    assert got.dtype == want.dtype == np.float64
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("seed", [1, 2, 13, 2**31 - 1])
@pytest.mark.parametrize("d, L", [(1, 20), (2, 10)])
def test_ndtri_port_is_scipy_on_whole_grids(d, L, seed):
    special = pytest.importorskip("scipy.special")
    u = _draws(seed, 1 << (d * L))
    _assert_bits(grid._ndtri(u), special.ndtri(u))


@pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
def test_rand_cells_are_scipy_lognormal_cells(sigma):
    special = pytest.importorskip("scipy.special")
    w = make_grid(2, 10, f"rand:13:lognormal:{sigma:g}")
    _assert_bits(w.cells, np.exp(sigma * special.ndtri(_draws(13, 1 << 20))))


def _edge_draws():
    e2 = math.exp(-2.0)
    u = [0.5 * 2.0**-53, e2, 1.0 - e2, grid._EXPM2, 1.0 - grid._EXPM2, 0.5]
    u += [np.nextafter(v, 0.0) for v in u] + [np.nextafter(v, 1.0) for v in u]
    # below e^-32 both tails take the x >= 8 branch (P2/Q2), which Philox
    # draws reach with probability 2^-45: 1 - 2^-52 is the largest draw below 1
    u += [1e-15, 1.2e-14, 1e-100, 1e-300, 5e-324, 1.0 - 2.0**-53, 1.0 - 2.0**-52, 1.0 - 1e-14]
    # the largest raw draw: (2^53 - 1 + 1/2) 2^-53 rounds to 1.0, where ndtri = inf
    u += [(float(2**53 - 1) + 0.5) * 2.0**-53]
    return np.array(u)


def test_ndtri_port_is_scipy_on_the_edges():
    special = pytest.importorskip("scipy.special")
    u = _edge_draws()
    assert u[-1] == 1.0 and np.any(np.sqrt(-2.0 * np.log(np.minimum(u[:-1], 1.0 - u[:-1]))) >= 8.0)
    _assert_bits(grid._ndtri(u), special.ndtri(u))


def test_rand_draw_of_one_is_a_numerical_error(monkeypatch, capsys):
    class AllOnes:
        def __init__(self, key):
            pass

        def random_raw(self, n):
            return np.full(n, 2**64 - 1, dtype=np.uint64)

    monkeypatch.setattr(np.random, "Philox", AllOnes)
    with pytest.raises(OverflowError):
        make_grid(1, 3, "rand:1:lognormal:1")
    from rhlab.cli import main

    assert main(["curve", "--kind", "k", "--weight", "rand:1:lognormal:1", "--level", "3"]) == 1
    assert "OverflowError" in capsys.readouterr().err


def test_ndtri_port_without_extended_long_double(monkeypatch):
    # every tail log then comes from math.log, libm's own
    special = pytest.importorskip("scipy.special")
    u = np.concatenate([_draws(7, 1 << 14), _edge_draws()])
    monkeypatch.setattr(grid, "_X87_LONG_DOUBLE", False)
    _assert_bits(grid._ndtri(u), special.ndtri(u))


@given(st.floats(min_value=5e-324, max_value=1e300))
def test_libm_log_is_math_log(x):
    assert grid._libm_log(np.array([x]))[0] == math.log(x)
