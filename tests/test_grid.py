"""Grid construction, Morton layout, exact summation, and serialization.

The load-bearing claims tested here: cell averages of analytic weights are
computed from exact antiderivatives; the Morton reordering puts every dyadic
cube's cells into one contiguous slice; integrate() agrees bit for bit with
a correctly rounded sum (one math.fsum per cube, so each mass rounds once)
and with the integer summation tree it replaced; and the CSV/JSON writers
round-trip bit-exactly.
"""

import io
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given
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


def test_sorted_level_rows():
    w = make_grid(1, 3, "rand:5:lognormal:1")
    vals, cum = w.sorted_level(1)
    assert vals.shape == (2, 4)
    for i, Q in enumerate(level_cubes(w, 1)):
        assert np.array_equal(vals[i], np.sort(w.cube_cells(Q))[::-1])
    np.testing.assert_allclose(cum, np.cumsum(vals, axis=1) * w.cell_measure, rtol=0)


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
]


@pytest.mark.parametrize("w", _SAVED_GRIDS, ids=[w.label for w in _SAVED_GRIDS])
def test_saved_bytes_equal_the_frozen_writers(tmp_path, monkeypatch, w):
    csv_path, json_path = tmp_path / "w.csv", tmp_path / "w.json"
    save_weight(w, str(json_path))
    assert json_path.read_text() == _frozen_json_text(w)
    n = w.ncells
    for size in sorted({1, 3, max(n - 1, 1), n, n + 1, grid._ROWS_PER_BLOCK}):
        monkeypatch.setattr(grid, "_ROWS_PER_BLOCK", size)
        save_weight(w, str(csv_path))
        assert csv_path.read_text() == _frozen_csv_text(w)


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
