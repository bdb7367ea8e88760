"""Decreasing rearrangements, maximal-function averages, and M_d.

Equimeasurability is checked at the bit level: the rearrangement's mass is
carried from the exact cube sum, and its plateaus are the multiset of cell
values. The maximal function is compared against a brute-force max over
ancestor averages, and the two-sided Herz bounds are exercised directly on
small explicit weights in both dimensions.  double_star and dyadic_maximal
are checked bit for bit against frozen copies of their earlier per-point
and per-cube forms.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import flat_grids, frozen_double_star, localized_grids, random_grids
from rhlab.grid import DyadicCube, _rowmajor_of_morton, integrate, level_cubes, make_grid
from rhlab.rearrange import (
    DecreasingStep,
    double_star,
    dyadic_maximal,
    iterated_maximal,
    rearrangement,
)


# ---------------------------------------------------------------------------
# DecreasingStep


def test_rearrangement_step_explicit():
    w = make_grid(1, 2, "step:2,1")
    r = rearrangement(w, w.base)
    assert list(r.values) == [2.0, 1.0]
    assert list(r.measures) == [0.5, 0.5]
    assert list(r.breaks) == [0.5, 1.0]
    assert r.total_measure == 1.0
    assert r.mass == 1.5
    assert r.mass == integrate(w, w.base)


def test_decreasing_step_validation():
    with pytest.raises(ValueError):
        DecreasingStep([1.0, 2.0], [0.5, 0.5], 1.0, 1.5)  # increasing
    with pytest.raises(ValueError):
        DecreasingStep([2.0, 2.0], [0.5, 0.5], 1.0, 2.0)  # not strictly decreasing
    with pytest.raises(ValueError):
        DecreasingStep([2.0, 1.0], [0.5, -0.5], 1.0, 0.5)
    with pytest.raises(ValueError):
        DecreasingStep([], [], 1.0, 0.0)


def test_star_left_continuous():
    r = rearrangement(make_grid(1, 2, "step:2,1"), base_cube := make_grid(1, 2, "step:2,1").base)
    assert r.star(0.5) == 2.0  # left-continuous at the jump
    assert r.star(0.5 + 1e-12) == 1.0
    assert r.star(0.0) == 2.0
    assert r.star(-1.0) == 2.0
    assert r.star(1.0) == 1.0
    assert r.star(1.0 + 1e-12) == 0.0
    out = r.star(np.array([0.25, 0.5, 0.75, 2.0]))
    assert list(out) == [2.0, 2.0, 1.0, 0.0]


@given(random_grids())
def test_equimeasurability(w):
    for Q in [w.base, w.base.child(0)]:
        if Q.level > w.L:
            continue
        r = rearrangement(w, Q)
        # plateau multiset reproduces the cube's cells
        rebuilt = np.repeat(r.values, np.rint(r.measures / w.cell_measure).astype(int))
        assert np.array_equal(rebuilt, np.sort(w.cube_cells(Q))[::-1])
        assert r.mass == integrate(w, Q)  # bit-exact by construction
        assert r.total_measure == Q.measure
        assert np.all(np.diff(r.values) < 0)


# ---------------------------------------------------------------------------
# double star


def test_double_star_const():
    r = rearrangement(make_grid(1, 3, "const:3"), make_grid(1, 3, "const:3").base)
    for t in (0.125, 0.5, 1.0):
        assert double_star(r, t) == 3.0  # exact at dyadic points
    assert math.isclose(double_star(r, 0.1), 3.0, rel_tol=1e-15)
    assert double_star(r, 2.0) == 1.5  # mass / t past the domain


def test_double_star_step_exact():
    w = make_grid(1, 2, "step:2,1")
    r = rearrangement(w, w.base)
    assert double_star(r, 0.25) == 2.0
    assert double_star(r, 0.75) == (1.0 + 0.25) / 0.75
    assert double_star(r, 1.0) == 1.5
    assert double_star(r, 2.0) == 0.75
    with pytest.raises(ValueError):
        double_star(r, 0.0)


@given(random_grids(max_level_1d=6, max_level_2d=3))
def test_double_star_dominates_and_decreases(w):
    r = rearrangement(w, w.base)
    ts = np.concatenate([r.breaks, r.breaks * 0.7, [r.total_measure * 1.5]])
    ts = np.sort(ts[ts > 0])
    vals = np.array([double_star(r, t) for t in ts])
    assert np.all(vals[1:] <= vals[:-1] * (1 + 1e-12))
    stars = np.asarray(r.star(ts))
    assert np.all(vals >= stars - 1e-12 * np.abs(vals))


# ---------------------------------------------------------------------------
# dyadic maximal function


def test_dyadic_maximal_explicit():
    w = make_grid(1, 2, "step:2,1")
    M = dyadic_maximal(w, w.base)
    # cell averages: level 0 gives 1.5, level 1 gives 2 and 1, cells themselves 2 and 1
    assert list(M.cells) == [2.0, 2.0, 1.5, 1.5]
    assert M.base == w.base
    assert M.L == w.L


def test_dyadic_maximal_localized_base():
    w = make_grid(1, 3, "step:4,1,1,1")
    Q0 = DyadicCube(1, (1,))  # right half, constant 1 there
    M = dyadic_maximal(w, Q0)
    assert M.base == Q0
    assert M.ncells == 4
    assert np.all(M.cells == 1.0)


@given(random_grids(max_level_1d=5, max_level_2d=3))
def test_dyadic_maximal_matches_bruteforce(w):
    M = dyadic_maximal(w, w.base)
    # brute force: for every cell take the max average over containing cubes
    best = np.zeros(w.ncells)
    for Q in (Q for lev in range(w.base.level, w.L + 1) for Q in level_cubes(w, lev)):
        a, b = w.zrange(Q)
        avg = w.cube_cells(Q).mean()
        best[a:b] = np.maximum(best[a:b], avg)
    np.testing.assert_allclose(M.zcells, best, rtol=1e-12)
    assert np.all(M.zcells >= w.zcells * (1 - 1e-15))


def test_iterated_maximal_dominates():
    w = make_grid(2, 3, "rand:17:lognormal:1")
    M1 = dyadic_maximal(w, w.base)
    M2 = iterated_maximal(w, w.base)
    assert np.all(M2.zcells >= M1.zcells * (1 - 1e-15))
    # second application of M_d on top of the first, nothing else
    again = dyadic_maximal(M1, w.base)
    assert np.array_equal(M2.zcells, again.zcells)


def test_maximal_rejects_foreign_cube():
    w = make_grid(1, 3, "const:1")
    with pytest.raises(ValueError):
        dyadic_maximal(w, DyadicCube(1, (0, 0)))


# ---------------------------------------------------------------------------
# Herz bounds, explicit small cases


@pytest.mark.parametrize("spec,d,L", [("step:2,1", 1, 3), ("step:4,1,1,1", 2, 2), ("rand:23:lognormal:1", 2, 3)])
def test_herz_two_sided_bounds(spec, d, L):
    w = make_grid(d, L, spec)
    M = dyadic_maximal(w, w.base)
    rw = rearrangement(w, w.base)
    rM = rearrangement(M, w.base)
    eps = w.cell_measure
    c = 2.0**d + 1.0
    ts = np.union1d(rw.breaks, rM.breaks)
    for t in ts:
        lhs = float(rM.star(t))
        mid = double_star(rw, t)
        assert lhs <= mid * (1 + 1e-12)
        assert mid <= c * float(rM.star(t * (1 - eps))) * (1 + 1e-12)


def test_weak_type_unit_bound_exact():
    # (M_d(w chi_Q))*(t) never exceeds w**(t) at the plateau breakpoints
    for spec in ("const:2", "step:2,1", "step:4,1,1,1"):
        w = make_grid(1, 4, spec)
        M = dyadic_maximal(w, w.base)
        rM = rearrangement(M, w.base)
        rw = rearrangement(w, w.base)
        worst = max(float(rM.star(t)) / double_star(rw, t) for t in rM.breaks)
        assert math.isclose(worst, 1.0, rel_tol=1e-12)


# ---------------------------------------------------------------------------
# frozen per-point and per-cube forms


def _frozen_dyadic_maximal(w, Q0):
    """Cells of dyadic_maximal(w, Q0) from a running max over Q0's slice of
    each level's sums, before the per-level helper."""
    d, L = w.d, w.L
    rm = None
    for lev in range(Q0.level, L + 1):
        width = 1 << (d * (L - lev))
        a, b = w.zrange(Q0)
        avgs = w.float_level_sums(lev)[a // width : b // width] * (2.0 ** (d * (lev - L)))
        rm = avgs if rm is None else np.maximum(np.repeat(rm, 1 << d), avgs)
    out = np.empty_like(rm)
    out[_rowmajor_of_morton(d, L - Q0.level)] = rm
    return out


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def _assert_frozen_forms(w):
    children = [w.base.child(k) for k in range(1 << w.d)] if w.L > w.base.level else []
    for Q in [w.base] + children:
        r = rearrangement(w, Q)
        T = r.total_measure
        ts = np.concatenate([r.breaks, r.breaks * 0.7, [T * 1e-9, T * 0.31, T * 1.5, T * 40.0]])
        got = double_star(r, ts)
        frozen = [frozen_double_star(r, float(t)) for t in ts]
        np.testing.assert_array_equal(_bits(got), _bits(frozen))
        one = double_star(r, float(ts[-3]))
        assert type(one) is float and _bits(one) == _bits(frozen[-3])
        np.testing.assert_array_equal(_bits(dyadic_maximal(w, Q).cells), _bits(_frozen_dyadic_maximal(w, Q)))


@given(random_grids(max_level_1d=7, max_level_2d=4))
def test_double_star_and_maximal_match_frozen_random(w):
    _assert_frozen_forms(w)


@given(st.sampled_from(flat_grids() + localized_grids()))
def test_double_star_and_maximal_match_frozen_flat_and_localized(w):
    _assert_frozen_forms(w)


def test_double_star_rejects_any_nonpositive_t():
    r = rearrangement(make_grid(1, 2, "step:2,1"), make_grid(1, 2, "step:2,1").base)
    for t in (0.0, -1.0, [0.5, 0.0], np.array([0.25, -0.1, 2.0])):
        with pytest.raises(ValueError, match="t must be positive"):
            double_star(r, t)
    assert double_star(r, [0.25, 0.75, 2.0]).tolist() == [2.0, (1.0 + 0.25) / 0.75, 0.75]
