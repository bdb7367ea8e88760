"""Class constants over cube families and the equivalence checkers.

Frozen oracles, all hand-derived from two-cell computations: the reverse
Hölder constant of step 2,1 at p=2 is sqrt(2.5)/1.5, its A_2 constant 9/8,
its Fujii constant 7/6; the weighted mixed-step
constant is 3 sqrt(2)/4; the Luxemburg root of the constant-1 weight is the
scalar solving u log(e+u) = 1. The checkers themselves are exercised on the
deterministic corpus in both dimensions, including the flag logic that
excludes out-of-domain and borderline cases from assertions.
"""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import flat_grids, frozen_double_star, localized_grids, random_grids
from rhlab import indices, kcalc, weights
from rhlab.grid import DyadicCube, WeightGrid, _cube_at, cube_levels, integrate, level_cubes, make_grid
from rhlab.indices import family_index
from rhlab.grid import row_sums
from rhlab.kcalc import (
    HolmstedtCurve,
    _level_pieces,
    _PieceRun,
    _piece_matrices,
    grid_power,
    k_l1_linf,
    level_piece_integrals,
    lorentz_norm,
    power_piece_integral,
)
from rhlab.rearrange import DecreasingStep, _level_maximal, dyadic_maximal, rearrangement
from rhlab.weights import (
    _kside_levels,
    _lorentz_levels,
    a_p_constant,
    analyze_report,
    fujii_constant,
    gehring_improve,
    hardy_residual_sup,
    kside_rh_constant,
    rh_llogl_constant,
    rh_lorentz_constant,
    rh_lorentz_constants,
    rh_p_constant,
    rh_p_weighted_constant,
    standard_corpus,
    verify_acks,
    verify_extrapolation_bound,
    verify_fujii,
    verify_herz,
    verify_llogl_equivalence,
    verify_packing,
    verify_rearrange_exact,
    verify_rhp_equivalence,
    verify_stromberg_wheeden,
    verify_weighted_rh,
    weak_type_residual,
)


# ---------------------------------------------------------------------------
# frozen class constants


def test_rh_p_step_frozen():
    w = make_grid(1, 3, "step:2,1")
    c = rh_p_constant(w, 2.0)
    # the base cube dominates: (avg of w^2)^(1/2) / avg = sqrt(2.5) / 1.5
    assert math.isclose(c.value, math.sqrt(2.5) / 1.5, rel_tol=1e-14)
    assert c.witness == "0:0"
    assert c.kind == "RH_p"
    assert c.p == 2.0


def test_rh_p_const_is_one():
    w = make_grid(2, 3, "const:4.2")
    assert rh_p_constant(w, 3.0).value == 1.0


def test_a_p_step_frozen():
    w = make_grid(1, 3, "step:2,1")
    # avg(w) * avg(w^-1) = 1.5 * 0.75 at the base cube
    assert math.isclose(a_p_constant(w, 2.0).value, 9.0 / 8.0, rel_tol=1e-14)


def test_a_p_refuses_p_one():
    # like RH_p and the Lorentz and K-side constants, A_p needs p > 1
    w = make_grid(1, 3, "step:2,1")
    with pytest.raises(ValueError, match="^p must exceed 1$"):
        a_p_constant(w, 1.0)


def test_rh_llogl_const_frozen():
    w = make_grid(1, 4, "const:1")
    c = rh_llogl_constant(w)
    assert math.isclose(c.value, 1.2567506185377673, rel_tol=1e-10)


def test_rh_lorentz_const_frozen():
    w = make_grid(1, 4, "const:1")
    c = rh_lorentz_constant(w, 2.0, 2.0)
    assert math.isclose(c.value, math.sqrt(2.0), rel_tol=1e-12)
    assert (c.p, c.q) == (2.0, 2.0)


def test_fujii_frozen():
    assert fujii_constant(make_grid(1, 5, "const:2")).value == 1.0
    w = make_grid(1, 3, "step:2,1")
    # M(M w) averaged against M w peaks on the base cube: 1.75 / 1.5
    assert math.isclose(fujii_constant(w).value, 7.0 / 6.0, rel_tol=1e-12)


def test_rh_p_weighted_mixed_step_frozen():
    g = make_grid(1, 3, "step:2,1")
    w = make_grid(1, 3, "step:1,2")
    c = rh_p_weighted_constant(g, w, 2.0)
    assert math.isclose(c.value, 3.0 * math.sqrt(2.0) / 4.0, rel_tol=1e-13)


def test_rh_p_weighted_refuses_grids_on_different_bases():
    # the two halves of one grid: equal d, L and cell counts, other bases
    cells = make_grid(1, 6, "rand:1:lognormal:1").cells
    g = WeightGrid(1, 6, cells[:32], base=DyadicCube(1, (0,)))
    w = WeightGrid(1, 6, cells[32:], base=DyadicCube(1, (1,)))
    with pytest.raises(ValueError, match="g and w must share a grid"):
        rh_p_weighted_constant(g, w, 2.0)


def test_rh_p_weighted_reduces_to_unweighted():
    g = make_grid(1, 4, "rand:7:lognormal:1")
    ones = make_grid(1, 4, "const:1")
    a = rh_p_weighted_constant(g, ones, 2.0).value
    b = rh_p_constant(g, 2.0).value
    assert math.isclose(a, b, rel_tol=1e-13)


def test_kside_const_is_one():
    for spec in ("const:1", "const:3"):
        w = make_grid(1, 5, spec)
        assert math.isclose(kside_rh_constant(w, 2.0).value, 1.0, rel_tol=1e-12)


@pytest.mark.parametrize(
    "spec, d, L, bits, slack",
    [
        ("const:3.7", 1, 14, "0x1.0000000000455p+0", 1289.8),
        ("const:3.7", 2, 7, "0x1.0000000000455p+0", 1289.8),
        ("const:0.3", 1, 14, "0x1.000000000011bp+0", 481.6),
        ("const:0.3", 2, 7, "0x1.000000000011bp+0", 481.6),
    ],
)
def test_kside_negative_intercepts_keep_their_bits(spec, d, L, bits, slack):
    # the knots' rounding leaves level-piece intercepts A below 0, down to
    # -slack eps B s0, far past a slack of a few tens of eps; the kernel
    # accepts them and the K-side p = 1.5 constant keeps its bits
    w = make_grid(d, L, spec)
    worst = 0.0
    for lev in range(L + 1):
        vals, _, s0, _, A = _level_pieces(w, lev)
        neg = A < 0.0
        if np.any(neg):
            worst = max(worst, float(np.max(-A[neg] / (vals[neg] * np.broadcast_to(s0, A.shape)[neg]))))
    assert round(worst / np.finfo(np.float64).eps, 1) == slack
    assert kside_rh_constant(w, 1.5).value.hex() == bits


def _one_spike(L):
    # ones, but cell 20 is 1.657959: on every cube holding it the K-side
    # ratio R rises through the denominator's interior minimum t* in the
    # cube's 8th piece, peaks past t* and falls by the piece's right knot
    cells = np.ones(1 << L)
    cells[20] = 1.657959
    return WeightGrid(1, L, cells)


@pytest.mark.parametrize("L", [6, 14])
def test_kside_interior_minimum_beats_every_knot(L):
    # R(t*) decides the value, 8.1e-5 relative above the max over the
    # knots; every cube holding the spike shares its first 8 pieces, so
    # the family's max ties on each level and goes to level 0.  At L = 6
    # all levels are one run, at L = 14 each level is a lone level.
    w, p, level = _one_spike(L), 12.0, L - 3
    got = [(c.value.hex(), c.witness) for c in (kside_rh_constant(w, p, f"level:{level}"), kside_rh_constant(w, p))]
    assert got == [("0x1.52968094236eep+0", f"{level}:2"), ("0x1.52968094236eep+0", "0:0")]
    theta = 1.0 - 1.0 / p
    vals, K, s0, s, A = _level_pieces(w, level)
    prefix = np.cumsum(level_piece_integrals(A, vals, s0, s, p, -theta * p - 1.0), axis=1)
    knots = (prefix ** (1.0 / p) / (s ** -theta * K)).max()
    assert 8e-5 < float.fromhex(got[0][0]) / knots - 1.0 < 8.2e-5


def test_hardy_sup_step_frozen():
    w = make_grid(1, 3, "step:2,1")
    c = hardy_residual_sup(w, "base")
    assert math.isclose(c.value, (1.5 + 0.5 * math.log(2.0)) / 1.5, rel_tol=1e-12)
    assert c.cube_policy == "base"


# ---------------------------------------------------------------------------
# the level kernels against the per-piece route they replaced


def _frozen_lorentz_level(w, level, p, q):
    # _lorentz_level as it was: every piece flattened into power_piece_integral
    vals, K = w.sorted_level(level)
    n, m = vals.shape
    h = w.cell_measure
    s = np.arange(1, m + 1) * h
    s0 = np.concatenate(([0.0], s[:-1]))
    K0 = np.concatenate((np.zeros((n, 1)), K[:, :-1]), axis=1)
    A = K0 - vals * s0[None, :]
    E = q / p - q - 1.0
    head = power_piece_integral(A.ravel(), vals.ravel(), np.tile(s0, n), np.tile(s, n), q, E).reshape(n, m).sum(axis=1)
    mass = K[:, -1]
    T = m * h
    pprime = p / (p - 1.0)
    tail = mass ** q * T ** (q / p - q) * pprime / q
    return (head + tail) ** (1.0 / q)


def _frozen_kside_level(w, level, p):
    # _kside_level as it was: every piece flattened into power_piece_integral
    theta = 1.0 - 1.0 / p
    vals, K = w.sorted_level(level)
    n, m = vals.shape
    h = w.cell_measure
    s = np.arange(1, m + 1) * h
    s0 = np.concatenate(([0.0], s[:-1]))
    K0 = np.concatenate((np.zeros((n, 1)), K[:, :-1]), axis=1)
    A = K0 - vals * s0[None, :]
    E = -theta * p - 1.0
    piece = power_piece_integral(A.ravel(), vals.ravel(), np.tile(s0, n), np.tile(s, n), p, E).reshape(n, m)
    prefix = np.cumsum(piece, axis=1)
    ratios = prefix ** (1.0 / p) / (s[None, :] ** -theta * K)
    best = ratios.max(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        tstar = theta * A / (vals * (1.0 - theta))
    valid = (A > 0) & (tstar > s0[None, :]) & (tstar < s[None, :])
    if np.any(valid):
        rows, cols = np.nonzero(valid)
        part = power_piece_integral(A[rows, cols], vals[rows, cols], s0[cols], tstar[rows, cols], p, E)
        base = np.concatenate((np.zeros((n, 1)), prefix[:, :-1]), axis=1)
        num = (base[rows, cols] + part) ** (1.0 / p)
        den = (A[rows, cols] / (1.0 - theta)) * tstar[rows, cols] ** -theta
        np.maximum.at(best, rows, num / den)
    return best


def _swept(w, levels, run_values, *args):
    # the per-level values of levels, run by run, as the class constants sweep them
    return list(_PieceRun.sweep(w, levels, run_values, *args))


@settings(max_examples=30)
@given(st.one_of(random_grids(), st.sampled_from(flat_grids())), st.sampled_from([1.5, 2.0, 3.0]), st.sampled_from([1.5, 2.0, 3.0]))
def test_level_constants_bitwise_equal_per_piece_route(w, p, q):
    # each level on its own and all levels in one call (these grids have
    # at most 256 cells, so all their levels are one run)
    levels = range(w.base.level, w.L + 1)
    runs = zip(_swept(w, levels, _lorentz_levels, (p,), q, w.cell_measure), _swept(w, levels, _kside_levels, p))
    for lev, (lorentz, kside) in zip(levels, runs, strict=True):
        ref = _frozen_lorentz_level(w, lev, p, q)
        for got in (_swept(w, [lev], _lorentz_levels, (p,), q, w.cell_measure)[0][0], lorentz[0]):
            np.testing.assert_array_equal(got.view(np.uint64), ref.view(np.uint64))
        ref = _frozen_kside_level(w, lev, p)
        for got in (_swept(w, [lev], _kside_levels, p)[0], kside):
            np.testing.assert_array_equal(got.view(np.uint64), ref.view(np.uint64))


_LORENTZ_GRIDS = [make_grid(1, 6, "rand:11:lognormal:1"), make_grid(2, 3, "rand:12:lognormal:1")]


@pytest.mark.parametrize("q", [1.0, 2.0, 2.5, 3.0, 16.0, 17.0])
@pytest.mark.parametrize("w", _LORENTZ_GRIDS, ids=["d1", "d2"])
def test_lorentz_constants_of_several_p_equal_their_one_p_calls(w, q):
    # every p of a level from one build: each constant's value and witness
    # bit for bit those of its one-p call, and each level row those of the
    # per-piece route
    ps = (1.5, 2.0, 3.0, 4.0)
    for cubes in ("all-dyadic", "base", "level:2"):
        for p, c in zip(ps, rh_lorentz_constants(w, ps, q, cubes), strict=True):
            one = rh_lorentz_constant(w, p, q, cubes)
            assert c.value.hex() == one.value.hex()
            assert (c.kind, c.p, c.q, c.witness, c.cube_policy) == (one.kind, p, q, one.witness, cubes)
    for lev in range(w.L + 1):
        for row, p in zip(_swept(w, [lev], _lorentz_levels, ps, q, w.cell_measure)[0], ps, strict=True):
            ref = _frozen_lorentz_level(w, lev, p, q)
            np.testing.assert_array_equal(row.view(np.uint64), ref.view(np.uint64))


@pytest.mark.parametrize(
    "p, q, match",
    [(1.0, 2.0, "p must"), (0.5, 2.0, "p must"), (math.nan, 2.0, "p must"), (2.0, 0.5, "q must"), (2.0, math.nan, "q must"), (1.0, 0.5, "p must")],
)
def test_lorentz_constants_refuse_as_the_one_p_call(p, q, match):
    w = _LORENTZ_GRIDS[0]
    for call in (lambda: rh_lorentz_constant(w, p, q), lambda: rh_lorentz_constants(w, (2.0, p), q), lambda: rh_lorentz_constants(w, (p, 3.0), q)):
        with pytest.raises(ValueError, match=match):
            call()


# ---------------------------------------------------------------------------
# runs of levels in one kernel call against the level-by-level sweeps


def _frozen_sweep(w, cubes, level_values, nps=1):
    # _family_constant as it was: one level at a time, ties to the first
    # level and first Morton row; (value, witness) per row of level_values
    best, where = [-math.inf] * nps, [None] * nps
    for level in cube_levels(cubes, w.base.level, w.L):
        rows = np.atleast_2d(level_values(level))
        for k, i in enumerate(np.argmax(rows, axis=1)):
            if float(rows[k, i]) > best[k]:
                best[k], where[k] = float(rows[k, i]), (level, int(i))
    return [(v.hex(), _cube_at(w, *at).addr()) for v, at in zip(best, where)]


def _frozen_kside_one_level(w, level, p):
    # _kside_level as it was: the level's (n, m) call, then its minima
    theta = 1.0 - 1.0 / p
    vals, K, s0, s, A = _level_pieces(w, level)
    n = vals.shape[0]
    E = -theta * p - 1.0
    prefix = np.cumsum(level_piece_integrals(A, vals, s0, s, p, E), axis=1)
    best = (prefix ** (1.0 / p) / (s[None, :] ** -theta * K)).max(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        tstar = theta * A / (vals * (1.0 - theta))
    valid = (A > 0) & (tstar > s0[None, :]) & (tstar < s[None, :])
    if np.any(valid):
        rows, cols = np.nonzero(valid)
        part = power_piece_integral(A[rows, cols], vals[rows, cols], s0[cols], tstar[rows, cols], p, E)
        base = np.concatenate((np.zeros((n, 1)), prefix[:, :-1]), axis=1)
        num = (base[rows, cols] + part) ** (1.0 / p)
        den = (A[rows, cols] / (1.0 - theta)) * tstar[rows, cols] ** -theta
        np.maximum.at(best, rows, num / den)
    return best


def _frozen_lorentz_one_level(w, level, ps, q):
    # _lorentz_level as it was
    vals, K, s0, s, A = _level_pieces(w, level)
    pieces = _piece_matrices(A, vals, s0, s, q, [q / p - q - 1.0 for p in ps])
    heads = [row_sums(next(pieces)) for _ in ps]
    T = s.size * w.cell_measure
    mass_q = K[:, -1] ** q
    norms = np.empty((len(ps), vals.shape[0]))
    for row, head, p in zip(norms, heads, ps):
        row[:] = (head + mass_q * T ** (q / p - q) * (p / (p - 1.0)) / q) ** (1.0 / q)
    return norms


def _frozen_lorentz_ratios(w, level, ps, q):
    # the ratios of rh_lorentz_constants on _frozen_lorentz_one_level
    norms = _frozen_lorentz_one_level(w, level, ps, q)
    means = w.float_level_sums(level) / (1 << (w.d * (w.L - level)))
    for row, p in zip(norms, ps):
        row /= (2.0 ** (-w.d * level)) ** (1.0 / p) * means
    return norms


def _frozen_hardy_one_level(w, level):
    # indices._hardy_rows as it was, on one level's (n, m) pieces
    B, K, s0, s1, A = _level_pieces(w, level)
    with np.errstate(divide="ignore"):
        lograt = np.where(s0 > 0, np.log(s1 / np.where(s0 > 0, s0, 1.0)), 0.0)
    N = np.cumsum(A * lograt + B * (s1 - s0), axis=1)
    best = np.maximum((N / K).max(axis=1), 1.0)
    lo, hi = np.broadcast_to(s0, A.shape), np.broadcast_to(s1, A.shape)
    rows, cols = np.nonzero((A > 0) & (B > 0) & (lo > 0))
    if rows.size:
        a, b, lo, hi = A[rows, cols], B[rows, cols], lo[rows, cols], hi[rows, cols]
        n0 = N[rows, cols - 1]
        with np.errstate(divide="ignore", over="ignore"):
            t = a / (b * indices._wright_omega(np.log(a / (b * lo)) - 2.0 + (n0 - b * lo) / a))
        inside = (t > lo) & (t < hi)
        a, b, lo, t, n0 = a[inside], b[inside], lo[inside], t[inside], n0[inside]
        np.maximum.at(best, rows[inside], (n0 + a * np.log(t / lo) + b * (t - lo)) / (a + b * t))
    return best


# const:3.7 has intercepts just below 0 by rounding; on the sigma 0.3 grids
# a few cubes' Hardy residuals sit at an interior maximum, not at a knot
_SWEEP_GRIDS = flat_grids() + localized_grids() + [
    make_grid(1, 8, "const:3.7"), make_grid(2, 4, "const:3.7"), make_grid(1, 10, "step:4,1,1,1"),
    make_grid(1, 10, "rand:1:lognormal:0.3"), make_grid(2, 5, "rand:1:lognormal:0.3"),
]
# swept at p = 12 only, where its K-side values sit at the t* candidates
_SPIKE = _one_spike(6)


@settings(max_examples=80)
@given(
    st.one_of(random_grids(max_level_1d=10, max_level_2d=5), st.sampled_from(_SWEEP_GRIDS), st.just(_SPIKE)),
    st.sampled_from([1.5, 2.0, 3.0]),
    st.sampled_from([1.0, 2.0, 2.5, 3.0]),
    st.data(),
)
def test_level_runs_equal_the_level_by_level_sweeps(w, p, q, data):
    # every cube's value, and each constant's value and witness, bit for bit,
    # with budgets that cut the levels into runs of several levels, into
    # lone levels, and the default
    if w is _SPIKE:
        p = 12.0
    lo = w.base.level
    k = data.draw(st.integers(lo, w.L), label="k")
    budget = data.draw(st.sampled_from([1, 2 * w.ncells, 3 * w.ncells, kcalc._PIECE_BATCH]), label="budget")
    ps = (1.5, 2.0, 3.0)
    bits = lambda x: x.view(np.uint64).tolist()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kcalc, "_PIECE_BATCH", budget)
        levels = range(lo, w.L + 1)
        lorentz, kside = _swept(w, levels, _lorentz_levels, ps, q, w.cell_measure), _swept(w, levels, _kside_levels, p)
        for lev, norms, ks, h in zip(levels, lorentz, kside, _swept(w, levels, indices._hardy_rows), strict=True):
            assert bits(norms) == bits(_frozen_lorentz_one_level(w, lev, ps, q))
            assert bits(ks) == bits(_frozen_kside_one_level(w, lev, p))
            assert bits(h) == bits(_frozen_hardy_one_level(w, lev))
        for cubes in ("all-dyadic", "base", f"level:{k}"):
            got = [(c.value.hex(), c.witness) for c in rh_lorentz_constants(w, ps, q, cubes)]
            assert got == _frozen_sweep(w, cubes, lambda lev: _frozen_lorentz_ratios(w, lev, ps, q), len(ps))
            c = kside_rh_constant(w, p, cubes)
            assert [(c.value.hex(), c.witness)] == _frozen_sweep(w, cubes, lambda lev: _frozen_kside_one_level(w, lev, p))
            c = hardy_residual_sup(w, cubes)
            assert [(c.value.hex(), c.witness)] == _frozen_sweep(w, cubes, lambda lev: _frozen_hardy_one_level(w, lev))


def _count_kernel_calls(monkeypatch):
    # every piece-kernel call, through level_piece_integrals or directly,
    # by the shape of its A; power_piece_integral and Wright omega calls
    calls = {"pieces": [], "power_piece_integral": 0, "omega": 0}
    real_pieces, real_power, real_omega = kcalc._piece_matrices, kcalc.power_piece_integral, indices._wright_omega

    def pieces(A, *a):
        calls["pieces"].append(np.shape(A))
        return real_pieces(A, *a)

    def power(*a):
        calls["power_piece_integral"] += 1
        return real_power(*a)

    def omega(c):
        calls["omega"] += 1
        return real_omega(c)

    monkeypatch.setattr(kcalc, "_piece_matrices", pieces)
    monkeypatch.setattr(kcalc, "power_piece_integral", power)
    monkeypatch.setattr(indices, "_wright_omega", omega)
    return calls


@pytest.mark.parametrize("p", [1.5, 2.0])
def test_small_grid_sweeps_its_levels_in_one_call(monkeypatch, p):
    # all 9 levels of a d=1 L=8 grid (256 cells each) in one kernel call;
    # one _piece_matrices call per q, and one Wright omega call
    w = make_grid(1, 8, "rand:3:lognormal:1")
    calls = _count_kernel_calls(monkeypatch)
    kside_rh_constant(w, p)
    assert len(calls["pieces"]) == 1 and calls["power_piece_integral"] == 0
    for q in (2.0, 2.5):
        rh_lorentz_constants(w, (1.5, 2.0, 3.0), q)
    assert len(calls["pieces"]) == 3
    hardy_residual_sup(w)
    assert calls["omega"] == 1


def test_deep_grid_keeps_one_call_per_level(monkeypatch):
    # from 2^14 cells on each level is a run of its own and keeps its
    # (n, m) call; the K-side minima of a level take a one-row call
    w = make_grid(1, 14, "rand:3:lognormal:1")
    shapes = [(1 << k, 1 << (14 - k)) for k in range(15)]
    calls = _count_kernel_calls(monkeypatch)
    rh_lorentz_constants(w, (1.5, 2.0, 3.0), 2.0)
    assert calls["pieces"] == shapes
    calls["pieces"].clear()
    kside_rh_constant(w, 2.0)
    assert [s for s in calls["pieces"] if s in shapes] == shapes
    assert all(s[0] == 1 for s in calls["pieces"] if s not in shapes)
    assert calls["power_piece_integral"] == 0
    hardy_residual_sup(w)
    assert calls["omega"] == len(shapes)


def test_constants_respect_cube_families():
    w = make_grid(1, 4, "rand:3:lognormal:1")
    full = rh_p_constant(w, 2.0).value
    base_only = rh_p_constant(w, 2.0, "base").value
    level2 = rh_p_constant(w, 2.0, "level:2").value
    assert full >= base_only * (1 - 1e-15)
    assert full >= level2 * (1 - 1e-15)


@pytest.mark.parametrize(
    "w",
    [make_grid(1, 4, "rand:4:lognormal:1"), make_grid(2, 3, "rand:5:lognormal:1"), *localized_grids()],
    ids=lambda w: f"d{w.d}L{w.L}base{w.base.level}",
)
def test_policy_constant_is_max_over_its_cubes(w):
    # a policy string names the cubes of its levels, level-major and each
    # level in Morton order (grid.cube_levels, grid.level_cubes): the
    # constant is the max of the per-cube ratio over exactly those cubes
    lo = w.base.level
    for policy, levels in (
        ("all-dyadic", range(lo, w.L + 1)),
        ("base", [lo]),
        (f"level:{lo + 1}", [lo + 1]),
        (f"level:{w.L}", [w.L]),
    ):
        assert list(cube_levels(policy, lo, w.L)) == list(levels)
        cubes = [Q for lev in levels for Q in level_cubes(w, lev)]
        ratios = [np.mean(w.cube_cells(Q) ** 2.0) ** 0.5 / np.mean(w.cube_cells(Q)) for Q in cubes]
        c = rh_p_constant(w, 2.0, policy)
        assert math.isclose(c.value, max(ratios), rel_tol=1e-12)
        assert c.witness == cubes[int(np.argmax(ratios))].addr()
        assert c.cube_policy == policy
    with pytest.raises(ValueError, match=rf"level {lo - 1} outside"):
        rh_p_constant(w, 2.0, f"level:{lo - 1}")


_CONSTANTS = {
    "rh_p": lambda w, cubes: rh_p_constant(w, 2.0, cubes),
    "a_p": lambda w, cubes: a_p_constant(w, 2.0, cubes),
    "llogl": rh_llogl_constant,
    "lorentz": lambda w, cubes: rh_lorentz_constant(w, 2.0, 2.0, cubes),
    "fujii": fujii_constant,
    "kside": lambda w, cubes: kside_rh_constant(w, 2.0, cubes),
    "hardy": hardy_residual_sup,
}


@pytest.mark.parametrize("name", sorted(_CONSTANTS))
def test_out_of_range_level_policy_raises_range_error(name):
    # one parser of the policy string: a level outside [base level, L]
    # raises its range message, also below a localized grid's base
    const = _CONSTANTS[name]
    w = make_grid(1, 4, "rand:3:lognormal:1")
    for k in (99, 5, -1):
        with pytest.raises(ValueError, match=rf"^level {k} outside \[0, 4\]$"):
            const(w, f"level:{k}")
    local = localized_grids()[0]
    assert local.base.level == 2
    with pytest.raises(ValueError, match=rf"^level 1 outside \[2, {local.L}\]$"):
        const(local, "level:1")
    with pytest.raises(ValueError, match="^unknown cube policy 'rings'$"):
        const(w, "rings")


_OVERFLOW_CONSTANTS = dict(_CONSTANTS, weighted=lambda w, cubes: rh_p_weighted_constant(w, w, 2.0, cubes))


@pytest.mark.parametrize("name", sorted(_OVERFLOW_CONSTANTS))
def test_mass_beyond_float_range_raises_before_any_cell_power(name):
    # the cells are finite but their sum is not: every constant refuses the
    # grid with the level sums' OverflowError, before a power of the cells
    # or a sum over inf/NaN could warn
    w = WeightGrid(1, 1, [1e308, 1e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match="^cube mass exceeds the float range$"):
            _OVERFLOW_CONSTANTS[name](w, "all-dyadic")


@pytest.mark.parametrize("c, p", [(1e200, 1.5), (1e300, 1.25)])
def test_a_p_dual_powers_below_the_normal_range(c, p):
    # w^(-1/(p-1)) underflows for a large constant weight: the constant is
    # computed on the cells scaled by a power of two, and stays 1
    w = WeightGrid(1, 4, np.full(16, c))
    assert math.isclose(a_p_constant(w, p).value, 1.0, rel_tol=1e-15)


def test_rh_p_powers_in_the_normal_range_keep_their_bits():
    # no scaling unless a power leaves the normal range
    w = make_grid(1, 6, "rand:3:lognormal:1.5")
    z = w.zcells
    for lev in range(w.L + 1):
        width = 1 << (w.L - lev)
        ref = (z**2.0).reshape(-1, width).mean(axis=1) ** 0.5 / (w.float_level_sums(lev) / width)
        assert rh_p_constant(w, 2.0, f"level:{lev}").value == float(ref.max())


def test_nan_parameters_are_refused():
    # every comparison with NaN is False, so each check is written to fail on it
    w = make_grid(1, 3, "rand:1:lognormal:1")
    K = k_l1_linf(w, w.base)
    nan = math.nan
    cases = [
        lambda: HolmstedtCurve(K, 0.5, nan),
        lambda: rh_p_constant(w, nan),
        lambda: a_p_constant(w, nan),
        lambda: rh_lorentz_constant(w, nan, 2.0),
        lambda: rh_lorentz_constant(w, 2.0, nan),
        lambda: lorentz_norm(w, w.base, nan, 2.0),
        lambda: lorentz_norm(w, w.base, 2.0, nan),
        lambda: kside_rh_constant(w, nan),
        lambda: family_index(w, C_cap=nan),
    ]
    for case in cases:
        with pytest.raises(ValueError, match="must"):
            case()


# ---------------------------------------------------------------------------
# invariances


@given(random_grids(max_level_1d=5, max_level_2d=3), st.sampled_from([1e-3, 0.5, 7.0, 1e4]))
def test_constants_scale_invariant(w, c):
    ws = WeightGrid(w.d, w.L, w.cells * c, label="scaled")
    pairs = [
        (rh_p_constant(w, 2.0).value, rh_p_constant(ws, 2.0).value),
        (a_p_constant(w, 2.0).value, a_p_constant(ws, 2.0).value),
        (rh_llogl_constant(w).value, rh_llogl_constant(ws).value),
        (rh_lorentz_constant(w, 2.0, 2.0).value, rh_lorentz_constant(ws, 2.0, 2.0).value),
        (fujii_constant(w).value, fujii_constant(ws).value),
    ]
    for a, b in pairs:
        assert math.isclose(a, b, rel_tol=1e-12)


@given(random_grids(max_level_1d=5, max_level_2d=3))
def test_constants_at_least_one(w):
    assert rh_p_constant(w, 1.5).value >= 1.0
    assert a_p_constant(w, 2.0).value >= 1.0 - 1e-15
    assert fujii_constant(w).value >= 1.0 - 1e-15
    assert kside_rh_constant(w, 2.0).value >= 1.0 - 1e-12


@given(random_grids(max_level_1d=5, max_level_2d=3), st.floats(1.1, 3.0), st.floats(0.1, 2.0))
def test_rh_p_monotone_in_p(w, p, dp):
    lo = rh_p_constant(w, p).value
    hi = rh_p_constant(w, p + dp).value
    assert hi >= lo * (1 - 1e-12)


# ---------------------------------------------------------------------------
# gehring


def test_gehring_pow_half():
    w = make_grid(1, 14, "pow:-0.5")
    res = gehring_improve(w, 1.5)
    assert math.isclose(res.ind_hat, 0.5, abs_tol=1e-4)
    assert res.p0 == (1.5 + res.p_max) / 2.0
    assert 1.6 < res.p0 < 1.95
    assert res.certified


def test_gehring_const_hits_cap():
    res = gehring_improve(make_grid(1, 8, "const:1"), 2.0)
    assert res.p_max == 64.0
    assert res.p0 > 2.0


def test_gehring_rejects_weight_outside_class():
    w = make_grid(1, 12, "pow:-0.75")
    with pytest.raises(ValueError):
        gehring_improve(w, 3.0)  # index 0.25 is below 1 - 1/3


# ---------------------------------------------------------------------------
# equivalence checkers


def test_verify_rhp_step():
    w = make_grid(1, 8, "step:2,1")
    [case] = verify_rhp_equivalence(w, 2.0)
    assert case["pass"]
    assert 1.0 / 8.0 <= case["ratio"] <= 8.0


def test_verify_llogl_step():
    w = make_grid(1, 8, "step:2,1")
    [case] = verify_llogl_equivalence(w)
    assert case["pass"]
    assert case["rh_llogl"] >= 1.0
    assert case["hardy_sup"] >= 1.0


def test_verify_acks_analytic():
    for spec in ("const:1", "step:2,1", "pow:-0.5"):
        w = make_grid(1, 10, spec)
        [case] = verify_acks(w)
        assert case["pass"], spec
        assert case["in_by_family"] and case["in_by_acks"]


def test_verify_acks_borderline_flagged():
    w = make_grid(1, 12, "pow:-0.95")
    [case] = verify_acks(w)
    assert case["pass"]  # borderline cases are excluded from the assertion
    assert case["borderline"]


def test_verify_stromberg_wheeden_power_transfer():
    # for x^a the index of w^p is 1 + a p, within the estimator tolerance
    for a, p in [(-0.25, 1.5), (-0.25, 2.0), (-0.5, 1.5)]:
        w = make_grid(1, 14, f"pow:{a}")
        [case] = verify_stromberg_wheeden(w, p)
        assert case["pass"]
        assert not case["out_of_domain"]
        assert abs(case["delta_hat_power"] - (1.0 + a * p)) <= 0.05


def test_verify_stromberg_wheeden_out_of_domain():
    # (x^-0.6)^2 = x^-1.2 is not locally integrable in the continuum
    w = make_grid(1, 12, "pow:-0.6")
    [case] = verify_stromberg_wheeden(w, 2.0)
    assert case["pass"]
    assert case["out_of_domain"]


@pytest.mark.parametrize("spec", ["pow:-0.75", "pow:-.75", "pow:-7.5e-1"])
def test_verify_stromberg_wheeden_ignores_descriptor_spelling(spec):
    # one weight spelled three ways; (x^-0.75)^1.5 is not locally integrable
    [case] = verify_stromberg_wheeden(make_grid(1, 10, spec), 1.5)
    assert case["pass"]
    assert case["out_of_domain"]


def test_verify_stromberg_wheeden_rejects_p_one():
    with pytest.raises(ValueError):
        verify_stromberg_wheeden(make_grid(1, 4, "const:1"), 1.0)


def test_verify_fujii_step():
    w = make_grid(1, 6, "step:2,1")
    [case] = verify_fujii(w)
    assert case["pass"]
    k = case["rh_llogl"]
    assert case["fujii"] <= 4.0 * (k * k + k + 1.0)
    assert case["iterated_over_single"] >= 1.0


def test_weak_type_residual_exact_one():
    for spec in ("const:2", "step:2,1"):
        w = make_grid(1, 5, spec)
        assert math.isclose(weak_type_residual(w, w.base), 1.0, rel_tol=1e-12)


@given(random_grids(max_level_1d=6, max_level_2d=3))
def test_weak_type_residual_bounded(w):
    assert weak_type_residual(w, w.base) <= 1.0 + 1e-9


# frozen per-point forms of the Herz and weak-type checks and of the Fujii
# ratios, before they became array expressions


def _frozen_herz(w):
    Q0 = w.base
    rM = rearrangement(dyadic_maximal(w, Q0), Q0)
    rw = rearrangement(w, Q0)
    ts = np.unique(np.concatenate((rM.breaks, rw.breaks)))
    eps = w.cell_measure
    cd = (1 << w.d) + 1.0
    ok1 = ok2 = True
    worst1 = worst2 = 0.0
    for t in ts:
        lhs1 = rM.star(t)
        rhs1 = frozen_double_star(rw, t)
        worst1 = max(worst1, lhs1 / rhs1)
        if lhs1 > rhs1 * (1.0 + 1e-12):
            ok1 = False
        lhs2 = frozen_double_star(rw, t)
        rhs2 = cd * rM.star(t * (1.0 - eps))
        worst2 = max(worst2, lhs2 / rhs2)
        if lhs2 > rhs2 * (1.0 + 1e-12):
            ok2 = False
    return ok1, ok2, worst1, worst2


def _frozen_weak_type(w, Q):
    rM = rearrangement(dyadic_maximal(w, Q), Q)
    rw = rearrangement(w, Q)
    best = 0.0
    for t in rM.breaks:
        best = max(best, float(rM.star(t)) / frozen_double_star(rw, t))
    return best


def _frozen_fujii_maximal(w, lev):
    rm = w.float_level_sums(lev) / (1 << (w.d * (w.L - lev)))
    for l2 in range(lev + 1, w.L + 1):
        rm = np.maximum(np.repeat(rm, 1 << w.d), w.float_level_sums(l2) / (1 << (w.d * (w.L - l2))))
    return rm.reshape(-1, 1 << (w.d * (w.L - lev)))


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def _assert_maximal_checks_frozen(w):
    [case] = verify_herz(w)
    ok1, ok2, worst1, worst2 = _frozen_herz(w)
    assert (case["maximal_below_doublestar"], case["doublestar_below_scaled_maximal"]) == (ok1, ok2)
    assert _bits(case["worst_ratio_1"]) == _bits(worst1)
    assert _bits(case["worst_ratio_2"]) == _bits(worst2)
    children = [w.base.child(k) for k in range(1 << w.d)] if w.L > w.base.level else []
    for Q in [w.base] + children:
        assert _bits(weak_type_residual(w, Q)) == _bits(_frozen_weak_type(w, Q))
    best = -math.inf
    for lev in range(w.base.level, w.L + 1):
        rm = _frozen_fujii_maximal(w, lev)
        np.testing.assert_array_equal(_bits(_level_maximal(w, lev)), _bits(rm))
        ratios = rm.sum(axis=1) / w.float_level_sums(lev)
        i = int(np.argmax(ratios))
        c = fujii_constant(w, f"level:{lev}")
        assert _bits(c.value) == _bits(ratios[i]) and c.witness == _cube_at(w, lev, i).addr()
        best = max(best, float(ratios[i]))
    assert _bits(fujii_constant(w).value) == _bits(best)


@given(random_grids(max_level_1d=7, max_level_2d=4))
def test_maximal_checks_match_frozen_random(w):
    _assert_maximal_checks_frozen(w)


@given(st.sampled_from(flat_grids() + localized_grids()))
def test_maximal_checks_match_frozen_flat_and_localized(w):
    _assert_maximal_checks_frozen(w)


def test_verify_extrapolation_const():
    w = make_grid(1, 6, "const:3")
    [case] = verify_extrapolation_bound(w)
    assert case["pass"]
    assert math.isclose(case["lhs"], 3.0, rel_tol=1e-10)


def test_verify_weighted_rh_mixed_step():
    g = make_grid(1, 4, "step:2,1")
    w = make_grid(1, 4, "step:1,2")
    assert all(case["pass"] for case in verify_weighted_rh(g, w, 2.0))


def test_verify_rearrange_and_herz_both_dims():
    for d, L in ((1, 6), (2, 3)):
        w = make_grid(d, L, f"rand:{d}:lognormal:1")
        assert verify_rearrange_exact(w)[0]["pass"]
        assert verify_herz(w)[0]["pass"]


def test_verify_rearrange_mass_exact_catches_wrong_plateau_count(monkeypatch):
    # one plateau one cell too wide, the mass still the cube's exact sum
    w = make_grid(1, 6, "step:4,1,1,1")

    def miscounted(w, Q):
        r = rearrangement(w, Q)
        measures = r.measures.copy()
        measures[0] += w.cell_measure
        return DecreasingStep(r.values, measures, r.total_measure, r.mass)

    assert verify_rearrange_exact(w)[0]["mass_exact"]
    monkeypatch.setattr(weights, "rearrangement", miscounted)
    [case] = verify_rearrange_exact(w)
    assert not case["mass_exact"] and not case["pass"]


def test_verify_packing_random():
    for d, L in ((1, 5), (2, 3)):
        f = make_grid(d, L, f"rand:{40 + d}:lognormal:1")
        [case] = verify_packing(f)
        assert case["pass"], (d, L)


# ---------------------------------------------------------------------------
# corpus and reports


def test_standard_corpus_shape():
    c1 = standard_corpus(1, seed=1)
    c2 = standard_corpus(2, seed=1)
    assert len(c1) == 17  # 4 analytic + 3 powers + 10 random
    assert len(c2) == 14  # no powers in dimension 2
    assert [w.label for w in c1[:4]] == ["const:1", "const:3.7", "step:2,1", "step:4,1,1,1"]
    assert all(w.d == 2 for w in c2)
    again = standard_corpus(1, seed=1)
    for a, b in zip(c1, again):
        assert np.array_equal(a.cells, b.cells)


def test_analyze_report_schema():
    w = make_grid(1, 4, "const:1")
    rep = analyze_report(w)
    assert list(rep.keys()) == [
        "schema",
        "weight",
        "grid",
        "cube_policy",
        "constants",
        "indices",
        "classifications",
        "theorems",
    ]
    assert rep["schema"] == 1
    assert rep["grid"] == {"d": 1, "L": 4}
    assert rep["theorems"] == []
    # a constant weight is in every class
    assert all(rep["classifications"]["rh_p"].values())
    assert rep["classifications"]["a_inf"] is True
    for c in rep["constants"]:
        if c["kind"] in ("rh_p", "a_p", "rh_llogl", "rh_lorentz"):
            assert math.isclose(c["value"], 1.0, rel_tol=1e-9) or c["value"] >= 1.0
    # report is JSON-serializable as-is
    text = json.dumps(rep)
    assert json.loads(text) == rep


# ---------------------------------------------------------------------------
# index transfer on powers, the analytic invariant


def test_power_weight_index_arithmetic():
    # family index of x^a is 1 + a; squaring the weight maps it to 1 + 2a
    w = make_grid(1, 14, "pow:-0.25")
    w2 = grid_power(w, 2.0)
    d1 = family_index(w).delta_hat
    d2 = family_index(w2).delta_hat
    assert abs(d1 - 0.75) <= 0.05
    assert abs(d2 - 0.5) <= 0.05
