"""Class constants over cube families and the equivalence checkers.

Frozen oracles, all hand-derived from two-cell computations: the reverse
Hölder constant of step 2,1 at p=2 is sqrt(2.5)/1.5, its A_2 constant 9/8,
its A_1 constant 3/2, its Fujii constant 7/6; the weighted mixed-step
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
from rhlab import weights
from rhlab.grid import DyadicCube, WeightGrid, _cube_at, cube_levels, integrate, level_cubes, make_grid
from rhlab.indices import family_index
from rhlab.kcalc import CurveFamily, HolmstedtCurve, _level_pieces, grid_power, k_l1_linf, lorentz_norm, power_piece_integral
from rhlab.rearrange import DecreasingStep, _level_maximal, dyadic_maximal, rearrangement
from rhlab.weights import (
    _kside_level,
    _lorentz_level,
    a_p_constant,
    analyze_report,
    fujii_constant,
    gehring_improve,
    hardy_residual_sup,
    kside_rh_constant,
    rh_llogl_constant,
    rh_lorentz_constant,
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
    assert math.isclose(a_p_constant(w, 1.0).value, 1.5, rel_tol=1e-14)


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


@settings(max_examples=30)
@given(st.one_of(random_grids(), st.sampled_from(flat_grids())), st.sampled_from([1.5, 2.0, 3.0]), st.sampled_from([1.5, 2.0, 3.0]))
def test_level_constants_bitwise_equal_per_piece_route(w, p, q):
    for lev in range(w.base.level, w.L + 1):
        got, ref = _lorentz_level(w, lev, p, q), _frozen_lorentz_level(w, lev, p, q)
        np.testing.assert_array_equal(got.view(np.uint64), ref.view(np.uint64))
        got, ref = _kside_level(w, lev, p), _frozen_kside_level(w, lev, p)
        np.testing.assert_array_equal(got.view(np.uint64), ref.view(np.uint64))


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


@pytest.mark.parametrize(
    "w",
    [make_grid(1, 6, "rand:3:lognormal:1"), make_grid(2, 3, "rand:5:lognormal:1"), *localized_grids()],
    ids=lambda w: f"d{w.d}L{w.L}base{w.base.level}",
)
def test_a_1_maximal_function_runs_over_the_policy_cubes(w):
    # M_F w on a cell is the max of avg_Q w over the policy's cubes Q that
    # hold the cell; A_1 is the max cell ratio M_F w / w
    lo = w.base.level
    for policy in ("all-dyadic", "base", f"level:{lo + 1}", f"level:{w.L}"):
        M = np.zeros(w.ncells)
        for Q in (Q for lev in cube_levels(policy, lo, w.L) for Q in level_cubes(w, lev)):
            a, b = w.zrange(Q)
            M[a:b] = np.maximum(M[a:b], np.mean(w.cube_cells(Q)))
        ratios = M / w.zcells
        c = a_p_constant(w, 1.0, policy)
        assert math.isclose(c.value, ratios.max(), rel_tol=1e-12)
        assert c.witness == _cube_at(w, w.L, int(np.argmax(ratios))).addr()
        assert c.cube_policy == policy


_CONSTANTS = {
    "rh_p": lambda w, cubes: rh_p_constant(w, 2.0, cubes),
    "a_p": lambda w, cubes: a_p_constant(w, 2.0, cubes),
    "a_1": lambda w, cubes: a_p_constant(w, 1.0, cubes),
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
        lambda: family_index(CurveFamily(w), q=nan),
        lambda: family_index(CurveFamily(w), C_cap=nan),
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
    rep = verify_rhp_equivalence(w, 2.0)
    assert rep.passed
    case = rep.cases[0]
    assert 1.0 / 8.0 <= case["ratio"] <= 8.0


def test_verify_llogl_step():
    w = make_grid(1, 8, "step:2,1")
    rep = verify_llogl_equivalence(w)
    assert rep.passed
    assert rep.constants["rh_llogl"] >= 1.0
    assert rep.constants["hardy_sup"] >= 1.0


def test_verify_acks_analytic():
    for spec in ("const:1", "step:2,1", "pow:-0.5"):
        w = make_grid(1, 10, spec)
        rep = verify_acks(w)
        assert rep.passed, spec
        case = rep.cases[0]
        assert case["in_by_family"] and case["in_by_acks"]


def test_verify_acks_borderline_flagged():
    w = make_grid(1, 12, "pow:-0.95")
    rep = verify_acks(w)
    assert rep.passed  # borderline cases are excluded from the assertion
    assert rep.cases[0]["borderline"]


def test_verify_stromberg_wheeden_power_transfer():
    # for x^a the index of w^p is 1 + a p, within the estimator tolerance
    for a, p in [(-0.25, 1.5), (-0.25, 2.0), (-0.5, 1.5)]:
        w = make_grid(1, 14, f"pow:{a}")
        rep = verify_stromberg_wheeden(w, p)
        case = rep.cases[0]
        assert rep.passed
        assert not case["out_of_domain"]
        assert abs(case["delta_hat_power"] - (1.0 + a * p)) <= 0.05


def test_verify_stromberg_wheeden_out_of_domain():
    # (x^-0.6)^2 = x^-1.2 is not locally integrable in the continuum
    w = make_grid(1, 12, "pow:-0.6")
    rep = verify_stromberg_wheeden(w, 2.0)
    assert rep.passed
    assert rep.cases[0]["out_of_domain"]


@pytest.mark.parametrize("spec", ["pow:-0.75", "pow:-.75", "pow:-7.5e-1"])
def test_verify_stromberg_wheeden_ignores_descriptor_spelling(spec):
    # one weight spelled three ways; (x^-0.75)^1.5 is not locally integrable
    rep = verify_stromberg_wheeden(make_grid(1, 10, spec), 1.5)
    assert rep.passed
    assert rep.cases[0]["out_of_domain"]


def test_verify_stromberg_wheeden_rejects_p_one():
    with pytest.raises(ValueError):
        verify_stromberg_wheeden(make_grid(1, 4, "const:1"), 1.0)


def test_verify_fujii_step():
    w = make_grid(1, 6, "step:2,1")
    rep = verify_fujii(w)
    assert rep.passed
    k = rep.constants["rh_llogl"]
    assert rep.constants["fujii"] <= 4.0 * (k * k + k + 1.0)
    assert rep.constants["iterated_over_single"] >= 1.0


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
    case = verify_herz(w).cases[0]
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
    rep = verify_extrapolation_bound(w)
    assert rep.passed
    assert math.isclose(rep.constants["lhs"], 3.0, rel_tol=1e-10)


def test_verify_weighted_rh_mixed_step():
    g = make_grid(1, 4, "step:2,1")
    w = make_grid(1, 4, "step:1,2")
    rep = verify_weighted_rh(g, w, 2.0)
    assert rep.passed


def test_verify_rearrange_and_herz_both_dims():
    for d, L in ((1, 6), (2, 3)):
        w = make_grid(d, L, f"rand:{d}:lognormal:1")
        assert verify_rearrange_exact(w).passed
        assert verify_herz(w).passed


def test_verify_rearrange_mass_exact_catches_wrong_plateau_count(monkeypatch):
    # one plateau one cell too wide, the mass still the cube's exact sum
    w = make_grid(1, 6, "step:4,1,1,1")

    def miscounted(w, Q):
        r = rearrangement(w, Q)
        measures = r.measures.copy()
        measures[0] += w.cell_measure
        return DecreasingStep(r.values, measures, r.total_measure, r.mass)

    assert verify_rearrange_exact(w).cases[0]["mass_exact"]
    monkeypatch.setattr(weights, "rearrangement", miscounted)
    case = verify_rearrange_exact(w).cases[0]
    assert not case["mass_exact"] and not case["pass"]


def test_verify_packing_random():
    for d, L in ((1, 5), (2, 3)):
        f = make_grid(d, L, f"rand:{40 + d}:lognormal:1")
        rep = verify_packing(f)
        assert rep.passed, (d, L)


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
    # a constant weight is in every class
    assert all(rep["classifications"]["rh_p"].values())
    assert rep["classifications"]["a_inf"] is True
    for c in rep["constants"]:
        if c["kind"] in ("rh_p", "a_p", "rh_llogl", "rh_lorentz"):
            assert math.isclose(c["value"], 1.0, rel_tol=1e-9) or c["value"] >= 1.0
    # report is JSON-serializable as-is
    text = json.dumps(rep)
    assert json.loads(text) == rep


def test_analyze_report_theorem_section():
    w = make_grid(1, 5, "step:2,1")
    reports = [verify_rearrange_exact(w), verify_herz(w), verify_rhp_equivalence(w, 2.0)]
    rep = analyze_report(w, theorems=reports)
    ids = [t["id"] for t in rep["theorems"]]
    assert ids == ["rearrange-exactness", "herz-bounds", "rhp-equivalence"]
    assert all(t["pass"] for t in rep["theorems"])


# ---------------------------------------------------------------------------
# index transfer on powers, the analytic invariant


def test_power_weight_index_arithmetic():
    # family index of x^a is 1 + a; squaring the weight maps it to 1 + 2a
    from rhlab.indices import family_index
    from rhlab.kcalc import CurveFamily

    w = make_grid(1, 14, "pow:-0.25")
    w2 = grid_power(w, 2.0)
    d1 = family_index(CurveFamily(w)).delta_hat
    d2 = family_index(CurveFamily(w2)).delta_hat
    assert abs(d1 - 0.75) <= 0.05
    assert abs(d2 - 0.5) <= 0.05
