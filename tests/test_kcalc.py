"""K-functional curves, Holmstedt reiteration, Lorentz and L log L norms.

Every closed-form integrator here is cross-checked against adaptive
quadrature (scipy.integrate.quad) on the same integrand, with breakpoints
passed as quadrature nodes. The frozen oracles are hand-derived: the K-curve
of step 2,1, the straight Holmstedt line of a constant weight, the Luxemburg
root of the constant-1 weight, and the Lorentz norms of indicators. The
one piece-integral kernel is checked bit for bit twice: power_piece_integral
against a frozen copy of its former implementation (its own 20/40-node pass
over all pieces, with the kernel's fixed-order node sums) on the pieces it
integrates in one panel, and
level_piece_integrals on a level's (n, m) piece matrix against the same
pieces flattened into one row, row by row and piece by piece, at any block
size; its geometric panels against 40-digit mpmath on the pieces they
split; the level-table packing path
(k_weighted_curve) against a frozen copy of the per-packing, per-cube loop
it replaced, fed the cube lists of the family's rows; packing_family's rows
against the per-threshold covered-mask loop it replaced.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from conftest import assert_near_frozen, flat_grids, frozen_gl_panel, localized_grids, mp_quad_piece, random_grids
from rhlab.grid import DyadicCube, WeightGrid, _cube_at, integrate, level_cubes, make_grid
from rhlab import cli, kcalc, weights
from rhlab.kcalc import (
    ConcaveCurve,
    HolmstedtCurve,
    PackingFamily,
    _level_pieces,
    extrapolation_norm,
    grid_power,
    k_l1_linf,
    k_weighted,
    k_weighted_curve,
    level_piece_integrals,
    llogl_norm,
    lorentz_norm,
    packing_average,
    packing_family,
    power_piece_integral,
)
from rhlab.rearrange import double_star, rearrangement


# ---------------------------------------------------------------------------
# ConcaveCurve


def test_concave_curve_validation():
    with pytest.raises(ValueError):
        ConcaveCurve([0.5, 1.0], [0.0, 1.0])  # must start at 0
    with pytest.raises(ValueError):
        ConcaveCurve([0.0, 0.5], [0.1, 1.0])  # nonzero start value
    with pytest.raises(ValueError):
        ConcaveCurve([0.0, 0.5, 0.5], [0.0, 1.0, 2.0])  # repeated abscissa
    with pytest.raises(ValueError):
        ConcaveCurve([0.0, 0.5, 1.0], [0.0, 1.0, 0.5])  # decreasing
    with pytest.raises(ValueError):
        ConcaveCurve([0.0, 0.5, 1.0], [0.0, 0.2, 1.0])  # convex kink


def test_k_l1_linf_step_exact():
    w = make_grid(1, 3, "step:2,1")
    K = k_l1_linf(w, w.base)
    assert list(K.t) == [0.0, 0.5, 1.0]
    assert list(K.v) == [0.0, 1.0, 1.5]
    assert K.value(0.25) == 0.5
    assert K.value(0.75) == 1.25
    assert K.value(3.0) == 1.5  # constant past the domain
    assert K.mass == 1.5
    A, B, s0, s1 = K.pieces()
    assert list(B) == [2.0, 1.0]
    assert list(A) == [0.0, 0.5]


@given(random_grids())
def test_k_curve_is_concave_with_exact_mass(w):
    K = k_l1_linf(w, w.base)
    assert np.all(np.diff(K.slopes) <= 0)
    assert np.all(K.slopes > 0)
    assert math.isclose(K.mass, integrate(w, w.base), rel_tol=1e-12)
    # K(t) = t * w**(t) on the domain
    r = rearrangement(w, w.base)
    for t in r.breaks:
        assert math.isclose(K.value(t), t * double_star(r, t), rel_tol=1e-12)


# ---------------------------------------------------------------------------
# power_piece_integral


@pytest.mark.parametrize(
    "A,B,s0,s1,q,E",
    [
        (0.5, 2.0, 0.25, 1.0, 2.0, -1.5),
        (1.0, 0.0, 0.5, 2.0, 3.0, 0.5),
        (0.0, 3.0, 0.0, 1.0, 2.0, -1.5),  # origin piece, integrable power
        (2.0, 1.0, 1.0, 4.0, 1.0, -1.0),
        (0.3, 0.7, 0.1, 0.2, 2.5, -2.2),
    ],
)
def test_power_piece_integral_vs_quad(A, B, s0, s1, q, E):
    got = power_piece_integral(np.array([A]), np.array([B]), np.array([s0]), np.array([s1]), q, E)[0]
    lo = s0 if s0 > 0 else s1 * 1e-12
    ref, err = quad(lambda s: (A + B * s) ** q * s**E, lo, s1, limit=300)
    assert math.isclose(got, ref, rel_tol=1e-8)


def test_power_piece_integral_log_branch():
    # A = 0 and q + E = -1 integrates B^q / s, a pure logarithm
    got = power_piece_integral(np.array([0.0]), np.array([2.0]), np.array([0.25]), np.array([1.0]), 3.0, -4.0)[0]
    assert math.isclose(got, 8.0 * math.log(4.0), rel_tol=1e-14)


@settings(max_examples=60)
@given(
    st.floats(0.0, 3.0),
    st.floats(0.1, 3.0),
    st.floats(0.05, 1.0),
    st.floats(1.1, 4.0),
    st.floats(1.0, 3.5),
    st.floats(-2.5, 1.5),
)
def test_power_piece_integral_fuzz(A, B, s0f, ratio, q, E):
    s0 = s0f
    s1 = s0 * ratio
    got = power_piece_integral(np.array([A]), np.array([B]), np.array([s0]), np.array([s1]), q, E)[0]
    ref, err = quad(lambda s: (A + B * s) ** q * s**E, s0, s1, limit=300)
    assert math.isclose(got, ref, rel_tol=1e-7, abs_tol=1e-12)


# ---------------------------------------------------------------------------
# level_piece_integrals: the column-shared kernel against power_piece_integral

_FLAT_GRIDS = flat_grids()
# (q, E) of both callers: Lorentz E = q/p - q - 1, K-side q = p and E = -p
_CALLER_QE = [(q, q / p - q - 1.0) for q in (1.5, 2.0, 3.0) for p in (2.0, 1.5)] + [
    (p, -(1.0 - 1.0 / p) * p - 1.0) for p in (1.5, 2.0, 3.0)
]


def _assert_kernel_bitwise(A, B, s0, s1, q, E):
    # a piece's bits depend only on its own data: the (n, m) call equals the
    # pieces flattened into one row, and sampled rows and pieces on their own
    n, m = A.shape
    got = level_piece_integrals(A, B, s0, s1, q, E)
    ref = power_piece_integral(A.ravel(), B.ravel(), np.tile(s0, n), np.tile(s1, n), q, E)
    assert got.shape == (n, m)
    np.testing.assert_array_equal(got.view(np.uint64), ref.reshape(n, m).view(np.uint64))
    for i in range(0, n, max(1, n // 4)):
        row = level_piece_integrals(A[i : i + 1], B[i : i + 1], s0, s1, q, E)
        np.testing.assert_array_equal(row[0].view(np.uint64), got[i].view(np.uint64))
        for j in range(0, m, max(1, m // 4)):
            one = power_piece_integral(A[i, j], B[i, j], s0[j], s1[j], q, E)
            assert one.view(np.uint64)[0] == got[i, j].view(np.uint64), (i, j)


@given(st.one_of(random_grids(), st.sampled_from(_FLAT_GRIDS)), st.sampled_from(_CALLER_QE), st.data())
def test_level_piece_integrals_bitwise(w, qE, data):
    lev = data.draw(st.integers(w.base.level, w.L), label="level")
    B, _, s0, s1, A = _level_pieces(w, lev)
    _assert_kernel_bitwise(A, B, s0, s1, *qE)


@given(st.one_of(random_grids(max_level_1d=10, max_level_2d=5), st.sampled_from(_FLAT_GRIDS)), st.data(), st.integers(0, 2**32 - 1))
@settings(max_examples=40)
def test_level_pieces_of_rows_gather_the_whole_level(w, data, seed):
    # the pieces of any row subset, in any order, a lone row included,
    # equal bit for bit the whole level's gathered at those rows
    lev = data.draw(st.integers(w.base.level, w.L), label="level")
    vals, K, s0, s, A = _level_pieces(w, lev)
    rng = np.random.default_rng(seed)
    n = vals.shape[0]
    subsets = (np.flatnonzero(rng.random(n) < 0.5), rng.permutation(n), rng.permutation(n)[: max(1, n // 3)], rng.integers(0, n, 1))
    for idx in subsets:
        got = _level_pieces(w, lev, rows=idx)
        for x, want in zip(got, (vals[idx], K[idx], s0, s, A[idx])):
            assert x.shape == want.shape
            np.testing.assert_array_equal(x.view(np.uint64), want.view(np.uint64))


def test_level_piece_integrals_flat_grids_have_origin_pieces():
    A = _level_pieces(make_grid(1, 5, "step:2,1"), 0)[4]
    assert np.count_nonzero(A[:, 1:] == 0.0) > 0  # interior closed-form pieces


def _six_decade_pieces():
    # columns spanning up to six decades, split into up to 20 geometric
    # panels, with interior A == 0 pieces: (A, B, s0, s1)
    rng = np.random.default_rng(7)
    s0 = np.array([1e-6, 1e-4, 1e-3, 0.01, 0.1, 0.5, 1.0])
    s1 = np.array([1.0, 0.1, 2.0, 0.02, 3.0, 0.75, 1.5])
    A = rng.uniform(0.0, 2.0, (9, 7))
    A[::3, 2] = 0.0
    B = rng.uniform(0.1, 3.0, (9, 7))
    return A, B, s0, s1


@pytest.mark.parametrize("block", [64, 100, 128, 2048, 4096])
def test_level_piece_integrals_block_shapes(monkeypatch, block):
    # several column blocks and row blocks per level, partial row blocks,
    # and a block size that is no power of two
    monkeypatch.setattr(kcalc, "_PIECE_BLOCK", block)
    for w in (make_grid(1, 9, "rand:11:lognormal:1.5"), make_grid(2, 4, "rand:12:lognormal:1"), _FLAT_GRIDS[4]):
        for lev in range(w.L + 1):
            B, _, s0, s1, A = _level_pieces(w, lev)
            for q, E in (_CALLER_QE[0], _CALLER_QE[2], _CALLER_QE[-2]):
                _assert_kernel_bitwise(A, B, s0, s1, q, E)
    B, _, s0, s1, A = _level_pieces(make_grid(1, 6, "rand:13:lognormal:1"), 2)
    _assert_kernel_bitwise(A[:3, :13], B[:3, :13], s0[:13], s1[:13], 2.0, -1.5)
    for q, E in (_CALLER_QE[0], _CALLER_QE[-1]):
        _assert_kernel_bitwise(*_six_decade_pieces(), q, E)


def test_level_piece_integrals_q_one_is_closed_form():
    B, _, s0, s1, A = _level_pieces(make_grid(1, 6, "rand:14:lognormal:1"), 3)
    got = level_piece_integrals(A, B, s0, s1, 1.0, -0.5)
    ref = power_piece_integral(A.ravel(), B.ravel(), np.tile(s0, A.shape[0]), np.tile(s1, A.shape[0]), 1.0, -0.5)
    np.testing.assert_array_equal(got.view(np.uint64), ref.reshape(A.shape).view(np.uint64))


@pytest.mark.parametrize("q", [1.0, 2.0, 3.0, 5.0, 16.0])
def test_level_piece_integrals_closed_form_rows_and_flat_bitwise(q):
    # the closed form is elementwise on broadcast column rows: an (n, m)
    # call equals each of its rows called on its own and all its pieces
    # flattened into one row
    E = q / 2.0 - q - 1.0
    for w in (make_grid(1, 9, "rand:15:lognormal:1.5"), make_grid(2, 4, "rand:16:lognormal:1"), _FLAT_GRIDS[4]):
        for lev in (0, w.L // 2, w.L):
            B, _, s0, s1, A = _level_pieces(w, lev)
            n, m = A.shape
            got = level_piece_integrals(A, B, s0, s1, q, E)
            flat = level_piece_integrals(A.reshape(1, -1), B.reshape(1, -1), np.tile(s0, n), np.tile(s1, n), q, E)
            np.testing.assert_array_equal(got.view(np.uint64), flat.reshape(n, m).view(np.uint64))
            for i in range(n):
                row = level_piece_integrals(A[i : i + 1], B[i : i + 1], s0, s1, q, E)
                np.testing.assert_array_equal(row[0].view(np.uint64), got[i].view(np.uint64))


def test_level_piece_integrals_scratch_is_bounded():
    # no (n m, 40) array: the traced peak stays below one such array at
    # every level of a 16384-cell grid, for the level kernel and for
    # power_piece_integral on the same 16384 pieces flattened
    import tracemalloc

    w = make_grid(1, 14, "pow:-0.5")
    for lev in (0, 7, 13):
        B, _, s0, s1, A = _level_pieces(w, lev)
        flat = (A.ravel(), B.ravel(), np.tile(s0, A.shape[0]), np.tile(s1, A.shape[0]))
        calls = (
            lambda: level_piece_integrals(A, B, s0, s1, 2.0, -1.5),
            lambda: power_piece_integral(*flat, 2.0, -1.5),
        )
        for call in calls:
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < A.size * 40 * 8


def test_binomial_factors_are_built_in_place_at_level_zero():
    # level 0 of a d=1 grid is one row of m pieces, as long as each column
    # factor: the integer-q kernel's traced peak stays below 9 such rows
    # (10.3 when each factor took both branches and the s0 = 0 values in
    # fresh arrays)
    import tracemalloc

    w = make_grid(1, 14, "rand:1:lognormal:1")
    B, _, s0, s1, A = _level_pieces(w, 0)
    for E in (-2.0, -1.5):  # r = E + j + 1 hits 0 at E = -2
        tracemalloc.start()
        try:
            level_piece_integrals(A, B, s0, s1, 2.0, E)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 9 * A.size * 8


@pytest.mark.parametrize("E", [-1.5, -1.0])
def test_power_piece_integral_rejects_divergent_intercept_piece(E):
    # (1 + s)^2 s^E on [0, 1] diverges for E <= -1 (it used to come out finite)
    with pytest.raises(ValueError, match="divergent integral at the origin"):
        power_piece_integral(1.0, 1.0, 0.0, 1.0, 2.0, E)


def test_piece_integral_depth_cap_raises():
    # sqrt(s - 1) on [1, 2], whose branch point no panel bound covers: the
    # intercept precondition refuses it on both routes
    with pytest.raises(ValueError, match="intercepts A must be at least"):
        power_piece_integral(-1.0, 1.0, 1.0, 2.0, 0.5, 0.0)
    one = lambda x: np.array([[x]])
    with pytest.raises(ValueError, match="intercepts A must be at least"):
        level_piece_integrals(one(-1.0), one(1.0), np.array([1.0]), np.array([2.0]), 0.5, 0.0)


def test_piece_integral_q_contract():
    # off the closed-form q: q > 0, B >= 0 and A = 0 at s0 = 0 (E > -1 here),
    # else ValueError; a q whose 40-node panels would need a ratio below
    # 2^(1/1024) is a FloatingPointError, the CLI's numerical error
    with pytest.raises(FloatingPointError, match="do not reach 2\\^-60 at q=100000.5"):
        power_piece_integral(0.5, 1.0, 1.0, 1.5, 1e5 + 0.5, -2.0)
    got = power_piece_integral(1.0, 1e-5, 1.0, 2.0, 1e4 + 0.5, -2.0)  # 135 panels
    exact = mp_quad_piece(1.0, 1e-5, 1.0, 2.0, 1e4 + 0.5, -2.0)
    assert abs(float(got[0]) - exact) <= 32 * 2.0**-53 * exact
    for q in (0.0, -1.5, math.nan):
        with pytest.raises(ValueError, match="q must be positive"):
            power_piece_integral(0.5, 1.0, 1.0, 1.5, q, -2.0)
    with pytest.raises(ValueError, match="slopes B must be nonnegative"):
        power_piece_integral(0.5, -1.0, 1.0, 1.5, 2.5, -2.0)
    with pytest.raises(ValueError, match="at s0 = 0 needs A = 0"):
        power_piece_integral(0.5, 1.0, 0.0, 1.5, 2.5, -0.5)
    with pytest.raises(ValueError, match="intercepts A must be at least"):
        power_piece_integral(-(2.0**-19), 1.0, 1.0, 1.5, 2.5, -2.0)
    power_piece_integral(-(2.0**-20), 1.0, 1.0, 1.5, 2.5, -2.0)  # the slack itself


# ---------------------------------------------------------------------------
# power_piece_integral against a frozen copy of its former implementation,
# which ran its own 20/40-node pass over all pieces (its node sums re-based
# from one BLAS product to the kernel's fixed-order sum, conftest.frozen_gl_panel;
# its depth cap raises _FrozenQuadratureError)


class _FrozenQuadratureError(RuntimeError):
    pass


def _frozen_antider_pow(s, r):
    if r == -1.0:
        return np.log(s)
    return s ** (r + 1.0) / (r + 1.0)


def _frozen_bisect_panels(work, q, E, rel, acc):
    gl20 = np.polynomial.legendre.leggauss(20)
    gl40 = np.polynomial.legendre.leggauss(40)
    while work:
        a, b, lo, hi, ix, depth = work.pop()
        c20 = frozen_gl_panel(a, b, lo, hi, q, E, gl20)
        c40 = frozen_gl_panel(a, b, lo, hi, q, E, gl40)
        done = np.abs(c40 - c20) <= rel * np.maximum(np.abs(c40), 1e-300)
        np.add.at(acc, ix[done], c40[done])
        bad = ~done
        if np.any(bad):
            if depth >= 40:
                raise _FrozenQuadratureError(
                    f"piece integral not converged to rel={rel:g} after 40 bisections "
                    f"on [{float(lo[bad][0])!r}, {float(hi[bad][0])!r}]"
                )
            mid = 0.5 * (lo[bad] + hi[bad])
            work.append((a[bad], b[bad], lo[bad], mid, ix[bad], depth + 1))
            work.append((a[bad], b[bad], mid, hi[bad], ix[bad], depth + 1))


def frozen_power_piece_integral(A, B, s0, s1, q, E, rel=1e-10):
    A, B, s0, s1 = np.broadcast_arrays(*(np.atleast_1d(np.asarray(x, dtype=np.float64)) for x in (A, B, s0, s1)))
    out = np.zeros(A.shape, dtype=np.float64)
    live = s1 > s0
    if E <= -1.0 and not s0.all() and np.any(live & (A != 0.0) & (s0 == 0.0)):
        raise ValueError("divergent integral at the origin")
    origin = live & (A == 0.0)
    if np.any(origin):
        r = q + E
        if np.any(s0[origin] == 0.0) and r <= -1.0:
            raise ValueError("divergent integral at the origin")
        lo = np.where(s0[origin] == 0.0, 0.0, _frozen_antider_pow(np.maximum(s0[origin], 1e-300), r))
        out[origin] = B[origin] ** q * (_frozen_antider_pow(s1[origin], r) - lo)
        live = live & ~origin
    if q == 1.0 and np.any(live):
        out[live] = A[live] * (_frozen_antider_pow(s1[live], E) - _frozen_antider_pow(s0[live], E)) + B[live] * (
            _frozen_antider_pow(s1[live], E + 1.0) - _frozen_antider_pow(s0[live], E + 1.0)
        )
        return out
    if not np.any(live):
        return out
    idx = np.nonzero(live.ravel())[0]
    acc = np.zeros(out.size, dtype=np.float64)
    _frozen_bisect_panels([(A.ravel()[idx], B.ravel()[idx], s0.ravel()[idx], s1.ravel()[idx], idx, 0)], q, E, rel, acc)
    out += acc.reshape(out.shape)
    return out


def _assert_frozen_bitwise(A, B, s0, s1, q, E):
    # bit for bit off the closed-form q (conftest.assert_near_frozen)
    got = power_piece_integral(A, B, s0, s1, q, E)
    ref = frozen_power_piece_integral(A, B, s0, s1, q, E)
    assert_near_frozen(got, ref, A, B, s0, s1, q, E)


_PIECE = st.tuples(st.floats(0.0, 3.0), st.floats(0.1, 3.0), st.floats(0.05, 1.0), st.floats(1.1, 4.0))


@settings(max_examples=60)
@given(st.lists(_PIECE, min_size=1, max_size=300), st.floats(1.0, 3.5), st.floats(-2.5, 1.5))
def test_power_piece_integral_frozen_fuzz(pieces, q, E):
    # the fuzz strategy's pieces, batched, so calls of any length are covered
    A, B, s0, ratio = map(np.array, zip(*pieces))
    _assert_frozen_bitwise(A, B, s0, s0 * ratio, q, E)


@settings(max_examples=30)
@given(random_grids(), st.sampled_from([0.3, 0.5, 0.7]), st.sampled_from([1.0, 1.5, 2.0, 3.0]), st.data())
def test_power_piece_integral_frozen_holmstedt_pieces(w, theta, q, data):
    # the Holmstedt prefix (every piece of K) and the partial pieces of
    # points scattered inside K's domain
    K = k_l1_linf(w, w.base)
    E = -theta * q - 1.0
    _assert_frozen_bitwise(*K.pieces(), q, E)
    u = np.array(data.draw(st.lists(st.floats(1e-6, 1.0 - 1e-6), min_size=1, max_size=64), label="u"))
    T = u * K.domain_end
    j = np.minimum(np.searchsorted(K.t, T, side="right") - 1, K.t.size - 2)
    A, B, _, _ = K.pieces()
    _assert_frozen_bitwise(A[j], B[j], K.t[j], T, q, E)


@pytest.mark.parametrize("spec, L", [("pow:-0.5", 14), ("rand:8:lognormal:1", 12)])
def test_power_piece_integral_frozen_long_curves(spec, L):
    # several column blocks in one row
    K = k_l1_linf(make_grid(1, L, spec), DyadicCube(0, (0,)))
    for theta, q in ((0.5, 2.0), (0.3, 3.0)):
        _assert_frozen_bitwise(*K.pieces(), q, -theta * q - 1.0)


@given(st.one_of(random_grids(), st.sampled_from(_FLAT_GRIDS)), st.sampled_from([1.5, 2.0, 3.0]), st.data())
def test_power_piece_integral_frozen_tstar_pieces(w, p, data):
    # scattered pieces ending at the K-side denominator minima, as
    # weights._kside_level builds them
    lev = data.draw(st.integers(w.base.level, w.L), label="level")
    vals, _, s0, s, A = _level_pieces(w, lev)
    theta = 1.0 - 1.0 / p
    with np.errstate(divide="ignore", invalid="ignore"):
        tstar = theta * A / (vals * (1.0 - theta))
    rows, cols = np.nonzero((A > 0) & (tstar > s0[None, :]) & (tstar < s[None, :]))
    _assert_frozen_bitwise(A[rows, cols], vals[rows, cols], s0[cols], tstar[rows, cols], p, -theta * p - 1.0)


def test_power_piece_integral_frozen_empty_pieces_and_broadcasts():
    rng = np.random.default_rng(3)
    A = rng.uniform(0.0, 2.0, 100)
    A[::7] = 0.0
    B = rng.uniform(0.1, 3.0, 100)
    s0 = rng.uniform(0.05, 1.0, 100)
    s1 = s0 * rng.uniform(1.1, 4.0, 100)
    s1[::5] = s0[::5]  # empty
    s1[1::5] = 0.5 * s0[1::5]  # reversed
    for q, E in ((2.0, -1.5), (1.0, -0.5), (2.5, -2.2)):
        _assert_frozen_bitwise(A, B, s0, s1, q, E)
        got = power_piece_integral(A, B, s0, s1, q, E)
        assert np.all(got[::5] == 0.0) and np.all(got[1::5] == 0.0)
        _assert_frozen_bitwise(A, B, s0, s0, q, E)  # nothing live
        _assert_frozen_bitwise(0.5, B, 0.25, s1, q, E)  # scalars broadcast
        _assert_frozen_bitwise(A[:, None], B[None, :8], s0[None, :8], s1[None, :8], q, E)  # 2-d broadcast
        _assert_frozen_bitwise(0.5, 2.0, 0.25, 1.0, q, E)  # all scalar: shape (1,)


@pytest.mark.parametrize(
    "args",
    [
        (1.0, 1.0, 0.0, 1.0, 2.0, -1.5),  # intercept piece at the origin
        (np.array([0.0, 1.0]), 1.0, np.array([0.5, 0.0]), 1.0, 2.0, -1.0),  # ... not in column 0
        (0.0, 1.0, 0.0, 1.0, 2.0, -3.5),  # pure power, q + E <= -1
        (-1.0, 1.0, 1.0, 2.0, 0.5, 0.0),  # depth cap
    ],
)
def test_power_piece_integral_errors_unchanged(args):
    # the divergence errors keep their type and message; the frozen depth
    # cap on A < 0 input is now the intercept precondition's ValueError
    with pytest.raises((ValueError, _FrozenQuadratureError)) as ref:
        frozen_power_piece_integral(*args)
    if ref.type is _FrozenQuadratureError:
        with pytest.raises(ValueError, match="intercepts A must be at least"):
            power_piece_integral(*args)
        return
    with pytest.raises(ref.type) as got:
        power_piece_integral(*args)
    assert str(got.value) == str(ref.value)


def test_level_piece_integrals_checks_every_origin_column():
    # a piece with A != 0 starting at 0 diverges for E <= -1 in any column
    A = np.array([[0.0, 1.0], [0.0, 2.0]])
    B = np.ones((2, 2))
    with pytest.raises(ValueError, match="divergent integral at the origin"):
        level_piece_integrals(A, B, np.array([0.5, 0.0]), np.array([1.0, 1.0]), 2.0, -1.0)


# ---------------------------------------------------------------------------
# Holmstedt


def test_holmstedt_const_is_straight_line():
    w = make_grid(1, 3, "const:1")
    H = HolmstedtCurve(k_l1_linf(w, w.base), 0.5, 2.0)
    for t in (0.1, 0.35, 0.9):
        assert math.isclose(H.value(t), t, rel_tol=1e-12)


def test_holmstedt_parameter_validation():
    K = k_l1_linf(make_grid(1, 2, "const:1"), DyadicCube(0, (0,)))
    with pytest.raises(ValueError):
        HolmstedtCurve(K, 0.0, 2.0)
    with pytest.raises(ValueError):
        HolmstedtCurve(K, 1.0, 2.0)
    with pytest.raises(ValueError):
        HolmstedtCurve(K, 0.5, 0.5)


@given(random_grids(max_level_1d=5, max_level_2d=3))
def test_holmstedt_matches_quad(w):
    theta, q = 0.4, 2.5
    K = k_l1_linf(w, w.base)
    H = HolmstedtCurve(K, theta, q)
    t = 0.6 * K.domain_end ** (1.0 - theta)
    T = t ** (1.0 / (1.0 - theta))
    pts = K.t[(K.t > 0) & (K.t < T)]
    ref, err = quad(
        lambda s: K.value(s) ** q * s ** (-theta * q - 1.0),
        0.0,
        T,
        points=pts,
        limit=300,
    )
    assert math.isclose(H.value(t), ref ** (1.0 / q), rel_tol=1e-7)


def test_holmstedt_past_domain_uses_constant_tail():
    w = make_grid(1, 2, "step:2,1")
    K = k_l1_linf(w, w.base)
    theta, q = 0.5, 2.0
    H = HolmstedtCurve(K, theta, q)
    T = 4.0  # inner upper limit beyond K's domain
    t = T ** (1.0 - theta)
    ref, err = quad(
        lambda s: min(K.value(s), K.mass) ** q * s ** (-theta * q - 1.0),
        0.0,
        T,
        points=list(K.t[1:]) + [K.domain_end],
        limit=300,
    )
    assert math.isclose(H.value(t), ref ** (1.0 / q), rel_tol=1e-7)


def _frozen_holmstedt_value(H, t):
    """HolmstedtCurve.value at one t as it was evaluated point by point: a
    one-piece power_piece_integral per t inside K's domain."""
    K = H.K
    T = np.float64(t) ** (1.0 / (1.0 - H.theta))
    if T <= 0:
        inner = 0.0
    elif T >= K.domain_end:
        inner = H.prefix[-1]
        if T > K.domain_end:
            tq = H.theta * H.q
            inner += K.mass ** H.q * (K.domain_end ** -tq - T ** -tq) / tq
    else:
        j = min(int(np.searchsorted(K.t, T, side="right")) - 1, K.t.size - 2)
        A, B, _, _ = K.pieces()
        part = power_piece_integral(
            np.asarray([A[j]]), np.asarray([B[j]]), np.asarray([K.t[j]]), np.asarray([T]), H.q, H.E
        )[0]
        inner = H.prefix[j] + part
    return float(inner) ** (1.0 / H.q)


def _holmstedt_points(K, theta):
    """t at every knot of K, between knots, past domain_end, and t = 0."""
    T = np.concatenate([K.t, 0.5 * (K.t[:-1] + K.t[1:]), K.domain_end * np.array([1.0 + 1e-9, 1.7, 30.0])])
    return np.concatenate([T ** (1.0 - theta), [0.0]])


def _ulps(a, b):
    return np.abs(np.asarray(a, dtype=np.float64).view(np.int64) - np.asarray(b, dtype=np.float64).view(np.int64))


def _assert_holmstedt_near_frozen(w):
    K = k_l1_linf(w, w.base)
    for theta in (0.3, 0.5, 0.7):
        for q in (1.5, 2.0, 3.0):
            H = HolmstedtCurve(K, theta, q)
            ts = _holmstedt_points(K, theta)
            frozen = [_frozen_holmstedt_value(H, t) for t in ts.tolist()]
            assert _ulps(H.value(ts), frozen).max() <= 4
            for t, want in zip(ts[:: max(1, ts.size // 5)].tolist(), frozen[:: max(1, ts.size // 5)]):
                one = H.value(t)
                assert type(one) is float and _ulps(one, want) <= 4
            assert H.value(0.0) == 0.0 and H.inner_integral(-1.0) == 0.0


@given(random_grids(max_level_1d=6, max_level_2d=3))
def test_holmstedt_near_frozen_per_point_random(w):
    _assert_holmstedt_near_frozen(w)


@pytest.mark.parametrize("w", flat_grids() + localized_grids(), ids=lambda w: f"{w.label}-d{w.d}L{w.L}")
def test_holmstedt_near_frozen_per_point_flat_and_localized(w):
    _assert_holmstedt_near_frozen(w)


@pytest.mark.parametrize("spec", ["pow:-0.5", "rand:3:lognormal:1"])
def test_holmstedt_scalar_value_is_a_one_element_call(spec):
    # the outer power of a scalar call runs on a one-element array, as in
    # the batched call
    K = k_l1_linf(make_grid(1, 10, spec), DyadicCube(0, (0,)))
    for theta, q in ((0.5, 2.0), (0.3, 3.0), (0.7, 1.5)):
        H = HolmstedtCurve(K, theta, q)
        ts = _holmstedt_points(K, theta)[::7]
        one = np.array([H.value(t) for t in ts.tolist()])
        np.testing.assert_array_equal(one.view(np.uint64), H.value(ts).view(np.uint64))


def test_holmstedt_value_is_one_piece_call(monkeypatch):
    # every t inside K's domain shares one power_piece_integral call
    H = HolmstedtCurve(k_l1_linf(make_grid(1, 8, "rand:4:lognormal:1"), DyadicCube(0, (0,))), 0.5, 2.0)
    calls = []
    real = kcalc.power_piece_integral
    monkeypatch.setattr(kcalc, "power_piece_integral", lambda *a, **k: calls.append(1) or real(*a, **k))
    ts = _holmstedt_points(H.K, 0.5)
    assert H.value(ts).shape == ts.shape
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# Lorentz


def test_lorentz_norm_const_frozen():
    w = make_grid(1, 4, "const:1")
    # f** = 1 on (0,1], 1/t beyond: the (2,2) integral is 1 + 1, the
    # (2,1) integral is 2 + 2
    assert math.isclose(lorentz_norm(w, w.base, 2.0, 2.0), math.sqrt(2.0), rel_tol=1e-12)
    assert math.isclose(lorentz_norm(w, w.base, 2.0, 1.0), 4.0, rel_tol=1e-12)


def test_lorentz_norm_scaling():
    w = make_grid(1, 4, "rand:13:lognormal:1")
    w3 = grid_power(w, 1.0)
    w3 = type(w)(w.d, w.L, w.cells * 3.0, label="scaled")
    a = lorentz_norm(w, w.base, 2.0, 3.0)
    b = lorentz_norm(w3, w3.base, 2.0, 3.0)
    assert math.isclose(b, 3.0 * a, rel_tol=1e-12)


@given(random_grids(max_level_1d=5, max_level_2d=3))
def test_lorentz_norm_matches_quad(w):
    p, q = 2.0, 2.5
    r = rearrangement(w, w.base)
    T = r.total_measure
    head, err = quad(
        lambda t: double_star(r, t) ** q * t ** (q / p - 1.0),
        0.0,
        T,
        points=r.breaks[:-1],
        limit=300,
    )
    # beyond T the maximal average is mass/t, integrable in closed form
    tail = r.mass**q * T ** (q / p - q) / (q - q / p)
    ref = (head + tail) ** (1.0 / q)
    assert math.isclose(lorentz_norm(w, w.base, p, q), ref, rel_tol=1e-7)


def test_lorentz_parameter_validation():
    w = make_grid(1, 2, "const:1")
    with pytest.raises(ValueError):
        lorentz_norm(w, w.base, 1.0, 2.0)
    with pytest.raises(ValueError):
        lorentz_norm(w, w.base, 2.0, 0.5)


# ---------------------------------------------------------------------------
# L log L


def test_llogl_const_frozen():
    w = make_grid(1, 4, "const:1")
    lam = llogl_norm(w, w.base)
    assert math.isclose(lam, 1.2567506185377673, rel_tol=1e-10)
    # the root satisfies the defining integral with residual at machine scale
    u = 1.0 / lam
    assert abs(u * math.log(math.e + u) - 1.0) <= 1e-9


@given(random_grids(max_level_1d=6, max_level_2d=3))
def test_llogl_norm_properties(w):
    lam = llogl_norm(w, w.base)
    cells = w.cube_cells(w.base)
    mean = float(cells.mean())
    assert lam >= mean * (1 - 1e-13)  # u log(e+u) >= u forces the root above the mean
    u = cells / lam
    assert abs(float(np.mean(u * np.log(np.e + u))) - 1.0) <= 1e-9
    # positive homogeneity of the Luxemburg functional
    w5 = type(w)(w.d, w.L, w.cells * 5.0, label="scaled")
    assert math.isclose(llogl_norm(w5, w5.base), 5.0 * lam, rel_tol=1e-9)


# ---------------------------------------------------------------------------
# extrapolation norm


def test_extrapolation_norm_const():
    w = make_grid(1, 3, "const:3")
    assert math.isclose(extrapolation_norm(w, w.base), 3.0, rel_tol=1e-12)


@given(random_grids(max_level_1d=5, max_level_2d=3))
def test_extrapolation_norm_matches_quad(w):
    K = k_l1_linf(w, w.base)
    ref, err = quad(lambda r: K.value(r) / r, 0.0, K.domain_end, points=K.t[1:-1], limit=300)
    assert math.isclose(extrapolation_norm(w, w.base), ref, rel_tol=1e-8)


# ---------------------------------------------------------------------------
# packings and the weighted K-functional


def test_packing_average_explicit():
    f = make_grid(1, 1, "step:2,1")
    ones = make_grid(1, 1, "const:1")
    pi = level_cubes(f, 1)
    S = packing_average(f, ones, pi)
    assert list(S.values) == [2.0, 1.0]
    assert list(S.w_measures) == [0.5, 0.5]
    vals, cum = S.rearrange_w()
    assert list(vals) == [2.0, 1.0]
    assert list(cum) == [0.5, 1.0]


def test_packing_average_rejects_overlap_and_empty():
    f = make_grid(1, 2, "const:1")
    ones = make_grid(1, 2, "const:1")
    with pytest.raises(ValueError):
        packing_average(f, ones, [f.base, DyadicCube(1, (0,))])
    with pytest.raises(ValueError):
        packing_average(f, ones, [])


def _row_cubes(w, rows):
    """The cubes at level-table rows of w's geometry (the inverse of
    kcalc._packing_rows), in row order."""
    off = kcalc._level_offsets(w)
    k = np.searchsorted(off, rows, side="right") - 1
    return [_cube_at(w, w.base.level + int(j), int(r - off[j])) for j, r in zip(k, rows)]


def _ones(f):
    """The unit weight on f's grid."""
    return WeightGrid(f.d, f.L, np.ones(f.ncells), label="const:1", base=f.base)


def test_packing_family_structure():
    f = make_grid(1, 4, "rand:19:lognormal:1")
    Pi = packing_family(f, _ones(f), p=2.0)
    assert Pi.geometry == (f.d, f.L, f.base)
    assert len(Pi.rows) >= f.L + 1
    # the first L+1 packings are the single-level tilings
    for lev in range(f.L + 1):
        assert [Q.level for Q in _row_cubes(f, Pi.rows[lev])] == [lev] * (1 << lev)
    # every packing is disjoint
    for rows in Pi.rows:
        ranges = sorted(f.zrange(Q) for Q in _row_cubes(f, rows))
        for (a0, b0), (a1, b1) in zip(ranges, ranges[1:]):
            assert a1 >= b0
    # deterministic
    Pi2 = packing_family(f, _ones(f), p=2.0)
    assert [r.tolist() for r in Pi.rows] == [r.tolist() for r in Pi2.rows]


def test_k_weighted_reproduces_unweighted_k():
    # cells already sorted along the Morton order, so cube averages of the
    # level packings reproduce the plain rearrangement averages
    f = make_grid(1, 3, "step:2,1")
    ones = make_grid(1, 3, "const:1")
    Pi = packing_family(f, ones, p=1.0)
    K = k_l1_linf(f, f.base)
    # exact reproduction at the measures of the origin-chain cubes
    for t in (0.125, 0.25, 0.5):
        est = k_weighted(f, ones, 1.0, t, Pi)
        assert math.isclose(est, K.value(t), rel_tol=1e-12)
    # elsewhere the finite family still gives a certified lower bound
    est = k_weighted(f, ones, 1.0, 0.875, Pi)
    assert est <= K.value(0.875) * (1 + 1e-12)
    with pytest.raises(ValueError):
        k_weighted(f, ones, 1.0, 1.0, Pi)  # t must lie inside (0, w(Q))


def test_k_weighted_monotone_in_family():
    f = make_grid(1, 3, "rand:29:lognormal:1")
    ones = make_grid(1, 3, "const:1")
    Pi = packing_family(f, ones, p=1.0)
    small = PackingFamily(Pi.geometry, Pi.rows[:2])
    for t in (0.25, 0.5):
        lo = k_weighted(f, ones, 1.0, t, small)
        hi = k_weighted(f, ones, 1.0, t, Pi)
        assert hi >= lo * (1 - 1e-15)


# frozen reference: the per-packing, per-cube loop that k_weighted ran
# before the level tables, one packing_average call per packing and per t


def _frozen_packing_average(f, w, pi):
    ranges = sorted(f.zrange(Q) for Q in pi)
    for (a0, b0), (a1, b1) in zip(ranges, ranges[1:]):
        if a1 < b0:
            raise ValueError("packing cubes overlap")
    fw = f.zcells * w.zcells
    wz = w.zcells
    num = np.array([fw[a:b].sum() for a, b in (f.zrange(Q) for Q in pi)])
    den = np.array([wz[a:b].sum() for a, b in (w.zrange(Q) for Q in pi)])
    return num / den, den * w.cell_measure


def _frozen_k_weighted(f, w, p, t, packings):
    fp = grid_power(f, p) if p != 1.0 else f
    best = -math.inf
    for pi in packings:
        values, meas = _frozen_packing_average(fp, w, pi)
        order = np.argsort(-values, kind="stable")
        vals, cum = values[order], np.cumsum(meas[order])
        idx = int(np.searchsorted(cum, t, side="left"))
        val = float(vals[idx]) if idx < vals.size else 0.0
        best = max(best, val)
    return t ** (1.0 / p) * best ** (1.0 / p)


def _bits(x):
    return np.float64(x).view(np.uint64)


def _sample_ts(w):
    """The origin-chain w-measures the suites use, plus off-grid points."""
    total = integrate(w, w.base)
    ts, Q = [], w.base
    for _ in range(w.L - w.base.level):
        Q = Q.child(0)
        ts.append(integrate(w, Q))
    return [t for t in ts if 0.0 < t < total] + [total * r for r in (0.013, 0.3, 0.5, 0.77, 0.999)]


def _cube_family(w, packings):
    """Explicit cube packings as a PackingFamily on w's geometry."""
    return PackingFamily((w.d, w.L, w.base), [kcalc._packing_rows(w, pi) for pi in packings])


def _mixed_family(w):
    """Explicit packings mixing levels, listed out of Morton order."""
    kids = [w.base.child(k) for k in range(1 << w.d)]
    fams = [kids[::-1], kids[1:]]
    if w.L - w.base.level >= 2:
        grand = [kids[0].child(k) for k in range(1 << w.d)]
        fams += [kids[:0:-1] + grand, [grand[-1], kids[-1], grand[0]]]
    return _cube_family(w, fams)


def _assert_curve_bitwise(f, w, p, Pi):
    ts = _sample_ts(w)
    packings = [_row_cubes(w, rows) for rows in Pi.rows]
    for t, est in zip(ts, k_weighted_curve(f, w, p, ts, Pi), strict=True):
        value = _frozen_k_weighted(f, w, p, t, packings)
        assert _bits(est) == _bits(value)
        assert _bits(k_weighted(f, w, p, t, Pi)) == _bits(value)


def _assert_families_bitwise(f, w, p):
    Pi = packing_family(f, w, p)
    half = PackingFamily(Pi.geometry, Pi.rows[: max(1, len(Pi.rows) // 2)])
    for fam in (Pi, half, _mixed_family(w)):
        _assert_curve_bitwise(f, w, p, fam)


def _localized(d, L, base, seed):
    n = 1 << (d * (L - base.level))
    cells = np.random.default_rng(seed).lognormal(0.0, 1.0, n)
    return WeightGrid(d, L, cells, label=f"local{seed}", base=base)


_P_LIST = [1.0, 1.5, 2.0]


@given(random_grids(max_level_1d=7, max_level_2d=4), st.sampled_from(_P_LIST), st.integers(0, 2**31 - 1), st.booleans())
def test_k_weighted_curve_bitwise_random(f, p, seed, unit_w):
    w = make_grid(f.d, f.L, "const:1" if unit_w else f"rand:{seed}:lognormal:0.7")
    _assert_families_bitwise(f, w, p)


@pytest.mark.parametrize("p", _P_LIST)
def test_k_weighted_curve_bitwise_localized_and_d2(p):
    cases = [
        (_localized(1, 7, DyadicCube(2, (1,)), 1), _localized(1, 7, DyadicCube(2, (1,)), 2)),
        (_localized(2, 4, DyadicCube(1, (1, 0)), 3), _localized(2, 4, DyadicCube(1, (1, 0)), 4)),
        (make_grid(2, 4, "rand:5:lognormal:1.5"), make_grid(2, 4, "step:4,1,2,1")),
        (make_grid(1, 6, "step:2,1"), make_grid(1, 6, "const:1")),  # ties everywhere
    ]
    for f, w in cases:
        _assert_families_bitwise(f, w, p)


@given(st.one_of(random_grids(), st.sampled_from(_FLAT_GRIDS)))
def test_level_tables_equal_slice_sums(f):
    cases = [(f, make_grid(f.d, f.L, "rand:9:lognormal:1")), (_localized(2, 4, DyadicCube(1, (0, 1)), 5),) * 2]
    for f, w in cases:
        num, den = kcalc._level_tables(f, w)
        off = kcalc._level_offsets(w)
        fw = f.zcells * w.zcells
        assert num.size == den.size == off[-1]
        for k, lev in enumerate(range(w.base.level, w.L + 1)):
            spans = [w.zrange(Q) for Q in level_cubes(w, lev)]
            ref_num = np.array([fw[a:b].sum() for a, b in spans])
            ref_den = np.array([w.zcells[a:b].sum() for a, b in spans])
            np.testing.assert_array_equal(num[off[k] : off[k + 1]].view(np.uint64), ref_num.view(np.uint64))
            np.testing.assert_array_equal(den[off[k] : off[k + 1]].view(np.uint64), ref_den.view(np.uint64))


def test_packing_family_rows_match_cubes():
    # every packing's rows are those of a valid disjoint cube list, listed
    # level by level in Morton order
    for f in (make_grid(1, 6, "rand:21:lognormal:1"), _localized(2, 4, DyadicCube(1, (1, 1)), 6)):
        Pi = packing_family(f, _ones(f), p=2.0)
        for rows in Pi.rows:
            assert rows.dtype == np.int64
            pi = _row_cubes(f, rows)
            np.testing.assert_array_equal(rows, kcalc._packing_rows(f, pi))
            assert pi == sorted(pi, key=lambda Q: (Q.level, f.zrange(Q)))


# frozen reference: packing_family's stopping packings as they were built
# before the running max of the ancestors' averages, one covered-mask pass
# per threshold and level


def _frozen_packing_rows(f, w, p):
    off = kcalc._level_offsets(f)
    rows = [np.arange(a, b) for a, b in zip(off, off[1:])]
    num, den = kcalc._level_tables(grid_power(f, p), w)
    avgs = num / den
    distinct = np.unique(avgs)
    if distinct.size > kcalc._STOPPING_THRESHOLDS:
        distinct = distinct[np.linspace(0, distinct.size - 1, kcalc._STOPPING_THRESHOLDS).astype(int)]
    for lam in distinct[:-1]:
        pick = []
        covered = np.zeros(1, dtype=bool)
        for k, (a, b) in enumerate(zip(off, off[1:])):
            if k > 0:
                covered = np.repeat(covered, 1 << f.d)
            sel = (avgs[a:b] > lam) & ~covered
            pick.append(a + np.nonzero(sel)[0])
            covered |= sel
        r = np.concatenate(pick)
        if r.size:
            rows.append(r)
    return rows


def _assert_packing_rows_frozen(f, w, p):
    got, want = packing_family(f, w, p).rows, _frozen_packing_rows(f, w, p)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)
    return got


@given(random_grids(max_level_1d=10, max_level_2d=5), st.sampled_from([1.0, 2.0]), st.integers(0, 2**31 - 1), st.booleans())
@settings(max_examples=40)
def test_packing_family_rows_equal_frozen_loop_random(f, p, seed, unit_w):
    w = _ones(f) if unit_w else make_grid(f.d, f.L, f"rand:{seed}:lognormal:0.7")
    _assert_packing_rows_frozen(f, w, p)
    _assert_packing_rows_frozen(weights.origin_sorted(f), w, p)


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_packing_family_rows_equal_frozen_loop(p):
    grids = [make_grid(1, 10, "rand:41:lognormal:1"), make_grid(2, 5, "rand:42:lognormal:1.5")]
    grids += [weights.origin_sorted(g) for g in grids] + flat_grids() + localized_grids()
    for f in grids:
        # a localized grid is its own weight (make_grid builds unit-cube grids)
        w = make_grid(f.d, f.L, "rand:43:lognormal:1") if f.base.level == 0 else f
        _assert_packing_rows_frozen(f, _ones(f), p)
        _assert_packing_rows_frozen(f, w, p)


def test_packing_family_rows_skip_nan_averages():
    # 12 cells of w at 1.7e308 make 15 averages inf/inf = NaN, the root's
    # among them; a NaN average covers nothing, so the running max of the
    # ancestors must skip it (np.fmax): one propagating NaN (np.maximum)
    # would hide every cube below it and leave only the 7 level tilings
    f = make_grid(1, 6, "rand:4:lognormal:1")
    cells = np.ones(f.ncells)
    cells[14:26] = 1.7e308
    w = WeightGrid(1, 6, cells, label="huge")
    with np.errstate(all="ignore"):
        avgs = np.divide(*kcalc._level_tables(f, w))
        rows = _assert_packing_rows_frozen(f, w, 1.0)
    assert np.isnan(avgs).sum() == 15
    assert len(rows) == 39


def test_k_weighted_curve_makes_no_per_cube_zrange(monkeypatch):
    f = make_grid(2, 4, "rand:31:lognormal:1")
    w = make_grid(2, 4, "rand:32:lognormal:0.5")
    Pi = packing_family(f, w, 2.0)
    ts = _sample_ts(w)
    seen = []
    real = WeightGrid.zrange

    def spy(self, Q):
        seen.append(Q)
        return real(self, Q)

    monkeypatch.setattr(WeightGrid, "zrange", spy)
    assert len(k_weighted_curve(f, w, 2.0, ts, Pi)) == len(ts)
    assert seen == [w.base]  # integrate's total of w, nothing per cube


def test_explicit_family_rows_derived_once(monkeypatch):
    f = make_grid(1, 5, "rand:33:lognormal:1")
    ones = make_grid(1, 5, "const:1")
    calls = []
    real = kcalc._packing_rows
    monkeypatch.setattr(kcalc, "_packing_rows", lambda w, pi: calls.append(1) or real(w, pi))
    fam = _mixed_family(f)
    for t in (0.25, 0.5):
        k_weighted(f, ones, 1.0, t, fam)
    k_weighted_curve(f, ones, 1.5, [0.1, 0.2], fam)
    assert len(calls) == len(fam.rows)


def test_family_refuses_a_grid_of_another_geometry():
    f = make_grid(1, 5, "rand:37:lognormal:1")
    local = _localized(1, 5, DyadicCube(1, (1,)), 8)
    for Pi in (packing_family(f, _ones(f)), _mixed_family(f)):
        for g in (make_grid(1, 6, "rand:38:lognormal:1"), local, make_grid(2, 5, "const:1")):
            t = 0.5 * integrate(g, g.base)
            with pytest.raises(ValueError, match="another geometry"):
                k_weighted_curve(g, g, 1.0, [t], Pi)
            with pytest.raises(ValueError, match="another geometry"):
                k_weighted(g, g, 2.0, t, Pi)
    # a family built on the localized grid refuses the unit-cube grid of the same L
    with pytest.raises(ValueError, match="another geometry"):
        k_weighted(f, f, 1.0, 0.5, packing_family(local, _ones(local)))


def _spy_packing_objects(monkeypatch):
    """Record every _packing_rows and level_cubes call, and every DyadicCube
    built while a kcalc function is on the stack."""
    seen = []
    real_rows, real_init = kcalc._packing_rows, DyadicCube.__post_init__

    def init(self):
        frame = sys._getframe(1)
        while frame is not None and frame.f_globals.get("__name__") != "rhlab.kcalc":
            frame = frame.f_back
        if frame is not None:
            seen.append(("cube", self))
        real_init(self)

    monkeypatch.setattr(DyadicCube, "__post_init__", init)
    monkeypatch.setattr(kcalc, "_packing_rows", lambda w, pi: seen.append(("rows", pi)) or real_rows(w, pi))
    for mod in (kcalc, weights, cli):
        if hasattr(mod, "level_cubes"):
            monkeypatch.setattr(mod, "level_cubes", lambda *a: seen.append(("level_cubes", a)) or level_cubes(*a))
    return seen


def test_packing_paths_build_no_cube_objects(monkeypatch, capsys):
    f = make_grid(2, 4, "rand:39:lognormal:1")
    w = make_grid(2, 4, "rand:40:lognormal:0.5")
    seen = _spy_packing_objects(monkeypatch)
    Pi = packing_family(f, w, 2.0)
    k_weighted_curve(f, w, 2.0, _sample_ts(w), Pi)
    assert weights.verify_packing(make_grid(1, 6, "rand:41:lognormal:1"))[0]["pass"]
    assert cli.main(["curve", "--weight", "rand:42:lognormal:1", "--level", "8", "--kind", "weighted-k"]) == 0
    assert capsys.readouterr().out.count("\n") == 9  # header and 8 origin-chain rows
    assert seen == []


def test_k_weighted_rejects_bad_explicit_packings():
    f = make_grid(1, 3, "rand:35:lognormal:1")
    ones = make_grid(1, 3, "const:1")
    bad = {
        "packing cubes overlap": [f.base, DyadicCube(2, (3,))],
        "empty packing": [],
        "outside the grid's base cube": [DyadicCube(1, (0,))],
        "exceeds grid level": [DyadicCube(4, (0,))],
        "does not match grid dimension": [DyadicCube(1, (0, 0))],
    }
    local = _localized(1, 3, DyadicCube(1, (1,)), 7)
    for msg, pi in bad.items():
        g = local if msg == "outside the grid's base cube" else f
        with pytest.raises(ValueError, match=msg):
            _cube_family(g, [level_cubes(g, 2), pi])
        with pytest.raises(ValueError, match=msg):
            packing_average(g, g, pi)
    with pytest.raises(ValueError, match="f and w must share a grid"):
        packing_average(f, make_grid(1, 4, "const:1"), [f.base])
    with pytest.raises(ValueError, match="f and w must share a grid"):
        k_weighted(f, local, 1.0, 0.1, _cube_family(f, [[f.base]]))

