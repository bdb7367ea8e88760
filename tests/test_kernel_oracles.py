"""The certified shortcuts of the level kernels against frozen oracles.

level_piece_integrals takes a count of geometric 40-node panels per piece
that a Bernstein-ellipse bound proves within 2^-60, instead of the 20/40-node
test and bisection it replaced.  It is compared here with a frozen copy of
the implementation that evaluated everything: bit for bit on the same inputs
(on every piece it integrates in one panel; the pieces it splits are checked
against 40-digit mpmath), which a comparison of the kernel with its own
one-row call cannot do.  The frozen kernel sums its nodes in the kernel's
fixed halving order (conftest.frozen_gl_panel); one comparison with the BLAS
gemv sums the kernel took before bounds the change of reduction in ulps.

llogl_norm_rows returns each row's certified Newton root instead of the
1e-13 bisection it replaced: it stays within that bisection's bracket of a
frozen copy of it, within 8 units of 2^-53 of 40-digit mpmath, equal bit for
bit to its one-row call on every cube, and it raises when its domain or its
certificate fails.  That certificate, read off each row's last Newton
evaluation, decides row by row as the two extra passes it replaced do
(kept here as an oracle).  The work saved is pinned on the benchmark's
analyze grids, and the quadrature error bound is checked against
high-precision quadrature.
"""

import functools

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    assert_mp_quad_close,
    assert_near_frozen,
    closed_form_q,
    flat_grids,
    frozen_gl_panel,
    mp_piece_integral,
    random_grids,
    split_pieces,
)
from rhlab import cli, kcalc, weights
from rhlab.grid import level_cubes, make_grid
from rhlab.kcalc import _level_pieces, k_l1_linf, level_piece_integrals, llogl_norm_rows, power_piece_integral
from test_kcalc import _CALLER_QE, _six_decade_pieces

# ---------------------------------------------------------------------------
# frozen level kernel: every live piece takes the 20- and 40-node sums


def _frozen_antider_pow(s, r):
    if r == -1.0:
        return np.log(s)
    return s ** (r + 1.0) / (r + 1.0)


_GL20 = np.polynomial.legendre.leggauss(20)
_GL40 = np.polynomial.legendre.leggauss(40)


def _frozen_bisect_panels(work, q, E, acc, gemv):
    while work:
        a, b, lo, hi, ix, depth = work.pop()
        c20 = frozen_gl_panel(a, b, lo, hi, q, E, _GL20, gemv)
        c40 = frozen_gl_panel(a, b, lo, hi, q, E, _GL40, gemv)
        done = np.abs(c40 - c20) <= 1e-10 * np.maximum(np.abs(c40), 1e-300)
        np.add.at(acc, ix[done], c40[done])
        bad = ~done
        if np.any(bad):
            if depth >= 40:
                raise RuntimeError("not converged")
            mid = 0.5 * (lo[bad] + hi[bad])
            work.append((a[bad], b[bad], lo[bad], mid, ix[bad], depth + 1))
            work.append((a[bad], b[bad], mid, hi[bad], ix[bad], depth + 1))


def frozen_level_piece_integrals(A, B, s0, s1, q, E, gemv=False):
    A, B, s0, s1 = (np.asarray(x, dtype=np.float64) for x in (A, B, s0, s1))
    n, m = A.shape
    if E <= -1.0 and np.any(A[:, s0 == 0.0] != 0.0):
        raise ValueError("divergent integral at the origin")
    Af, Bf = A.ravel(), B.ravel()
    out = np.zeros(n * m)
    origin = np.flatnonzero(Af == 0.0)
    if origin.size:
        k = origin % m
        r = q + E
        if r <= -1.0 and np.any(s0[k] == 0.0):
            raise ValueError("divergent integral at the origin")
        lo = np.where(s0[k] == 0.0, 0.0, _frozen_antider_pow(np.maximum(s0[k], 1e-300), r))
        out[origin] = Bf[origin] ** q * (_frozen_antider_pow(s1[k], r) - lo)
    live = np.flatnonzero(Af != 0.0)
    if live.size == 0:
        return out.reshape(n, m)
    if q == 1.0:
        k = live % m
        out[live] = Af[live] * (_frozen_antider_pow(s1[k], E) - _frozen_antider_pow(s0[k], E)) + Bf[live] * (
            _frozen_antider_pow(s1[k], E + 1.0) - _frozen_antider_pow(s0[k], E + 1.0)
        )
        return out.reshape(n, m)
    # every live piece takes both sums, one panel per row
    a, b, lo, hi = Af[live], Bf[live], s0[live % m], s1[live % m]
    c20 = frozen_gl_panel(a, b, lo, hi, q, E, _GL20, gemv)
    c40 = frozen_gl_panel(a, b, lo, hi, q, E, _GL40, gemv)
    done = np.abs(c40 - c20) <= 1e-10 * np.maximum(np.abs(c40), 1e-300)
    acc = np.zeros(n * m)
    acc[live[done]] = c40[done]
    bad = live[~done]
    if bad.size:
        a, b, lo, hi = Af[bad], Bf[bad], s0[bad % m], s1[bad % m]
        mid = 0.5 * (lo + hi)
        _frozen_bisect_panels([(a, b, lo, mid, bad, 1), (a, b, mid, hi, bad, 1)], q, E, acc, gemv)
    out += acc
    return out.reshape(n, m)


def _assert_level_kernel_frozen(A, B, s0, s1, q, E):
    # bit for bit off the closed-form q (conftest.assert_near_frozen)
    got = level_piece_integrals(A, B, s0, s1, q, E)
    ref = frozen_level_piece_integrals(A, B, s0, s1, q, E)
    assert_near_frozen(got, ref, A, B, s0, s1, q, E)


@settings(max_examples=80)
@given(st.one_of(random_grids(), st.sampled_from(flat_grids())), st.sampled_from(_CALLER_QE), st.data())
def test_level_kernel_matches_frozen(w, qE, data):
    lev = data.draw(st.integers(w.base.level, w.L), label="level")
    vals, _, s0, s, A = _level_pieces(w, lev)
    _assert_level_kernel_frozen(A, vals, s0, s, *qE)


@pytest.mark.parametrize("qE", _CALLER_QE, ids=lambda qE: f"q={qE[0]:g},E={qE[1]:.4g}")
def test_level_kernel_matches_frozen_every_caller_pair(qE):
    for w in (make_grid(1, 9, "rand:21:lognormal:1"), make_grid(2, 4, "rand:22:lognormal:1.5"), make_grid(1, 8, "pow:-0.5")):
        for lev in range(w.L + 1):
            vals, _, s0, s, A = _level_pieces(w, lev)
            _assert_level_kernel_frozen(A, vals, s0, s, *qE)


def test_level_kernel_matches_frozen_on_bisection_fallback_pieces():
    # columns spanning up to six decades, which the frozen kernel bisected
    # and the kernel splits into geometric panels
    rng = np.random.default_rng(7)
    s0 = np.array([1e-6, 1e-4, 1e-3, 0.01, 0.1, 0.5, 1.0])
    s1 = np.array([1.0, 0.1, 2.0, 0.02, 3.0, 0.75, 1.5])
    A = rng.uniform(0.0, 2.0, (9, 7))
    A[::3, 2] = 0.0
    B = rng.uniform(0.1, 3.0, (9, 7))
    for q, E in _CALLER_QE:
        _assert_level_kernel_frozen(A, B, s0, s1, q, E)
    # one-panel columns next to a negative intercept (a -1 ulp tie), and a
    # column of ratio just above 2, which takes two panels
    s0c, s1c = np.array([0.5, 1.0, 1.0]), np.array([1.0, 2.0, np.nextafter(2.0, 3.0)])
    Ac = rng.uniform(0.1, 1.0, (4, 3))
    for A2, lo, hi in ((Ac[:, :2], s0c[:2], s1c[:2]), (np.where(np.eye(4, 2) > 0, -1e-17, Ac[:, :2]), s0c[:2], s1c[:2]), (Ac, s0c, s1c)):
        _assert_level_kernel_frozen(A2, np.ones(A2.shape), lo, hi, 2.0, -1.5)


def test_level_kernel_within_4_ulp_of_the_gemv_sums():
    # the fixed-order node sums against the BLAS matrix-vector products
    # they replaced, on every caller pair and every level: the kernel's own
    # sums, or the frozen kernel's at the closed-form q
    for w in (make_grid(1, 9, "rand:23:lognormal:1"), make_grid(2, 4, "rand:24:lognormal:1.5"), make_grid(1, 8, "pow:-0.5")):
        for lev in range(w.L + 1):
            vals, _, s0, s, A = _level_pieces(w, lev)
            for q, E in _CALLER_QE:
                kernel = frozen_level_piece_integrals if closed_form_q(q) else level_piece_integrals
                got = kernel(A, vals, s0, s, q, E)
                ref = frozen_level_piece_integrals(A, vals, s0, s, q, E, gemv=True)
                assert np.abs(got.view(np.int64) - ref.view(np.int64)).max() <= 4


@pytest.mark.parametrize("block", [64, 128, 2048])
def test_level_kernel_matches_frozen_block_shapes(monkeypatch, block):
    monkeypatch.setattr(kcalc, "_PIECE_BLOCK", block)
    for w in (make_grid(1, 9, "rand:11:lognormal:1.5"), make_grid(2, 4, "rand:12:lognormal:1"), flat_grids()[4]):
        for lev in range(w.L + 1):
            vals, _, s0, s, A = _level_pieces(w, lev)
            for q, E in (_CALLER_QE[0], _CALLER_QE[2], _CALLER_QE[-1]):
                _assert_level_kernel_frozen(A, vals, s0, s, q, E)


# ---------------------------------------------------------------------------
# frozen L log L norms: every row evaluated at every bisection step


def _frozen_llogl_g(cells, r):
    u = cells / r[:, None]
    return np.mean(u * np.log(np.e + u), axis=1)


def frozen_llogl_norm_rows(cells):
    cells = np.atleast_2d(cells)
    lo = cells.mean(axis=1)
    hi = lo.copy()
    for _ in range(200):
        bad = _frozen_llogl_g(cells, hi) > 1.0
        if not np.any(bad):
            break
        hi[bad] *= 2.0
    for _ in range(120):
        if np.all(hi - lo <= 1e-13 * hi):
            break
        mid = 0.5 * (lo + hi)
        gm = _frozen_llogl_g(cells, mid) > 1.0
        lo = np.where(gm, mid, lo)
        hi = np.where(gm, hi, mid)
    return 0.5 * (lo + hi)


def _two_pass_certified(cells, x):
    # the certificate llogl_norm_rows took before: the float G at
    # x (1 -+ 4 gam), two more passes over the cells, beyond 1 +- 3 gam
    gam = (64 + cells.shape[1].bit_length() + cells.shape[1] // 4096) * 2.0**-53
    g_lo, g_hi = _frozen_llogl_g(cells, x * (1.0 - 4.0 * gam)), _frozen_llogl_g(cells, x * (1.0 + 4.0 * gam))
    return (g_lo > 1.0 + 3.0 * gam) & (g_hi < 1.0 - 3.0 * gam)


def _assert_certificates_agree(cells):
    # row by row, the certificate of the last Newton evaluation decides as
    # the two passes at the returned roots do
    x = cells.mean(axis=1)
    ok = kcalc._llogl_newton(cells, x)
    np.testing.assert_array_equal(ok, _two_pass_certified(cells, x))
    return ok, x


def _assert_llogl_frozen(cells):
    # the Newton root lies within the frozen bisection's own 1e-13 bracket
    got = llogl_norm_rows(cells)
    ref = frozen_llogl_norm_rows(cells)
    assert np.all(np.abs(got - ref) <= 1e-13 * ref)
    ok, x = _assert_certificates_agree(cells)
    assert ok.all() and np.array_equal(x, got)


@given(random_grids())
def test_llogl_norm_rows_matches_frozen_random(w):
    for lev in range(w.base.level, w.L + 1):
        _assert_llogl_frozen(w.zcells.reshape(-1, 1 << (w.d * (w.L - lev))))


@pytest.mark.parametrize("m", [1, 2, 16, 64, 4096])
def test_llogl_norm_rows_matches_frozen_one_hot(m):
    for low in (1.0, 1e-3, 1e-12):
        for high in (3.0, 1e3, 1e12):
            cells = np.full((min(m, 8), m), low)
            cells[np.arange(cells.shape[0]), np.arange(cells.shape[0]) % m] = high
            _assert_llogl_frozen(cells)
    _assert_llogl_frozen(np.eye(min(m, 16), m))  # zero cells, but no zero row


@pytest.mark.parametrize("shape", [(64, 1024), (4096, 16), (8, 8192), (20000, 1), (10000, 2)])
def test_llogl_norm_rows_matches_frozen_lognormal_sigma_4(shape):
    _assert_llogl_frozen(np.random.default_rng(shape[1]).lognormal(0.0, 4.0, shape))


# row lengths at the steps of gam = (64 + bit_length(m) + m // 4096) units
_GAM_EDGES = [1, 2, 3, 4, 7, 8, 4095, 4096, 4097, 8191, 8192]


@st.composite
def llogl_rows(draw):
    """A few rows of lognormal cells of one length, some with zero cells or
    one huge cell (no row all zero)."""
    m = draw(st.sampled_from(_GAM_EDGES))
    n = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cells = rng.lognormal(0.0, draw(st.sampled_from([0.0, 0.5, 2.0, 6.0])), (n, m))
    zeros = rng.random((n, m)) < draw(st.sampled_from([0.0, 0.5, 0.99, 1.0]))
    zeros[:, 0] = False
    cells[zeros] = 0.0
    if draw(st.booleans()):
        cells[np.arange(n), rng.integers(0, m, n)] = draw(st.sampled_from([1e10, 1e100, 1e300]))
    return cells


@settings(max_examples=60, deadline=None)
@given(llogl_rows())
def test_llogl_certificate_agrees_with_two_passes(cells):
    ok, x = _assert_certificates_agree(cells)
    assert ok.all()


def test_llogl_certificates_reject_a_short_newton_alike(monkeypatch):
    # half steps leave each root about 2^-8 of its first error off after
    # the eight steps: both certificates reject every row
    real = kcalc._llogl_g

    def half(cells, r):
        step, g, s = real(cells, r)
        return 0.5 * step, g, s

    monkeypatch.setattr(kcalc, "_llogl_g", half)
    cells = np.random.default_rng(3).lognormal(0.0, 1.0, (40, 64))
    ok, _ = _assert_certificates_agree(cells)
    assert not ok.any()


def test_llogl_norm_rows_rejects_rows_outside_the_domain():
    # a zero row, a negative cell or a non-finite cell is no input of the
    # certificate, and no caller produces one: WeightGrid cells are > 0
    cells = np.random.default_rng(5).lognormal(0.0, 1.0, (6, 32))
    for i, j, bad in ((1, slice(None), 0.0), (2, 3, -0.5), (4, 0, np.nan), (5, 7, np.inf)):
        rows = cells.copy()
        rows[i, j] = bad
        with pytest.raises(ValueError, match="L log L norm needs"):
            llogl_norm_rows(rows)


def _mp_llogl_root(row, x0):
    # the root r of (1/m) sum u log(e + u) = 1, u = cell / r, in 40 digits
    with mpmath.workdps(40):
        cells = [mpmath.mpf(float(c)) for c in row if c != 0.0]
        g = lambda r: mpmath.fsum(c / r * mpmath.log(mpmath.e + c / r) for c in cells) / len(row) - 1
        return mpmath.findroot(g, mpmath.mpf(x0))


@pytest.mark.parametrize(
    "d, L, spec",
    [
        (1, 10, "rand:1:lognormal:1"),
        (1, 8, "rand:7:lognormal:2"),
        (1, 10, "pow:-0.5"),
        (2, 5, "rand:3:lognormal:1"),
        (1, 8, "step:4,1,1,1"),
        (1, 8, "const:3.7"),
    ],
)
def test_llogl_norm_rows_within_8_units_of_mpmath(d, L, spec):
    # the bisection this replaced was up to 400 units off on these 100 rows
    w = make_grid(d, L, spec)
    rng = np.random.default_rng(L)
    for lev in range(L + 1):
        rows = w.zcells.reshape(-1, 1 << (d * (L - lev)))
        got = llogl_norm_rows(rows)
        for i in np.unique(rng.integers(0, rows.shape[0], 2)):
            ref = _mp_llogl_root(rows[i], float(got[i]))
            assert abs(mpmath.mpf(float(got[i])) - ref) <= 8 * 2.0**-53 * ref, (lev, i)


@pytest.mark.parametrize("c", ["1e-300", "1", "1e300"])
def test_rh_llogl_of_a_constant_within_2_units(c):
    # RH_LLogL of a constant weight is 1/u*, u* log(e + u*) = 1, at any scale
    with mpmath.workdps(40):
        exact = 1 / mpmath.findroot(lambda u: u * mpmath.log(mpmath.e + u) - 1, 0.8)
    value = weights.rh_llogl_constant(make_grid(1, 4, f"const:{c}")).value
    assert abs(value - exact) <= 2 * 2.0**-53 * exact


def test_llogl_norm_rows_are_independent_of_their_batch():
    # every row of a level equals its cube's one-row call bit for bit (the
    # frozen bisection's bracket width depended on the other rows: 110 cubes)
    w = make_grid(1, 10, "rand:7:lognormal:2")
    for lev in range(w.L + 1):
        m = 1 << (w.L - lev)
        got = llogl_norm_rows(w.zcells.reshape(-1, m))
        for Q in level_cubes(w, lev):
            assert got[w.zrange(Q)[0] // m] == kcalc.llogl_norm(w, Q), Q.addr()


def test_llogl_failed_certificate_is_a_numerical_error(monkeypatch, capsys):
    # no Newton step leaves every root at its row mean, where G > 1
    real = kcalc._llogl_g
    stuck = lambda cells, r: (np.zeros(r.shape), *real(cells, r)[1:])
    monkeypatch.setattr(kcalc, "_llogl_g", stuck)
    with pytest.raises(FloatingPointError, match="not certified"):
        llogl_norm_rows(make_grid(1, 4, "rand:1:lognormal:1").zcells.reshape(4, 4))
    capsys.readouterr()
    assert cli.main(["analyze", "--weight", "rand:1:lognormal:1", "--level", "4"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("rhlab: numerical error: FloatingPointError") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# the work saved, on the benchmark's analyze grids


def test_llogl_passes_per_level_bounded(monkeypatch):
    w = make_grid(1, 16, "rand:1:lognormal:1")
    seen = []
    real = kcalc._llogl_g
    monkeypatch.setattr(kcalc, "_llogl_g", lambda cells, r: seen.append(cells.size) or real(cells, r))
    for lev in range(w.L + 1):
        seen.clear()
        llogl_norm_rows(w.zcells.reshape(-1, 1 << (w.L - lev)))
        # Newton steps and certificates included; 45 full passes before
        assert sum(seen) <= 15 * w.zcells.size, lev


def test_analyze_reads_each_level_once_for_lorentz_and_llogl(monkeypatch, capsys):
    # analyze --q 2 at d=1 L=10: the Lorentz constants of the three p build
    # each level's pieces once (three times before), and every evaluation
    # of the L log L integrals is a Newton step: each reads the rows the
    # last left active (two full certificate passes per level followed
    # them before)
    built, passes = [], []
    real_pieces, real_g, real_rows = kcalc._level_pieces, kcalc._llogl_g, weights.llogl_norm_rows

    def g(cells, r):
        out = real_g(cells, r)
        passes[-1].append((r.size, out[0]))
        return out

    def rows(cells):
        passes.append([(cells.shape[0], None)])
        return real_rows(cells)

    monkeypatch.setattr(kcalc, "_level_pieces", lambda w, lev: built.append(lev) or real_pieces(w, lev))
    monkeypatch.setattr(kcalc, "_llogl_g", g)
    monkeypatch.setattr(weights, "llogl_norm_rows", rows)
    assert cli.main(["analyze", "--weight", "rand:1:lognormal:1", "--level", "10", "--q", "2"]) == 0
    capsys.readouterr()
    assert sorted(built) == list(range(11))
    assert len(passes) == 11
    for level in passes:
        (active, _), *calls = level
        for size, step in calls:
            assert size == active
            active = np.count_nonzero(np.abs(step) > 1e-9)
        assert active == 0


@pytest.mark.parametrize("d, L, spec", [(1, 14, "pow:-0.5"), (1, 16, "rand:1:lognormal:1"), (2, 8, "rand:2:lognormal:1")])
def test_lorentz_pieces_skip_the_20_node_sums(monkeypatch, d, L, spec):
    # the Lorentz constants of an analyze run at q = 2.5 (an integer q
    # takes the closed form, which has no node sums): every level piece is
    # one 40-node panel, so the kernel sums at most its own piece count
    counts = {"pieces": 0, "summed": 0}
    kernel, node_sums = kcalc._gl_pieces, kcalc._node_sums

    def count_pieces(A, B, s0, s1, q, E):
        counts["pieces"] += A.size
        return kernel(A, B, s0, s1, q, E)

    def count_sums(a, b, s, ws, q, buf):
        assert s.shape[0] == 40
        counts["summed"] += a.size
        return node_sums(a, b, s, ws, q, buf)

    monkeypatch.setattr(kcalc, "_gl_pieces", count_pieces)
    monkeypatch.setattr(kcalc, "_node_sums", count_sums)
    w = make_grid(d, L, spec)
    for p in (1.5, 2.0, 3.0):
        weights.rh_lorentz_constant(w, p, 2.5)
    assert 0 < counts["summed"] <= counts["pieces"]


def test_integer_q_commands_take_no_node_sums(capsys, monkeypatch):
    # the benchmark's integer-q commands integrate every piece in closed
    # form; a non-integer q, or an integer above the bound, takes the
    # Gauss-Legendre sums
    calls = []

    def refuse(*args):
        calls.append(1)
        raise RuntimeError("Gauss-Legendre node sums at an integer q")

    monkeypatch.setattr(kcalc, "_node_sums", refuse)
    analyze = ("analyze", "--weight", "rand:1:lognormal:1", "--level", "10")
    for argv in (
        analyze + ("--q", "2"),
        ("verify", "--suite", "lorentz", "--cases", "2"),
        ("curve", "--kind", "holmstedt:0.5:2", "--weight", "pow:-0.5", "--level", "10"),
    ):
        assert cli.main(list(argv)) == 0, argv
    B, _, s0, s1, A = _level_pieces(make_grid(1, 6, "rand:3:lognormal:1"), 2)
    level_piece_integrals(A, B, s0, s1, float(kcalc._BINOMIAL_Q), -2.0)
    assert calls == []
    with pytest.raises(RuntimeError):
        level_piece_integrals(A, B, s0, s1, kcalc._BINOMIAL_Q + 1.0, -2.0)
    assert cli.main(list(analyze + ("--q", "2.5"))) == 1
    assert len(calls) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# the certificate against high-precision quadrature


@functools.lru_cache(maxsize=None)
def _mp_gauss_legendre(n, dps):
    import mpmath

    mp = mpmath.mp
    nodes, weights_ = [], []
    with mpmath.workdps(dps):
        for x0 in np.polynomial.legendre.leggauss(n)[0]:
            x = mp.mpf(float(x0))
            for _ in range(6):
                p, pm = mp.legendre(n, x), mp.legendre(n - 1, x)
                x -= p / (n * (x * p - pm) / (x * x - 1))
            dp = n * (x * mp.legendre(n, x) - mp.legendre(n - 1, x)) / (x * x - 1)
            nodes.append(x)
            weights_.append(2 / ((1 - x * x) * dp * dp))
    return nodes, weights_


@pytest.mark.parametrize("qE", _CALLER_QE + [(10.0, -8.0), (40.5, -40.5)], ids=lambda qE: f"q={qE[0]:g},E={qE[1]:.4g}")
def test_gl20_error_below_certified_bound(qE):
    # the 40-node error bound on the panels s0 = 1, s1 = 2^(1/k) (the
    # integrand's scale and the ratio A/B are what remains free, down to the
    # intercept slack A = -2^-20 B) against the 40-node sums in 120-digit
    # mpmath; the panel count per doubling is the least that the bound
    # takes below 2^-60
    import mpmath

    mp = mpmath.mp
    q, E = qE
    k = kcalc._panels_per_doubling(q, E)
    slack = 1.0 + 2.0**-30
    assert kcalc._gl_error_bound(q, E, 2.0 ** (1.0 / k) * slack) < 2.0**-60
    assert k == 1 or kcalc._gl_error_bound(q, E, 2.0 ** (1.0 / (k - 1)) * slack) >= 2.0**-60
    nodes, weights_ = _mp_gauss_legendre(40, 120)
    for r in (2.0, 2.0**0.5):
        bound = float(kcalc._gl_error_bound(q, E, r))
        with mpmath.workdps(120):
            mid, half = (1 + mp.mpf(r)) / 2, (mp.mpf(r) - 1) / 2
            for A, B in ((0.0, 1.0), (-(2.0**-20), 1.0), (0.05, 1.0), (1.0, 1.0), (1.0, 0.01), (1.0, 0.0)):
                f = lambda s: (A + B * s) ** mp.mpf(q) * s ** mp.mpf(E)
                exact = mp.quad(f, [1, mp.mpf(r)])
                gl40 = half * sum(wt * f(mid + half * x) for x, wt in zip(nodes, weights_))
                assert abs(gl40 - exact) / exact <= bound, (r, A, B)


# ---------------------------------------------------------------------------
# the closed form at integer q against 40-digit mpmath


@pytest.mark.parametrize("q", [1, 2, 3, 5])
def test_closed_form_pieces_within_8_units_of_mpmath(q):
    # the callers' exponents: Lorentz q/p - q - 1, K-side -p (q = p),
    # Holmstedt -theta q - 1; on the origin column (A = 0, s0 = 0), the
    # logarithm at r = E + j + 1 = 0 (Lorentz p = 2 and Holmstedt theta =
    # 1/2 at q = 2, the K-side at every q), the columns k >= 2^12 where a
    # difference of antiderivatives cancels, and d=2 level widths
    exponents = (q / 2.0 - q - 1.0, q / 1.5 - q - 1.0, -float(q), -0.5 * q - 1.0, -0.3 * q - 1.0)
    worst = 0.0
    for w, levels in ((make_grid(1, 14, "rand:1:lognormal:1"), (0, 4, 12)), (make_grid(2, 6, "rand:2:lognormal:1"), (0, 2, 5))):
        for lev in levels:
            vals, _, s0, s, A = _level_pieces(w, lev)
            n, m = A.shape
            rows = range(0, n, max(1, n // 3))
            cols = sorted(set(range(min(m, 5))) | set(range(1 << 12, m, 1531)) | {m - 1})
            for E in exponents:
                got = level_piece_integrals(A, vals, s0, s, float(q), E)
                for i in rows:
                    for k in cols:
                        exact = mp_piece_integral(A[i, k], vals[i, k], s0[k], s[k], q, E)
                        worst = max(worst, float(abs(float(got[i, k]) - exact) / exact))
    assert worst <= 8 * 2.0**-53, worst / 2.0**-53


# ---------------------------------------------------------------------------
# the Gauss-Legendre panels at non-integer q against 40-digit mpmath

# the callers' exponents: K-side E = -p (q = p = 1.5), Lorentz q/p - q - 1
# (q = 2.5, p = 2, as Holmstedt theta = 1/2; q = 3.5, p = 1.5)
_GL_QE = [(1.5, -1.5), (2.5, -2.25), (3.5, 3.5 / 1.5 - 4.5)]


def _level_piece_errors(w, levels, pick, sample=None):
    worst = 0.0
    for lev in levels:
        vals, _, s0, s, A = _level_pieces(w, lev)
        S0, S1 = np.broadcast_to(s0, A.shape), np.broadcast_to(s, A.shape)
        where = pick(A) & (A != 0.0)
        for q, E in _GL_QE:
            got = level_piece_integrals(A, vals, s0, s, q, E)
            assert not split_pieces(A, vals, S0, S1, q, E).any()
            worst = max(worst, assert_mp_quad_close(got, A, vals, S0, S1, q, E, where, 16, sample=sample))
    return worst


def _sampled(A):
    # every third of the rows; the first columns, the columns k >= 2^12
    # and the last
    n, m = A.shape
    out = np.zeros(A.shape, dtype=bool)
    cols = sorted(set(range(min(m, 5))) | set(range(1 << 12, m, 1531)) | {m - 1})
    out[np.ix_(range(0, n, max(1, n // 3)), cols)] = True
    return out


def test_gl_level_pieces_within_16_units_of_mpmath():
    # every level piece is one 40-node panel; the intercepts below 0 of
    # const:3.7 (down to -10.2 eps B s0 at d=1 L=8) included
    worst = _level_piece_errors(make_grid(1, 14, "rand:1:lognormal:1"), (0, 4, 12), _sampled)
    worst = max(worst, _level_piece_errors(make_grid(2, 6, "rand:2:lognormal:1"), (0, 2, 5), _sampled))
    for d, L in ((1, 8), (2, 4)):
        w = make_grid(d, L, "const:3.7")
        assert any(np.any(_level_pieces(w, lev)[4] < 0.0) for lev in range(L + 1))
        worst = max(worst, _level_piece_errors(w, range(L + 1), lambda A: A < 0.0, sample=4))
    assert worst <= 16, worst


def test_gl_split_pieces_within_32_units_of_mpmath():
    # pieces wider than one panel: the six-decade columns, whose bisected
    # 20/40-node sums were up to 122 2^-53 off, and the wide piece [1/4, 1]
    # of the step:4,1,1,1 K-curve behind its Holmstedt curve
    A, B, s0, s1 = _six_decade_pieces()
    A, B = A[::4], B[::4]
    S0, S1 = np.broadcast_to(s0, A.shape), np.broadcast_to(s1, A.shape)
    worst = {True: 0.0, False: 0.0}
    for q, E in _GL_QE[:2]:
        got = level_piece_integrals(A, B, s0, s1, q, E)
        split = split_pieces(A, B, S0, S1, q, E)
        assert split.sum() >= 9
        for s in (True, False):
            units = 32 if s else 16
            worst[s] = max(worst[s], assert_mp_quad_close(got, A, B, S0, S1, q, E, (split == s) & (A != 0.0), units))
    w = make_grid(1, 10, "step:4,1,1,1")
    pieces = k_l1_linf(w, w.base).pieces()
    assert split_pieces(*pieces, 2.5, -2.25).tolist() == [False, True]
    got = power_piece_integral(*pieces, 2.5, -2.25)
    worst[True] = max(worst[True], assert_mp_quad_close(got, *pieces, 2.5, -2.25, np.array([False, True]), 32))
    assert worst[True] <= 32 and worst[False] <= 16, worst
