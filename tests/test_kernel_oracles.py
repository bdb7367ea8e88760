"""The certified shortcuts of the level kernels against frozen oracles.

level_piece_integrals skips the 20-node sums of a column block when a
Bernstein-ellipse bound proves that the 20/40-node test passes, and
llogl_norm_rows decides its bisection tests from a certified band around
each row's root instead of evaluating every one.  Both must keep every bit:
they are compared here with frozen copies of the implementations that
evaluated everything (bit for bit, on the same inputs), which a comparison
of the kernel with its own one-row call cannot do.  The work they save is
pinned on the benchmark's analyze grids, and the error bound is checked
against high-precision quadrature.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import flat_grids, random_grids
from rhlab import kcalc, weights
from rhlab.grid import make_grid
from rhlab.kcalc import _level_pieces, level_piece_integrals, llogl_norm_rows
from test_kcalc import _CALLER_QE

# ---------------------------------------------------------------------------
# frozen level kernel: every live piece takes the 20- and 40-node sums


def _frozen_antider_pow(s, r):
    if r == -1.0:
        return np.log(s)
    return s ** (r + 1.0) / (r + 1.0)


def _frozen_gl_panel(A, B, s0, s1, q, E, table):
    nodes, weights_ = table
    mid = 0.5 * (s0 + s1)
    half = 0.5 * (s1 - s0)
    s = mid[:, None] + half[:, None] * nodes[None, :]
    f = (A[:, None] + B[:, None] * s) ** q * s ** E
    return half * (f @ weights_)


_GL20 = np.polynomial.legendre.leggauss(20)
_GL40 = np.polynomial.legendre.leggauss(40)
_ROW_ALIGN = 64


def _frozen_bisect_panels(work, q, E, acc):
    while work:
        a, b, lo, hi, ix, depth = work.pop()
        c20 = _frozen_gl_panel(a, b, lo, hi, q, E, _GL20)
        c40 = _frozen_gl_panel(a, b, lo, hi, q, E, _GL40)
        done = np.abs(c40 - c20) <= 1e-10 * np.maximum(np.abs(c40), 1e-300)
        np.add.at(acc, ix[done], c40[done])
        bad = ~done
        if np.any(bad):
            if depth >= 40:
                raise kcalc.QuadratureError("not converged")
            mid = 0.5 * (lo[bad] + hi[bad])
            work.append((a[bad], b[bad], lo[bad], mid, ix[bad], depth + 1))
            work.append((a[bad], b[bad], mid, hi[bad], ix[bad], depth + 1))


def _frozen_node_sums(a, b, s, sE, weights_, q, buf):
    r, c = a.shape
    k = s.shape[1]
    f = buf[: r * c * k].reshape(r, c, k)
    np.multiply(b[:, :, None], s, out=f)
    f += a[:, :, None]
    f **= q
    f *= sE
    rows = -(-r * c // _ROW_ALIGN) * _ROW_ALIGN
    return (buf[: rows * k].reshape(rows, k) @ weights_)[: r * c].reshape(r, c)


def frozen_level_piece_integrals(A, B, s0, s1, q, E, block=2048):
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
    c20 = np.empty((n, m))
    c40 = np.empty((n, m))
    buf = np.zeros(block * 40)
    cb = min(m, block)
    rb = block // cb
    for c in range(int(np.min(live % m)), m, cb):
        cols = slice(c, c + cb)
        mid = 0.5 * (s0[cols] + s1[cols])
        half = 0.5 * (s1[cols] - s0[cols])
        tables = []
        for (nodes, weights_), res in ((_GL20, c20), (_GL40, c40)):
            s = mid[:, None] + half[:, None] * nodes[None, :]
            tables.append((s, s ** E, weights_, res))
        for r in range(0, n, rb):
            rows = slice(r, r + rb)
            for s, sE, weights_, res in tables:
                res[rows, cols] = half * _frozen_node_sums(A[rows, cols], B[rows, cols], s, sE, weights_, q, buf)
    c20 = c20.ravel()[live]
    c40 = c40.ravel()[live]
    tail = slice(live.size - min(live.size, _ROW_ALIGN + live.size % _ROW_ALIGN), None)
    t = live[tail]
    c20[tail] = _frozen_gl_panel(Af[t], Bf[t], s0[t % m], s1[t % m], q, E, _GL20)
    c40[tail] = _frozen_gl_panel(Af[t], Bf[t], s0[t % m], s1[t % m], q, E, _GL40)
    done = np.abs(c40 - c20) <= 1e-10 * np.maximum(np.abs(c40), 1e-300)
    acc = np.zeros(n * m)
    acc[live[done]] = c40[done]
    bad = live[~done]
    if bad.size:
        a, b, lo, hi = Af[bad], Bf[bad], s0[bad % m], s1[bad % m]
        mid = 0.5 * (lo + hi)
        _frozen_bisect_panels([(a, b, lo, mid, bad, 1), (a, b, mid, hi, bad, 1)], q, E, acc)
    out += acc
    return out.reshape(n, m)


def _assert_level_kernel_frozen(A, B, s0, s1, q, E, block=2048):
    got = level_piece_integrals(A, B, s0, s1, q, E)
    ref = frozen_level_piece_integrals(A, B, s0, s1, q, E, block)
    np.testing.assert_array_equal(got.view(np.uint64), ref.view(np.uint64))


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
    # the six-decade columns of test_level_piece_integrals_bisection_fallback,
    # which fail the depth-0 test and are not certified (s1 > 2 s0)
    rng = np.random.default_rng(7)
    s0 = np.array([1e-6, 1e-4, 1e-3, 0.01, 0.1, 0.5, 1.0])
    s1 = np.array([1.0, 0.1, 2.0, 0.02, 3.0, 0.75, 1.5])
    A = rng.uniform(0.0, 2.0, (9, 7))
    A[::3, 2] = 0.0
    B = rng.uniform(0.1, 3.0, (9, 7))
    for q, E in _CALLER_QE:
        _assert_level_kernel_frozen(A, B, s0, s1, q, E)
    # a certified block next to a negative intercept (a -1 ulp tie) and a
    # column of ratio just above 2 keeps the full test
    s0c, s1c = np.array([0.5, 1.0, 1.0]), np.array([1.0, 2.0, np.nextafter(2.0, 3.0)])
    Ac = rng.uniform(0.1, 1.0, (4, 3))
    for A2, lo, hi in ((Ac[:, :2], s0c[:2], s1c[:2]), (np.where(np.eye(4, 2) > 0, -1e-17, Ac[:, :2]), s0c[:2], s1c[:2]), (Ac, s0c, s1c)):
        _assert_level_kernel_frozen(A2, np.ones(A2.shape), lo, hi, 2.0, -1.5)


@pytest.mark.parametrize("block", [64, 128, 2048])
def test_level_kernel_matches_frozen_block_shapes(monkeypatch, block):
    monkeypatch.setattr(kcalc, "_PIECE_BLOCK", block)
    for w in (make_grid(1, 9, "rand:11:lognormal:1.5"), make_grid(2, 4, "rand:12:lognormal:1"), flat_grids()[4]):
        for lev in range(w.L + 1):
            vals, _, s0, s, A = _level_pieces(w, lev)
            for q, E in (_CALLER_QE[0], _CALLER_QE[2], _CALLER_QE[-1]):
                _assert_level_kernel_frozen(A, vals, s0, s, q, E, block)


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


def _assert_llogl_frozen(cells):
    got = llogl_norm_rows(cells)
    ref = frozen_llogl_norm_rows(cells)
    np.testing.assert_array_equal(got.view(np.uint64), ref.view(np.uint64))


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


def test_llogl_norm_rows_uncertified_rows_are_evaluated():
    # rows outside the certificate's domain (a zero mean, a negative or
    # non-finite cell) take every evaluation, with the same bits
    cells = np.random.default_rng(5).lognormal(0.0, 1.0, (6, 32))
    cells[1] = 0.0
    cells[2, 3] = -0.5
    _assert_llogl_frozen(np.delete(cells, 1, axis=0))
    _assert_llogl_frozen(cells[[0, 2, 3]])
    with np.errstate(divide="ignore", invalid="ignore"):
        cells[4, 0] = np.nan
        _assert_llogl_frozen(cells)


# ---------------------------------------------------------------------------
# the work saved, on the benchmark's analyze grids


def test_llogl_passes_per_level_bounded(monkeypatch):
    w = make_grid(1, 16, "rand:1:lognormal:1")
    seen = []
    real = kcalc._llogl_g
    monkeypatch.setattr(kcalc, "_llogl_g", lambda cells, r, newton=False: seen.append(cells.size) or real(cells, r, newton))
    for lev in range(w.L + 1):
        seen.clear()
        llogl_norm_rows(w.zcells.reshape(-1, 1 << (w.L - lev)))
        # Newton steps and certificates included; 45 full passes before
        assert sum(seen) <= 15 * w.zcells.size, lev


@pytest.mark.parametrize("d, L, spec", [(1, 14, "pow:-0.5"), (1, 16, "rand:1:lognormal:1"), (2, 8, "rand:2:lognormal:1")])
def test_lorentz_pieces_skip_the_20_node_sums(monkeypatch, d, L, spec):
    # the Lorentz constants of an analyze --q 2 run
    counts = {"live": 0, 20: 0}
    kernel, node_sums, panel = kcalc.level_piece_integrals, kcalc._node_sums, kcalc._gl_panel

    def count_live(A, B, s0, s1, q, E):
        counts["live"] += int(np.count_nonzero(A))
        return kernel(A, B, s0, s1, q, E)

    def count_sums(a, b, s, sE, w, q, buf):
        counts[20] += a.size if s.shape[1] == 20 else 0
        return node_sums(a, b, s, sE, w, q, buf)

    def count_panel(A, B, s0, s1, q, E, table):
        counts[20] += A.size if table is kcalc._GL20 else 0
        return panel(A, B, s0, s1, q, E, table)

    monkeypatch.setattr(weights, "level_piece_integrals", count_live)
    monkeypatch.setattr(kcalc, "_node_sums", count_sums)
    monkeypatch.setattr(kcalc, "_gl_panel", count_panel)
    w = make_grid(d, L, spec)
    for p in (1.5, 2.0, 3.0):
        weights.rh_lorentz_constant(w, p, 2.0)
    assert counts["live"] > 0 and counts[20] <= 0.05 * counts["live"]


# ---------------------------------------------------------------------------
# the certificate against high-precision quadrature


def _mp_gauss_legendre(mp, n):
    nodes, weights_ = [], []
    for x0 in np.polynomial.legendre.leggauss(n)[0]:
        x = mp.mpf(float(x0))
        for _ in range(6):
            p, pm = mp.legendre(n, x), mp.legendre(n - 1, x)
            x -= p / (n * (x * p - pm) / (x * x - 1))
        dp = n * (x * mp.legendre(n, x) - mp.legendre(n - 1, x)) / (x * x - 1)
        nodes.append(x)
        weights_.append(2 / ((1 - x * x) * dp * dp))
    return nodes, weights_


@pytest.mark.parametrize("qE", _CALLER_QE + [(10.0, -8.0)], ids=lambda qE: f"q={qE[0]:g},E={qE[1]:.4g}")
def test_gl20_error_below_certified_bound(qE):
    # the worst panel, s0 = 1 and s1 = 2 (the integrand's scale and the
    # ratio A/B are what remains free)
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    q, E = qE
    bound = kcalc._gl20_error_bound(q, E)
    assert bound < 1e-3 * kcalc._PIECE_REL
    with mpmath.workdps(60):
        nodes, weights_ = _mp_gauss_legendre(mp, 20)
        for A, B in ((0.0, 1.0), (0.05, 1.0), (1.0, 1.0), (1.0, 0.01), (1.0, 0.0)):
            f = lambda s: (A + B * s) ** mp.mpf(q) * s ** mp.mpf(E)
            exact = mp.quad(f, [1, 2])
            gl20 = mp.mpf(0.5) * sum(wt * f(mp.mpf(1.5) + mp.mpf(0.5) * x) for x, wt in zip(nodes, weights_))
            assert abs(gl20 - exact) / exact <= bound, (A, B)
