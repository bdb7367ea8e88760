"""K-functional curves and the norms derived from them.

For a weight w and cube Q the curve

    K(t) = K(t, w chi_Q; L1(Q), Linf(Q)) = integral_0^t (w chi_Q)*(s) ds

is piecewise linear, nondecreasing, concave, and passes through the origin:
its breakpoints sit at the cumulative plateau measures of the rearrangement
and its slopes are the plateau values.  Everything here is built on that
exact representation:

  * composite curves H(t) = (integral_0^{t^{1/(1-theta)}} [s^{-theta} K(s)]^q
    ds/s)^{1/q}, integrated piece by piece;
  * one piece-integral kernel for all of these (level_piece_integrals):
    closed form for integer q <= _BINOMIAL_Q, else 40-node Gauss-Legendre
    sums over geometric panels whose count is fixed up front by an a-priori
    bound (relative truncation error below 2^-60 on every panel); the
    K-curve pieces of all cubes of a level (_level_pieces) share one column
    grid, so column factors and nodes are built once per column;
    power_piece_integral is its one-row call on arbitrary pieces;
  * one layout of a grid's level pieces for the sweeps over its cubes
    (_PieceRun, its only reader): a run of small levels is one row of
    pieces, so that one kernel call serves them all;
  * Lorentz norms over (0, infinity) using the exact 1/t tail of the averaged
    rearrangement;
  * the Luxemburg norm of L log L by a certified Newton solve of its
    defining integral;
  * the limiting-space norm integral_0^{|Q|} K(s)/s ds, computed two
    independent ways (K-side and log-weighted rearrangement side) and
    cross-checked;
  * packing operators S_pi (weighted cube averages over disjoint cube
    families) and the weighted K-functional estimate they generate, a
    float per t.

A packing is an int64 array of flat rows into two level tables: the sums
of f w and of w over every dyadic cube of the grid, level-major from the
base cube down and each level in Morton order, one reshape-and-sum per
level (_level_tables), so S_pi = num[rows] / den[rows] with w-measures
den[rows] times the cell measure.  Explicit cube lists become rows once
(_packing_rows).  Each row sum reduces one contiguous row of the reshaped
level, which gives the same bits as summing the cube's Morton slice on its
own.  np.add.reduceat over the level's slice starts does not: on lognormal
cells it differed in the last bit for blocks of 4 cells or more, so it
must not replace the reshape.

Cube-local inequalities are evaluated on (0, |Q|]; beyond |Q| every curve is
determined by its exact constant or 1/t tail.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .grid import DyadicCube, WeightGrid, integrate, morton_index, row_means, row_sums
from .rearrange import DecreasingStep, rearrangement

_GL40 = np.polynomial.legendre.leggauss(40)


# ---------------------------------------------------------------------------
# curves

class ConcaveCurve:
    """Nondecreasing concave piecewise-linear curve with value 0 at 0.

    knots_t / knots_v are the breakpoints, starting at (0, 0); the curve is
    constant past domain_end = knots_t[-1].  value(t)/t is nonincreasing on
    (0, domain_end], which the constructor verifies via the slopes.
    """

    def __init__(self, knots_t, knots_v, slopes: np.ndarray | None = None):
        t = np.asarray(knots_t, dtype=np.float64)
        v = np.asarray(knots_v, dtype=np.float64)
        if t.size < 2 or t.size != v.size:
            raise ValueError("need matching knot arrays with at least two points")
        if t[0] != 0.0 or v[0] != 0.0:
            raise ValueError("curve must start at (0, 0)")
        if np.any(np.diff(t) <= 0):
            raise ValueError("knot abscissae must be strictly increasing")
        if slopes is None:
            slopes = np.diff(v) / np.diff(t)
        slopes = np.asarray(slopes, dtype=np.float64)
        if np.any(slopes < 0):
            raise ValueError("curve must be nondecreasing")
        # concavity: slopes nonincreasing (tiny relative slack for sampled input)
        if np.any(slopes[1:] > slopes[:-1] * (1.0 + 1e-9) + 1e-300):
            raise ValueError("curve must be concave (slopes nonincreasing)")
        self.t = t
        self.v = v
        self.slopes = slopes

    @property
    def domain_end(self) -> float:
        return float(self.t[-1])

    @property
    def mass(self) -> float:
        return float(self.v[-1])

    def value(self, s):
        out = np.interp(s, self.t, self.v)  # constant tail past the last knot
        return float(out) if np.ndim(s) == 0 else out

    def pieces(self):
        """(A, B, s0, s1) arrays with the curve equal to A + B s on [s0, s1]."""
        s0 = self.t[:-1]
        s1 = self.t[1:]
        B = self.slopes
        A = self.v[:-1] - B * s0
        return A, B, s0, s1


# ---------------------------------------------------------------------------
# the shared piece integrator

def _antider_pow(s: np.ndarray, r: float) -> np.ndarray:
    """Antiderivative of s^r (s > 0), log branch at r = -1."""
    if r == -1.0:
        return np.log(s)
    return s ** (r + 1.0) / (r + 1.0)


# How far below 0 an intercept may lie, relative to B s0: rounding of the
# K-curve knots leaves level-piece intercepts up to 20,636 eps below 0
# (const:3.7 at d=1 L=18).  _gl_error_bound allows for it.
_A_SLACK = 2.0**-20


def _gl_error_bound(q: float, E: float, r) -> np.ndarray:
    """Relative truncation error bound of the 40-node Gauss-Legendre sum of
    (A + B s)^q s^E on any panel 0 < s0 < s1 <= r s0 with B >= 0 and
    A >= -_A_SLACK B s0, elementwise over the ratios r (inf where the float
    range cannot hold it).  On the Bernstein ellipse of parameter rho
    (semi-major axis a = half (rho + 1/rho) / 2 < mid - _A_SLACK s0) the
    integrand is analytic, |A + B z| <= A + B (mid + a) and |z^E| <=
    max((mid - a)^E, (mid + a)^E), so the sum errs by at most
    (64/15) half M rho^-80 / (rho^2 - 1) (Trefethen, SIAM Review 50, 2008,
    Thm 4.5); the integral is at least 2 half (A + B s0)^q min(s0^E, s1^E).
    Their ratio is largest at A = -_A_SLACK B s0; it is taken at s0 = 1 and
    minimised over a geometric grid of rho."""
    r = np.asarray(r, dtype=np.float64)[..., None]
    mid, half = 0.5 * (r + 1.0), 0.5 * (r - 1.0)
    c = (mid - _A_SLACK) / half
    rho = (c + np.sqrt(c * c - 1.0)) ** np.linspace(0.0, 1.0, 258)[1:-1]
    a = 0.5 * half * (rho + 1.0 / rho)
    with np.errstate(all="ignore"):  # q or E too large for floats: an inf bound
        log_bound = (
            q * np.log((mid + a - _A_SLACK) / (1.0 - _A_SLACK))
            + np.maximum(E * np.log(mid - a), E * np.log(mid + a))
            - np.minimum(0.0, E * np.log(r))
            - 80.0 * np.log(rho)
            - np.log(rho * rho - 1.0)
        )
        return 32.0 / 15.0 * np.exp(np.fmin(log_bound, np.inf).min(axis=-1))


@functools.lru_cache(maxsize=64)
def _panels_per_doubling(q: float, E: float) -> int:
    """The smallest k <= 1024 for which _gl_error_bound proves the 40-node
    sums within 2^-60 on panels of ratio 2^(1/k), with 2^-30 relative slack
    for rounded panel ends; FloatingPointError if there is none."""
    for k in range(1, 1025):
        if _gl_error_bound(q, E, 2.0 ** (1.0 / k) * (1.0 + 2.0**-30)) < 2.0**-60:
            return k
    raise FloatingPointError(f"40-node panels of ratio 2^(1/1024) do not reach 2^-60 at q={q!r}, E={E!r}")


def power_piece_integral(A, B, s0, s1, q: float, E: float) -> np.ndarray:
    """Integral of (A + B s)^q s^E over [s0, s1], elementwise over the
    broadcast arguments, 0 where s1 <= s0: the pieces with s1 > s0 are one
    row of level_piece_integrals, with its preconditions."""
    A, B, s0, s1 = np.broadcast_arrays(*(np.atleast_1d(np.asarray(x, dtype=np.float64)) for x in (A, B, s0, s1)))
    out = np.zeros(A.shape, dtype=np.float64)
    live = s1 > s0
    out[live] = level_piece_integrals(A[live][None], B[live][None], s0[live], s1[live], q, E)[0]
    return out


# Pieces per block of level_piece_integrals: the kernel's scratch is one
# (40, _PIECE_BLOCK) buffer plus node tables for at most _PIECE_BLOCK
# pieces, whatever the level size.  On a 2-vCPU x86-64 VM, blocks of 1024
# pieces took as long as blocks of 2048 on the Lorentz levels of the
# analyze grids (512: about 10 % longer), with half the scratch.
_PIECE_BLOCK = 1024


def _node_sums(a, b, s, ws, q: float, buf: np.ndarray) -> np.ndarray:
    """sum_j ws[j] (a + b s[j])^q, as a view of buf, for flat pieces a, b
    whose node abscissae and weighted powers weights_j s_j^E are the columns
    of s and ws (k, N).  The node values fill one node-major slab, halved in
    a fixed order: every add is elementwise, so a piece's sum depends on its
    own values only (6 adds for 40 nodes)."""
    k, n = s.shape
    f = buf[: k * n].reshape(k, n)
    np.multiply(b, s, out=f)
    f += a
    f **= q
    f *= ws
    while k > 1:
        h = k // 2
        f[:h] += f[k - h : k]
        k -= h
    return f[0]


def _gl_sums(A, B, lo, hi, q: float, E: float, buf: np.ndarray, out: np.ndarray) -> None:
    """The 40-node Gauss-Legendre sums of (A + B s)^q s^E into out, for an (n, c)
    block of pieces whose column k is [lo[k], hi[k]], c <= _PIECE_BLOCK: the
    node tables are built once and tiled over the rows one buffer holds."""
    nodes, weights = _GL40
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    s = mid + half * nodes[:, None]
    ws = s ** E
    ws *= weights[:, None]
    n, c = A.shape
    rb = min(n, _PIECE_BLOCK // c)
    if rb > 1:  # each table row repeated rb times (a broadcast copy is slow for small c)
        s, ws = np.concatenate((s, ws)).repeat(rb, axis=0).reshape(2, nodes.size, rb * c)
    for r in range(0, n, rb):
        a, b = A[r : r + rb].ravel(), B[r : r + rb].ravel()
        out[r : r + rb] = half * _node_sums(a, b, s[:, : a.size], ws[:, : a.size], q, buf).reshape(-1, c)


# Largest integer q integrated in closed form: its rounding grows with q, to
# 15 2^-53 at q = 16 on level pieces (the 40-node sums: up to 183 2^-53).
_BINOMIAL_Q = 16


def _binomial_pieces(A, B, s0, s1, q: int, Es):
    """(A + B s)^q s^E integrated over an (n, m) piece matrix for integer
    q >= 1, for each exponent E of Es in turn: s1^{E+1} sum_j C(q, j) g_j
    A^{q-j} U^j with U = B s1 and column factors g_j = integral_{s0/s1}^1
    x^{E+j} dx, summed in homogeneous Horner form t = t U + c_j A^{q-j},
    elementwise with two (n, m) scratch arrays.  With r = E + j + 1 and
    l = log(s1/s0), g_j is l at r = 0, 1/r at s0 = 0 (where the kernel's
    checks leave A = 0 if r <= 0), -expm1(-r l)/r while |r| l <= 1, and
    (1 - (s0/s1)^r)/r beyond, where l's rounding would grow.  A factor is
    built in place in one array: on level 0 of a d=1 grid the factors are
    as long as the (1, m) piece matrix.

    Only the factors and the Horner sum depend on E: l, U and the powers of
    A (q arrays of the matrix's size, each the last times A) are built once
    for every E.  Yields each E's matrix in one buffer, which the next E
    overwrites."""
    inner = s0 > 0.0
    lo = np.where(inner, s0, 0.5 * s1)  # a stand-in at s0 = 0, where g_j = 1/r
    ell = np.log1p((s1 - lo) / lo)
    U = B * s1
    pows = [A]  # A^(k+1) at k, built as the first E needs them
    t = tmp = None
    for E in Es:
        scale = s1 ** (E + 1.0)

        def column(j):
            r = E + j + 1.0
            if r == 0.0:
                g = ell.copy()
            else:
                g = np.multiply(ell, abs(r))
                far = g > 1.0
                np.expm1(np.multiply(ell, -r, out=g), out=g)
                np.negative(g, out=g)
                g[far] = 1.0 - (lo[far] / s1[far]) ** r
                g /= r
            g[~inner] = 1.0 / r if r > 0.0 else 0.0
            g *= math.comb(q, j)
            g *= scale
            return g

        t = np.multiply(column(q), U, out=t)
        if tmp is None:
            tmp = np.empty_like(t)
        for j in range(q - 1, -1, -1):
            if len(pows) < q - j:
                pows.append(pows[-1] * A)
            t += np.multiply(pows[q - 1 - j], column(j), out=tmp)
            if j:
                t *= U
        yield t


def level_piece_integrals(A, B, s0, s1, q: float, E: float) -> np.ndarray:
    """The one piece-integral kernel: the integrals of (A + B s)^q s^E over an
    (n, m) piece matrix whose column k is [s0[k], s1[k]], s0[k] < s1[k], in
    every row (the K-curve pieces of all cubes of a level, _level_pieces);
    power_piece_integral is its one-row call.

    A piece at s0 = 0 requires E > -1 (q + E > -1 if A = 0), or raises
    ValueError ("divergent integral at the origin").  Integer q in
    [1, _BINOMIAL_Q] takes _binomial_pieces.  Any other q requires q > 0,
    B >= 0, A >= -_A_SLACK B s0 and A = 0 at s0 = 0 (ValueError otherwise)
    and takes an exact pure power where A = 0, else 40-node Gauss-Legendre
    sums over max(1, ceil(k log2(s1/s0))) geometric panels per column, k =
    _panels_per_doubling(q, E), which proves each panel's sum within 2^-60
    relative (FloatingPointError past k = 1024).  Level pieces have
    s1 <= 2 s0 and k = 1 at every caller pair with q <= 24.5: one panel.

    The node tables (abscissae, and the weights times s^E) are built once
    per column block and (A + B s)^q times them per row block in one reused
    buffer, so scratch is bounded by _PIECE_BLOCK, plus (n, _PIECE_BLOCK)
    blocks for the later panels of wide columns.  Each node sum is a fixed
    sequence of elementwise IEEE operations on the piece's own data
    (_node_sums), so a piece's bits do not depend on what shares its call,
    on _PIECE_BLOCK or on the BLAS and its threads.  The reduction is not a
    BLAS product (gemv rounds the tail rows of a product, and of each
    thread's share, differently), nor a loop over the nodes (80 ufunc calls
    per block), nor einsum (whose SIMD sum may fuse multiply-adds on some
    builds).  Panel 0 of every column runs on the column slices of the
    piece matrix; the later panels of the wide columns are added in order.
    """
    return next(_piece_matrices(A, B, s0, s1, q, (E,)))


def _piece_matrices(A, B, s0, s1, q: float, Es):
    """An iterator over the piece matrices level_piece_integrals gives for
    each exponent E of Es in turn, bit for bit, its checks made for every E
    before the first; at integer q the E-free work is shared, and each
    matrix is overwritten by the next (_binomial_pieces)."""
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    s0 = np.asarray(s0, dtype=np.float64)
    s1 = np.asarray(s1, dtype=np.float64)
    at0 = A[:, s0 == 0.0]
    for E in Es:  # near 0 a piece with A != 0 behaves like |A|^q s^E
        if E <= -1.0 and np.any(at0 != 0.0) or q + E <= -1.0 and np.any(at0 == 0.0):
            raise ValueError("divergent integral at the origin")
    if 1.0 <= q <= _BINOMIAL_Q and float(q).is_integer():
        return _binomial_pieces(A, B, s0, s1, int(q), Es)
    if np.any(at0 != 0.0):
        raise ValueError("a piece at s0 = 0 needs A = 0")
    if not q > 0.0:
        raise ValueError("q must be positive")
    if not np.all(B >= 0.0):
        raise ValueError("piece slopes B must be nonnegative")
    if not np.all(A >= -_A_SLACK * B * s0):
        raise ValueError("piece intercepts A must be at least -2^-20 B s0")
    return (_gl_pieces(A, B, s0, s1, q, E) for E in Es)


def _gl_pieces(A, B, s0, s1, q: float, E: float) -> np.ndarray:
    """The piece matrix of level_piece_integrals at a q off the closed form,
    its checks passed: pure powers where A = 0, else the panel sums."""
    n, m = A.shape
    Af, Bf = A.ravel(), B.ravel()
    out = np.zeros(n * m)
    origin = np.flatnonzero(Af == 0.0)
    if origin.size:
        k = origin % m
        r = q + E
        lo = np.where(s0[k] == 0.0, 0.0, _antider_pow(np.maximum(s0[k], 1e-300), r))
        out[origin] = Bf[origin] ** q * (_antider_pow(s1[k], r) - lo)
    live = np.flatnonzero(Af != 0.0)
    if live.size == 0:
        return out.reshape(n, m)
    span = np.zeros(m)  # log2(s1/s0); 0 on the all-origin columns at s0 = 0
    inner = s0 > 0.0
    span[inner] = np.log2(s1[inner]) - np.log2(s0[inner])
    panels = np.maximum(np.ceil(_panels_per_doubling(q, E) * span), 1.0).astype(np.int64)
    end = lambda k, j: s0[k] * np.exp2(span[k] * (j / panels[k]))  # panel j's left end
    wide = np.flatnonzero(panels > 1)
    first_end = s1.copy()
    first_end[wide] = end(wide, 1)
    sums = np.empty((n, m))
    buf = np.empty(_PIECE_BLOCK * 40)
    cb = min(m, _PIECE_BLOCK)
    for c in range(int(np.min(live % m)), m, cb):  # all-origin leading columns skipped
        cols = slice(c, c + cb)
        _gl_sums(A[:, cols], B[:, cols], s0[cols], first_end[cols], q, E, buf, sums[:, cols])
    part = np.empty((n, min(wide.size, cb)))
    for j in range(1, int(panels.max())):
        k = wide[panels[wide] > j]
        lo, hi = end(k, j), np.where(panels[k] == j + 1, s1[k], end(k, j + 1))
        for c in range(0, k.size, cb):
            cols, p = k[c : c + cb], part[:, : min(cb, k.size - c)]
            _gl_sums(A[:, cols], B[:, cols], lo[c : c + cb], hi[c : c + cb], q, E, buf, p)
            sums[:, cols] += p
    out[live] = sums.ravel()[live]
    return out.reshape(n, m)


def _level_pieces(w: WeightGrid, level: int, rows: np.ndarray | None = None):
    """The K-curve pieces of every cube of a level, or of the cubes rows, on
    one column grid: (vals, K, s0, s, A), where the curve of the i-th cube
    equals A[i, k] + vals[i, k] t on [s0[k], s[k]], s[k] = (k + 1) h for
    the cell measure h, and K[i, k] is its value at s[k]."""
    vals, K = w.sorted_level(level)
    if rows is not None:
        vals, K = vals[rows], K[rows]
    s = np.arange(1, vals.shape[1] + 1) * w.cell_measure
    s0 = np.concatenate(([0.0], s[:-1]))
    K0 = np.concatenate((np.zeros((K.shape[0], 1)), K[:, :-1]), axis=1)
    return vals, K, s0, s, K0 - vals * s0[None, :]


# Main pieces per run of levels (_PieceRun.sweep).  A level has one piece
# per cell, so a grid of c cells sweeps max(1, 2^14 // c) consecutive
# levels per kernel call: all 9 levels of a d=1 L=8 verify grid, all 11 of
# an L=10 Lorentz-growth grid, and one level at a time from 16,384 cells
# on, the analyze-deep grids.  Measured in-process on a 2-vCPU x86-64 VM
# (best of 7, seed 1): verify --suite rhp took 189 ms at one level per
# call, 105-107 ms at 2^13 and 2^14, 124 ms at 2^16; --suite lorentz
# 108-110 ms from 2^12 to 2^14 and 174 ms at 2^15, where the L=14 growth
# grids' levels pair up and the kernel's column work goes per piece (traced
# peak 6.5 -> 9.3 MB).
_PIECE_BATCH = 2**14


class _PieceRun:
    """The K-curve pieces of a run of curves laid out for one call of the
    piece kernel: a cube's curve is A + B t on [s0, s1], with value K at s1.

    A lone level keeps its (n, m) matrices A, B and K over (m,) columns s0
    and s1 (_level_pieces).  A run of several levels (sweep), or one curve,
    is one (1, P) row over (P,) columns, level after level and cube by
    cube, every array C-contiguous (numpy picks its log, expm1 and pow loops
    by strides), trading the column grid for per-piece column work.  A
    piece's integral does not depend on what shares its call, so a run's
    values are its levels' own, bit for bit.  Only the methods read the
    layout.
    """

    def __init__(self, A, B, s0, s1, K, shapes):
        self.A, self.B, self.s0, self.s1, self.K = A, B, s0, s1, K
        self._shapes = shapes  # per level (n, m): n cubes of m pieces

    @classmethod
    def sweep(cls, w: WeightGrid, levels, run_values, *args):
        """The values of each level of levels, in order: levels cut into
        runs of consecutive levels whose pieces total at most _PIECE_BATCH,
        one level a run at least, and run_values(run, *args) giving a list
        of its levels' values.  One run's pieces are alive at a time."""
        k = max(1, _PIECE_BATCH // w.ncells)
        for i in range(0, len(levels), k):
            yield from run_values(cls._of_levels(w, levels[i : i + k]), *args)

    @classmethod
    def _of_levels(cls, w: WeightGrid, levels) -> "_PieceRun":
        pieces = [_level_pieces(w, lev) for lev in levels]
        shapes = [vals.shape for vals, *_ in pieces]
        if len(pieces) == 1:
            vals, K, s0, s, A = pieces[0]
            return cls(A, vals, s0, s, K, shapes)
        row, at = np.empty((5, sum(n * m for n, m in shapes))), 0
        for (vals, K, s0, s, A), (n, m) in zip(pieces, shapes):
            for x, y in zip(row[:, at : at + n * m], (A, vals, s0, s, K)):
                x.reshape(n, m)[...] = y
            at += n * m
        A, B, s0, s1, K = row
        return cls(A[None], B[None], s0, s1, K[None], shapes)

    @classmethod
    def of_curve(cls, A, B, s0, s1, K) -> "_PieceRun":
        """One curve's m pieces, as vectors, as a run of one (1, m) level."""
        return cls(A[None], B[None], s0, s1, K[None], [(1, A.size)])

    def blocks(self, x: np.ndarray) -> list[np.ndarray]:
        """Per level, the (n, m) view of x, laid out as A."""
        flat, out, at = x.ravel(), [], 0
        for n, m in self._shapes:
            out.append(flat[at : at + n * m].reshape(n, m))
            at += n * m
        return out

    def split(self, x: np.ndarray) -> list[np.ndarray]:
        """x, one entry per cube of the run, split level by level."""
        return np.split(x, np.cumsum([n for n, _ in self._shapes])[:-1])

    def cumsum(self, x: np.ndarray) -> np.ndarray:
        """The running sums of x, laid out as A, along each cube's pieces,
        level by level, so each sum is that of its level's (n, m) matrix."""
        out = np.empty(x.shape)
        for a, b in zip(self.blocks(x), self.blocks(out)):
            np.cumsum(a, axis=1, out=b)
        return out

    def cube_max(self, x: np.ndarray, rows, cols, values) -> np.ndarray:
        """Per cube, the max of x, laid out as A, over the cube's pieces,
        and of the candidates values at the pieces (rows, cols) of A."""
        n, m = np.array(self._shapes, dtype=np.int64).reshape(-1, 2).T
        starts = np.concatenate(([0], np.cumsum(np.repeat(m, n))[:-1]))
        best = np.maximum.reduceat(x.ravel(), starts)
        np.maximum.at(best, np.searchsorted(starts, rows * x.shape[1] + cols, side="right") - 1, values)
        return best

    def piece_sums(self, q: float, Es) -> list[list[np.ndarray]]:
        """For each exponent E of Es, per level, the per-cube row_sums of
        the integrals of (A + B s)^q s^E over the pieces, from one
        _piece_matrices call: at integer q the E-free work is shared, and
        each E's pieces are summed before the next E's are built."""
        pieces = _piece_matrices(self.A, self.B, self.s0, self.s1, q, Es)
        return [[row_sums(x) for x in self.blocks(next(pieces))] for _ in Es]

    def integrals(self, q: float, E: float, a, b, lo, hi) -> tuple[np.ndarray, np.ndarray]:
        """The integrals of (A + B s)^q s^E over the pieces, laid out as A,
        and over the extra pieces a + b s on [lo, hi], vectors.  A run of
        several levels takes one kernel call, the extra pieces glued to its
        row; a lone level keeps its (n, m) call, and its extra pieces, if
        any, take a one-row call."""
        if len(self._shapes) > 1:
            glued = (np.concatenate(x, axis=-1) for x in ((self.A, a[None]), (self.B, b[None]), (self.s0, lo), (self.s1, hi)))
            piece = level_piece_integrals(*glued, q, E)
            return piece[:, : self.A.shape[1]], piece[0, self.A.shape[1] :]
        main = level_piece_integrals(self.A, self.B, self.s0, self.s1, q, E)
        return main, level_piece_integrals(a[None], b[None], lo, hi, q, E)[0] if a.size else a


# ---------------------------------------------------------------------------
# K-functional curves

def k_l1_linf(w: WeightGrid, Q: DyadicCube) -> ConcaveCurve:
    """K(t, w chi_Q; L1(Q), Linf(Q)) = integral_0^t (w chi_Q)*."""
    return _k_curve(rearrangement(w, Q))


def _k_curve(r: DecreasingStep) -> ConcaveCurve:
    """The K-curve integral_0^t r of a rearrangement r, knotted at its breaks."""
    return ConcaveCurve(np.append(0.0, r.breaks), np.append(0.0, r.cum_mass), slopes=r.values)


class HolmstedtCurve:
    """H(t) = (integral_0^{t^{1/(1-theta)}} [s^{-theta} K(s)]^q ds/s)^{1/q}.

    The integrals of K(s)^q s^{-theta q - 1} over K's pieces are summed once
    into prefix (at K's knots).  inner_integral and value work elementwise
    on arrays of points, a scalar being a one-element call: one searchsorted
    finds each T's piece and one power_piece_integral call covers the
    partial pieces of every T inside K's domain; past the domain K's constant tail is
    integrated in closed form.  A point's value does not depend on the other
    points of its call.
    """

    def __init__(self, K: ConcaveCurve, theta: float, q: float):
        if not 0.0 < theta < 1.0:
            raise ValueError("theta must lie in (0, 1)")
        if not q >= 1.0:
            raise ValueError("q must be at least 1")
        self.K = K
        self.theta = theta
        self.q = q
        self.E = -theta * q - 1.0
        vals = power_piece_integral(*K.pieces(), q, self.E)
        self.prefix = np.concatenate(([0.0], np.cumsum(vals)))  # at K's knots

    def inner_integral(self, T):
        """integral_0^T K(s)^q s^{-theta q - 1} ds, elementwise (0 for T <= 0)."""
        K = self.K
        T = np.asarray(T, dtype=np.float64)
        out = np.zeros(T.shape)
        end = K.domain_end
        out[T >= end] = self.prefix[-1]
        past = T > end
        if np.any(past):
            tq = self.theta * self.q
            out[past] += K.mass ** self.q * (end ** -tq - T[past] ** -tq) / tq
        inside = (T > 0) & (T < end)
        if np.any(inside):
            Ti = T[inside]
            j = np.minimum(np.searchsorted(K.t, Ti, side="right") - 1, K.t.size - 2)
            A, B, _, _ = K.pieces()
            out[inside] = self.prefix[j] + power_piece_integral(A[j], B[j], K.t[j], Ti, self.q, self.E)
        return out if out.shape else float(out)

    def value(self, t):
        T = np.atleast_1d(np.asarray(t, dtype=np.float64)) ** (1.0 / (1.0 - self.theta))
        out = self.inner_integral(T) ** (1.0 / self.q)
        return out if np.ndim(t) else float(out[0])


# ---------------------------------------------------------------------------
# Lorentz

def lorentz_norm(w: WeightGrid, Q: DyadicCube, p: float, q: float) -> float:
    """L(p,q) norm of w chi_Q over (0, infinity):
    (integral_0^inf [f**(t)]^q t^{q/p - 1} dt)^{1/q}, with the exact
    mass/t tail of f** past |Q|."""
    if not p > 1.0:
        raise ValueError("p must exceed 1")
    if not q >= 1.0:
        raise ValueError("q must be at least 1")
    K = k_l1_linf(w, Q)
    A, B, s0, s1 = K.pieces()
    E = q / p - q - 1.0
    head = float(np.sum(power_piece_integral(A, B, s0, s1, q, E)))
    m = K.mass
    T = K.domain_end
    pprime = p / (p - 1.0)
    tail = m ** q * T ** (q / p - q) * pprime / q
    return (head + tail) ** (1.0 / q)


# ---------------------------------------------------------------------------
# L log L

def _llogl_g(cells: np.ndarray, r: np.ndarray):
    """The Newton step toward G = 1 in log r, G log G / (G + S), with G and
    S, rowwise (cells (n, m), r (n,)): G(r) = (1/|Q|) int_Q u log(e + u) is
    the defining integral and S = mean(u^2 / (e + u)), u = |f|/r, so that
    r G'(r) = -(G + S)."""
    u = cells / r[:, None]
    e = np.e + u
    g = row_means(u * np.log(e))
    s = row_means(u * u / e)
    return g * np.log(g) / (g + s), g, s


def llogl_norm_rows(cells: np.ndarray) -> np.ndarray:
    """Luxemburg norms of the rows of a (n, m) cell matrix.

    Newton's iteration on G(r) = 1 in log r from the row mean (_llogl_g),
    each row on its own data, so no row depends on the others in the call.
    Each row's last Newton evaluation certifies its root within 4 gam of
    the norm, with no further pass over the cells (_llogl_newton).  Raises
    ValueError on a row with a negative or non-finite cell or a mean that
    is not positive and finite, and FloatingPointError on a row whose
    certificate fails.
    """
    cells = np.atleast_2d(cells)
    x = row_means(cells)
    if not (np.all((x > 0.0) & (x < math.inf)) and np.all(cells >= 0.0)):
        raise ValueError("L log L norm needs cells >= 0 and finite with a positive finite mean per row")
    ok = _llogl_newton(cells, x)
    if not np.all(ok):
        raise FloatingPointError(f"L log L norm not certified on {np.count_nonzero(~ok)} of {x.size} rows")
    return x


def _llogl_newton(cells: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Newton's iteration of llogl_norm_rows on the rows of cells from x
    (their means, updated in place to the roots), and each row's
    certificate: that the norm lies within 4 gam of the root x, from the
    row's last evaluation, at a with float values G and S.

    On a row of cells >= 0 with a finite positive mean G is convex and
    strictly decreasing in r (Phi(u) = u log(e + u) is convex and
    increasing, and u = |f|/r convex in r), and the float G and S are
    G (1 + d) and S (1 + d') with |d|, |d'| <= gam (a few roundings per
    term, as log(e + u) >= 1, and the pairwise sum).  So, with r G' =
    -(G + S):

      * below: G(r) >= G(a) + G'(a) (r - a) for every r (the tangent), so
        with c = 1 - x (1 - 4 gam) / a,
        G(x (1 - 4 gam)) >= (1 + c) G(a) + c S(a);
      * above: Phi'' <= 2/(e + u) gives r^2 G'' <= 2 G + 4 S, and G and S
        decrease in r and grow at most by a factor l^2 from a down to
        a / l (l >= 1, as Phi(l u) <= l (1 + ln l) Phi(u) and
        e + l u >= e + u); so with h = x (1 + 4 gam) / a - 1 and
        |h| <= 1/8 (l <= 8/7, l^4 < 2), Taylor's remainder gives
        G(x (1 + 4 gam)) <= (1 - h + 2 h^2) G(a) + (4 h^2 - h) S(a).

    Where |h| <= 1/8 the two bounds as computed are within 1.4 gam (G + S)
    of their values at the exact G, S, c and h (gam >= 64 units covers the
    roundings of c, h and the bounds), so the lower one above
    1 + 2 gam (G + S) and the upper one below 1 - 2 gam (G + S) bracket
    the norm.  A row that took its last step, below 1e-9, sits about
    4 gam (G + S) from both, less (|step| + 4 gam)^2 (G + 2 S).
    """
    gam = (64 + cells.shape[1].bit_length() + cells.shape[1] // 4096) * 2.0**-53
    a, g, s = np.empty_like(x), np.empty_like(x), np.empty_like(x)  # each row's last evaluation
    act = slice(None)  # the rows still stepping: all (views, no gathers), then their indices
    for _ in range(8):
        step, g[act], s[act] = _llogl_g(cells[act], x[act])
        a[act] = x[act]
        x[act] *= np.exp(step)
        more = np.abs(step) > 1e-9  # else the next step is below 1e-16
        if not more.all():
            act = np.arange(x.size)[act][more]
            if act.size == 0:
                break
    rho = x / a
    c = 1.0 - rho * (1.0 - 4.0 * gam)
    h = rho * (1.0 + 4.0 * gam) - 1.0
    slack = 2.0 * gam * (g + s)
    lower = (1.0 + c) * g + c * s
    upper = (1.0 - h + 2.0 * h * h) * g + (4.0 * h * h - h) * s
    return (np.abs(h) <= 0.125) & (lower > 1.0 + slack) & (upper < 1.0 - slack)


def llogl_norm(w: WeightGrid, Q: DyadicCube) -> float:
    """Luxemburg norm inf{r > 0 : (1/|Q|) int_Q (w/r) log(e + w/r) <= 1}."""
    return float(llogl_norm_rows(w.cube_cells(Q)[None, :])[0])


# ---------------------------------------------------------------------------
# limiting-space norm

def extrapolation_norm(w: WeightGrid, Q: DyadicCube) -> float:
    """integral_0^{|Q|} K(s, w chi_Q; L1, Linf) ds / s.

    Computed two independent ways (closed forms in both): as the log-weighted
    rearrangement integral int_0^{|Q|} f*(s) log(|Q|/s) ds, and as the direct
    piecewise integral of K(s)/s.  The two must agree to 1e-10 relative.
    """
    r = rearrangement(w, Q)
    T = r.total_measure
    lo = np.concatenate(([0.0], r.breaks[:-1]))

    def G(s: np.ndarray) -> np.ndarray:
        # antiderivative of log(T/s), with the s -> 0 limit 0
        s = np.asarray(s, dtype=np.float64)
        return np.where(s > 0, s * np.log(T / np.where(s > 0, s, 1.0)) + s, 0.0)

    rep_log = float(np.sum(r.values * (G(r.breaks) - G(lo))))

    A, B, s0, s1 = _k_curve(r).pieces()
    terms = B * (s1 - s0)
    with np.errstate(divide="ignore", invalid="ignore"):
        logpart = np.where(s0 > 0, A * np.log(np.where(s0 > 0, s1 / np.where(s0 > 0, s0, 1.0), 1.0)), 0.0)
    rep_k = float(np.sum(terms + logpart))

    if not math.isclose(rep_log, rep_k, rel_tol=1e-10):
        raise RuntimeError(
            f"limiting-norm representations disagree: {rep_log!r} vs {rep_k!r}"
        )
    return rep_log


# ---------------------------------------------------------------------------
# packings and the weighted K-functional


def _level_offsets(w: WeightGrid) -> list[int]:
    """Where each level of w starts in its level tables (from the base
    cube's level down to the cells), followed by the tables' length."""
    fan = 1 << w.d
    return [((1 << (w.d * k)) - 1) // (fan - 1) for k in range(w.L - w.base.level + 2)]


def _level_tables(f: WeightGrid, w: WeightGrid) -> tuple[np.ndarray, np.ndarray]:
    """(num, den): the sums of f w and of w over every cube of the grid, in
    level-table order (module docstring); a cube's entries sit at row
    _level_offsets(w)[level - base level] + its Morton rank in the base."""
    if f.d != w.d or f.L != w.L or f.base != w.base:
        raise ValueError("f and w must share a grid")
    fw = f.zcells * w.zcells
    widths = [1 << (w.d * (w.L - lev)) for lev in range(w.base.level, w.L + 1)]
    num = np.concatenate([row_sums(fw.reshape(-1, k)) for k in widths])
    den = np.concatenate([row_sums(w.zcells.reshape(-1, k)) for k in widths])
    return num, den


def _packing_rows(w: WeightGrid, pi: list[DyadicCube]) -> np.ndarray:
    """Level-table rows of an explicit packing's cubes, in list order.

    Raises ValueError for an empty packing, a cube off the grid, or two
    cubes that overlap."""
    if not pi:
        raise ValueError("empty packing")
    lo = w.base.level
    for Q in pi:
        w._check_cube(Q)
    rel = np.array([Q.level - lo for Q in pi], dtype=np.int64)
    rank = np.array([morton_index(Q) for Q in pi], dtype=np.int64) - (morton_index(w.base) << (w.d * rel))
    shift = w.d * (w.L - lo - rel)
    start = rank << shift  # the cubes' Morton slices [start, stop) in the base
    stop = start + (1 << shift)
    order = np.argsort(start, kind="stable")
    if np.any(start[order][1:] < stop[order][:-1]):
        raise ValueError("packing cubes overlap")
    return np.asarray(_level_offsets(w))[rel] + rank


@dataclass(eq=False)
class PackingFamily:
    """Packings (disjoint dyadic cube families) as int64 level-table rows of
    one grid geometry (d, L, base); evaluating them on a grid of another
    geometry raises ValueError."""

    geometry: tuple
    rows: list[np.ndarray]


@dataclass
class PackedFunction:
    """S_pi(f): weighted cube averages on the packing's cubes."""

    cubes: list[DyadicCube]
    values: np.ndarray
    w_measures: np.ndarray

    def rearrange_w(self) -> tuple[np.ndarray, np.ndarray]:
        """(values desc, cumulative w-measures), the w-rearrangement data."""
        return _rearranged_w(self.values, self.w_measures)


def _rearranged_w(values: np.ndarray, w_measures: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    order = np.argsort(-values, kind="stable")
    return values[order], np.cumsum(w_measures[order])


def grid_power(w: WeightGrid, p: float) -> WeightGrid:
    """Cellwise power of a grid (used for |f|^p and w^p objects)."""
    return WeightGrid(w.d, w.L, w.cells ** p, label=f"({w.label})^{p:g}", base=w.base)


def _packed(tables, w: WeightGrid, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    num, den = tables
    return num[rows] / den[rows], den[rows] * w.cell_measure


def packing_average(f: WeightGrid, w: WeightGrid, pi: list[DyadicCube]) -> PackedFunction:
    """S_pi(f) = sum_i (1/w(Q_i)) int_{Q_i} f w  on each Q_i.

    Values outside the union are excluded from the rearrangement mass.
    """
    return PackedFunction(list(pi), *_packed(_level_tables(f, w), w, _packing_rows(w, pi)))


_STOPPING_THRESHOLDS = 33


def packing_family(f: WeightGrid, w: WeightGrid, p: float = 1.0) -> PackingFamily:
    """Single-level packings plus stopping-time packings.

    The stopping packings take a deterministic menu of at most
    _STOPPING_THRESHOLDS thresholds among the distinct dyadic averages
    A_Q = int_Q f^p w / w(Q); for each threshold lam the packing is the
    family of maximal dyadic cubes: A_Q > lam and no strict ancestor's
    average above lam (np.fmax of the ancestors' averages skips a NaN,
    which is above no lam), listed level by level in Morton order, built
    as level-table rows without cube objects.
    """
    off = _level_offsets(f)
    rows = [np.arange(a, b) for a, b in zip(off, off[1:])]
    num, den = _level_tables(grid_power(f, p), w)
    avgs = num / den
    distinct = np.unique(avgs)
    if distinct.size > _STOPPING_THRESHOLDS:
        distinct = distinct[np.linspace(0, distinct.size - 1, _STOPPING_THRESHOLDS).astype(int)]
    anc = np.full(avgs.size, -np.inf)
    for a, b, c in zip(off, off[1:], off[2:]):
        anc[b:c] = np.repeat(np.fmax(anc[a:b], avgs[a:b]), 1 << f.d)
    for lam in distinct[:-1]:  # the top threshold selects nothing
        r = np.flatnonzero((avgs > lam) & (anc <= lam))
        if r.size:
            rows.append(r)
    return PackingFamily((f.d, f.L, f.base), rows)


def k_weighted_curve(f: WeightGrid, w: WeightGrid, p: float, ts, Pi: PackingFamily) -> list[float]:
    """k_weighted at every t of ts, from one set of level tables: each
    packing is rearranged once and all ts are looked up in it."""
    if not p >= 1.0:
        raise ValueError("p must be at least 1")
    if not Pi.rows:
        raise ValueError("empty packing family")
    w_total = integrate(w, w.base)
    ts = [float(t) for t in ts]
    for t in ts:
        if not 0.0 < t < w_total:
            raise ValueError(f"t must lie in (0, {w_total})")
    tables = _level_tables(grid_power(f, p) if p != 1.0 else f, w)
    if Pi.geometry != (w.d, w.L, w.base):
        raise ValueError("packing family built on a grid of another geometry")
    tq = np.asarray(ts, dtype=np.float64)
    best = np.full(tq.size, -math.inf)
    for rows in Pi.rows:
        vals, cum = _rearranged_w(*_packed(tables, w, rows))
        idx = np.searchsorted(cum, tq, side="left")
        val = np.where(idx < vals.size, vals[np.minimum(idx, vals.size - 1)], 0.0)
        better = val > best
        best[better] = val[better]
    return [t ** (1.0 / p) * b ** (1.0 / p) for t, b in zip(ts, best.tolist())]


def k_weighted(f: WeightGrid, w: WeightGrid, p: float, t: float, Pi: PackingFamily) -> float:
    """Weighted-pair K-functional estimate via packings:

        t^{1/p} * (max over pi of (S_pi(|f|^p))_w^*(t))^{1/p},

    with the w-rearrangement evaluated left-continuously at t.  The maximum
    over the finite family is a certified lower bound for the supremum over
    all packings.
    """
    return k_weighted_curve(f, w, p, [t], Pi)[0]
