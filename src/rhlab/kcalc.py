"""K-functional curves and the norms derived from them.

For a weight w and cube Q the curve

    K(t) = K(t, w chi_Q; L1(Q), Linf(Q)) = integral_0^t (w chi_Q)*(s) ds

is piecewise linear, nondecreasing, concave, and passes through the origin:
its breakpoints sit at the cumulative plateau measures of the rearrangement
and its slopes are the plateau values.  Everything here is built on that
exact representation:

  * (Lp, Linf): G(t) = (integral_0^t (w*)^p)^{1/p}, stored via the exact
    piecewise-linear curve of G^p;
  * composite curves H(t) = (integral_0^{t^{1/(1-theta)}} [s^{-theta} K(s)]^q
    ds/s)^{1/q}, integrated in closed form on origin pieces and by adaptive
    Gauss-Legendre panels elsewhere (relative tolerance 1e-10);
  * one piece-integral kernel for all of these (level_piece_integrals): the
    K-curve pieces of all cubes of a level (_level_pieces) share one column
    grid, so the Gauss-Legendre nodes and s^E are built once per column and
    (A + B s)^q per cube, in fixed-size blocks; power_piece_integral is its
    one-row call on arbitrary pieces;
  * Lorentz norms over (0, infinity) using the exact 1/t tail of the averaged
    rearrangement;
  * the Luxemburg norm of L log L by bisection on its defining integral;
  * the limiting-space norm integral_0^{|Q|} K(s)/s ds, computed two
    independent ways (K-side and log-weighted rearrangement side) and
    cross-checked;
  * packing operators S_pi (weighted cube averages over disjoint cube
    families) and the weighted K-functional estimate they generate.

A packing is evaluated as rows of two level tables: the sums of f w and of
w over every dyadic cube of the grid, level-major from the base cube down
and each level in Morton order, built with one reshape-and-sum per level
(_level_tables).  A packing is an int64 array of flat rows into them, so
S_pi = num[rows] / den[rows] and its w-measures are den[rows] times the cell
measure; the tables are built once per evaluation and serve every packing
and every t.  Each row sum reduces one contiguous row of the reshaped level,
which gives the same bits as summing the cube's Morton slice on its own.
np.add.reduceat over the level's slice starts does not: on lognormal cells
it differed in the last bit for blocks of 4 cells or more, so it must not
replace the reshape.

Cube-local inequalities are evaluated on (0, |Q|]; beyond |Q| every curve is
determined by its exact constant or 1/t tail.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .grid import DyadicCube, WeightGrid, integrate, level_cubes, morton_index
from .rearrange import DecreasingStep, rearrangement

_GL20 = np.polynomial.legendre.leggauss(20)
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

    @classmethod
    def from_plateaus(cls, values: np.ndarray, measures: np.ndarray) -> "ConcaveCurve":
        t = np.concatenate(([0.0], np.cumsum(measures)))
        v = np.concatenate(([0.0], np.cumsum(np.asarray(values) * np.asarray(measures))))
        return cls(t, v, slopes=np.asarray(values, dtype=np.float64))

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


@dataclass
class LpKCurve:
    """G(t) = (integral_0^t (w*)^p)^{1/p}; gp holds the exact curve of G^p."""

    gp: ConcaveCurve
    p: float

    @property
    def domain_end(self) -> float:
        return self.gp.domain_end

    def value(self, t):
        return self.gp.value(t) ** (1.0 / self.p)


class StepProductCurve:
    """t * r*(t) for a rearrangement step r: piecewise linear through the
    origin on each plateau, with downward jumps at the plateau boundaries.

    Left and right values at each breakpoint are both exposed, since the
    almost-increase ratio must see the two-sided envelope.
    """

    def __init__(self, r: DecreasingStep):
        self.breaks = r.breaks
        self.values = r.values

    @property
    def domain_end(self) -> float:
        return float(self.breaks[-1])

    def value(self, t):
        return np.asarray(t) * np.asarray(
            StepProductCurve._step(self.breaks, self.values, t)
        )

    @staticmethod
    def _step(breaks, values, t):
        idx = np.searchsorted(breaks, np.asarray(t, dtype=np.float64), side="left")
        idx = np.minimum(idx, values.size - 1)
        return values[idx]

    def two_sided(self, gamma_end: float):
        """Candidate points (s, phi(s)) with both one-sided values at jumps,
        restricted to (0, gamma_end]."""
        bs = self.breaks
        vs = self.values
        inner = bs < gamma_end
        n_in = int(inner.sum())
        # left value v_k at tau_k, right value v_{k+1} just past it
        s = np.repeat(bs[inner], 2)
        val = np.empty_like(s)
        val[0::2] = bs[inner] * vs[:n_in]
        kright = np.minimum(np.arange(n_in) + 1, vs.size - 1)
        val[1::2] = bs[inner] * vs[kright]
        # endpoint of the window, left-continuous
        end_val = gamma_end * StepProductCurve._step(bs, vs, gamma_end)
        s = np.concatenate([s, [gamma_end]])
        val = np.concatenate([val, [end_val]])
        return s, val


@dataclass
class CurveFamily:
    """The cube-indexed curve family of a weight.

    kind "k" maps Q to K(., w chi_Q; L1, Linf); kind "acks" maps Q to
    t (w chi_Q)*(t).  beta and q record the transform phi -> (s^-beta phi)^q
    applied by the index machinery.
    """

    w: WeightGrid
    kind: str = "k"
    beta: float = 0.0
    q: float = 1.0


# ---------------------------------------------------------------------------
# the shared piece integrator

def _antider_pow(s: np.ndarray, r: float) -> np.ndarray:
    """Antiderivative of s^r (s > 0), log branch at r = -1."""
    if r == -1.0:
        return np.log(s)
    return s ** (r + 1.0) / (r + 1.0)


def _gl_panel(A, B, s0, s1, q, E, table):
    nodes, weights = table
    mid = 0.5 * (s0 + s1)
    half = 0.5 * (s1 - s0)
    s = mid[:, None] + half[:, None] * nodes[None, :]
    f = (A[:, None] + B[:, None] * s) ** q * s ** E
    return half * (f @ weights)


class QuadratureError(RuntimeError):
    """A quadrature panel still failing the 20/40-node test at depth 40."""


def _bisect_panels(work: list, q: float, E: float, acc: np.ndarray) -> None:
    """Adaptive 20/40-node loop over a stack of panel batches
    (A, B, lo, hi, flat index, depth): accepted panels are added into acc,
    the others are halved and pushed back.  A panel still failing the test
    at depth 40 raises QuadratureError."""
    while work:
        a, b, lo, hi, ix, depth = work.pop()
        c20 = _gl_panel(a, b, lo, hi, q, E, _GL20)
        c40 = _gl_panel(a, b, lo, hi, q, E, _GL40)
        done = np.abs(c40 - c20) <= _PIECE_REL * np.maximum(np.abs(c40), 1e-300)
        np.add.at(acc, ix[done], c40[done])
        bad = ~done
        if np.any(bad):
            if depth >= 40:
                raise QuadratureError(
                    f"piece integral not converged to rel={_PIECE_REL:g} after 40 bisections "
                    f"on [{float(lo[bad][0])!r}, {float(hi[bad][0])!r}]"
                )
            mid = 0.5 * (lo[bad] + hi[bad])
            work.append((a[bad], b[bad], lo[bad], mid, ix[bad], depth + 1))
            work.append((a[bad], b[bad], mid, hi[bad], ix[bad], depth + 1))


# Relative tolerance of the 20/40-node test.
_PIECE_REL = 1e-10
_TINY = 2.0**-960  # node values and sums above it keep their relative rounding


@functools.lru_cache(maxsize=64)
def _gl20_error_bound(q: float, E: float) -> float:
    """Relative error bound of the 20-node Gauss-Legendre sum of
    (A + B s)^q s^E on any panel 0 < s0 < s1 <= 2 s0 with A, B >= 0 and
    q > 0 >= E (inf otherwise).  On the Bernstein ellipse of parameter rho
    (semi-major axis a = half (rho + 1/rho) / 2 < mid) the integrand is
    analytic and below M = (A + B (mid + a))^q (mid - a)^E, so the sum errs
    by at most (64/15) M rho^-40 / (rho^2 - 1) (Trefethen, SIAM Review 50,
    2008, Thm 4.5); the integral is at least 2 half (A + B s0)^q s1^E.  The
    ratio, (32/15) ((mid + a)/s0)^q (s1/(mid - a))^-E rho^-40 / (rho^2 - 1),
    grows with s1/s0 and is minimised here over rho at s0 = 1, s1 = 2."""
    if not (0.0 < q < math.inf and -math.inf < E <= 0.0):
        return math.inf
    rho = np.linspace(1.0, 3.0 + math.sqrt(8.0), 258)[1:-1]  # a < mid = 1.5
    a = 0.25 * (rho + 1.0 / rho)
    log_bound = q * np.log(1.5 + a) - E * np.log(2.0 / (1.5 - a)) - 40.0 * np.log(rho) - np.log(rho**2 - 1.0)
    lb = float(log_bound.min())
    return 32.0 / 15.0 * math.exp(lb) if lb < 700.0 else math.inf


def _panels_proven(A, B, s0, s1, q: float, E: float, c40) -> bool:
    """Whether a column block passes the 20/40-node test by a bound of
    _gl20_error_bound below 1e-3 _PIECE_REL, which leaves room for the
    sums' rounding (about a hundred ulps at most): 0 < s0, s1 <= 2 s0,
    A, B >= 0, and the node values, their factors (A + B s)^q >= (A + B s0)^q
    and s^E >= s1^E, and the 40-node sums c40 all in [_TINY, inf)."""
    if not (np.all(s0 > 0.0) and np.all(s1 <= 2.0 * s0) and A.min() >= 0.0 and B.min() >= 0.0):
        return False
    if not (np.all(c40 >= _TINY) and np.all(c40 < math.inf)):
        return False
    ab, lo = float((A + B * s0).min()), math.log(_TINY)
    fq, fe = (q * math.log(ab), E * math.log(float(s1.max()))) if ab > 0.0 else (-math.inf, 0.0)
    return fq >= lo and fe >= lo and fq + fe >= lo


def power_piece_integral(A, B, s0, s1, q: float, E: float) -> np.ndarray:
    """Integral of (A + B s)^q s^E over [s0, s1], elementwise over the
    broadcast arguments, 0 where s1 <= s0: the pieces with s1 > s0 are one
    row of level_piece_integrals."""
    A, B, s0, s1 = np.broadcast_arrays(*(np.atleast_1d(np.asarray(x, dtype=np.float64)) for x in (A, B, s0, s1)))
    out = np.zeros(A.shape, dtype=np.float64)
    live = s1 > s0
    out[live] = level_piece_integrals(A[live][None], B[live][None], s0[live], s1[live], q, E)[0]
    return out


# Pieces per block of level_piece_integrals, a multiple of _ROW_ALIGN: the
# kernel's scratch is one (_PIECE_BLOCK, 40) buffer plus node tables for at
# most _PIECE_BLOCK columns, whatever the level size.
_PIECE_BLOCK = 2048
# BLAS rounds the last (count mod its row blocking) rows of a matrix-vector
# product differently from the others; every product of the level kernel
# covers whole multiples of _ROW_ALIGN rows, so no row of it is such a tail.
# 64 assumes that OpenBLAS's dgemv_t unrolls over a row count dividing 64;
# this was checked only with numpy's bundled OpenBLAS 0.3.31 (DYNAMIC_ARCH)
# on one x86-64 Xeon taking its Haswell kernels.
_ROW_ALIGN = 64


def _node_sums(a, b, s, sE, weights, q: float, buf: np.ndarray) -> np.ndarray:
    """sum_j weights_j (a + b s_j)^q s_j^E for an (r, c) block of pieces whose
    column k has the nodes s[k] and their powers sE[k], in buf."""
    r, c = a.shape
    k = s.shape[1]
    f = buf[: r * c * k].reshape(r, c, k)
    np.multiply(b[:, :, None], s, out=f)
    f += a[:, :, None]
    f **= q
    f *= sE
    rows = -(-r * c // _ROW_ALIGN) * _ROW_ALIGN
    return (buf[: rows * k].reshape(rows, k) @ weights)[: r * c].reshape(r, c)


def level_piece_integrals(A, B, s0, s1, q: float, E: float) -> np.ndarray:
    """The one piece-integral kernel: the integrals of (A + B s)^q s^E over an
    (n, m) piece matrix whose column k is [s0[k], s1[k]], s0[k] < s1[k], in
    every row (the K-curve pieces of all cubes of a level, _level_pieces);
    power_piece_integral is its one-row call.

    Exact closed forms when A = 0 (pure power; requires q + E > -1 if
    s0 = 0) or q = 1; otherwise Gauss-Legendre panels, bisected until the 20-
    and 40-node sums agree to _PIECE_REL.  A piece with A != 0 and s0 = 0
    requires E > -1.  Divergent pieces raise ValueError ("divergent integral
    at the origin"), a panel still failing at depth 40 QuadratureError.

    Nodes and s^E are built once per column block and (A + B s)^q s^E per row
    block in one reused buffer, so scratch is bounded by _PIECE_BLOCK.  BLAS
    rounds the last rows of a matrix-vector product as a tail, so the last
    _ROW_ALIGN + (count mod _ROW_ALIGN) quadrature pieces are recomputed in
    one product of that many rows: the results are bit for bit those of one
    product over all of them in flat order, under a single-threaded BLAS
    whose gemv row blocking divides _ROW_ALIGN (a threaded BLAS also rounds
    the end of each thread's share as a tail).  Pieces failing the depth-0
    test enter the bisection loop at depth 1.  A column block (and the tail)
    skips its 20-node sums when _panels_proven certifies that all its pieces
    pass: they take their 40-node sums, as the test would give them.
    """
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    s0 = np.asarray(s0, dtype=np.float64)
    s1 = np.asarray(s1, dtype=np.float64)
    n, m = A.shape
    # near 0 a piece with A != 0 behaves like |A|^q s^E
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
        lo = np.where(s0[k] == 0.0, 0.0, _antider_pow(np.maximum(s0[k], 1e-300), r))
        out[origin] = Bf[origin] ** q * (_antider_pow(s1[k], r) - lo)
    live = np.flatnonzero(Af != 0.0)
    if live.size == 0:
        return out.reshape(n, m)
    if q == 1.0:
        k = live % m
        out[live] = Af[live] * (_antider_pow(s1[k], E) - _antider_pow(s0[k], E)) + Bf[live] * (
            _antider_pow(s1[k], E + 1.0) - _antider_pow(s0[k], E + 1.0)
        )
        return out.reshape(n, m)
    c20 = np.empty((n, m))
    c40 = np.empty((n, m))
    proven = np.zeros(m, dtype=bool)  # columns whose 20-node sums are skipped
    certified = _gl20_error_bound(q, E) < 1e-3 * _PIECE_REL
    buf = np.zeros(_PIECE_BLOCK * 40)
    cb = min(m, _PIECE_BLOCK)
    rb = _PIECE_BLOCK // cb
    for c in range(int(np.min(live % m)), m, cb):  # all-origin leading columns skipped
        cols = slice(c, c + cb)
        mid = 0.5 * (s0[cols] + s1[cols])
        half = 0.5 * (s1[cols] - s0[cols])
        for (nodes, weights), res in ((_GL40, c40), (_GL20, c20)):
            if res is c20 and certified and _panels_proven(A[:, cols], B[:, cols], s0[cols], s1[cols], q, E, c40[:, cols]):
                proven[cols] = True
                c20[:, cols] = c40[:, cols]
                break
            s = mid[:, None] + half[:, None] * nodes[None, :]
            sE = s ** E
            for r in range(0, n, rb):
                rows = slice(r, r + rb)
                res[rows, cols] = half * _node_sums(A[rows, cols], B[rows, cols], s, sE, weights, q, buf)
    c20 = c20.ravel()[live]
    c40 = c40.ravel()[live]
    tail = slice(live.size - min(live.size, _ROW_ALIGN + live.size % _ROW_ALIGN), None)
    t = live[tail]
    c40[tail] = _gl_panel(Af[t], Bf[t], s0[t % m], s1[t % m], q, E, _GL40)
    if np.all(proven[t % m]) and np.all(np.isfinite(c40[tail])):
        c20[tail] = c40[tail]
    else:
        c20[tail] = _gl_panel(Af[t], Bf[t], s0[t % m], s1[t % m], q, E, _GL20)
    done = np.abs(c40 - c20) <= _PIECE_REL * np.maximum(np.abs(c40), 1e-300)
    acc = np.zeros(n * m)
    acc[live[done]] = c40[done]
    bad = live[~done]
    if bad.size:
        a, b, lo, hi = Af[bad], Bf[bad], s0[bad % m], s1[bad % m]
        mid = 0.5 * (lo + hi)
        _bisect_panels([(a, b, lo, mid, bad, 1), (a, b, mid, hi, bad, 1)], q, E, acc)
    out += acc
    return out.reshape(n, m)


def _level_pieces(w: WeightGrid, level: int):
    """The K-curve pieces of every cube of a level, on one column grid:
    (vals, K, s0, s, A), where the curve of the i-th cube equals
    A[i, k] + vals[i, k] t on [s0[k], s[k]], s[k] = (k + 1) h for the cell
    measure h, and K[i, k] is its value at s[k]."""
    vals, K = w.sorted_level(level)
    s = np.arange(1, vals.shape[1] + 1) * w.cell_measure
    s0 = np.concatenate(([0.0], s[:-1]))
    K0 = np.concatenate((np.zeros((K.shape[0], 1)), K[:, :-1]), axis=1)
    return vals, K, s0, s, K0 - vals * s0[None, :]


# ---------------------------------------------------------------------------
# K-functional curves

def k_l1_linf(w: WeightGrid, Q: DyadicCube) -> ConcaveCurve:
    """K(t, w chi_Q; L1(Q), Linf(Q)) = integral_0^t (w chi_Q)*."""
    r = rearrangement(w, Q)
    return ConcaveCurve.from_plateaus(r.values, r.measures)


def k_lp_linf(w: WeightGrid, Q: DyadicCube, p: float) -> LpKCurve:
    """G(t) = (integral_0^t ((w chi_Q)*)^p)^{1/p}; exact curve of G^p."""
    if not p >= 1.0:
        raise ValueError("p must be at least 1")
    r = rearrangement(w, Q)
    gp = ConcaveCurve.from_plateaus(r.values ** p, r.measures)
    return LpKCurve(gp, p)


class HolmstedtCurve:
    """H(t) = (integral_0^{t^{1/(1-theta)}} [s^{-theta} K(s)]^q ds/s)^{1/q}.

    The integrals of K(s)^q s^{-theta q - 1} over K's pieces are summed once
    into prefix (at K's knots).  inner_integral and value work elementwise
    on arrays of points, a scalar being a one-element call: one searchsorted
    finds each T's piece and one power_piece_integral call covers the
    partial pieces of every T inside K's domain (exact on the origin piece,
    Gauss-Legendre panels elsewhere); past the domain K's constant tail is
    integrated in closed form.  A batched call may round a panel's gemv
    reduction, and numpy's array power, an ulp differently from one-point
    calls.
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
        return self.inner_integral(np.asarray(t, dtype=np.float64) ** (1.0 / (1.0 - self.theta))) ** (1.0 / self.q)


def holmstedt_curve(K: ConcaveCurve, theta: float, q: float) -> HolmstedtCurve:
    return HolmstedtCurve(K, theta, q)


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


def k_lorentz_linf(w: WeightGrid, Q: DyadicCube, p: float, q: float, t: float) -> float:
    """(integral_0^{t^p} [w*(s) s^{1/p}]^q ds/s)^{1/q}, exact per plateau."""
    if not p > 1.0:
        raise ValueError("p must exceed 1")
    if not q >= 1.0:
        raise ValueError("q must be at least 1")
    if t <= 0.0:
        raise ValueError("t must be positive")
    r = rearrangement(w, Q)
    T = min(t ** p, r.total_measure)  # w* vanishes past the cube measure
    lo = np.concatenate(([0.0], r.breaks[:-1]))
    hi = np.minimum(r.breaks, T)
    active = lo < T
    e = q / p
    total = float(np.sum(r.values[active] ** q * (hi[active] ** e - lo[active] ** e) / e))
    return total ** (1.0 / q)


# ---------------------------------------------------------------------------
# L log L

def _llogl_g(cells: np.ndarray, r: np.ndarray, newton: bool = False) -> np.ndarray:
    """Defining integral G(r) = (1/|Q|) int_Q (|f|/r) log(e + |f|/r), rowwise
    (cells (n, m), r (n,)); with newton, the Newton step toward G = 1 in
    log r instead: G log G / (G + S), S = mean(u^2 / (e + u)), u = |f|/r."""
    u = cells / r[:, None]
    e = np.e + u
    g = np.mean(u * np.log(e), axis=1)
    return g * np.log(g) / (g + np.mean(u * u / e, axis=1)) if newton else g


def _llogl_band(cells: np.ndarray, mean: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(xl, xh) per row, NaN where uncertified: _llogl_g(cells, x) > 1.0 for
    every x <= xl and for no x >= xh.  On a row of cells >= 0 with a finite
    positive mean G is strictly decreasing and the float G is G (1 + d) with
    |d| <= gam (a few roundings per term, as log(e + u) >= 1, and the
    pairwise sum), so a float G above 1 + 3 gam at xl (below 1 - 3 gam at
    xh), 4 gam either side of the Newton root, settles every x below (above)."""
    n, m = cells.shape
    gam = (64 + m.bit_length() + m // 4096) * 2.0**-53
    xl, xh = np.full(n, np.nan), np.full(n, np.nan)
    rows = np.flatnonzero((mean > 0.0) & (mean < math.inf) & np.all(cells >= 0.0, axis=1))
    x, act = mean.copy(), rows
    with np.errstate(all="ignore"):  # a failed step only leaves its row uncertified
        for _ in range(8):
            step = _llogl_g(cells[act], x[act], newton=True)
            x[act] *= np.exp(step)
            act = act[np.abs(step) > 1e-9]  # then the next step is below 1e-16
            if act.size == 0:
                break
        lo, hi = x[rows] * (1.0 - 4.0 * gam), x[rows] * (1.0 + 4.0 * gam)
        ok = (_llogl_g(cells[rows], lo) > 1.0 + 3.0 * gam) & (_llogl_g(cells[rows], hi) < 1.0 - 3.0 * gam)
    xl[rows[ok]], xh[rows[ok]] = lo[ok], hi[ok]
    return xl, xh


def llogl_norm_rows(cells: np.ndarray) -> np.ndarray:
    """Luxemburg norms of the rows of a (n, m) cell matrix.

    Bisection on r in [row mean, doubling upper bound]; the row mean is a
    valid lower bracket since u log(e + u) >= u.  Stops when the relative
    bracket width is below 1e-13, leaving the defining-integral residual
    orders below the 1e-9 contract.
    Each test G(x) > 1 of this arithmetic is decided from the row's
    certified band (_llogl_band), so _llogl_g runs only on the rows whose x
    lies inside it or that are uncertified, with the decisions, and so the
    bits, of evaluating every row at every step.
    """
    cells = np.atleast_2d(cells)
    lo = cells.mean(axis=1)
    xl, xh = _llogl_band(cells, lo)

    def above(x):  # _llogl_g(cells, x) > 1.0
        out = x <= xl
        ev = np.flatnonzero(~(out | (x >= xh)))
        if ev.size:
            out[ev] = _llogl_g(cells[ev], x[ev]) > 1.0
        return out

    hi = lo.copy()
    for _ in range(200):
        bad = above(hi)
        if not np.any(bad):
            break
        hi[bad] *= 2.0
    for _ in range(120):
        if np.all(hi - lo <= 1e-13 * hi):
            break
        mid = 0.5 * (lo + hi)
        gm = above(mid)
        lo = np.where(gm, mid, lo)
        hi = np.where(gm, hi, mid)
    return 0.5 * (lo + hi)


def llogl_norm(w: WeightGrid, Q: DyadicCube) -> float:
    """Luxemburg norm inf{r > 0 : (1/|Q|) int_Q (w/r) log(e + w/r) <= 1}."""
    return float(llogl_norm_rows(w.cube_cells(Q)[None, :])[0])


def llogl_integral_forms(w: WeightGrid, Q: DyadicCube) -> tuple[float, float]:
    """Two integral quantities comparable to the Luxemburg norm.

    A = (1/|Q|) int_Q |f| log(e + |f| / avg_Q |f|),
    B = (1/|Q|) int_0^{|Q|} f*(s) log(e + |Q|/s) ds,
    both exact (cell sums; per-plateau closed-form antiderivative).
    """
    cells = w.cube_cells(Q)
    a1 = float(cells.mean())
    A = float(np.mean(cells * np.log(np.e + cells / a1)))
    r = rearrangement(w, Q)
    T = r.total_measure

    def F(s: np.ndarray) -> np.ndarray:
        # antiderivative of log(e + T/s); s log(e+T/s) -> 0 as s -> 0
        s = np.asarray(s, dtype=np.float64)
        out = np.where(s > 0, s * np.log(np.e + T / np.where(s > 0, s, 1.0)), 0.0)
        return out + (T / np.e) * np.log(np.e * s + T)

    lo = np.concatenate(([0.0], r.breaks[:-1]))
    B = float(np.sum(r.values * (F(r.breaks) - F(lo))) / T)
    return A, B


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

    K = ConcaveCurve.from_plateaus(r.values, r.measures)
    A, B, s0, s1 = K.pieces()
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
    num = np.concatenate([fw.reshape(-1, k).sum(axis=1) for k in widths])
    den = np.concatenate([w.zcells.reshape(-1, k).sum(axis=1) for k in widths])
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


@dataclass
class PackingFamily:
    """A list of packings (disjoint dyadic cube families).

    On a grid each packing is also an int64 array of rows into the grid's
    level tables, in the order of its cube list (rows()).  packing_family
    stores the rows it builds; other families derive them from their cubes
    on first use, once per grid geometry, so packings must not be changed
    after a family has been evaluated."""

    packings: list[list[DyadicCube]]
    policy: str = "explicit"
    _rows: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def rows(self, w: WeightGrid) -> list[np.ndarray]:
        key = (w.d, w.L, w.base)
        if key not in self._rows:
            self._rows[key] = [_packing_rows(w, pi) for pi in self.packings]
        return self._rows[key]


@dataclass
class PackedFunction:
    """S_pi(f): weighted cube averages on the packing's cubes."""

    cubes: list[DyadicCube]
    values: np.ndarray
    w_measures: np.ndarray

    def rearrange_w(self) -> tuple[np.ndarray, np.ndarray]:
        """(values desc, cumulative w-measures), the w-rearrangement data."""
        order = np.argsort(-self.values, kind="stable")
        return self.values[order], np.cumsum(self.w_measures[order])


@dataclass
class WeightedKEstimate:
    value: float
    packing_index: int
    packing: list[DyadicCube]
    raw_sup: float


def grid_power(w: WeightGrid, p: float) -> WeightGrid:
    """Cellwise power of a grid (used for |f|^p and w^p objects)."""
    return WeightGrid(w.d, w.L, w.cells ** p, label=f"({w.label})^{p:g}", base=w.base)


def _packed(tables, w: WeightGrid, rows: np.ndarray, cubes: list[DyadicCube]) -> PackedFunction:
    num, den = tables
    return PackedFunction(cubes, num[rows] / den[rows], den[rows] * w.cell_measure)


def packing_average(f: WeightGrid, w: WeightGrid, pi: list[DyadicCube]) -> PackedFunction:
    """S_pi(f) = sum_i (1/w(Q_i)) int_{Q_i} f w  on each Q_i.

    Values outside the union are excluded from the rearrangement mass.
    """
    return _packed(_level_tables(f, w), w, _packing_rows(w, pi), list(pi))


_STOPPING_THRESHOLDS = 33


def packing_family(f: WeightGrid, w: WeightGrid | None = None, p: float = 1.0) -> PackingFamily:
    """Single-level packings plus stopping-time packings.

    The stopping packings take a deterministic menu of at most
    _STOPPING_THRESHOLDS thresholds among the distinct dyadic averages
    A_Q = int_Q f^p w / w(Q); for each threshold the packing is the family
    of maximal dyadic cubes with A_Q above it, listed level by level in
    Morton order.
    """
    if w is None:
        w = WeightGrid(f.d, f.L, np.ones(f.ncells), label="const:1", base=f.base)
    off = _level_offsets(f)
    packs = [level_cubes(f, lev) for lev in range(f.base.level, f.L + 1)]
    rows = [np.arange(a, b) for a, b in zip(off, off[1:])]
    num, den = _level_tables(grid_power(f, p), w)
    avgs = num / den
    distinct = np.unique(avgs)
    if distinct.size > _STOPPING_THRESHOLDS:
        distinct = distinct[np.linspace(0, distinct.size - 1, _STOPPING_THRESHOLDS).astype(int)]
    cubes = [Q for level in packs for Q in level]
    for lam in distinct[:-1]:  # the top threshold selects nothing
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
            packs.append([cubes[i] for i in r.tolist()])
    Pi = PackingFamily(packs, policy="standard")
    Pi._rows[(f.d, f.L, f.base)] = rows
    return Pi


def k_weighted_curve(
    f: WeightGrid, w: WeightGrid, p: float, ts, Pi: PackingFamily
) -> list[WeightedKEstimate]:
    """k_weighted at every t of ts, from one set of level tables.

    Each packing is rearranged once and all ts are looked up in it; per t
    the first packing reaching the maximum is the witness, as in k_weighted.
    """
    if not p >= 1.0:
        raise ValueError("p must be at least 1")
    if not Pi.packings:
        raise ValueError("empty packing family")
    w_total = integrate(w, w.base)
    ts = [float(t) for t in ts]
    for t in ts:
        if not 0.0 < t < w_total:
            raise ValueError(f"t must lie in (0, {w_total})")
    tables = _level_tables(grid_power(f, p) if p != 1.0 else f, w)
    tq = np.asarray(ts, dtype=np.float64)
    best = np.full(tq.size, -math.inf)
    best_i = np.zeros(tq.size, dtype=np.int64)
    for i, rows in enumerate(Pi.rows(w)):
        vals, cum = _packed(tables, w, rows, Pi.packings[i]).rearrange_w()
        idx = np.searchsorted(cum, tq, side="left")
        val = np.where(idx < vals.size, vals[np.minimum(idx, vals.size - 1)], 0.0)
        better = val > best
        best[better] = val[better]
        best_i[better] = i
    return [
        WeightedKEstimate(
            value=t ** (1.0 / p) * b ** (1.0 / p),
            packing_index=i,
            packing=Pi.packings[i],
            raw_sup=b,
        )
        for t, b, i in zip(ts, best.tolist(), best_i.tolist())
    ]


def k_weighted(f: WeightGrid, w: WeightGrid, p: float, t: float, Pi: PackingFamily) -> WeightedKEstimate:
    """Weighted-pair K-functional estimate via packings:

        t^{1/p} * (max over pi of (S_pi(|f|^p))_w^*(t))^{1/p},

    with the w-rearrangement evaluated left-continuously at t.  The maximum
    over the finite family is a certified lower bound for the supremum over
    all packings; the achieving packing is returned as witness.
    """
    return k_weighted_curve(f, w, p, [t], Pi)[0]
