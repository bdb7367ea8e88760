"""Almost-increase constants and indices of curve families.

For a positive curve phi on (0, T] and delta >= 0, the almost-increase
constant over the window (0, gamma T] is

    C(phi, delta, gamma) = sup { phi(s) s^-delta / (phi(t) t^-delta)
                                 : 0 < s <= t <= gamma T },

equal to 1 exactly when phi(t) t^-delta is nondecreasing there.  The index of
a curve is the largest delta keeping the constant controlled; the index of a
cube-indexed family asks for one bound uniform over the cubes, with the
window fraction gamma chosen from a small menu.

The curves handled here are piecewise linear: K-functionals (concave, linear
through the origin) and rearrangement products t f*(t) (linear through the
origin on each plateau, downward jumps between).  On a linear piece
phi = a + b s the ratio g(s) = phi(s) s^-delta has derivative
s^{-delta-1} (b (1-delta) s - delta a): for delta in [0, 1] it has at most
one interior critical point, a minimum at s* = delta a / (b (1-delta)), and
g(s*) = [a / (1-delta)] s*^{-delta}.  Breakpoints plus these minima therefore
form an exact candidate set for the supremum; pieces through the origin
(a = 0) have none, which also means the supremum is genuinely infinite for
delta > 1 on such curves.

Finite resolution caps what any threshold estimator can see: every curve on
an L-level grid is almost increasing with SOME finite constant, so "largest
delta with C <= cap" overshoots the analytic index by about
log(cap) / log(gamma |Q| / h), the cap spread over the largest available
lever arm log(t/s).  Both readings are reported:

  * delta_cap: the literal threshold search, with a bracketing certificate
    C(delta_cap) <= cap < C(delta_cap + 1e-3);
  * delta_hat: a knee rule that accepts delta only while every binding pair
    is either trivial (C = 1) or short-levered (log(t/s) at most half the
    log-window log(gamma |Q| / h)).  Off the unit floor the binding lever
    jumps to the full window, so the knee detects the departure point; on
    power-law families it recovers the analytic index to grid accuracy.

The delta axis is scanned in a base variable u in [0, 1] common to all
(beta, q) transforms of a family, since (s^-beta phi)^q s^-delta equals
(phi(s) s^-u)^q with u = beta + delta/q: shift and power identities on
reported indices are then exact by construction.  A single curve is a
one-row block of the same engine (single_index, ai_constant).

The reverse-Hardy residual sup_t (integral_0^t phi(s) ds/s) / phi(t) of a
concave piecewise-linear curve is exact, closed form via Wright omega: on
each piece the ratio has at most one interior maximum, at
t* = a / (b omega(c)) (see _hardy_rows).  One kernel serves a single curve
(hardy_residual) and all cubes of a level (weights.hardy_residual_sup).
"""

from __future__ import annotations

import copy
import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .grid import WeightGrid, _cube_at
from .kcalc import ConcaveCurve, CurveFamily, StepProductCurve, _level_pieces

_TIE = 1e-9
_TRIVIAL = 1e-12
_SWEEP_ROWS = 256  # measured: below it one accumulate beats a column sweep


@dataclass
class AiConstant:
    """An almost-increase constant with the pair achieving it."""

    value: float
    s: float
    t: float

    def __float__(self) -> float:
        return self.value


@dataclass
class IndexEstimate:
    """An estimated index with its estimation metadata.

    delta_hat is the knee estimate, delta_cap the cap-threshold estimate with
    the bracketing certificate cap_value_at <= cap < cap_value_beyond
    (cap_value_beyond is inf when the search hits the delta ceiling, where
    the continuum constant is genuinely unbounded; either value is inf when
    it exceeds the float range).  witness is the
    lexicographically first (cube address, s, t) achieving the constant at
    delta_hat; monotone records whether knee admissibility was a prefix of
    the scan grid, which is what validates the bisection.  Cap admissibility
    is a prefix by proof (see family_index), so it has no flag; a knee scan
    stops at its first cap failure, after which every grid point fails by
    the same proof.
    """

    delta_hat: float
    delta_cap: float
    cap: float
    gamma: float
    resolution: int
    witness: tuple[str, float, float]
    monotone: bool
    cap_value_at: float
    cap_value_beyond: float
    lambda_hat: float | None = None


# ---------------------------------------------------------------------------
# candidate blocks

def _sup_ratio(s: np.ndarray, lg: np.ndarray) -> tuple[float, float, float]:
    """sup over i <= j of lg_i - lg_j for candidates ordered by abscissa s;
    returns (log ratio, s_witness, t_witness), lexicographically first."""
    M = np.maximum.accumulate(lg)
    r = M - lg
    j = int(np.argmax(r))
    i = int(np.argmax(lg[: j + 1] >= M[j] - _TIE))
    return float(r[j]), float(s[i]), float(s[j])


def _runmax(x: np.ndarray) -> np.ndarray:
    """np.maximum.accumulate(x, axis=1), bit for bit.  A column-major x
    (see _LevelBlock) of many rows sweeps its columns instead: the
    accumulate pays a per-row cost, which dominates on short rows."""
    n, m = x.shape
    if n < _SWEEP_ROWS or not x.flags.f_contiguous:
        return np.maximum.accumulate(x, axis=1)
    out = np.empty((n, m), order="F")
    out[:, 0] = x[:, 0]
    for j in range(1, m):
        np.maximum(out[:, j - 1], x[:, j], out=out[:, j])
    return out


def _lever(r: np.ndarray, ls: np.ndarray) -> np.ndarray:
    """Per column, the log-distance ls back to the last column achieving the
    running max (r <= _TIE): ls is nondecreasing and r[:, 0] = 0, so the
    running max of those columns' ls is that column's."""
    return ls - _runmax(np.where(r <= _TIE, ls, -np.inf))


class _LevelBlock:
    """Candidate data of several curves on one shared abscissa grid, one row
    per curve, rectangular.

    svals holds the shared abscissae in increasing order and ls their logs;
    lnphi holds each row's log-values there.  A window (0, gamma |Q|] of a
    level block is a column prefix (see _level_window), so one block serves
    every gamma.  With piece data A, B the curves are linear between
    consecutive columns, phi = A + B s, and lg adds the per-piece interior
    ratio minima, whose abscissae s* = u a / (b (1 - u)) depend on the scan
    variable; lnA/lnB hold the piece data to rebuild them (None without
    piece data), lnA = -inf where A <= 0: such a piece has no interior
    minimum, and its ln s* is -inf or NaN, which no bracket test in lg passes.

    A level block's row arrays, and those that rows and lg return, keep
    its long axis contiguous: column-major (Fortran order) with at least as
    many rows as columns, else row-major, built in place (ufunc out=).
    numpy pays per row for a reduction or broadcast along short row-major
    rows, and per column across few column-major rows; a window's column
    prefix of a column-major block is one contiguous slab.  Only order-free
    operations (elementwise arithmetic, max, min) may read the blocks, so
    the layout moves no bit; a row sum or mean would round differently.

    A knee pass (_knee_ok) decides U scan points at once on their stacked
    ratio arrays: one (U n, width) array in the block's layout, whose rows
    i n .. (i + 1) n - 1 hold point i.  It is one broadcast subtraction
    over (U, n, width), or over (n, U, width) with order="F" if
    column-major, reshaped without a copy; each row holds the values a
    one-point pass computes.

    of_level builds the block of all cubes of one level on the full window,
    _curve_block the one-row block of a single curve.  For kind "acks" the
    level columns alternate the left and right values of t (w chi_Q)*(t) at
    each plateau knot.  The right value at a window's end lies outside the
    window and is left out.  Putting the left value there again would change
    nothing: a column repeating its left neighbour at the same abscissa has
    the same ratio r and the same lever, and the first maximum of r never
    falls on it.
    """

    def __init__(self, s: np.ndarray, lnphi: np.ndarray, A: np.ndarray | None, B: np.ndarray | None):
        self.svals = s
        self.ls = np.log(s)
        self.lnphi = lnphi
        self.lnA = self.lnB = None
        if A is not None:  # in lnphi's layout
            self.lnA = np.full_like(lnphi, -np.inf, shape=A.shape)
            np.log(A, out=self.lnA, where=A > 0.0)
            with np.errstate(divide="ignore"):
                self.lnB = np.log(B, out=np.empty_like(lnphi, shape=B.shape))

    @classmethod
    def of_level(cls, w: WeightGrid, level: int, kind: str) -> "_LevelBlock":
        """The block of the curves of kind "k" or "acks" of every cube of a
        level below the cells, on the full window."""
        vals = w.sorted_level(level)[0]
        n, m = vals.shape
        order = "F" if n >= m else "C"
        if kind == "k":
            # pieces 2..m: phi = a + b s on [s_{k-1}, s_k]
            _, K, _, s, A = _level_pieces(w, level)
            return cls(s, np.log(K, out=np.empty((n, m), order=order)), A[:, 1:], vals[:, 1:])
        s = np.arange(1, m + 1) * w.cell_measure
        lnphi = np.empty((n, 2 * m - 1), order=order)
        for cols, sk, v in ((lnphi[:, 0::2], s, vals), (lnphi[:, 1::2], s[:-1], vals[:, 1:])):
            np.log(np.multiply(sk, v, out=cols), out=cols)
        return cls(np.repeat(s, 2)[:-1], lnphi, None, None)

    def rows(self, idx: np.ndarray | None) -> "_LevelBlock":
        """The rows idx of the block (all for None), sharing the abscissae."""
        if idx is None:
            return self
        out = copy.copy(self)
        # a column-major block gathers the columns of its row-major transpose
        take = lambda x: x.T.take(idx, axis=1).T if x.flags.f_contiguous else x.take(idx, axis=0)
        out.lnphi = take(self.lnphi)
        if self.lnA is not None:
            out.lnA, out.lnB = take(self.lnA), take(self.lnB)
        return out

    def lg(self, u: float, with_s: bool = False):
        """The log-ratios lnphi - u ln s of the exact candidate set at scan
        point u, in abscissa order, one row per curve; with with_s, the pair
        (lg, s) with the abscissa of each column (for a witness).

        With piece data and 0 < u < 1 the interior ratio minima are
        interleaved between knots; a piece without one repeats its right
        knot, which changes no running maximum.
        """
        lg_k = self.lnphi - u * self.ls[None, :]
        if self.lnA is None or not 0.0 < u < 1.0:
            return (lg_k, np.broadcast_to(self.svals, lg_k.shape)) if with_s else lg_k
        lsk = self.ls
        with np.errstate(invalid="ignore", over="ignore"):
            lnt = (math.log(u) - math.log1p(-u)) + self.lnA - self.lnB
            valid = (lnt > lsk[None, :-1]) & (lnt < lsk[None, 1:])
            # g(s*) = [a / (1 - u)] s*^{-u}
            lg_min = np.where(valid, self.lnA - math.log1p(-u) - u * lnt, 0.0)
        n, m = lg_k.shape
        lg = np.empty_like(lg_k, shape=(n, 2 * m - 1))  # in the block's layout
        lg[:, 0::2] = lg_k
        lg[:, 1::2] = np.where(valid, lg_min, lg_k[:, 1:])
        if not with_s:
            return lg
        s = np.empty_like(lg)
        s[:, 0::2] = self.svals
        with np.errstate(over="ignore"):
            s[:, 1::2] = np.where(valid, np.exp(lnt), self.svals[None, 1:])
        return lg, s


def _level_window(w: WeightGrid, level: int, kind: str, gamma: float) -> tuple[int, float]:
    """(ncols, kappa) of the window (0, gamma |Q|] on the block of a level:
    its candidates are the first ncols columns (0 when the window holds no
    knot), and kappa is half its log-window log(gamma |Q| / h), the knee
    rule's lever bound."""
    kcols = int(round(gamma * (1 << (w.d * (w.L - level)))))
    if kcols < 1:
        return 0, 0.0
    ncols = kcols if kind == "k" else 2 * kcols - 1
    return ncols, 0.5 * math.log(gamma * 2.0 ** (-w.d * level) / w.cell_measure)


def _curve_block(phi, end: float) -> _LevelBlock:
    """The one-row block of a single curve's candidates on (0, end]: the
    knots of a ConcaveCurve with its pieces and the window end, the two-sided
    jump values of a StepProductCurve, or the samples of a (t, values) pair."""
    A = B = None
    if isinstance(phi, ConcaveCurve):
        # a window ending inside the first piece keeps its end alone: the
        # curve is linear through the origin there
        inside = (phi.t > 0) & (phi.t <= end)
        s, v = phi.t[inside], phi.v[inside]
        if s.size == 0 or s[-1] < end:
            s, v = np.append(s, end), np.append(v, phi.value(end))
        A, B, _, _ = phi.pieces()
        A, B = A[None, 1 : s.size], B[None, 1 : s.size]
    elif isinstance(phi, StepProductCurve):
        s, v = phi.two_sided(end)
    else:
        t, v = (np.asarray(x, dtype=np.float64) for x in phi)
        keep = (t > 0) & (t <= end)
        s, v = t[keep], v[keep]
        if s.size == 0:
            raise ValueError("window ends below the first sample")
    if np.any(v <= 0):
        raise ValueError("curve must be positive on the window")
    return _LevelBlock(s, np.log(v)[None, :], A, B)


def _domain_end(phi) -> float:
    if isinstance(phi, (ConcaveCurve, StepProductCurve)):
        return phi.domain_end
    return float(np.asarray(phi[0], dtype=np.float64)[-1])


def ai_constant(phi, delta: float, gamma: float = 1.0, domain_end: float | None = None) -> AiConstant:
    """Smallest almost-increase constant of phi on (0, gamma * domain_end].

    phi may be a ConcaveCurve, a StepProductCurve, a (t, values) pair of
    sample arrays (the constant is then taken over the sample set), or a
    callable (sampled into such a pair on a 4097-point geometric grid;
    domain_end required).
    The piecewise-linear forms are exact: the supremum is attained on
    breakpoints, two-sided values at jumps, and per-piece interior minima of
    the ratio (the curve's one-row block at u = delta).  Curves linear
    through the origin have an unbounded constant for delta > 1, reported as
    inf.
    """
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    if not 0.0 < gamma <= 1.0:
        raise ValueError("gamma must lie in (0, 1]")
    if callable(phi):
        if domain_end is None:
            raise ValueError("domain_end required for callable curves")
        s = np.geomspace(gamma * domain_end * 1e-9, gamma * domain_end, 4097)
        phi = (s, [phi(x) for x in s])
    end = gamma * (_domain_end(phi) if domain_end is None else domain_end)
    if delta > 1.0 and isinstance(phi, (ConcaveCurve, StepProductCurve)):
        return AiConstant(math.inf, 0.0, end)
    lg, s = _curve_block(phi, end).lg(delta, with_s=True)
    rlog, sw, tw = _sup_ratio(s[0], lg[0])
    return AiConstant(math.exp(rlog), sw, tw)


# ---------------------------------------------------------------------------
# the u-scan over a list of blocks

def _blocks_ok(blocks, u, lncap_q):
    """Whether the blocks' constant at scan point u is within the cap, with
    the max log-ratio over all rows (base scale) and each block's row
    maxima, on the full width and the exact candidate set."""
    rmax = []
    for blk in blocks:
        lg = blk.lg(u)
        rmax.append((_runmax(lg) - lg).max(axis=1))
    cmax = max([0.0] + [float(r.max()) for r in rmax])
    return cmax <= lncap_q + 1e-15, cmax, rmax


def _knee_ok(blocks, us, want, windows, lncap_q, triv_tol, order):
    """Knee admissibility of several windows at several scan points in one
    pass.

    want[p] lists the windows asked at scan point us[p], and windows[k][b]
    is the (ncols, kappa) of window k on block b.  On each block the ratio
    arrays of the points still undecided in some window are stacked as
    extra rows (see _LevelBlock), built once on the widest window still
    undecided there; each window reads its own column prefix, where they
    equal the arrays of that window's own candidates, and reduces each
    point's rows apart (reduceat).  A (point, window) pair fails at the first
    block with a cube beyond the cap, or with a binding pair whose lever
    exceeds kappa.  Returns, per point, one (ok, cap_failed) pair per window
    asked; cap_failed marks a failure of the first kind, which persists at
    every larger u.

    Blocks are visited in the list order, and a block failing any pair
    moves to its front (fail-first).  Order cannot change ok, an AND over
    blocks, only whether a cap or a lever failure is met first; a cap
    failure persists, so the grid points a stopped scan skips fail anyway.
    """
    out = [dict.fromkeys(ks, (True, False)) for ks in want]
    left = [len(ks) for ks in want]  # each point's undecided windows
    pending = {}  # window -> its undecided points
    for p, ks in enumerate(want):
        for k in ks:
            pending.setdefault(k, []).append(p)
    pts = None
    for b in list(order):
        live = [k for k in pending if windows[k][b][0]]
        if not live:
            continue
        if pts is None:  # the points still undecided in some window
            pts = [p for p, c in enumerate(left) if c]
            row_of = {p: i for i, p in enumerate(pts)}
            u = np.array([us[p] for p in pts])[:, None]
        blk, decided = blocks[b], False
        width = max(windows[k][b][0] for k in live)
        lnphi = blk.lnphi
        n, npt = lnphi.shape[0], len(pts)
        # point i's rows are i n .. (i + 1) n - 1, in the block's layout
        ul = u * blk.ls[:width]
        if lnphi.flags.c_contiguous:
            lg = np.subtract(lnphi[None, :, :width], ul[:, None], order="C").reshape(npt * n, width)
        else:
            lg = np.subtract(lnphi[:, None, :width], ul, order="F").reshape((npt * n, width), order="F")
        r = _runmax(lg) - lg
        starts = np.arange(0, npt * n, n)
        lever = None
        for k in live:
            ncols, kappa = windows[k][b]
            rk = r[:, :ncols]
            rmax = rk.max(axis=1)
            top = np.maximum.reduceat(rmax, starts).tolist()
            failed, levered = [], []
            for p in pending[k]:
                t = top[row_of[p]]
                if t > lncap_q + 1e-15:
                    out[p][k] = (False, True)
                    failed.append(p)
                elif t > triv_tol:
                    levered.append(p)
            if levered:
                if lever is None:
                    lever = _lever(r, blk.ls[:width])
                binding = rk >= (rmax[:, None] - _TIE)
                lev_min = np.where(binding, lever[:, :ncols], np.inf).min(axis=1)
                np.putmask(lev_min, rmax <= triv_tol, -np.inf)
                far = np.maximum.reduceat(lev_min, starts).tolist()
                for p in levered:
                    if far[row_of[p]] > kappa:
                        out[p][k] = (False, False)
                        failed.append(p)
            if failed:
                decided = True
                pending[k] = [p for p in pending[k] if p not in failed]
                if not pending[k]:
                    del pending[k]
                for p in failed:
                    left[p] -= 1
                    if not left[p]:
                        pts = None  # restacked without p from the next block on
        if decided:
            order.insert(0, order.pop(order.index(b)))
        if not pending:
            break
    return [[res[k] for k in ks] for res, ks in zip(out, want)]


_GRID = np.linspace(0.0, 1.0, 65)
# Candidate cells a knee pass may stack: the u-scan evaluates
# _PASS_CELLS // (the blocks' cells) grid points per pass, at least one.
_PASS_CELLS = 1 << 16


def _tree(lo: float, hi: float, depth: int, tol: float) -> list[float]:
    """The points the next depth steps of a bisection of [lo, hi] to tol may
    probe: the midpoints of its bisection tree, down to depth levels."""
    if depth == 0 or hi - lo <= tol:
        return []
    mid = 0.5 * (lo + hi)
    return [mid] + _tree(lo, mid, depth - 1, tol) + _tree(mid, hi, depth - 1, tol)


def _bisect_brackets(ok_fn, brackets, tol: float, chunk: int) -> list[float]:
    """Bisection to tol of each bracket [lo, hi] (lo admissible); returns
    each bracket's final lo.

    ok_fn(us, ks) decides bracket ks[i]'s criterion at us[i] for all i in
    one pass.  A pass takes the first min(chunk, pending) brackets and as
    many levels of their bisection trees as chunk points hold, at least
    one; each bracket then walks down its tree.  The walk probes the points
    a one-point bisection would, so the result does not depend on chunk; at
    a chunk of 1 each bracket runs to the end before the next starts.
    """
    state, out = dict(enumerate(brackets)), [0.0] * len(brackets)
    while state:
        ks = list(state)[:chunk]
        depth = (chunk // len(ks) + 1).bit_length() - 1
        trees = [_tree(*state[k], depth, tol) for k in ks]
        us = [u for tree in trees for u in tree]
        oks = iter(ok_fn(us, [k for k, tree in zip(ks, trees) for _ in tree]) if us else [])
        for k, tree in zip(ks, trees):
            ok_at = dict(zip(tree, oks))
            lo, hi = state[k]
            for _ in range(depth):
                if hi - lo <= tol:
                    break
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if ok_at[mid] else (lo, mid)
            state[k] = (lo, hi)
            if hi - lo <= tol:
                out[k] = lo
                del state[k]
    return out


def _scan_largest(ok_fn, tol: float, n: int = 1, chunk: int = 1):
    """Largest admissible u in [0, 1] for n criteria scanned together:
    coarse 1/64 grid plus bisection, chunk scan points per pass.

    ok_fn(us, want) evaluates the criteria want[p] at each scan point us[p]
    in one pass and returns, per point, one (ok, cap_failed) pair per
    criterion asked.  A cap failure persists at every larger u (each pair
    term of the ratio is nondecreasing in u), so a criterion's grid points
    after its first cap failure are set False: those of later chunks
    without evaluation, those of its own chunk by discarding their results.
    The bisections advance together (_bisect_brackets).  Returns one
    (u_hat, monotone) pair per criterion; monotone means admissibility was
    a prefix of the grid, which is what makes the bisection meaningful.  A
    skipped tail is all False, so it cannot clear the flag.
    """
    oks = [[] for _ in range(n)]
    live = list(range(n))
    for i in range(0, _GRID.size, chunk):
        if not live:
            break
        xs = _GRID[i : i + chunk].tolist()
        capped = set()
        for res in ok_fn(xs, [live] * len(xs)):
            for k, (ok, cap) in zip(live, res):
                if k not in capped:
                    oks[k].append(ok)
                    if cap:
                        capped.add(k)
        live = [k for k in live if k not in capped]
    out, brackets = [], []
    for k, o in enumerate(oks):
        o = o + [False] * (_GRID.size - len(o))
        monotone = all(a or not b for a, b in zip(o, o[1:]))  # no False -> True
        if not o[0]:
            out.append((0.0, monotone))
        elif all(o):
            out.append((1.0, monotone))
        else:
            j = max(i for i, v in enumerate(o) if v)
            brackets.append((k, (float(_GRID[j]), float(_GRID[min(j + 1, 64)]))))
            out.append((None, monotone))
    at = lambda us, ks: [res[0][0] for res in ok_fn(us, [[brackets[i][0]] for i in ks])]
    for (k, _), u in zip(brackets, _bisect_brackets(at, [b for _, b in brackets], tol, chunk)):
        out[k] = (u, out[k][1])
    return out


def _scan_prefix(ok_fn, tol: float) -> float:
    """Largest admissible u in [0, 1] for a criterion whose admissible set
    is a prefix of [0, 1]: one bisection of [0, 1] to tol.  As tol < 1/64
    (q >= 1), its first six probes are a binary search over the 1/64 grid,
    so the result equals that of the full grid scan."""
    if not ok_fn(0.0):
        return 0.0
    if ok_fn(1.0):
        return 1.0
    return _bisect_brackets(lambda us, ks: [ok_fn(us[0])], [(0.0, 1.0)], tol, 1)[0]


def _witness(blocks, window, u):
    """(block, row, s, t) of the lexicographically first pair achieving the
    blocks' constant at scan point u on the window's breakpoint candidate
    set, or None when the window holds no candidate."""
    best = (-1.0, None)
    for b, (blk, (ncols, _)) in enumerate(zip(blocks, window)):
        if not ncols:
            continue
        lg = blk.lnphi[:, :ncols] - u * blk.ls[None, :ncols]
        rmax = (_runmax(lg) - lg).max(axis=1)
        row = int(np.argmax(rmax))
        if float(rmax[row]) > best[0] + _TIE:
            _, s, t = _sup_ratio(blk.svals[:ncols], lg[row])
            best = (float(rmax[row]), (b, row, s, t))
    return best[1]


def _index_estimate(blocks, windows, beta, q, C_cap, resolution, name) -> IndexEstimate:
    """The knee, cap, certificate and witness scans over a list of blocks,
    shared by family_index and single_index.

    windows holds (gamma, [(ncols, kappa) per block]) for each window
    fraction; the knee rule picks the best gamma, the cap scan runs on the
    blocks' full width.  name(block, row) labels the witness curve.  Scans
    run in the base variable u and report delta = q (u - beta).
    """
    lncap_q = math.log(C_cap) / q
    triv_tol = _TRIVIAL / q
    utol = 1e-4 / q
    order = list(range(len(blocks)))  # the knee scan's fail-first order
    wins = [win for _, win in windows]
    knee = lambda us, want: _knee_ok(blocks, us, want, wins, lncap_q, triv_tol, order)
    chunk = max(1, min(_GRID.size, _PASS_CELLS // sum(blk.lnphi.size for blk in blocks)))
    scans = _scan_largest(knee, utol, len(windows), chunk)
    best = max(range(len(windows)), key=lambda k: scans[k][0])  # the first best gamma
    (u_hat, monotone), (gamma_star, win_star) = scans[best], windows[best]

    def cap_value(u):
        # the constant at u; beyond the float range it is reported as inf
        try:
            return math.exp(q * _blocks_ok(blocks, u, lncap_q)[1])
        except OverflowError:
            return math.inf

    live = [(blk, None) for blk in blocks]  # each block with the rows a cap probe reads

    def cap_ok(u):
        # later probes lie below a failing one: only its rows above the cap
        # less 1e-12 can fail there, sliced per probe so that no copy is kept
        nonlocal live
        ok, _, rmax = _blocks_ok((blk.rows(i) for blk, i in live), u, lncap_q)
        if not ok:
            keep = [np.flatnonzero(r > lncap_q - 1e-12) for r in rmax]
            live = [(blk, k if i is None else i[k]) for (blk, i), k in zip(live, keep) if k.size]
        return ok

    u_cap = _scan_prefix(cap_ok, utol)
    c_at = cap_value(u_cap)
    if u_cap + 1e-3 / q <= 1.0:
        c_beyond = cap_value(u_cap + 1e-3 / q)
    else:
        # past u = 1 the first piece (linear through the origin) makes the
        # continuum constant infinite
        c_beyond = math.inf

    wit = _witness(blocks, win_star, u_hat)
    return IndexEstimate(
        delta_hat=q * (u_hat - beta),
        delta_cap=q * (u_cap - beta),
        cap=C_cap,
        gamma=gamma_star,
        resolution=resolution,
        witness=("", 0.0, 0.0) if wit is None else (name(wit[0], wit[1]), wit[2], wit[3]),
        monotone=monotone,
        cap_value_at=c_at,
        cap_value_beyond=c_beyond,
    )


def family_index(
    F: CurveFamily,
    beta: float | None = None,
    q: float | None = None,
    C_cap: float = 16.0,
    gamma_grid: tuple[float, ...] = (1.0, 0.5, 0.25, 0.125),
) -> IndexEstimate:
    """Index estimate for a cube-indexed curve family.

    For each window fraction gamma, the largest admissible delta is found by
    a coarse scan (step 1/64) plus bisection to 1e-4, and the best gamma is
    reported.  delta_hat uses the knee rule described in the module
    docstring on the breakpoint set.  delta_cap uses admissibility "family
    constant <= C_cap" at gamma = 1 on the exact candidate set (breakpoints
    plus interior ratio minima), and carries the bracketing certificate.
    Both are returned in the delta units of the (beta, q) transform, where
    exactness of the shift and power identities is by construction: the
    scan runs in the base variable u = beta + delta/q.

    The scan is pruned and shared without changing any result:

      * cap admissibility is a prefix of [0, 1]: each pair term
        lg_i - lg_j = lnphi_i - lnphi_j + u (ln s_j - ln s_i) is
        nondecreasing in u, and the exact candidate set attains the
        continuum supremum, which is therefore nondecreasing too.  The cap
        scan is one bisection of [0, 1] (_scan_prefix);
      * a knee-admissible u is cap-admissible on that window's breakpoint
        set, and cap failure there is monotone in u by the same argument,
        so a knee scan stops at its first cap failure;
      * the gamma = 1 blocks serve every window as column prefixes and the
        cap scan, and one pass per grid point decides all gammas;
      * a knee pass stacks _PASS_CELLS // (the blocks' candidate cells)
        scan points, 1 to 65, as extra rows of each block (see _LevelBlock):
        the grid takes that many points per pass, and the bisections of all
        gammas advance together by as many levels of their bisection trees
        as that many points hold.  Each point's rows are those of a
        one-point pass, so no result depends on the count;
      * knee passes visit the blocks fail-first: ok is an AND over blocks,
        and a cap failure met first only stops a scan that fails after it;
      * cap probes after a failing one, all below it, read only its rows
        above the cap less 1e-12, each row's constant growing with u.

    The result is memoised on the weight grid, keyed by the kind and the
    parameters; each call returns its own copy.
    """
    w = F.w
    beta = F.beta if beta is None else beta
    q = F.q if q is None else q
    if not 0.0 <= beta < 1.0:
        raise ValueError("beta must lie in [0, 1)")
    if not q >= 1.0:
        raise ValueError("q must be at least 1")
    if not C_cap > 1.0:
        raise ValueError("C_cap must exceed 1")
    if not gamma_grid or any(not 0.0 < g <= 1.0 for g in gamma_grid):
        raise ValueError("gamma_grid must be a nonempty subset of (0, 1]")
    if F.kind not in ("k", "acks"):
        raise ValueError(f"unknown curve kind {F.kind!r}")
    key = (F.kind, beta, q, C_cap, tuple(gamma_grid))
    if key not in w._indices:
        w._indices[key] = _family_estimate(w, F.kind, beta, q, C_cap, tuple(gamma_grid))
    return dataclasses.replace(w._indices[key])


def _family_estimate(w, kind, beta, q, C_cap, gamma_grid) -> IndexEstimate:
    """family_index on validated parameters, without the memo."""
    levels = range(w.base.level, w.L)  # a cell's curve has a single knot
    blocks = [_LevelBlock.of_level(w, lev, kind) for lev in levels]
    windows = [(g, [_level_window(w, lev, kind, g) for lev in levels]) for g in gamma_grid]
    windows = [(g, win) for g, win in windows if any(n for n, _ in win)]
    if not windows:
        raise ValueError("no gamma in the grid leaves any cube a candidate window")
    name = lambda b, row: _cube_at(w, levels[b], row).addr()
    return _index_estimate(blocks, windows, beta, q, C_cap, w.L, name)


def single_index(phi, C_cap: float = 16.0, gamma: float = 1.0) -> IndexEstimate:
    """Index of one curve: the one-member family estimate with fixed gamma.

    phi may be a ConcaveCurve, a StepProductCurve, or a (t, values) sample
    pair.  The curve's candidates on the window form a one-row block, which
    runs through the same scans as family_index: the knee rule on its
    breakpoints, the cap threshold on its exact candidate set (interior
    ratio minima included for concave curves); resolution is the dyadic
    count log2(window / first knot).
    """
    if not C_cap > 1.0:
        raise ValueError("C_cap must exceed 1")
    if not 0.0 < gamma <= 1.0:
        raise ValueError("gamma must lie in (0, 1]")
    T = _domain_end(phi)
    blk = _curve_block(phi, gamma * T)
    h = float(blk.svals[0])
    windows = [(gamma, [(blk.lnphi.shape[1], 0.5 * math.log(gamma * T / h))])]
    resolution = int(round(math.log2(max(gamma * T / h, 1.0))))
    return _index_estimate([blk], windows, 0.0, 1.0, C_cap, resolution, lambda b, row: "curve")


def samko_alpha(phi, h_grid=None, x_grid=(2.0, 4.0, 8.0, 16.0)) -> float:
    """Dilation-index estimate sup_x log(min_h phi(x h) / phi(h)) / log x.

    The lim inf over h -> 0 of the dilation ratio is replaced by a minimum
    over a decade-spaced h grid floored at four knot spacings (below the
    floor the curve is an artifact of its discretization); the sup over
    dilation factors runs over x_grid.  A ConcaveCurve is its knot pairs
    (t, v), interpolated like sampled pairs; a StepProductCurve keeps its
    own evaluator, with knots at 0 and its breaks.
    """
    if isinstance(phi, StepProductCurve):
        t = np.concatenate(([0.0], phi.breaks))
        ev = phi.value
    else:
        pairs = (phi.t, phi.v) if isinstance(phi, ConcaveCurve) else phi
        t, v = (np.asarray(a, dtype=np.float64) for a in pairs)
        ev = lambda s: np.interp(s, t, v)
    T = float(t[-1])
    # sampled pairs are undefined below their first abscissa
    floor = max(4.0 * float(np.min(np.diff(t))), float(t[0]))
    if any(x <= 1.0 for x in x_grid):
        raise ValueError("dilation factors must exceed 1")
    if h_grid is None:
        h_grid = []
        hcur = T
        while hcur >= floor:
            h_grid.append(hcur)
            hcur /= 10.0
        h_grid = h_grid[1:]  # h = T leaves no room for any x h <= T
    h = np.asarray(h_grid, dtype=np.float64)
    best = None
    for x in x_grid:
        hx = h[x * h <= T]
        if hx.size == 0:
            continue
        with np.errstate(divide="raise", invalid="raise"):  # a zero phi(h) fails loudly
            cand = math.log(float(np.min(ev(x * hx) / ev(hx)))) / math.log(x)
        best = cand if best is None else max(best, cand)
    if best is None:
        raise ValueError("domain too small for any (x, h) pair")
    return best


def acks_index(
    w: WeightGrid,
    C_cap: float = 16.0,
    gamma_grid: tuple[float, ...] = (1.0, 0.5, 0.25, 0.125),
) -> IndexEstimate:
    """Index of the family {t (w chi_Q)*(t)}_Q, reported as lambda_hat =
    1 - delta_hat: the exponent in the two-sided plateau-product comparison,
    with lambda_hat < 1 exactly when the family index is positive."""
    est = family_index(CurveFamily(w, kind="acks"), beta=0.0, q=1.0, C_cap=C_cap, gamma_grid=gamma_grid)
    est.lambda_hat = 1.0 - est.delta_hat
    return est


def _hardy_rows(A, B, s0, s1, K) -> np.ndarray:
    """Per row, the reverse-Hardy residual

        sup over t in (0, s1[-1]] of (integral_0^t phi(s) ds/s) / phi(t),

    at least 1, of curves given as rows of pieces phi = A + B s on
    [s0, s1], with phi(s1) = K; A, B and K are (n, m), s0 and s1 broadcast
    to them, and the first piece runs from the origin with A = 0.  Exact, closed form
    via the Wright omega function: the integral N has exact piece
    antiderivatives (A log + B s), and on a piece g = phi^2/t - B N has
    g' = -A phi / t^2 <= 0, so N / phi has at most one interior maximum,
    where g = 0.  For A, B > 0 that root is

        t* = A / (B omega(c)),  c = ln(A / (B s0)) - 2 + (N(s0) - B s0) / A,

    omega the solution of omega + ln omega = c (Corless and Jeffrey, "The
    Wright omega function", AISC 2002).  The supremum is the max of N / phi
    over the knots and every t* inside its piece, evaluated there directly
    rather than as 1 + omega(c), so an error in t* enters at second order.
    """
    from scipy.special import wrightomega  # imported here: it is most of the package's start-up

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
            t = a / (b * wrightomega(np.log(a / (b * lo)) - 2.0 + (n0 - b * lo) / a))
        inside = (t > lo) & (t < hi)
        a, b, lo, t, n0 = a[inside], b[inside], lo[inside], t[inside], n0[inside]
        np.maximum.at(best, rows[inside], (n0 + a * np.log(t / lo) + b * (t - lo)) / (a + b * t))
    return best


def hardy_residual(phi: ConcaveCurve) -> float:
    """sup over t in (0, domain_end] of (integral_0^t phi(s) ds/s) / phi(t).

    Exact, closed form via Wright omega: a one-row call into _hardy_rows.
    The first piece must pass through the origin, so the head integral
    converges.
    """
    A, B, s0, s1 = phi.pieces()
    if A[0] != 0.0:
        raise ValueError("head integral diverges: first piece not through the origin")
    return float(_hardy_rows(A[None, :], B[None, :], s0, s1, phi.v[None, 1:])[0])
