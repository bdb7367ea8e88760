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

  * delta_cap: the largest delta with C <= cap, to float resolution, and
    the certificate C(delta_cap) <= cap < C(delta_cap + 1e-3);
  * delta_hat: a knee rule that accepts delta only while every binding pair
    is either trivial (C = 1) or short-levered (log(t/s) at most half the
    log-window log(gamma |Q| / h)).  Off the unit floor the binding lever
    jumps to the full window, so the knee detects the departure point; on
    power-law families it recovers the analytic index to grid accuracy.

The reverse-Hardy residual sup_t (integral_0^t phi(s) ds/s) / phi(t) of a
concave piecewise-linear curve is exact, closed form via Wright omega: on
each piece the ratio has at most one interior maximum, at
t* = a / (b omega(c)) (see _hardy_rows).  One kernel serves a single curve
(hardy_residual) and all cubes of a run of levels, with one Wright omega
call (weights.hardy_residual_sup).
"""

from __future__ import annotations

import copy
import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .grid import WeightGrid, _cube_at
from .kcalc import ConcaveCurve, _level_pieces, _PieceRun

_TIE = 1e-9
_TRIVIAL = 1e-12
_SWEEP_ROWS = 256  # measured: below it one accumulate beats a column sweep


@dataclass
class IndexEstimate:
    """An estimated index with its estimation metadata.

    delta_hat is the knee estimate, delta_cap the cap threshold (a root to
    float resolution) with the certificate cap_value_at <= cap <
    cap_value_beyond as computed (cap_value_beyond is inf past the delta
    ceiling, where the continuum constant is genuinely unbounded; either is
    inf beyond the float range).  witness is the lexicographically first
    (cube address, s, t) achieving the constant at delta_hat.
    """

    delta_hat: float
    delta_cap: float
    cap: float
    gamma: float
    resolution: int
    witness: tuple[str, float, float]
    cap_value_at: float
    cap_value_beyond: float
    lambda_hat: float | None = None


# ---------------------------------------------------------------------------
# candidate blocks

def _sup_ratio(s: np.ndarray, lg: np.ndarray, tie: float = _TIE) -> tuple[float, float, float]:
    """sup over i <= j of lg_i - lg_j for candidates ordered by abscissa s;
    returns (log ratio, s_witness, t_witness), first within tie of the max."""
    M = np.maximum.accumulate(lg)
    r = M - lg
    j = int(np.argmax(r))
    i = int(np.argmax(lg[: j + 1] >= M[j] - tie))
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


def _block_log(x: np.ndarray, order: str) -> np.ndarray:
    """np.log(x), -inf where x <= 0, in the layout order, taken in one loop
    over a contiguous copy: numpy picks its log loop by shape and strides,
    and the loops round apart, so each log depends on its value alone."""
    c = np.maximum(x, 0.0, order=order)
    with np.errstate(divide="ignore"):
        return np.log(c, out=c)


def _take_rows(x: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """The rows idx of x in x's layout: a column-major x gathers the
    columns of its row-major transpose."""
    return x.T.take(idx, axis=1).T if x.flags.f_contiguous else x.take(idx, axis=0)


class _LevelBlock:
    """Candidate data of several curves on one shared abscissa grid, one row
    per curve, rectangular.

    svals holds the shared abscissae in increasing order and ls their logs;
    lnphi holds each row's log-values there, monotone whether every row of
    it is nondecreasing.  A window (0, gamma |Q|] of a level block is a
    column prefix (see _level_window), so one block serves every gamma.
    With piece data A, B the curves are linear between consecutive columns,
    phi = A + B s, and lg adds the per-piece interior ratio minima, whose
    abscissae s* = u a / (b (1 - u)) depend on the scan variable; lnA/lnB
    hold the piece data to rebuild them, lnA = -inf where A <= 0: such a
    piece has no interior minimum, and its ln s* is -inf or NaN, which no
    bracket test in lg passes.  A level block holds lnphi only, and source,
    the (w, level) of its piece data, from which rows builds the piece logs
    of the rows it takes (lg inside (0, 1), every row's for that call); a
    row block gathers its own.  Without piece data all three are None.

    A level block's lnphi, and the arrays that rows and lg return, keep its
    long axis contiguous: column-major (Fortran order) with at least as
    many rows as columns, else row-major.  numpy pays per row for a
    reduction or broadcast along short row-major rows, and per column
    across few column-major rows; a window's column prefix of a
    column-major block is one contiguous slab.  lnphi, lnA and lnB come
    from _block_log and only order-free operations (elementwise arithmetic,
    max, min) read the blocks, so the layout moves no bit; a row sum would.
    log_constants(0), which the cap scan, its certificate and a witness at
    u = 0 all read, is computed once per block.

    of_level builds the block of all cubes of one level on the full window.
    For kind "acks" the level columns alternate the left and right values of
    t (w chi_Q)*(t) at each plateau knot.  The right value at a window's end
    lies outside the window and is left out.  Putting the left value there
    again would change nothing: a column repeating its left neighbour at the
    same abscissa has the same ratio r and the same lever, and the first
    maximum of r never falls on it.
    """

    def __init__(self, s: np.ndarray, lnphi: np.ndarray, source: tuple[WeightGrid, int] | None = None):
        self.svals = s
        self.ls = np.log(s)
        self.lnphi = lnphi
        self.monotone = bool((lnphi[:, 1:] >= lnphi[:, :-1]).all())  # checked: np.log need not be
        self.source = source
        self.lnA = self.lnB = None
        self._c0 = None  # log_constants(0), once computed

    @classmethod
    def of_level(cls, w: WeightGrid, level: int, kind: str) -> "_LevelBlock":
        """The block of the curves of kind "k" or "acks" of every cube of a
        level below the cells, on the full window."""
        vals, K = w.sorted_level(level)
        n, m = vals.shape
        order = "F" if n >= m else "C"
        s = np.arange(1, m + 1) * w.cell_measure
        if kind == "k":
            return cls(s, _block_log(K, order), (w, level))
        phi = np.empty((n, 2 * m - 1))
        phi[:, 0::2], phi[:, 1::2] = s * vals, s[:-1] * vals[:, 1:]
        return cls(np.repeat(s, 2)[:-1], _block_log(phi, order))

    def rows(self, idx: np.ndarray) -> "_LevelBlock":
        """The block of the rows idx, sharing the abscissae, with their piece
        logs (built on a level block, gathered on a row block)."""
        out = copy.copy(self)
        out.lnphi, out._c0 = _take_rows(self.lnphi, idx), None
        if self.source:  # pieces 2..m: phi = a + b s on [s_{k-1}, s_k], in lnphi's layout
            vals, _, _, _, A = _level_pieces(*self.source, rows=idx)
            order = "F" if out.lnphi.flags.f_contiguous else "C"
            out.lnA = _block_log(A[:, 1:], order)  # -inf where A <= 0
            out.lnB, out.source = _block_log(vals[:, 1:], order), None
        elif self.lnA is not None:
            out.lnA, out.lnB = _take_rows(self.lnA, idx), _take_rows(self.lnB, idx)
        return out

    def lg(self, u: float, with_s: bool = False):
        """The log-ratios lnphi - u ln s of the exact candidate set at scan
        point u, in abscissa order, one row per curve; with with_s, the pair
        (lg, s) with the abscissa of each column (for a witness).

        With piece data and 0 < u < 1 the interior ratio minima are
        interleaved between knots; a piece without one repeats its right
        knot, which changes no running maximum.
        """
        if self.source and 0.0 < u < 1.0:  # a level block: every row's piece logs, for this call
            return self.rows(np.arange(len(self.lnphi))).lg(u, with_s)
        lg_k = self.lnphi - u * self.ls[None, :]
        if self.lnA is None or not 0.0 < u < 1.0:
            return (lg_k, np.broadcast_to(self.svals, lg_k.shape)) if with_s else lg_k
        n, m = lg_k.shape
        lg = np.empty_like(lg_k, shape=(n, 2 * m - 1))  # in the block's layout
        lg[:, 0::2] = lg_k
        with np.errstate(invalid="ignore", over="ignore"):
            lnt = (math.log(u) - math.log1p(-u)) + self.lnA - self.lnB
            valid = (lnt > self.ls[None, :-1]) & (lnt < self.ls[None, 1:])
            # g(s*) = [a / (1 - u)] s*^{-u}
            lg[:, 1::2] = np.where(valid, self.lnA - math.log1p(-u) - u * lnt, lg_k[:, 1:])
        if not with_s:
            return lg
        s = np.empty_like(lg)
        s[:, 0::2] = self.svals
        with np.errstate(over="ignore"):
            s[:, 1::2] = np.where(valid, np.exp(lnt), self.svals[None, 1:])
        return lg, s

    def log_constants(self, u: float) -> np.ndarray:
        """Each row's log-constant C(u) on the full width and the exact
        candidate set: the max of the running max of lg(u) less lg(u)."""
        if u == 0.0 and self._c0 is not None:
            return self._c0
        lg = self.lg(u)
        c = (_runmax(lg) - lg).max(axis=1)
        if u == 0.0:
            self._c0 = c
        return c


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


# ---------------------------------------------------------------------------
# the u-scan over a list of blocks

def _blocks_ok(blocks, u, lncap):
    """One Newton evaluation at scan point u on the full width and the exact
    candidate set: the blocks' max log-ratio C(u), the slope ln(t/s) of the
    pair first attaining it exactly, and each block's rows above lncap less
    1e-12."""
    cmax, top, keep = 0.0, None, []
    for blk in blocks:
        rmax = blk.log_constants(u)
        row = int(np.argmax(rmax))
        if top is None or rmax[row] > cmax:
            cmax, top = float(rmax[row]), (blk, row)
        keep.append(np.flatnonzero(rmax > lncap - 1e-12))
    lg, s = top[0].rows(np.array([top[1]])).lg(u, with_s=True)
    _, s, t = _sup_ratio(s[0], lg[0], 0.0)
    return cmax, math.log(t / s), keep


def _knee_fails(lnphi, ls, u, kappa, lncap) -> np.ndarray:
    """The rows of lnphi (a block's rows on a window's columns, with their
    log-abscissae ls) failing the knee rule at scan point u: a constant
    beyond the cap, or a nontrivial one whose binding pairs all have a lever
    above kappa.  Row by row, so no row's verdict depends on the others."""
    lg = lnphi - u * ls
    r = _runmax(lg) - lg
    rmax = r.max(axis=1)
    fail = rmax > lncap + 1e-15
    far = (rmax > _TRIVIAL) & ~fail
    if far.any():
        binding = r >= (rmax[:, None] - _TIE)
        lev_min = np.where(binding, _lever(r, ls), np.inf).min(axis=1)
        fail |= far & (lev_min > kappa)
    return np.flatnonzero(fail)


def _knee_scan(blocks, win, order, k, lncap, floor=0.0) -> float:
    """The largest u at or above floor on the grid 2^-k of [0, 1] at which
    every row of every block passes the knee rule on the window win, or
    -1.0 when some row fails at a floor above 0; at floor 0, the largest
    such u, or 0 if there is none.  A running bound G is read once per
    block (see family_index).  A block failing at G moves to the front of
    the shared order, and its failing rows are probed at the floor (not at
    0 on a monotone block, where every row passes); if they all pass
    there, they are bisected on the grid points of [floor, G).  At floor 0
    these are the probes of a scan without a floor."""
    G, F = 1 << k, int(math.ldexp(floor, k))
    for b in list(order):
        ncols, kappa = win[b]
        if not ncols:
            continue
        blk, ls = blocks[b], blocks[b].ls[:ncols]
        fails = lambda lnphi, g: _knee_fails(lnphi, ls, math.ldexp(g, -k), kappa, lncap)
        bad = fails(blk.lnphi[:, :ncols], G)
        if not bad.size:
            continue
        order.insert(0, order.pop(order.index(b)))
        lnphi = _take_rows(blk.lnphi[:, :ncols], bad)
        if (F or not blk.monotone) and fails(lnphi, F).size:
            return -1.0 if F else 0.0
        lo, hi = F, G
        while hi - lo > 1:
            mid = (lo + hi) // 2
            bad = fails(lnphi, mid)
            if bad.size:
                hi, lnphi = mid, _take_rows(lnphi, bad)
            else:
                lo = mid
        G = lo
        if not G:
            return 0.0
    return math.ldexp(G, -k)


def _witness(blocks, window, u):
    """(block, row, s, t) of the lexicographically first pair achieving the
    blocks' constant at scan point u on the window's breakpoint candidate
    set, or None when the window holds no candidate.  At u = 0 a window of
    a block's full width reads its rows' constants from log_constants(0)
    (the breakpoints are its candidate set there)."""
    best = (-1.0, None)
    for b, (blk, (ncols, _)) in enumerate(zip(blocks, window)):
        if not ncols:
            continue
        ls = blk.ls[:ncols]
        if u == 0.0 and ncols == blk.lnphi.shape[1]:
            rmax = blk.log_constants(0.0)
        else:
            lg = blk.lnphi[:, :ncols] - u * ls
            rmax = (_runmax(lg) - lg).max(axis=1)
        row = int(np.argmax(rmax))
        if float(rmax[row]) > best[0] + _TIE:
            _, s, t = _sup_ratio(blk.svals[:ncols], blk.lnphi[row, :ncols] - u * ls)
            best = (float(rmax[row]), (b, row, s, t))
    return best[1]


def _index_estimate(blocks, windows, C_cap, resolution, name) -> IndexEstimate:
    """The knee, cap, certificate and witness scans over a list of blocks.

    windows holds (gamma, [(ncols, kappa) per block]) for each window
    fraction; the knee rule picks the best gamma, the first in the menu at
    the largest knee point, and the cap threshold runs on the blocks' full
    width.  name(block, row) labels the witness curve.  The windows are
    scanned last first, each by a running-bound scan on the grid 2^-k (see
    family_index) whose floor is the best knee point so far: an earlier
    window counts only if it reaches that point, and then wins the tie.
    The scans share one block order, deepest level first (blocks come in
    level order), but each reads its blocks on its own.
    """
    lncap = math.log(C_cap)
    k = 14  # the least k with 2^-k <= 1e-4
    order = list(range(len(blocks)))[::-1]  # blocks come in level order: deepest first
    mono = all(blk.monotone for blk in blocks)  # then every row passes at u = 0
    u_hat, best = 0.0, None
    for i in reversed(range(len(windows))):
        u = _knee_scan(blocks, windows[i][1], order, k, lncap, u_hat)
        if u >= u_hat:  # the first best gamma: an earlier window wins a tie
            u_hat, best = u, i
    gamma_star, win_star = windows[best]

    # the cap threshold: Newton on C(u) from the failing u = 1 (see family_index)
    live, at = blocks, lambda u, live: _blocks_ok(live, u, lncap)  # live: the blocks an evaluation reads
    within = lambda c: c <= lncap and math.exp(c) <= C_cap
    prune = lambda live, keep: [blk.rows(k) for blk, k in zip(live, keep) if k.size]
    c = 0.0 if mono else at(0.0, live)[0]
    u_cap, failed = 0.0, []  # (u, the rows kept there) of each failing evaluation, u decreasing
    if within(c):
        u_cap, d, (c, slope, keep) = 1.0, 0.0, at(1.0, live)
        for _ in range(128):
            if within(c):
                break
            hi, live = u_cap, prune(live, keep)
            failed.append((hi, live))
            u = u_cap - ((c - lncap) / slope if slope else 0.0)
            ulp = u_cap - math.nextafter(u_cap, 0.0)
            # a Newton step below one float doubles the last such decrement d instead
            d = 0.0 if u < u_cap - ulp else 2.0 * d or ulp
            u_cap = max(0.0, u_cap - d if d else u)
            c, slope, keep = at(u_cap, live)
        else:
            raise FloatingPointError(f"cap threshold not reached in 128 steps, at u = {u_cap!r}")
        while d and math.nextafter(u_cap, 1.0) < hi:  # a doubling step passed: bisect up to hi
            u = 0.5 * (u_cap + hi)
            cu, _, keep = at(u, live)
            if within(cu):
                u_cap, c = u, cu
            else:
                hi, live = u, prune(live, keep)
                failed.append((hi, live))
    u_b = u_cap + 1e-3  # past u = 1 the first piece (through the origin) makes C infinite
    # the rows kept at the smallest failing u >= u_b hold the maximiser at u_b (see family_index)
    beyond = next((rows for u, rows in reversed(failed) if u >= u_b), None)
    if beyond is None and u_b <= 1.0:  # C(0) = c is beyond the cap: the rows it does not rule out
        # (a NaN row is kept, as a whole-block read would meet it)
        near = [~(blk.log_constants(0.0) + u_b * (blk.ls[-1] - blk.ls[0]) < c - 1e-9) for blk in blocks]
        beyond = [blk.rows(np.flatnonzero(k)) for blk, k in zip(blocks, near) if k.any()]
    c_beyond = at(u_b, beyond)[0] if u_b <= 1.0 else math.inf

    def cap_value(c):
        # beyond the float range the constant is reported as inf
        try:
            return math.exp(c)
        except OverflowError:
            return math.inf

    wit = _witness(blocks, win_star, u_hat)
    return IndexEstimate(
        delta_hat=u_hat,
        delta_cap=u_cap,
        cap=C_cap,
        gamma=gamma_star,
        resolution=resolution,
        witness=("", 0.0, 0.0) if wit is None else (name(wit[0], wit[1]), wit[2], wit[3]),
        cap_value_at=cap_value(c),
        cap_value_beyond=cap_value(c_beyond),
    )


def family_index(
    w: WeightGrid,
    C_cap: float = 16.0,
    gamma_grid: tuple[float, ...] = (1.0, 0.5, 0.25, 0.125),
) -> IndexEstimate:
    """Index estimate of the K-curve family {K(., w chi_Q; L1, Linf)}_Q.

    delta_hat is the largest delta admissible by the knee rule (see the
    module docstring) on the breakpoint set, found per window fraction gamma
    on the grid 2^-k of [0, 1], k = 14 the least with 2^-k <= 1e-4 (what a
    bisection of [0, 1] to 1e-4 returns); the best gamma is reported, the
    first in gamma_grid on a tie.
    delta_cap is the largest delta with family constant <= C_cap at
    gamma = 1 on the exact candidate set (breakpoints plus interior ratio
    minima), to float resolution, with its certificate.  The scans below
    write u for delta.

    Both admissible sets are prefixes of [0, 1], row by row:

      * a row's log-constant C(u) is the sup over s <= t of
        ln phi(s) - ln phi(t) + u ln(t/s), attained on the exact candidate
        set: a sup of nondecreasing affine functions of u, so convex and
        nondecreasing, and a cap failure persists at larger u;
      * the knee rule's least binding lever is the least slope among the
        lines attaining that max, its left derivative, which is
        nondecreasing; so is its reading within _TIE, as every shorter
        line falls further below a longer maximum at larger u.  A row
        failing the knee rule (a constant beyond the cap, or a nontrivial
        one with that lever above kappa) fails at every larger u.

    The cap threshold is Newton's method on the family's C(u) from the
    failing u = 1: ln(t/s) of a pair attaining C(u) is a subgradient, so the
    step u - (C(u) - ln C_cap) / ln(t/s) never passes the largest root, and
    lands on it where C is linear.  It ends at the first u with
    C <= ln C_cap and exp(C) <= C_cap as computed (exp(log(10)) > 10).
    Where C is flat within rounding a step can be below one float; the
    iterate then moves down by a decrement that doubles per such step, and
    once one passes, bisects back up to the last failing iterate: about
    2 log2 n evaluations for a flat stretch of n floats.  C(0) is checked
    first: no slope-0 pair (an acks curve's downward jump) then attains C
    at a failing u.  Pruned without changing any result:

      * a knee scan keeps a running bound G on its grid, a point at which
        every row read so far passes, and reads each block's window rows
        once, at G: a row passing there passes at every smaller u and is
        not read again.  The rows failing at G are bisected on the grid
        points of [0, G), each failing probe keeping only the rows failing
        there, and G falls to the largest point at which they all pass.
        So G ends at the largest grid point at which every row passes
        (0 if there is none; G = 0 ends the scan), whatever order the
        blocks and rows are read in;
      * the knee scans read the windows last first, each above a floor,
        the best knee point of the windows after it (0 for the last): the
        rows of a block failing at G are probed at the floor, a failure
        there ends the scan (the window falls short of a later one and is
        not reported), and otherwise they are bisected on [floor, G) only.
        A window reaching the floor is taken, so the first best gamma in
        the menu is reported, as a full scan of every window would report
        it: the estimate does not depend on the order in which the windows
        are scanned;
      * the knee scans visit the blocks in one order shared by every
        window, deepest level first in the first window scanned and
        fail-first after that, so a window starts at the block that bound
        the last;
      * the gamma = 1 blocks serve every window as column prefixes and the
        cap threshold, and hold log-values only;
      * no knee scan probes u = 0 on a monotone block, and no cap
        evaluation when every block is monotone;
      * a cap evaluation reads the rows above ln C_cap less 1e-12 at the
        last failing iterate, which hold the maximiser at every smaller u,
        as blocks of their own, built once per failing evaluation;
      * the value at u_cap + 1e-3 reads the rows kept at the smallest
        failing evaluation at or above it (u = 1, a Newton iterate or a
        bisection's failing end), which hold the maximiser there, as C is
        at least C(u_cap), within rounding of ln C_cap; when C(0) is
        already beyond the cap there is none, and it reads the rows whose
        C(0) plus 1e-3 times their block's log-window ls[-1] - ls[0]
        reaches the family's C(0) less 1e-9: a row's C rises no faster
        than that (every lever ln(t/s) lies in the window), and the
        family's C(1e-3) is at least its C(0);
      * a witness at delta_hat = 0 on a block's full width takes the row
        constants of the cap evaluation at u = 0 (log_constants), which
        is read once per block.

    The result is memoised on the weight grid, keyed by the curve kind and
    the parameters; each call returns its own copy.
    """
    return _family_estimate(w, "k", C_cap, gamma_grid)


def acks_index(
    w: WeightGrid,
    C_cap: float = 16.0,
    gamma_grid: tuple[float, ...] = (1.0, 0.5, 0.25, 0.125),
) -> IndexEstimate:
    """Index of the family {t (w chi_Q)*(t)}_Q, estimated as family_index
    estimates the K-curves, reported as lambda_hat = 1 - delta_hat: the
    exponent in the two-sided plateau-product comparison, with lambda_hat < 1
    exactly when the family index is positive."""
    est = _family_estimate(w, "acks", C_cap, gamma_grid)
    est.lambda_hat = 1.0 - est.delta_hat
    return est


def _family_estimate(w, kind, C_cap, gamma_grid) -> IndexEstimate:
    """The index estimate of w's curves of kind "k" or "acks", memoised on
    w keyed (kind, C_cap, gamma_grid); a copy of the memo entry."""
    if not C_cap > 1.0:
        raise ValueError("C_cap must exceed 1")
    if not gamma_grid or any(not 0.0 < g <= 1.0 for g in gamma_grid):
        raise ValueError("gamma_grid must be a nonempty subset of (0, 1]")
    key = (kind, C_cap, tuple(gamma_grid))
    if key not in w._indices:
        levels = range(w.base.level, w.L)  # a cell's curve has a single knot
        blocks = [_LevelBlock.of_level(w, lev, kind) for lev in levels]
        windows = [(g, [_level_window(w, lev, kind, g) for lev in levels]) for g in key[2]]
        windows = [(g, win) for g, win in windows if any(n for n, _ in win)]
        if not windows:
            raise ValueError("no gamma in the grid leaves any cube a candidate window")
        name = lambda b, row: _cube_at(w, levels[b], row).addr()
        w._indices[key] = _index_estimate(blocks, windows, C_cap, w.L, name)
    return dataclasses.replace(w._indices[key])


def _wright_omega(c: np.ndarray) -> np.ndarray:
    """The real Wright omega function, the solution of omega + ln omega = c
    (Corless and Jeffrey, "The Wright omega function", AISC 2002),
    elementwise.

    omega = e^c below c = -40, where e^-omega rounds to 1, and omega = c
    above c = 1e20, where ln omega is below half an ulp of c; so omega(-inf)
    = 0, omega(inf) = inf and NaN stays NaN.  In between: a regional start
    (e^c below c = -2, e^(2(c - 1)/3) up to 1, c - ln c + ln c / c above)
    and three Fritsch steps, the iteration of Lawrence, Corless and Jeffrey,
    ACM TOMS 38 (2012), Alg. 917.  Against
    mpmath's W0(e^c) this stays within (8 + 2|c|/(1 + omega)) 2^-53
    relative on [-708, 700], as scipy's wrightomega does; the |c| term is
    the conditioning of the rounded ln omega in the residual.
    """
    w = np.where(c > 1e20, c, np.exp(np.minimum(c, 0.0)))
    live = np.flatnonzero((c >= -40.0) & (c <= 1e20))
    x = c[live]
    big = np.maximum(x, 1.0)
    lx = np.log(big)
    small = np.exp(np.where(x < -2.0, x, 2.0 * (np.minimum(x, 1.0) - 1.0) / 3.0))
    v = np.where(x > 1.0, x - lx + lx / big, small)
    neg = x < 0.0  # there omega < |ln omega|: cancel x against ln omega first, exactly
    for _ in range(3):
        lv = np.log(v)
        r = np.where(neg, (x - lv) - v, (x - v) - lv)
        v1 = v + 1.0
        q = 2.0 * v1 * (v1 + 2.0 / 3.0 * r)
        v = v * (1.0 + r / v1 * (q - r) / (q - 2.0 * r))
    w[live] = v
    return w


def _hardy_rows(run: _PieceRun) -> list[np.ndarray]:
    """Per level of a run of curves (kcalc._PieceRun), each curve's
    reverse-Hardy residual

        sup over t in (0, s1[-1]] of (integral_0^t phi(s) ds/s) / phi(t),

    at least 1, of curves given as pieces phi = A + B s on [s0, s1] with
    phi(s1) = K, each curve's first piece from the origin with A = 0.
    Exact, closed form via the Wright omega function (_wright_omega, within
    (8 + 2|c|/(1 + omega)) 2^-53 relative): the integral N has exact piece
    antiderivatives (A log + B s), and on a piece g = phi^2/t - B N has
    g' = -A phi / t^2 <= 0, so N / phi has at most one interior maximum,
    where g = 0.  For A, B > 0 that root is

        t* = A / (B omega(c)),  c = ln(A / (B s0)) - 2 + (N(s0) - B s0) / A,

    omega the solution of omega + ln omega = c.  The supremum is the max of N / phi
    over the knots and every t* inside its piece, evaluated there directly
    rather than as 1 + omega(c), so an error in t* enters at second order.
    Past the running sums N every step is elementwise over all the pieces,
    so one _wright_omega call serves every curve and a curve's residual
    does not depend on what shares the call.
    """
    A, B, s0, s1, K = run.A, run.B, run.s0, run.s1, run.K
    with np.errstate(divide="ignore"):
        lograt = np.where(s0 > 0, np.log(s1 / np.where(s0 > 0, s0, 1.0)), 0.0)
    N = run.cumsum(A * lograt + B * (s1 - s0))
    rows, cols = np.nonzero((A > 0) & (B > 0) & (s0 > 0))  # never a curve's first piece
    a, b, lo, hi, n0 = A[rows, cols], B[rows, cols], s0[cols], s1[cols], N[rows, cols - 1]
    with np.errstate(divide="ignore", over="ignore"):
        t = a / (b * _wright_omega(np.log(a / (b * lo)) - 2.0 + (n0 - b * lo) / a))
    inside = (t > lo) & (t < hi)
    a, b, lo, t, n0 = a[inside], b[inside], lo[inside], t[inside], n0[inside]
    at = (n0 + a * np.log(t / lo) + b * (t - lo)) / (a + b * t)
    return run.split(np.maximum(run.cube_max(N / K, rows[inside], cols[inside], at), 1.0))


def hardy_residual(phi: ConcaveCurve) -> float:
    """sup over t in (0, domain_end] of (integral_0^t phi(s) ds/s) / phi(t).

    Exact, closed form via Wright omega: a one-curve run of _hardy_rows.
    The first piece must pass through the origin, so the head integral
    converges.
    """
    A, B, s0, s1 = phi.pieces()
    if A[0] != 0.0:
        raise ValueError("head integral diverges: first piece not through the origin")
    return float(_hardy_rows(_PieceRun.of_curve(A, B, s0, s1, phi.v[1:]))[0][0])
