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
    delta_hat.  monotone is always true: knee and cap admissibility are
    prefixes of the scan by proof (see family_index), which is what makes
    each scan one bisection; reports keep the key.
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


def _take_rows(x: np.ndarray, idx: np.ndarray | None) -> np.ndarray:
    """The rows idx of x (all for None) in x's layout: a column-major x
    gathers the columns of its row-major transpose."""
    if idx is None:
        return x
    return x.T.take(idx, axis=1).T if x.flags.f_contiguous else x.take(idx, axis=0)


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
        out.lnphi = _take_rows(self.lnphi, idx)
        if self.lnA is not None:
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


def _knee_fails(lnphi, ls, u, kappa, lncap_q, triv_tol) -> np.ndarray:
    """The rows of lnphi (a block's rows on a window's columns, with their
    log-abscissae ls) failing the knee rule at scan point u: a constant
    beyond the cap, or a nontrivial one whose binding pairs all have a lever
    above kappa.  Row by row, so no row's verdict depends on the others."""
    lg = lnphi - u * ls
    r = _runmax(lg) - lg
    rmax = r.max(axis=1)
    fail = rmax > lncap_q + 1e-15
    far = (rmax > triv_tol) & ~fail
    if far.any():
        binding = r >= (rmax[:, None] - _TIE)
        lev_min = np.where(binding, _lever(r, ls), np.inf).min(axis=1)
        fail |= far & (lev_min > kappa)
    return np.flatnonzero(fail)


def _scan_prefix(ok_fn, tol: float) -> float:
    """Largest admissible u in [0, 1] for a criterion whose admissible set
    is a prefix of [0, 1]: one bisection of [0, 1] to tol.  As tol < 1/64
    (q >= 1), its first six probes are a binary search over the 1/64 grid,
    so the result equals that of the full grid scan."""
    if not ok_fn(0.0):
        return 0.0
    if ok_fn(1.0):
        return 1.0
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if ok_fn(mid) else (lo, mid)
    return lo


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
    order = list(range(len(blocks)))  # the knee probes' fail-first block order

    def knee_scan(win):
        live = [None] * len(blocks)  # per block, the rows a knee probe reads (None: all)

        def knee_ok(u):
            # later probes lie below a failing one: of each block it read,
            # only the rows failing there can fail again
            passed = []
            for b in order:
                ncols, kappa = win[b]
                if not ncols or (live[b] is not None and not live[b].size):
                    continue
                lnphi = _take_rows(blocks[b].lnphi[:, :ncols], live[b])
                fails = _knee_fails(lnphi, blocks[b].ls[:ncols], u, kappa, lncap_q, triv_tol)
                if fails.size:
                    for a in passed:
                        live[a] = fails[:0]
                    live[b] = fails if live[b] is None else live[b][fails]
                    order.insert(0, order.pop(order.index(b)))
                    return False
                passed.append(b)
            return True

        return _scan_prefix(knee_ok, utol)

    u_knee = [knee_scan(win) for _, win in windows]
    best = max(range(len(windows)), key=u_knee.__getitem__)  # the first best gamma
    u_hat, (gamma_star, win_star) = u_knee[best], windows[best]

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
        monotone=True,
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
    one bisection of [0, 1] in the scan variable to 1e-4 / q, and the best
    gamma is reported.  delta_hat uses the knee rule described in the module
    docstring on the breakpoint set.  delta_cap uses admissibility "family
    constant <= C_cap" at gamma = 1 on the exact candidate set (breakpoints
    plus interior ratio minima), and carries the bracketing certificate.
    Both are returned in the delta units of the (beta, q) transform, where
    exactness of the shift and power identities is by construction: the
    scan runs in the base variable u = beta + delta/q.

    Both admissible sets are prefixes of [0, 1], row by row:

      * a row's log-constant at u on its breakpoints is the max over i <= j
        of lg_i - lg_j = lnphi_i - lnphi_j + u (ln s_j - ln s_i), a max of
        nondecreasing affine functions of u, so convex and nondecreasing.
        The exact candidate set attains the continuum supremum, which is
        therefore nondecreasing too: a cap failure persists at larger u;
      * the knee rule's least binding lever is the least slope among the
        lines attaining that max, its left derivative, which is
        nondecreasing; so is its reading within _TIE, as every shorter
        line falls further below a longer maximum at larger u.  A row
        failing the knee rule (a constant beyond the cap, or a nontrivial
        one with that lever above kappa) fails at every larger u.

    So each scan is one bisection (_scan_prefix), pruned without changing
    any result:

      * every probe after a failing one lies below it, so a probe reads,
        of each block, only the rows that failed the last failing probe
        reading that block, or none if that block passed there;
      * a knee probe visits the blocks fail-first, in one order shared by
        every window, and stops at its first failing block: ok is an AND
        over blocks, and the blocks it skips keep their rows, a superset of
        those failing at it;
      * the gamma = 1 blocks serve every window as column prefixes and the
        cap scan;
      * cap probes after a failing one read only its rows above the cap
        less 1e-12.

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
