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
reported indices are then exact by construction.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .grid import WeightGrid, _cube_at
from .kcalc import ConcaveCurve, CurveFamily, StepProductCurve

_TIE = 1e-9
_TRIVIAL = 1e-12


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
    the continuum constant is genuinely unbounded).  witness is the
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
# candidate sets

def _candidates_concave(K: ConcaveCurve, gamma_end: float):
    """Breakpoints of a concave curve within (0, gamma_end], appending the
    window endpoint when it is not a knot.  Returns (s, phi(s)).

    A window ending inside the first piece is fine: the curve is linear
    through the origin there, so the endpoint alone carries the supremum.
    """
    t = K.t
    inside = (t > 0) & (t <= gamma_end)
    s = t[inside]
    v = K.v[inside]
    if s.size == 0 or s[-1] < gamma_end:
        s = np.append(s, gamma_end)
        v = np.append(v, K.value(gamma_end))
    return s, v


def _minima_concave(K: ConcaveCurve, delta: float, gamma_end: float):
    """Interior minima of phi(s) s^-delta on the pieces of a concave curve,
    as (s*, phi(s*)) arrays (possibly empty)."""
    if not 0.0 < delta < 1.0:
        return np.empty(0), np.empty(0)
    A, B, s0, s1 = K.pieces()
    with np.errstate(divide="ignore", invalid="ignore"):
        tstar = delta * A / (B * (1.0 - delta))
    ok = (A > 0) & (B > 0) & (tstar > s0) & (tstar < s1) & (tstar < gamma_end)
    tstar = tstar[ok]
    return tstar, A[ok] / (1.0 - delta)  # phi(s*) s*^-delta = [A/(1-delta)] s*^-delta


def _sup_ratio(s: np.ndarray, lg: np.ndarray) -> tuple[float, float, float]:
    """sup over i <= j of lg_i - lg_j for candidates ordered by abscissa s;
    returns (log ratio, s_witness, t_witness), lexicographically first."""
    M = np.maximum.accumulate(lg)
    r = M - lg
    j = int(np.argmax(r))
    i = int(np.argmax(lg[: j + 1] >= M[j] - _TIE))
    return float(r[j]), float(s[i]), float(s[j])


def ai_constant(phi, delta: float, gamma: float = 1.0, domain_end: float | None = None) -> AiConstant:
    """Smallest almost-increase constant of phi on (0, gamma * domain_end].

    phi may be a ConcaveCurve, a StepProductCurve, a (t, values) pair of
    sample arrays (the constant is then taken over the sample set), or a
    callable (evaluated on a 4097-point geometric grid; domain_end required).
    The piecewise-linear forms are exact: the supremum is attained on
    breakpoints, two-sided values at jumps, and per-piece interior minima of
    the ratio.  Curves linear through the origin have an unbounded constant
    for delta > 1, reported as inf.
    """
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    if not 0.0 < gamma <= 1.0:
        raise ValueError("gamma must lie in (0, 1]")
    if isinstance(phi, ConcaveCurve):
        T = phi.domain_end if domain_end is None else domain_end
        end = gamma * T
        if delta > 1.0:
            return AiConstant(math.inf, 0.0, end)
        s, v = _candidates_concave(phi, end)
        ms, mphi_scaled = _minima_concave(phi, delta, end)
        if ms.size:
            lg_min = np.log(mphi_scaled) - delta * np.log(ms)
            s_all = np.concatenate([s, ms])
            lg_all = np.concatenate([np.log(v) - delta * np.log(s), lg_min])
            order = np.argsort(s_all, kind="stable")
            s, lg = s_all[order], lg_all[order]
        else:
            lg = np.log(v) - delta * np.log(s)
    elif isinstance(phi, StepProductCurve):
        T = phi.domain_end if domain_end is None else domain_end
        end = gamma * T
        if delta > 1.0:
            return AiConstant(math.inf, 0.0, end)
        s, v = phi.two_sided(end)
        if np.any(v <= 0):
            raise ValueError("curve must be positive on the window")
        lg = np.log(v) - delta * np.log(s)
    elif callable(phi):
        if domain_end is None:
            raise ValueError("domain_end required for callable curves")
        end = gamma * domain_end
        s = np.geomspace(end * 1e-9, end, 4097)
        v = np.asarray([phi(x) for x in s], dtype=np.float64)
        if np.any(v <= 0):
            raise ValueError("curve must be positive on the window")
        lg = np.log(v) - delta * np.log(s)
    else:
        t, v = phi
        t = np.asarray(t, dtype=np.float64)
        v = np.asarray(v, dtype=np.float64)
        T = t[-1] if domain_end is None else domain_end
        end = gamma * T
        keep = (t > 0) & (t <= end)
        s, v = t[keep], v[keep]
        if s.size == 0:
            raise ValueError("window ends below the first sample")
        if np.any(v <= 0):
            raise ValueError("curve must be positive on the window")
        lg = np.log(v) - delta * np.log(s)
    rlog, sw, tw = _sup_ratio(s, lg)
    return AiConstant(math.exp(rlog), sw, tw)


# ---------------------------------------------------------------------------
# rectangular per-level machinery for cube families

class _LevelBlock:
    """Candidate data for all cubes of one level on the full window, rectangular.

    lnphi has one row per cube; ls holds the shared log-abscissae, in
    increasing order.  The window (0, gamma |Q|] of a smaller gamma is a
    column prefix (see window), so one block serves every gamma.  For kind
    "k" the exact mode adds per-piece interior minima, whose abscissae solve
    s* = u a / (b (1 - u)) and so depend on the scan variable; lnA/lnB/a_pos
    hold the piece data to rebuild them.

    For kind "acks" the columns alternate the left and right values of
    t (w chi_Q)*(t) at each plateau knot.  The right value at a window's end
    lies outside the window and is left out.  Putting the left value there
    again would change nothing: a column repeating its left neighbour at the
    same abscissa has the same ratio r and the same lever, and the first
    maximum of r never falls on it.
    """

    def __init__(self, w: WeightGrid, level: int, kind: str):
        vals, K = w.sorted_level(level)
        m = vals.shape[1]
        self.empty = m < 2
        if self.empty:
            return
        h = w.cell_measure
        self.level = level
        self.kind = kind
        self.m = m
        self.h = h
        self.cube_measure = 2.0 ** (-w.d * level)
        s = np.arange(1, m + 1) * h
        if kind == "k":
            self.lnphi = np.log(K)
            self.svals = s
            # pieces 2..m: phi = a + b s on [s_{k-1}, s_k]
            a = K[:, :-1] - vals[:, 1:] * s[:-1]
            self.a_pos = a > 0
            with np.errstate(divide="ignore"):
                self.lnA = np.where(self.a_pos, np.log(np.where(self.a_pos, a, 1.0)), -np.inf)
                self.lnB = np.log(vals[:, 1:])
        else:
            lnphi = np.empty((vals.shape[0], 2 * m - 1))
            lnphi[:, 0::2] = np.log(s[None, :] * vals)
            lnphi[:, 1::2] = np.log(s[None, :-1] * vals[:, 1:])
            self.lnphi = lnphi
            self.svals = np.repeat(s, 2)[:-1]
            self.a_pos = None
        self.ls = np.log(self.svals)

    def window(self, gamma: float) -> tuple[int, float]:
        """(ncols, kappa) of the window (0, gamma |Q|]: its candidates are
        the first ncols columns (0 when the window holds no knot), and kappa
        is half its log-window log(gamma |Q| / h), the knee rule's lever bound."""
        kcols = int(round(gamma * self.m))
        if kcols < 1:
            return 0, 0.0
        ncols = kcols if self.kind == "k" else 2 * kcols - 1
        return ncols, 0.5 * math.log(gamma * self.cube_measure / self.h)

    def lg(self, u: float, exact: bool) -> np.ndarray:
        """Log-ratios lnphi - u ln s of the full window's candidates at scan
        point u, in abscissa order.

        exact mode interleaves the interior ratio minima between knots.
        """
        lg_k = self.lnphi - u * self.ls[None, :]
        if not exact or self.a_pos is None or not 0.0 < u < 1.0:
            return lg_k
        lsk = self.ls
        with np.errstate(invalid="ignore"):
            lnt = (math.log(u) - math.log1p(-u)) + self.lnA - self.lnB
            valid = self.a_pos & (lnt > lsk[None, :-1]) & (lnt < lsk[None, 1:])
            # g(s*) = [a / (1 - u)] s*^{-u}
            lg_min = np.where(valid, self.lnA - math.log1p(-u) - u * lnt, 0.0)
        n, m = lg_k.shape
        lg = np.empty((n, 2 * m - 1))
        lg[:, 0::2] = lg_k
        lg[:, 1::2] = np.where(valid, lg_min, lg_k[:, 1:])
        return lg


def _blocks_ok(blocks, u, lncap_q, exact):
    """Whether the family constant at scan point u is within the cap, with
    the max log-ratio over the family (base scale), on the full window."""
    cmax = 0.0
    for blk in blocks:
        lg = blk.lg(u, exact)
        cmax = max(cmax, float((np.maximum.accumulate(lg, axis=1) - lg).max()))
    return cmax <= lncap_q + 1e-15, cmax


def _knee_ok(blocks, u, windows, lncap_q, triv_tol):
    """Knee admissibility at scan point u of several windows in one pass.

    windows[k][b] is the (ncols, kappa) of window k on block b.  The ratio
    arrays are built once per block on the widest window still undecided;
    each window reads its own column prefix, where they equal the arrays of
    that window's own candidates.  A window fails at the first block with a
    cube beyond the cap, or with a binding pair whose lever exceeds kappa.
    Returns one (ok, cap_failed) pair per window; cap_failed marks a failure
    of the first kind, which persists at every larger u.
    """
    out = [(True, False)] * len(windows)
    pending = list(range(len(windows)))
    for b, blk in enumerate(blocks):
        live = [k for k in pending if windows[k][b][0]]
        if not live:
            continue
        width = max(windows[k][b][0] for k in live)
        lg = blk.lnphi[:, :width] - u * blk.ls[:width]
        r = np.maximum.accumulate(lg, axis=1) - lg
        lever = None
        for k in live:
            ncols, kappa = windows[k][b]
            rk = r[:, :ncols]
            rmax = rk.max(axis=1)
            top = rmax.max()
            if top > lncap_q + 1e-15:
                out[k] = (False, True)
                pending.remove(k)
                continue
            if top <= triv_tol:
                continue
            if lever is None:
                # lever of each column: log-distance back to the last column
                # achieving the running max
                ilast = np.maximum.accumulate(np.where(r <= _TIE, np.arange(width), -1), axis=1)
                lever = blk.ls[:width] - blk.ls[ilast]
            binding = rk >= (rmax[:, None] - _TIE)
            lev_min = np.where(binding, lever[:, :ncols], np.inf).min(axis=1)
            if lev_min[rmax > triv_tol].max() > kappa:
                out[k] = (False, False)
                pending.remove(k)
        if not pending:
            break
    return out


_GRID = np.linspace(0.0, 1.0, 65)


def _bisect(ok_fn, j: int, tol: float) -> float:
    """Bisection to tol between grid point j (admissible) and the next."""
    lo, hi = float(_GRID[j]), float(_GRID[min(j + 1, 64)])
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if ok_fn(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _scan_largest(ok_fn, tol: float, n: int = 1):
    """Largest admissible u in [0, 1] for n criteria scanned together:
    coarse 1/64 grid plus bisection.

    ok_fn(u, ks) evaluates the criteria ks at u in one pass and returns one
    (ok, cap_failed) pair per criterion.  A cap failure persists at every
    larger u (each pair term of the ratio is nondecreasing in u), so a
    criterion's remaining grid points are set False without evaluation.
    Returns one (u_hat, monotone) pair per criterion; monotone means
    admissibility was a prefix of the grid, which is what makes the
    bisection meaningful.  A skipped tail is all False, so it cannot clear
    the flag.
    """
    oks = [[] for _ in range(n)]
    live = list(range(n))
    for x in _GRID:
        if not live:
            break
        res = ok_fn(float(x), live)
        for k, (ok, _) in zip(live, res):
            oks[k].append(ok)
        live = [k for k, (_, capped) in zip(live, res) if not capped]
    out = []
    for k, o in enumerate(oks):
        o = o + [False] * (_GRID.size - len(o))
        monotone = all(a or not b for a, b in zip(o, o[1:]))  # no False -> True
        if not o[0]:
            out.append((0.0, monotone))
        elif all(o):
            out.append((1.0, monotone))
        else:
            j = max(i for i, v in enumerate(o) if v)
            out.append((_bisect(lambda u: ok_fn(u, [k])[0][0], j, tol), monotone))
    return out


def _scan_prefix(ok_fn, tol: float) -> float:
    """Largest admissible u in [0, 1] for a criterion whose admissible set
    is a prefix of [0, 1]: binary search for the last admissible point of
    the same 1/64 grid, then the same bisection as _scan_largest, so the
    result equals that of the full grid scan."""
    if not ok_fn(0.0):
        return 0.0
    if ok_fn(1.0):
        return 1.0
    lo, hi = 0, _GRID.size - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ok_fn(float(_GRID[mid])):
            lo = mid
        else:
            hi = mid
    return _bisect(ok_fn, lo, tol)


def _family_witness(blocks, window, w, u):
    """Lexicographically first (cube addr, s, t) achieving the family
    constant at scan point u, on the window's breakpoint candidate set."""
    best = (-1.0, None)
    for blk, (ncols, _) in zip(blocks, window):
        if not ncols:
            continue
        lg = blk.lnphi[:, :ncols] - u * blk.ls[None, :ncols]
        M = np.maximum.accumulate(lg, axis=1)
        r = M - lg
        rmax = r.max(axis=1)
        row = int(np.argmax(rmax))
        if float(rmax[row]) > best[0] + _TIE:
            j = int(np.argmax(r[row]))
            i = int(np.argmax(lg[row, : j + 1] >= M[row, j] - _TIE))
            best = (float(rmax[row]), (blk.level, row, blk.svals[i], blk.svals[j]))
    if best[1] is None:
        return ("", 0.0, 0.0)
    level, row, s, t = best[1]
    return (_cube_at(w, level, row).addr(), float(s), float(t))


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
        scan is a binary search over the same grid (_scan_prefix);
      * a knee-admissible u is cap-admissible on that window's breakpoint
        set, and cap failure there is monotone in u by the same argument,
        so a knee scan stops at its first cap failure;
      * the gamma = 1 blocks serve every window as column prefixes and the
        cap scan, and one pass per grid point decides all gammas.

    The result is memoised on the weight grid, keyed by the kind and the
    parameters; each call returns its own copy.
    """
    w = F.w
    beta = F.beta if beta is None else beta
    q = F.q if q is None else q
    if not 0.0 <= beta < 1.0:
        raise ValueError("beta must lie in [0, 1)")
    if q < 1.0:
        raise ValueError("q must be at least 1")
    if C_cap <= 1.0:
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
    lncap_q = math.log(C_cap) / q
    triv_tol = _TRIVIAL / q
    utol = 1e-4 / q
    levels = range(w.base.level, w.L + 1)
    blocks = [b for b in (_LevelBlock(w, lev, kind) for lev in levels) if not b.empty]
    windows = [(g, [b.window(g) for b in blocks]) for g in gamma_grid]
    windows = [(g, win) for g, win in windows if any(n for n, _ in win)]
    if not windows:
        raise ValueError("no gamma in the grid leaves any cube a candidate window")

    knee = lambda u, ks: _knee_ok(blocks, u, [windows[k][1] for k in ks], lncap_q, triv_tol)
    best = None  # (u_hat, monotone, gamma, window)
    for (gamma, win), (u_hat, mono) in zip(windows, _scan_largest(knee, utol, len(windows))):
        if best is None or u_hat > best[0]:
            best = (u_hat, mono, gamma, win)
    u_hat, monotone, gamma_star, win_star = best

    # cap-threshold estimate at gamma = 1, exact candidate set
    exact_mode = kind == "k"
    u_cap = _scan_prefix(lambda u: _blocks_ok(blocks, u, lncap_q, exact_mode)[0], utol)
    c_at = math.exp(q * _blocks_ok(blocks, u_cap, lncap_q, exact_mode)[1])
    if u_cap + 1e-3 / q <= 1.0:
        c_beyond = math.exp(q * _blocks_ok(blocks, u_cap + 1e-3 / q, lncap_q, exact_mode)[1])
    else:
        # past u = 1 the first piece (linear through the origin) makes the
        # continuum constant infinite
        c_beyond = math.inf

    return IndexEstimate(
        delta_hat=q * (u_hat - beta),
        delta_cap=q * (u_cap - beta),
        cap=C_cap,
        gamma=gamma_star,
        resolution=w.L,
        witness=_family_witness(blocks, win_star, w, u_hat),
        monotone=monotone,
        cap_value_at=c_at,
        cap_value_beyond=c_beyond,
    )


# ---------------------------------------------------------------------------
# single curves

def _single_candidates(phi, gamma: float):
    """(s, lnphi_at_s, h, T) candidate data for one curve."""
    if isinstance(phi, ConcaveCurve):
        T = phi.domain_end
        s, v = _candidates_concave(phi, gamma * T)
        return s, np.log(v), float(s[0]), T
    if isinstance(phi, StepProductCurve):
        T = phi.domain_end
        s, v = phi.two_sided(gamma * T)
        return s, np.log(v), float(s[0]), T
    t, v = phi
    t = np.asarray(t, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    T = float(t[-1])
    keep = (t > 0) & (t <= gamma * T)
    s, vv = t[keep], v[keep]
    if s.size == 0:
        raise ValueError("window ends below the first sample")
    if np.any(vv <= 0):
        raise ValueError("curve must be positive on the window")
    return s, np.log(vv), float(s[0]), T


def single_index(phi, C_cap: float = 16.0, gamma: float = 1.0) -> IndexEstimate:
    """Index of one curve: the one-member family estimate with fixed gamma.

    phi may be a ConcaveCurve, a StepProductCurve, or a (t, values) sample
    pair.  The knee rule and the cap threshold run on the curve's candidate
    set, with the interior ratio minima included for concave curves in the
    cap search; resolution is the dyadic count log2(window / first knot).
    The scans are pruned as in family_index.
    """
    if C_cap <= 1.0:
        raise ValueError("C_cap must exceed 1")
    if not 0.0 < gamma <= 1.0:
        raise ValueError("gamma must lie in (0, 1]")
    s, lnphi, h, T = _single_candidates(phi, gamma)
    ls = np.log(s)
    kappa = 0.5 * math.log(gamma * T / h)
    lncap = math.log(C_cap)

    concave = isinstance(phi, ConcaveCurve)

    def ratio_at(u: float, exact: bool):
        if exact and concave and 0.0 < u < 1.0:
            ms, mscaled = _minima_concave(phi, u, gamma * T)
            if ms.size:
                s_all = np.concatenate([s, ms])
                lg_all = np.concatenate([lnphi - u * ls, np.log(mscaled) - u * np.log(ms)])
                order = np.argsort(s_all, kind="stable")
                return s_all[order], lg_all[order]
        return s, lnphi - u * ls

    def ok_knee(u: float, ks) -> list[tuple[bool, bool]]:
        ss, lg = ratio_at(u, exact=False)
        M = np.maximum.accumulate(lg)
        r = M - lg
        rmax = float(r.max())
        if rmax > lncap + 1e-15:
            return [(False, True)]
        if rmax <= _TRIVIAL:
            return [(True, False)]
        lss = np.log(ss)
        cols = np.arange(lg.size)
        ilast = np.maximum.accumulate(np.where(M - lg <= _TIE, cols, -1))
        lever = lss - lss[ilast]
        binding = r >= rmax - _TIE
        return [(float(np.where(binding, lever, np.inf).min()) <= kappa, False)]

    def cmax_at(u: float) -> float:
        ss, lg = ratio_at(u, exact=True)
        return float(np.max(np.maximum.accumulate(lg) - lg))

    [(u_hat, mono)] = _scan_largest(ok_knee, 1e-4)
    u_cap = _scan_prefix(lambda u: cmax_at(u) <= lncap + 1e-15, 1e-4)
    c_at = math.exp(cmax_at(u_cap))
    c_beyond = math.exp(cmax_at(u_cap + 1e-3)) if u_cap + 1e-3 <= 1.0 else math.inf

    ss, lg = ratio_at(u_hat, exact=False)
    rlog, sw, tw = _sup_ratio(ss, lg)
    return IndexEstimate(
        delta_hat=u_hat,
        delta_cap=u_cap,
        cap=C_cap,
        gamma=gamma,
        resolution=int(round(math.log2(max(gamma * T / h, 1.0)))),
        witness=("curve", sw, tw),
        monotone=mono,
        cap_value_at=c_at,
        cap_value_beyond=c_beyond,
    )


def samko_alpha(phi, h_grid=None, x_grid=(2.0, 4.0, 8.0, 16.0)) -> float:
    """Dilation-index estimate sup_x log(min_h phi(x h) / phi(h)) / log x.

    The lim inf over h -> 0 of the dilation ratio is replaced by a minimum
    over a decade-spaced h grid floored at four knot spacings (below the
    floor the curve is an artifact of its discretization); the sup over
    dilation factors runs over x_grid.
    """
    if isinstance(phi, ConcaveCurve):
        T = phi.domain_end
        gap = float(np.min(np.diff(phi.t)))
        floor = 4.0 * gap
        ev = phi.value
    elif isinstance(phi, StepProductCurve):
        T = phi.domain_end
        edges = np.concatenate(([0.0], phi.breaks))
        gap = float(np.min(np.diff(edges)))
        floor = 4.0 * gap
        ev = phi.value
    else:
        t, v = phi
        t = np.asarray(t, dtype=np.float64)
        v = np.asarray(v, dtype=np.float64)
        T = float(t[-1])
        # sampled pairs are undefined below their first abscissa
        floor = max(4.0 * float(np.min(np.diff(t))), float(t[0]))
        ev = lambda s: np.interp(s, t, v)
    if any(x <= 1.0 for x in x_grid):
        raise ValueError("dilation factors must exceed 1")
    if h_grid is None:
        h_grid = []
        hcur = T
        while hcur >= floor:
            h_grid.append(hcur)
            hcur /= 10.0
        h_grid = h_grid[1:]  # h = T leaves no room for any x h <= T
    best = None
    for x in x_grid:
        ratios = [float(ev(x * h)) / float(ev(h)) for h in h_grid if x * h <= T]
        if not ratios:
            continue
        cand = math.log(min(ratios)) / math.log(x)
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


def hardy_residual(phi: ConcaveCurve, domain_end: float | None = None) -> float:
    """sup over t in (0, domain_end] of (integral_0^t phi(s) ds/s) / phi(t).

    Exact per-piece integration (a log + b s antiderivatives; the first piece
    is linear through the origin, so the head integral converges).  The
    supremum is sampled at breakpoints and per-piece geometric midpoints; on
    each piece the ratio has at most one interior critical point, which the
    midpoint approximates within the scan tolerances used downstream.
    """
    A, B, s0, s1 = phi.pieces()
    if A[0] != 0.0:
        raise ValueError("head integral diverges: first piece not through the origin")
    T = phi.domain_end if domain_end is None else domain_end
    with np.errstate(divide="ignore", invalid="ignore"):
        inc = np.where(s0 > 0, A * np.log(np.where(s0 > 0, s1 / np.where(s0 > 0, s0, 1.0), 1.0)), 0.0)
    inc = inc + B * (s1 - s0)
    N = np.concatenate(([0.0], np.cumsum(inc)))  # integral at the knots
    keep = s1 <= T * (1.0 + 1e-12)
    best = 0.0
    # knots
    kv = phi.v[1:][keep]
    ratios = N[1:][keep] / kv
    if ratios.size:
        best = float(ratios.max())
    # geometric midpoints of interior pieces
    mids = np.sqrt(np.maximum(s0, 1e-300) * s1)
    ok = (s0 > 0) & keep
    if np.any(ok):
        tm = mids[ok]
        Nm = N[:-1][ok] + A[ok] * np.log(tm / s0[ok]) + B[ok] * (tm - s0[ok])
        vm = A[ok] + B[ok] * tm
        best = max(best, float((Nm / vm).max()))
    return max(best, 1.0)
