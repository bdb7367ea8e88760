"""Almost-increase constants and index estimators.

The analytic oracles: the constant-weight K-curve has family index 1 with
constant 1; the K-curve of step:2,1 has its ratio's supremum at an interior
minimum in closed form; the cap threshold of pow:a is 1 + a + 4/L; the
reverse Hardy residual of s^(1/2) is 2. Estimator metadata is pinned down
too: the bracketing certificate around the cap threshold, witness
determinism, and scaling invariance.
"""

import dataclasses
import hashlib
import itertools
import math
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import random_grids
from rhlab import indices
from rhlab.cli import main
from rhlab.grid import WeightGrid, _cube_at, level_cubes, make_grid
from rhlab.indices import (
    IndexEstimate,
    _LevelBlock,
    acks_index,
    family_index,
    hardy_residual,
)
from rhlab.kcalc import ConcaveCurve, _level_pieces, _PieceRun, k_l1_linf
from rhlab.weights import hardy_residual_sup, standard_corpus


# ---------------------------------------------------------------------------
# almost-increase constants on a level block


def test_ai_sees_interior_minimum():
    # K of step:2,1 is 0.5 + s on [1/2, 1]; at delta 0.6 the ratio
    # K(s) s^-delta dips inside that piece, to its minimum at s* = 0.75
    w = make_grid(1, 1, "step:2,1")
    lg, s = _LevelBlock.of_level(w, 0, "k").lg(0.6, with_s=True)
    rlog, sw, tw = indices._sup_ratio(s[0], lg[0])
    assert math.isclose(math.exp(rlog), 0.5**-0.6 / (1.25 * 0.75**-0.6), rel_tol=1e-12)
    assert sw == 0.5 and math.isclose(tw, 0.75, rel_tol=1e-12)


# ---------------------------------------------------------------------------
# family_index


def test_family_index_const():
    w = make_grid(1, 6, "const:1")
    est = family_index(w)
    assert abs(est.delta_hat - 1.0) <= 1e-4
    assert est.cap == 16.0
    # the constant family is almost increasing with constant exactly 1
    assert est.cap_value_at <= 1.0 + 1e-12


def test_family_index_pow_half():
    w = make_grid(1, 10, "pow:-0.5")
    est = family_index(w)
    assert abs(est.delta_hat - 0.5) <= 0.05


def test_family_index_certificate():
    # the certificate holds as computed, with no slack on the cap, also
    # where exp(log(cap)) > cap (cap 10 and 3)
    for spec, cap in itertools.product(
        ("step:2,1", "rand:61:lognormal:1", "pow:-0.5", "rand:62:lognormal:0.3", "rand:17:lognormal:0.5"), (16.0, 10.0, 3.0)
    ):
        w = make_grid(1, 7, spec)
        ests = [family_index(w, C_cap=cap), acks_index(w, C_cap=cap)]
        for est in ests:
            # delta_cap = 0 where the constant at u = 0 is beyond the cap
            # already (acks jumps), and then the first bound cannot hold
            assert est.cap_value_at <= est.cap or est.delta_cap == 0.0
            if math.isfinite(est.cap_value_beyond):
                assert est.cap_value_beyond > est.cap
        assert ests[0].delta_cap >= ests[0].delta_hat - 1e-12


def test_family_index_scaling_invariance():
    w = make_grid(1, 7, "rand:83:lognormal:1")
    ref = family_index(w)
    for c in (1e-3, 7.0, 1e4):
        ws = WeightGrid(w.d, w.L, w.cells * c, label="scaled")
        est = family_index(ws)
        assert est.delta_hat == ref.delta_hat
        assert est.witness == ref.witness


def test_family_index_witness_deterministic():
    w = make_grid(2, 4, "rand:97:lognormal:1")
    a = family_index(w)
    b = family_index(w)
    assert a.witness == b.witness
    assert a.delta_hat == b.delta_hat
    # witness names a cube of the grid
    addr, s, t = a.witness
    assert ":" in addr and 0 < s <= t


def test_family_index_validation():
    w = make_grid(1, 4, "const:1")
    with pytest.raises(ValueError):
        family_index(w, C_cap=0.5)
    with pytest.raises(ValueError):
        family_index(w, gamma_grid=())


@given(st.integers(0, 10**6))
@settings(max_examples=15)
def test_family_index_in_range(seed):
    w = make_grid(1, 6, f"rand:{seed}:lognormal:1")
    est = family_index(w)
    assert 0.0 <= est.delta_hat <= 1.0


# ---------------------------------------------------------------------------
# the pruned, shared u-scan against an exhaustive reference
#
# The reference rebuilds every gamma's own candidate blocks, scans all 65
# grid points of each knee and cap criterion, and bisects, as the estimator
# did before the cap scan became a binary search, the knee scans stopped at
# their first cap failure and the gammas came to share one set of blocks.


def _ref_windows(w, kind, gamma):
    """Per-gamma candidate blocks: (level, lnphi, ls, svals, kappa)."""
    out = []
    for lev in range(w.base.level, w.L + 1):
        vals, K = w.sorted_level(lev)
        n, m = vals.shape
        kcols = int(round(gamma * m))
        if kcols < 1 or m < 2:
            continue
        h = w.cell_measure
        s = np.arange(1, kcols + 1) * h
        if kind == "k":
            lnphi, sv = np.log(K[:, :kcols]), s
        else:
            left = s * vals[:, :kcols]
            right = left.copy()  # the right value at the window end stays left
            right[:, :-1] = s[:-1] * vals[:, 1:kcols]
            lnphi = np.empty((n, 2 * kcols))
            lnphi[:, 0::2], lnphi[:, 1::2] = np.log(left), np.log(right)
            sv = np.repeat(s, 2)
        kappa = 0.5 * math.log(gamma * (2.0 ** (-w.d * lev)) / h)
        out.append((lev, lnphi, np.log(sv), sv, kappa))
    return out


def _ref_knee_ok(wins, u, lncap, triv):
    for _, lnphi, ls, _, kappa in wins:
        lg = lnphi - u * ls
        r = np.maximum.accumulate(lg, axis=1) - lg
        rmax = r.max(axis=1)
        ok = rmax <= lncap + 1e-15
        need = ok & (rmax > triv)
        if need.any():
            cols = np.arange(lg.shape[1])
            ilast = np.maximum.accumulate(np.where(r <= 1e-9, cols, -1), axis=1)
            lever = ls - ls[ilast]
            lev_min = np.where(r >= rmax[:, None] - 1e-9, lever, np.inf).min(axis=1)
            ok = np.where(need, lev_min <= kappa, ok)
        if not ok.all():
            return False
    return True


def _ref_scan(ok_fn, tol):
    grid = np.linspace(0.0, 1.0, 65)
    oks = [ok_fn(float(x)) for x in grid]
    monotone = all(a or not b for a, b in zip(oks, oks[1:]))
    if not oks[0]:
        return 0.0, monotone
    if all(oks):
        return 1.0, monotone
    j = max(i for i, v in enumerate(oks) if v)
    lo, hi = float(grid[j]), float(grid[min(j + 1, 64)])
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if ok_fn(mid) else (lo, mid)
    return lo, monotone


def _ref_witness(w, wins, u):
    best = (-1.0, None)
    for lev, lnphi, ls, sv, _ in wins:
        lg = lnphi - u * ls
        M = np.maximum.accumulate(lg, axis=1)
        r = M - lg
        rmax = r.max(axis=1)
        row = int(np.argmax(rmax))
        if rmax[row] > best[0] + 1e-9:
            j = int(np.argmax(r[row]))
            i = int(np.argmax(lg[row, : j + 1] >= M[row, j] - 1e-9))
            best = (float(rmax[row]), (lev, row, sv[i], sv[j]))
    lev, row, s, t = best[1]
    return (level_cubes(w, lev)[row].addr(), float(s), float(t))


def _ref_family_index(w, kind, C_cap, gamma_grid):
    lncap, triv, tol = math.log(C_cap), 1e-12, 1e-4
    best = None
    for gamma in gamma_grid:
        wins = _ref_windows(w, kind, gamma)
        if wins:
            u, mono = _ref_scan(lambda u: _ref_knee_ok(wins, u, lncap, triv), tol)
            if best is None or u > best[0]:
                best = (u, mono, gamma, wins)
    u_hat, mono, gamma, wins = best
    blocks = [_FrozenBlock.of_level(w, lev, kind) for lev in range(w.base.level, w.L)]
    cap = lambda u: _frozen_blocks_ok(blocks, u, lncap)
    u_cap, mono_cap = _ref_scan(lambda u: cap(u)[0], tol)
    assert mono and mono_cap  # both admissible sets are prefixes of the grid
    beyond = u_cap + 1e-3
    return IndexEstimate(
        delta_hat=u_hat,
        delta_cap=u_cap,
        cap=C_cap,
        gamma=gamma,
        resolution=w.L,
        witness=_ref_witness(w, wins, u_hat),
        cap_value_at=math.exp(cap(u_cap)[1]),
        cap_value_beyond=math.exp(cap(beyond)[1]) if beyond <= 1.0 else math.inf,
    )


# The cap threshold is a Newton root to float resolution, where the frozen
# and reference scans bisect to 1e-4: every other field of an estimate
# must equal theirs bit for bit, and the cap fields must meet the contract
# below, with the bisection's u as the reference.


def _cap_value(c):
    try:
        return math.exp(c)
    except OverflowError:
        return math.inf


def _assert_cap_contract(est, blocks, u_ref):
    """est's cap fields, evaluated on every row of blocks through _blocks_ok:
    C(u) <= ln cap < C(u + 1e-9) at the threshold u = delta_cap (C(0) >
    ln cap at u = 0), the certificate values bit-equal to the constant at u
    and at u + 1e-3, and u within 1e-4 of u_ref and not below it when the
    constant at u_ref is within the cap as computed (the bisection admitted
    1e-15 beyond it)."""
    lncap, cap = math.log(est.cap), est.cap
    u = est.delta_cap
    C = lambda v: indices._blocks_ok(iter(blocks), v, lncap)[0]
    within = lambda c: c <= lncap and math.exp(c) <= cap
    c = C(u)
    assert est.cap_value_at == _cap_value(c)
    assert within(c) or u == 0.0  # u = 0: C(0) may be beyond the cap
    if within(c) and u + 1e-9 <= 1.0:
        assert not within(C(u + 1e-9))
    want = _cap_value(C(u + 1e-3)) if u + 1e-3 <= 1.0 else math.inf
    assert est.cap_value_beyond == want
    assert abs(u - u_ref) <= 1e-4
    if within(C(u_ref)):
        assert u >= u_ref


def _without_cap(est):
    return dataclasses.replace(est, delta_cap=None, cap_value_at=None, cap_value_beyond=None)


def _assert_cap_rebased(new, old, blocks):
    """new equals the frozen estimate old in every field but the cap
    fields, which meet the contract with old's bisection u as reference."""
    assert _without_cap(new) == _without_cap(old)
    _assert_cap_contract(new, blocks, old.delta_cap)


# (C_cap, gamma_grid): the defaults, and a smaller cap on two windows
_SETTINGS = ((16.0, (1.0, 0.5, 0.25, 0.125)), (4.0, (0.5, 0.125)))

_SCAN_GRIDS = [(1, 12, s) for s in ("const:1", "step:2,1", "pow:-0.5", "pow:-0.95")]
_SCAN_GRIDS += [(1, 10, f"rand:{i}:lognormal:{sg}") for i, sg in ((1, 1), (2, 0.5), (3, 2))]
_SCAN_GRIDS += [(2, 5, s) for s in ("const:1", "step:4,1,1,1", "rand:4:lognormal:1", "rand:5:lognormal:2")]


@pytest.mark.parametrize("kind", ["k", "acks"])
@pytest.mark.parametrize("d, L, spec", _SCAN_GRIDS)
def test_family_index_equals_exhaustive_scan(d, L, spec, kind):
    w = make_grid(d, L, spec)
    blocks = _family_blocks(w, kind, ())[1]
    for cap, gammas in _SETTINGS:
        new = indices._family_estimate(w, kind, cap, gammas)
        _assert_cap_rebased(new, _ref_family_index(w, kind, cap, gammas), blocks)


def test_cap_scan_is_a_binary_search(monkeypatch):
    # the cap threshold takes no more evaluations than the bisection of
    # [0, 1] to 1e-4 it replaced (here one: C(1) is within the cap)
    calls = []
    real = indices._blocks_ok
    monkeypatch.setattr(indices, "_blocks_ok", lambda *a, **k: calls.append(a[1]) or real(*a, **k))
    family_index(make_grid(1, 10, "rand:1:lognormal:1"))
    assert 0 < len(calls) <= 20


def test_family_index_memoised_per_grid(monkeypatch):
    w = make_grid(1, 8, "rand:5:lognormal:1")
    first = acks_index(w)
    calls = []
    real = indices._index_estimate
    monkeypatch.setattr(indices, "_index_estimate", lambda *a: calls.append(a) or real(*a))
    again = indices._family_estimate(w, "acks", 16.0, (1.0, 0.5, 0.25, 0.125))
    # served from the memo, and acks_index's lambda_hat did not leak into it
    assert calls == []
    assert again == dataclasses.replace(first, lambda_hat=None)
    assert acks_index(w) == first and calls == []
    # each kind and parameter set has its own entry
    family_index(w)
    acks_index(w, C_cap=8.0)
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# the fail-first knee scan and the row-pruned cap scan against frozen copies
#
# Frozen copies of _knee_ok, _scan_largest, _scan_prefix, _witness and the
# _blocks_ok cap scan as they were before the knee passes visited the level
# blocks fail-first and the cap probes kept only the rows that failed the
# probe before: every knee pass walks the blocks in level order, and every
# cap probe reads every row.  They run on the same windows as family_index,
# on a frozen row-major copy of the level blocks (before the blocks took a
# column-major layout and the running maxima a column sweep), so every field
# must agree bit for bit but the cap fields, which meet _assert_cap_contract
# against the frozen bisection.


class _FrozenBlock:
    """_LevelBlock.of_level and lg, row-major, as they were before the
    column-major layout."""

    def __init__(self, s, lnphi, A, B):
        self.svals, self.ls, self.lnphi, self.a_pos = s, np.log(s), lnphi, None
        if A is not None:
            self.a_pos = A > 0
            with np.errstate(divide="ignore"):
                self.lnA = np.where(self.a_pos, np.log(np.where(self.a_pos, A, 1.0)), -np.inf)
                self.lnB = np.log(B)

    @classmethod
    def of_level(cls, w, level, kind):
        if kind == "k":
            vals, K, _, s, A = _level_pieces(w, level)
            return cls(s, np.log(K), A[:, 1:], vals[:, 1:])
        vals = w.sorted_level(level)[0]
        s = np.arange(1, vals.shape[1] + 1) * w.cell_measure
        lnphi = np.empty((vals.shape[0], 2 * s.size - 1))
        lnphi[:, 0::2] = np.log(s[None, :] * vals)
        lnphi[:, 1::2] = np.log(s[None, :-1] * vals[:, 1:])
        return cls(np.repeat(s, 2)[:-1], lnphi, None, None)

    def lg(self, u):
        lg_k = self.lnphi - u * self.ls[None, :]
        if self.a_pos is None or not 0.0 < u < 1.0:
            return lg_k
        lsk = self.ls
        with np.errstate(invalid="ignore", over="ignore"):
            lnt = (math.log(u) - math.log1p(-u)) + self.lnA - self.lnB
            valid = self.a_pos & (lnt > lsk[None, :-1]) & (lnt < lsk[None, 1:])
            lg_min = np.where(valid, self.lnA - math.log1p(-u) - u * lnt, 0.0)
        n, m = lg_k.shape
        lg = np.empty((n, 2 * m - 1))
        lg[:, 0::2] = lg_k
        lg[:, 1::2] = np.where(valid, lg_min, lg_k[:, 1:])
        return lg


def _frozen_witness(blocks, window, u):
    best = (-1.0, None)
    for b, (blk, (ncols, _)) in enumerate(zip(blocks, window)):
        if not ncols:
            continue
        lg = blk.lnphi[:, :ncols] - u * blk.ls[None, :ncols]
        rmax = (np.maximum.accumulate(lg, axis=1) - lg).max(axis=1)
        row = int(np.argmax(rmax))
        if float(rmax[row]) > best[0] + 1e-9:
            _, s, t = indices._sup_ratio(blk.svals[:ncols], lg[row])
            best = (float(rmax[row]), (b, row, s, t))
    return best[1]


def _frozen_blocks_ok(blocks, u, lncap):
    cmax = 0.0
    for blk in blocks:
        lg = blk.lg(u)
        cmax = max(cmax, float((np.maximum.accumulate(lg, axis=1) - lg).max()))
    return cmax <= lncap + 1e-15, cmax


def _frozen_knee_ok(blocks, u, windows, lncap, triv_tol):
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
            if top > lncap + 1e-15:
                out[k] = (False, True)
                pending.remove(k)
                continue
            if top <= triv_tol:
                continue
            if lever is None:
                ilast = np.maximum.accumulate(np.where(r <= 1e-9, np.arange(width), -1), axis=1)
                lever = blk.ls[:width] - blk.ls[ilast]
            binding = rk >= (rmax[:, None] - 1e-9)
            lev_min = np.where(binding, lever[:, :ncols], np.inf).min(axis=1)
            if lev_min[rmax > triv_tol].max() > kappa:
                out[k] = (False, False)
                pending.remove(k)
        if not pending:
            break
    return out


_FROZEN_GRID = np.linspace(0.0, 1.0, 65)


def _frozen_bisect(ok_fn, j, tol):
    lo, hi = float(_FROZEN_GRID[j]), float(_FROZEN_GRID[min(j + 1, 64)])
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if ok_fn(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _frozen_scan_largest(ok_fn, tol, n=1):
    oks = [[] for _ in range(n)]
    live = list(range(n))
    for x in _FROZEN_GRID:
        if not live:
            break
        res = ok_fn(float(x), live)
        for k, (ok, _) in zip(live, res):
            oks[k].append(ok)
        live = [k for k, (_, capped) in zip(live, res) if not capped]
    out = []
    for k, o in enumerate(oks):
        o = o + [False] * (_FROZEN_GRID.size - len(o))
        monotone = all(a or not b for a, b in zip(o, o[1:]))
        if not o[0]:
            out.append((0.0, monotone))
        elif all(o):
            out.append((1.0, monotone))
        else:
            j = max(i for i, v in enumerate(o) if v)
            out.append((_frozen_bisect(lambda u: ok_fn(u, [k])[0][0], j, tol), monotone))
    return out


def _frozen_scan_prefix(ok_fn, tol):
    if not ok_fn(0.0):
        return 0.0
    if ok_fn(1.0):
        return 1.0
    lo, hi = 0, _FROZEN_GRID.size - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ok_fn(float(_FROZEN_GRID[mid])):
            lo = mid
        else:
            hi = mid
    return _frozen_bisect(ok_fn, lo, tol)


def _scan_k(tol):
    """The knee scan's grid 2^-k: k the least with 2^-k <= tol."""
    k = 1 - math.frexp(tol)[1]
    assert 2.0**-k <= tol < 2.0 ** (1 - k)
    return k


@pytest.mark.parametrize("tol", [1e-4, 1e-4 / 64])
@pytest.mark.parametrize("c", [-0.5, 0.0, 0.005, 0.25, 0.3, 37 / 64, 0.6, 63 / 64, 0.999, 1.0])
def test_scan_prefix_probes_equal_the_frozen_grid_search(monkeypatch, c, tol):
    # on one row, the knee scan is the frozen binary search over the 1/64
    # grid and its bisection to tol, on the grid 2^-k, k the least with
    # 2^-k <= tol: the same probes and result, but u = 1 comes before u = 0
    # (and a row passing at 1 is not probed at 0)
    new, old = [], []
    # a one-row block whose row passes the knee rule at u exactly when u <= c
    blk = types.SimpleNamespace(lnphi=np.array([[c]]), ls=np.zeros(1), monotone=False)
    monkeypatch.setattr(indices, "_knee_fails", lambda lnphi, ls, u, *a: new.append(u) or np.flatnonzero(u > lnphi[:, 0]))
    u = indices._knee_scan([blk], [(1, 0.0)], [0], _scan_k(tol), 1.0)
    assert u == _frozen_scan_prefix(lambda u: old.append(u) or u <= c, tol)
    if c < 0.0:
        assert (new, old) == ([1.0, 0.0], [0.0])
    elif c >= 1.0:
        assert (new, old) == ([1.0], [0.0, 1.0])
    else:
        assert old[:2] == [0.0, 1.0] and new == [1.0, 0.0] + old[2:]


def _frozen_family_index(w, kind, C_cap=16.0, gamma_grid=(1.0, 0.5, 0.25, 0.125)):
    levels = range(w.base.level, w.L)
    blocks = [_FrozenBlock.of_level(w, lev, kind) for lev in levels]
    windows = [(g, [indices._level_window(w, lev, kind, g) for lev in levels]) for g in gamma_grid]
    windows = [(g, win) for g, win in windows if any(n for n, _ in win)]
    lncap, triv_tol, utol = math.log(C_cap), 1e-12, 1e-4
    knee = lambda u, ks: _frozen_knee_ok(blocks, u, [windows[k][1] for k in ks], lncap, triv_tol)
    best = None
    for (gamma, win), (u_hat, mono) in zip(windows, _frozen_scan_largest(knee, utol, len(windows))):
        if best is None or u_hat > best[0]:
            best = (u_hat, mono, gamma, win)
    u_hat, monotone, gamma_star, win_star = best
    assert monotone  # the knee's admissible set is a prefix of the grid

    def cap_value(u):
        try:
            return math.exp(_frozen_blocks_ok(blocks, u, lncap)[1])
        except OverflowError:
            return math.inf

    u_cap = _frozen_scan_prefix(lambda u: _frozen_blocks_ok(blocks, u, lncap)[0], utol)
    c_beyond = cap_value(u_cap + 1e-3) if u_cap + 1e-3 <= 1.0 else math.inf
    wit = _frozen_witness(blocks, win_star, u_hat)
    return IndexEstimate(
        delta_hat=u_hat,
        delta_cap=u_cap,
        cap=C_cap,
        gamma=gamma_star,
        resolution=w.L,
        witness=("", 0.0, 0.0) if wit is None else (_cube_at(w, levels[wit[0]], wit[1]).addr(), wit[2], wit[3]),
        cap_value_at=cap_value(u_cap),
        cap_value_beyond=c_beyond,
    )


def _assert_equals_frozen_scan(w):
    for kind in ("k", "acks"):
        blocks = _family_blocks(w, kind, ())[1]
        for cap, gammas in _SETTINGS:
            old = _frozen_family_index(w, kind, cap, gammas)
            new = indices._family_estimate(w, kind, cap, gammas)
            _assert_cap_rebased(new, old, blocks)
            if kind == "acks":
                want = dataclasses.replace(new, lambda_hat=1.0 - old.delta_hat)
                assert acks_index(w, C_cap=cap, gamma_grid=gammas) == want
            else:
                assert family_index(w, C_cap=cap, gamma_grid=gammas) == new


@pytest.mark.parametrize("d, L, spec", _SCAN_GRIDS)
def test_family_index_equals_frozen_level_order_scan(d, L, spec):
    _assert_equals_frozen_scan(make_grid(d, L, spec))


@given(random_grids(max_level_1d=9, max_level_2d=4, min_level=2))
@settings(max_examples=30)
def test_family_index_equals_frozen_level_order_scan_random(w):
    _assert_equals_frozen_scan(w)


# ---------------------------------------------------------------------------
# the knee probes' row pruning
#
# Knee admissibility is a prefix of [0, 1] row by row (see family_index): a
# row's constant at u is a max of nondecreasing affine functions of u, and
# its least binding lever is their left derivative.  A knee probe therefore
# reads, of each block, only the rows that failed the last failing probe,
# which lies above it.


def _family_blocks(w, kind, gammas):
    """The level blocks of family_index and the windows of the gammas that
    leave some cube a candidate, as (gamma, [(ncols, kappa) per block])."""
    levels = range(w.base.level, w.L)
    blocks = [_LevelBlock.of_level(w, lev, kind) for lev in levels]
    windows = [(g, [indices._level_window(w, lev, kind, g) for lev in levels]) for g in gammas]
    return levels, blocks, [(g, win) for g, win in windows if any(n for n, _ in win)]


@given(random_grids(), st.sampled_from(["k", "acks"]), st.sampled_from(_SETTINGS), st.integers(0, 2**32 - 1))
@settings(max_examples=30)
def test_knee_admissibility_is_a_prefix_per_row(w, kind, setting, seed):
    cap, gammas = setting
    _, blocks, windows = _family_blocks(w, kind, gammas)
    # the 1/64 grid, and random points of the scan's own grid 2^-k, off it,
    # where the knee scan reads rows at its running bound
    k = _scan_k(1e-4)
    scan_grid = np.random.default_rng(seed).integers(0, (1 << k) + 1, 32)
    us = sorted(set(np.linspace(0.0, 1.0, 65).tolist()) | {math.ldexp(int(g), -k) for g in scan_grid})
    for _, win in windows:
        for blk, (ncols, kappa) in zip(blocks, win):
            if not ncols:
                continue
            lnphi, ls = blk.lnphi[:, :ncols], blk.ls[:ncols]
            failed = np.zeros(lnphi.shape[0], dtype=bool)
            for u in us:
                fails = np.zeros_like(failed)
                fails[indices._knee_fails(lnphi, ls, u, kappa, math.log(cap))] = True
                # a row failing at one point fails at every later one
                assert not np.any(failed & ~fails)
                failed = fails


@given(random_grids(), st.sampled_from(["k", "acks"]), st.sampled_from(_SETTINGS), st.integers(0, 2**32 - 1))
@settings(max_examples=30)
def test_knee_scan_does_not_depend_on_the_visit_order(w, kind, setting, seed):
    # each window's knee estimate is the largest point of the grid 2^-k at
    # which every row passes: the same in level order, reversed, in a random
    # block order, and with each block's rows shuffled as well, which is
    # why the running bound returns what the bisection did
    cap, gammas = setting
    _, blocks, windows = _family_blocks(w, kind, gammas)
    k, rng = _scan_k(1e-4), np.random.default_rng(seed)
    levels = list(range(len(blocks)))
    shuffled = [blk.rows(rng.permutation(blk.lnphi.shape[0])) for blk in blocks]
    visits = [(blocks, levels), (blocks, levels[::-1]), (blocks, rng.permutation(levels).tolist()), (shuffled, levels[::-1])]
    runs = []
    for blks, order in visits:
        runs.append([indices._knee_scan(blks, win, order, k, math.log(cap)) for _, win in windows])
    assert runs[1:] == runs[:1] * 3
    assert indices._family_estimate(w, kind, cap, gammas).delta_hat == max(runs[0])


def _unpruned_family_index(w, kind, C_cap, gamma_grid):
    """family_index with every probe reading every row of every block, in
    level order: one plain bisection of [0, 1] per window for the knee rule,
    and for the cap threshold Newton's method from u = 1 with its doubling
    steps and bisection, every evaluation on every row."""
    levels, blocks, windows = _family_blocks(w, kind, gamma_grid)
    lncap, utol = math.log(C_cap), 1e-4

    def knee_ok(win, u):
        for blk, (ncols, kappa) in zip(blocks, win):
            if ncols and indices._knee_fails(blk.lnphi[:, :ncols], blk.ls[:ncols], u, kappa, lncap).size:
                return False
        return True

    def knee_scan(win):
        if not knee_ok(win, 0.0):
            return 0.0
        if knee_ok(win, 1.0):
            return 1.0
        lo, hi = 0.0, 1.0
        while hi - lo > utol:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if knee_ok(win, mid) else (lo, mid)
        return lo

    u_knee = [knee_scan(win) for _, win in windows]
    best = int(np.argmax(u_knee))  # the first best gamma
    u_hat, (gamma, win) = u_knee[best], windows[best]
    at = lambda u: indices._blocks_ok(iter(blocks), u, lncap)
    within = lambda c: c <= lncap and math.exp(c) <= C_cap
    u_cap, c = 0.0, at(0.0)[0]
    if within(c):
        u_cap, d, (c, slope, _) = 1.0, 0.0, at(1.0)
        while not within(c):
            hi, u = u_cap, u_cap - ((c - lncap) / slope if slope else 0.0)
            d = 0.0 if u < math.nextafter(u_cap, 0.0) else 2.0 * d or u_cap - math.nextafter(u_cap, 0.0)
            u_cap = max(0.0, u_cap - d if d else u)
            c, slope, _ = at(u_cap)
        while d and math.nextafter(u_cap, 1.0) < hi:
            u = 0.5 * (u_cap + hi)
            if within(cu := at(u)[0]):
                u_cap, c = u, cu
            else:
                hi = u
    beyond = u_cap + 1e-3
    wit = indices._witness(blocks, win, u_hat)
    return IndexEstimate(
        delta_hat=u_hat,
        delta_cap=u_cap,
        cap=C_cap,
        gamma=gamma,
        resolution=w.L,
        witness=("", 0.0, 0.0) if wit is None else (_cube_at(w, levels[wit[0]], wit[1]).addr(), wit[2], wit[3]),
        cap_value_at=_cap_value(c),
        cap_value_beyond=_cap_value(at(beyond)[0]) if beyond <= 1.0 else math.inf,
    )


@given(random_grids(max_level_1d=10, max_level_2d=5), st.sampled_from(["k", "acks"]), st.sampled_from(_SETTINGS))
@settings(max_examples=30)
def test_family_index_equals_unpruned_bisection(w, kind, setting):
    cap, gammas = setting
    assert indices._family_estimate(w, kind, cap, gammas) == _unpruned_family_index(w, kind, cap, gammas)


def _ptr(x):
    return x.__array_interface__["data"][0]


def _recorded_scans(monkeypatch):
    """Record each knee scan (one per window) as [u, probes]: its result and,
    per _knee_fails call, (lnphi address, ls address, u, rows read, rows
    failing).  A read of a block's window rows has the block's lnphi address;
    a bisection reads a copy of the failing rows."""
    scans = []
    real_scan, real_fails = indices._knee_scan, indices._knee_fails

    def scan(*a):
        scans.append([None, []])
        scans[-1][0] = real_scan(*a)
        return scans[-1][0]

    def fails(lnphi, ls, u, *a):
        out = real_fails(lnphi, ls, u, *a)
        scans[-1][1].append((_ptr(lnphi), _ptr(ls), u, lnphi.shape[0], out.size))
        return out

    monkeypatch.setattr(indices, "_knee_scan", scan)
    monkeypatch.setattr(indices, "_knee_fails", fails)
    return scans


def _recorded_cap_evaluations(monkeypatch):
    """Record each cap evaluation as (u, C(u), slope, rows read)."""
    evals = []
    real = indices._blocks_ok

    def evaluate(blocks, u, lncap):
        blocks = list(blocks)
        c, slope, keep = real(iter(blocks), u, lncap)
        evals.append((u, c, slope, sum(b.lnphi.shape[0] for b in blocks)))
        return c, slope, keep

    monkeypatch.setattr(indices, "_blocks_ok", evaluate)
    return evals


@pytest.mark.parametrize("chunk", [2, 3, 7, 16, 65])
@pytest.mark.parametrize("n", [1, 3])
def test_scan_largest_result_does_not_depend_on_the_chunk(monkeypatch, chunk, n):
    # each row's knee verdict is its own: cutting every level block into
    # blocks of chunk rows changes the blocks the knee scans visit and the
    # running bounds they probe, but not the largest admissible u of any of
    # the n windows; nor does it move any cap evaluation's u, constant or
    # slope.  Every knee probe lies on the scan's grid 2^-k.
    w = make_grid(1, 10, "rand:1:lognormal:1")
    for kind in ("k", "acks"):
        for cap, gammas in _SETTINGS:
            levels, blocks, windows = _family_blocks(w, kind, gammas[:n])
            cut, at, cut_windows = [], [], [(g, []) for g, _ in windows]
            for b, blk in enumerate(blocks):
                nrows = blk.lnphi.shape[0]
                for i in range(0, nrows, chunk):
                    cut.append(blk.rows(np.arange(i, min(i + chunk, nrows))))
                    at.append((levels[b], i))
                    for (_, win), (_, cut_win) in zip(windows, cut_windows):
                        cut_win.append(win[b])
            assert len(cut) > len(blocks)
            step = 2.0 ** -_scan_k(1e-4)
            runs = []
            for blks, wins, name in (
                (blocks, windows, lambda b, row: (levels[b], row)),
                (cut, cut_windows, lambda b, row: (at[b][0], at[b][1] + row)),
            ):
                scans = _recorded_scans(monkeypatch)
                evals = _recorded_cap_evaluations(monkeypatch)
                est = indices._index_estimate(blks, wins, cap, w.L, name)
                runs.append((est, [u for u, _ in scans], [e[:3] for e in evals]))
                monkeypatch.undo()
                probes = [p[2] for _, ps in scans for p in ps]
                assert all(ps for _, ps in scans) and all((u / step).is_integer() for u in probes)
            assert runs[1] == runs[0]
            assert len(runs[0][1]) == len(windows) and runs[0][2]  # the knee scans; the cap evaluations


# ---------------------------------------------------------------------------
# the block layout and the running maxima


@pytest.mark.parametrize("shape", [(1, 300), (300, 1), (300, 2), (300, 16), (16, 4096)])
@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("sweep_rows", [1, 1 << 30])
def test_runmax_equals_accumulate_bit_for_bit(monkeypatch, shape, order, sweep_rows):
    # sweep_rows 1 sends every column-major input of this list through the
    # column sweep, and 1 << 30 none; a row-major input always accumulates
    rng = np.random.default_rng(shape[0] * shape[1])
    x = np.round(rng.standard_normal(shape), 1)  # many ties
    x[rng.random(shape) < 0.1] = -np.inf
    x[:, 0][::3] = -np.inf
    x = np.asarray(x, order=order)
    monkeypatch.setattr(indices, "_SWEEP_ROWS", sweep_rows)
    got = indices._runmax(x)
    assert np.array_equal(got.view(np.uint64), np.maximum.accumulate(x, axis=1).view(np.uint64))


@pytest.mark.parametrize("d, L, spec", [(1, 10, "rand:2:lognormal:1"), (1, 9, "step:2,1"), (2, 4, "rand:5:lognormal:2")])
def test_lever_equals_last_running_max_column(d, L, spec):
    # acks columns repeat each abscissa (left and right values at a knot)
    w = make_grid(d, L, spec)
    for lev in range(L):
        blk = _LevelBlock.of_level(w, lev, "acks")
        for u in (0.0, 0.3, 0.75, 1.0):
            lg = blk.lnphi - u * blk.ls
            r = np.maximum.accumulate(lg, axis=1) - lg
            ilast = np.maximum.accumulate(np.where(r <= indices._TIE, np.arange(r.shape[1]), -1), axis=1)
            old = blk.ls - blk.ls[ilast]
            assert np.array_equal(indices._lever(r, blk.ls).view(np.uint64), old.view(np.uint64))


@pytest.mark.parametrize("kind", ["k", "acks"])
def test_level_blocks_keep_their_long_axis_contiguous(kind):
    w = make_grid(1, 10, "rand:3:lognormal:1")
    for lev in range(w.L):
        blk = _LevelBlock.of_level(w, lev, kind)
        n, m = blk.lnphi.shape[0], 1 << (w.L - lev)
        sub = blk.rows(np.arange(0, n, 3))
        arrays = [blk.lnphi, sub.lnphi, blk.lg(0.5), sub.lg(0.5)]
        if kind == "k":  # the piece logs of row blocks, built and gathered, the interior minima and their abscissae
            again = sub.rows(np.arange(0, sub.lnphi.shape[0], 2))
            arrays += [sub.lnA, sub.lnB, again.lnA, again.lnB, blk.lg(0.5, with_s=True)[1]]
        # a level of n >= m cubes is column-major: so are its arrays, the
        # rows of any subset with their piece logs, and the ratio arrays at
        # a scan point
        want = "F_CONTIGUOUS" if n >= m else "C_CONTIGUOUS"
        for x in arrays:
            assert x.flags[want]
        assert np.array_equal(sub.lnphi, blk.lnphi[::3])


@pytest.mark.parametrize("d, L", [(1, 12), (2, 6)])
def test_analyze_bytes_do_not_depend_on_the_block_layout(capsys, monkeypatch, d, L):
    # with row-major blocks: the same analyze bytes, the same index estimates
    # of both kinds in full (the unprinted cap values too), and the same
    # piece-log bits in every row block, which follow lnphi's layout
    spec = "rand:1:lognormal:1"
    argv = ["analyze", "--weight", spec, "--dim", str(d), "--level", str(L), "--q", "2"]

    def run(block):
        built = []

        class Recorded(block):
            def rows(self, idx):
                out = super().rows(idx)
                if out.lnA is not None:
                    built.append((idx, out.lnA, out.lnB))
                return out

        monkeypatch.setattr(indices, "_LevelBlock", Recorded)
        assert main(argv) == 0
        ests = [repr(f(make_grid(d, L, spec), C_cap=cap)) for f in (family_index, acks_index) for cap in (16.0, 1.5)]
        return capsys.readouterr().out, ests, built

    class RowMajor(_LevelBlock):
        def __init__(self, s, lnphi, source=None):
            super().__init__(s, np.ascontiguousarray(lnphi), source)

    out, ests, built = run(_LevelBlock)
    monkeypatch.setattr(indices, "_runmax", lambda x: np.maximum.accumulate(x, axis=1))
    out_c, ests_c, built_c = run(RowMajor)
    assert out_c == out and ests_c == ests
    assert built and len(built_c) == len(built)
    for (idx, lnA, lnB), (idx_c, lnA_c, lnB_c) in zip(built, built_c):
        assert np.array_equal(idx_c, idx)
        assert lnA_c.flags.c_contiguous and lnB_c.flags.c_contiguous
        assert np.array_equal(lnA_c.view(np.uint64), lnA.view(np.uint64))
        assert np.array_equal(lnB_c.view(np.uint64), lnB.view(np.uint64))


def _contiguous_log(x):
    """np.log, -inf at 0, of one contiguous 1-D copy of x's values, in x's shape."""
    with np.errstate(divide="ignore"):
        return np.log(np.ascontiguousarray(x).ravel()).reshape(x.shape)


def test_kind_k_level_blocks_hold_no_piece_logs():
    # a level block holds its log-values only; the rows it gives build theirs
    w = make_grid(2, 4, "rand:5:lognormal:1")
    for lev in range(w.L):
        blk = _LevelBlock.of_level(w, lev, "k")
        assert blk.lnA is None and blk.lnB is None
        sub = blk.rows(np.array([0]))
        assert sub.lnA.shape == sub.lnB.shape == (1, blk.lnphi.shape[1] - 1)


@given(random_grids(max_level_1d=10, max_level_2d=5), st.data(), st.integers(0, 2**32 - 1))
@settings(max_examples=40)
@example(make_grid(1, 10, "rand:1:lognormal:1"), None, 1)  # level 0: a strided log loop rounds 2 values 1 ulp off (numpy 2.4, AVX-512)
def test_row_block_piece_logs_equal_the_whole_level_build(w, data, seed):
    # every block log equals bit for bit np.log of one contiguous 1-D copy
    # of the whole level's values, at the block's rows: lnphi of both kinds,
    # and the piece logs (lnA = -inf where A <= 0) a row block builds from
    # its rows or gathers from a row block, in row subsets as the cap
    # threshold keeps them (sorted), lone rows and any order, in either
    # layout; numpy's own log loop for an array depends on its shape and
    # strides, and the loops round 1 ulp apart on a few values
    level = 0 if data is None else data.draw(st.integers(w.base.level, w.L - 1))
    vals, K, _, s, A = _level_pieces(w, level)
    phi = np.empty((K.shape[0], 2 * K.shape[1] - 1))
    phi[:, 0::2], phi[:, 1::2] = s * vals, s[:-1] * vals[:, 1:]
    lnA, lnB = _contiguous_log(np.where(A[:, 1:] > 0.0, A[:, 1:], 0.0)), _contiguous_log(vals[:, 1:])
    bits = lambda x: x.view(np.uint64)
    for kind, lnphi in (("k", _contiguous_log(K)), ("acks", _contiguous_log(phi))):
        assert np.array_equal(bits(_LevelBlock.of_level(w, level, kind).lnphi), bits(lnphi))
    rng = np.random.default_rng(seed)
    n = K.shape[0]
    kept = np.flatnonzero(rng.random(n) < (1.0 if data is None else data.draw(st.sampled_from([0.05, 0.5, 1.0]))))
    for order in ("C", "F"):
        blk = _LevelBlock.of_level(w, level, "k")
        blk.lnphi = np.asarray(blk.lnphi, order=order)  # the row blocks' piece logs follow its layout
        for idx in (kept if kept.size else np.array([n - 1]), rng.integers(0, n, 1), rng.permutation(n)):
            sub = blk.rows(idx)
            again = rng.permutation(idx.size)[: max(1, idx.size // 2)]
            for rows, rows_idx in ((sub, idx), (sub.rows(again), idx[again]), (sub.rows(again[:1]), idx[again[:1]])):
                assert rows.lnA.flags[order + "_CONTIGUOUS"] and rows.lnB.flags[order + "_CONTIGUOUS"]
                assert np.array_equal(bits(rows.lnA), bits(lnA[rows_idx]))
                assert np.array_equal(bits(rows.lnB), bits(lnB[rows_idx]))


def test_family_index_peak_memory_per_cell_and_level():
    # with the sorted levels built first, the index holds the level blocks'
    # log-values (8 bytes a cell) and the rows the cap threshold keeps:
    # at most 24 bytes per cell per level (33.3 when every kind-k level
    # block held its piece logs too)
    w = make_grid(1, 14, "pow:-0.5")
    for lev in range(w.L):
        w.sorted_level(lev)
    tracemalloc.start()
    try:
        family_index(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24 * (1 << w.L) * w.L


# sha256 of the reprs of 120 index estimates: six weights on d=1 L=9 and
# d=2 L=5 (pow weights are one-dimensional), both kinds, caps 16, 4 and 1.5,
# and two gamma grids.  Every field of every estimate is pinned to the bit;
# a change that moves one on purpose re-bases the digest and names it as a
# test change.
_PINNED_SPECS = (
    ("const:3.7", (1, 2)),
    ("step:4,1,1,1", (1, 2)),
    ("pow:-0.5", (1,)),
    ("pow:-0.9", (1,)),
    ("rand:3:lognormal:0.5", (1, 2)),
    ("rand:9:lognormal:2", (1, 2)),
)


def test_index_estimates_are_pinned():
    reprs = []
    for spec, dims in _PINNED_SPECS:
        for d in dims:
            w = make_grid(d, 9 if d == 1 else 5, spec)
            for kind, cap, gammas in itertools.product(("k", "acks"), (16.0, 4.0, 1.5), [g for _, g in _SETTINGS]):
                reprs.append(repr(indices._family_estimate(w, kind, cap, gammas)))
    assert len(reprs) == 120
    digest = hashlib.sha256("\n".join(reprs).encode()).hexdigest()
    assert digest == "6fd6800931ac8434a104ef8edd500963da537381d498aabc6513a87a40be1a0b"


def _assert_running_bound(scans, blocks, windows):
    """The knee scans' probes, one scan per window: each visits the blocks
    in the shared order (deepest level first in the first window, then each
    block failing at its read moved to the front) and reads each block's
    window rows once, at the running bound G, before any bisection of them.
    The bisection follows at once, below G, on the rows failing at the last
    failing probe, after a probe at u = 0 for a block that is not monotone;
    G falls to its largest passing probe, and the scan returns G, or 0 once
    G or a probe at u = 0 says so, reading nothing more."""
    block_at = {_ptr(blk.lnphi): b for b, blk in enumerate(blocks)}
    order = list(range(len(blocks)))[::-1]
    for (result, probes), (_, win) in zip(scans, windows):
        visit = iter([b for b in order if win[b][0]])
        G, i = 1.0, 0
        while i < len(probes) and G:
            ptr, _, u, nrows, nfails = probes[i]
            b = next(visit)
            assert block_at.get(ptr) == b and u == G and nrows == blocks[b].lnphi.shape[0]
            i += 1
            if not nfails:
                continue
            order.insert(0, order.pop(order.index(b)))
            lo, hi, live = 0.0, G, nfails
            for ptr, ls, u, nrows, nfails in probes[i:]:
                if ptr in block_at:
                    break
                assert ls == _ptr(blocks[b].ls) and nrows == live and lo <= u < hi
                i += 1
                if u == 0.0:
                    assert not blocks[b].monotone
                    if nfails:
                        lo = hi = 0.0
                        break
                elif nfails:
                    hi, live = u, nfails
                else:
                    lo = u
            G = lo
        assert i == len(probes) and result == G


# The knee scans of kind k read 101 blocks at L = 12 and 117 at L = 16 (105
# and 121 with the u = 0 probes, which monotone blocks skip), against 226
# and 286 reads by the bisection they replaced.
@pytest.mark.parametrize("L, bound", [(12, 400), (16, 475)])
def test_knee_passes_visit_the_failing_level_first(monkeypatch, L, bound):
    w = make_grid(1, L, "rand:1:lognormal:1")
    for kind in ("k", "acks"):
        _, blocks, windows = _family_blocks(w, kind, (1.0, 0.5, 0.25, 0.125))
        scans = _recorded_scans(monkeypatch)
        est = indices._index_estimate(blocks, windows, 16.0, w.L, lambda b, row: row)
        monkeypatch.undo()
        assert len(scans) == len(windows) and est.delta_hat == max(u for u, _ in scans)
        assert 0 < sum(len(p) for _, p in scans) <= bound
        _assert_running_bound(scans, blocks, windows)


# The knee probes read 17,548 rows at L = 12 and 281,213 at L = 16 (21,388
# and 342,653 with the u = 0 probes, which monotone blocks skip).  With
# those probes, an unpruned bisection per window reads 103,426 and
# 1,636,579; the pruned bisection the running bound replaced, 32,933 and
# 526,175.
@pytest.mark.parametrize("L, bound", [(12, 36_000), (16, 560_000)])
def test_knee_probes_read_only_the_rows_failing_before(monkeypatch, L, bound):
    rows = []
    real = indices._knee_fails
    monkeypatch.setattr(indices, "_knee_fails", lambda lnphi, *a: rows.append(lnphi.shape[0]) or real(lnphi, *a))
    family_index(make_grid(1, L, "rand:1:lognormal:1"))
    assert 0 < sum(rows) <= bound


# The knee probes read 2,231,971 cells on acks pow:-0.5 d=1 L=14, and
# 6,637,927 over the six estimates of the analyze-deep grids (kinds k and
# acks); the bisection the running bound replaced read 6,512,632 and
# 16,713,238, as every passing probe re-read each block it had not pruned.
def test_knee_probes_read_each_row_once_per_window(monkeypatch):
    cells = []
    real = indices._knee_fails
    monkeypatch.setattr(indices, "_knee_fails", lambda lnphi, *a: cells.append(lnphi.size) or real(lnphi, *a))
    pow_grid = make_grid(1, 14, "pow:-0.5")
    acks_index(pow_grid)
    assert 0 < sum(cells) <= 3_000_000
    for w in (pow_grid, make_grid(1, 16, "rand:1:lognormal:1"), make_grid(2, 8, "rand:2:lognormal:1")):
        acks_index(w)  # memoised: the pow grid's is counted once
        family_index(w)
    assert sum(cells) <= 8_000_000


def test_cap_probes_read_only_the_rows_failing_before(monkeypatch):
    w = make_grid(1, 12, "rand:1:lognormal:1")
    evals = _recorded_cap_evaluations(monkeypatch)
    family_index(w)
    full = w.ncells - 1  # the cubes of levels 0 .. L-1
    # the evaluation at u = 1 reads every row (a K-curve family is monotone:
    # no u = 0); the three after it, the last the certificate at u + 1e-3,
    # read 25 rows in all, not 3 * 4095
    rows = [n for _, _, _, n in evals]
    assert evals[0][0] == 1.0 and rows[0] == full
    assert 2 <= len(rows) <= 6
    assert sum(rows[1:]) <= 100


# On the analyze-deep grids the cap threshold takes 2 to 5 evaluations, where
# the bisection took 18 (u = 0 and 1, 14 midpoints, two certificates), and
# after the evaluations on every row (u = 1, and u = 0 for a family that is
# not monotone) reads 17, 379 and 223 rows in all at most; the certificate
# at u + 1e-3 reads the rows kept at u = 1 (173 of them on rand L=16), or,
# when C(0) is beyond the cap, the rows whose C(0) is within reach of it.
def test_cap_threshold_takes_at_most_six_evaluations(monkeypatch):
    evals = _recorded_cap_evaluations(monkeypatch)
    for d, L, spec in ((1, 14, "pow:-0.5"), (1, 16, "rand:1:lognormal:1"), (2, 8, "rand:2:lognormal:1")):
        w = make_grid(d, L, spec)
        for kind in ("k", "acks"):
            full = sum(b.lnphi.shape[0] for b in _family_blocks(w, kind, ())[1])
            evals.clear()
            est = indices._family_estimate(w, kind, 16.0, (1.0, 0.5, 0.25, 0.125))
            assert 2 <= len(evals) <= 6
            # a monotone family (kind k) does not evaluate u = 0
            assert (evals[0][0] == 0.0) == (kind == "acks")
            if est.delta_cap == 0.0:  # C(0) beyond the cap: the certificate reads fewer rows
                assert [u for u, _, _, _ in evals] == [0.0, 1e-3]
                assert evals[0][3] == full and evals[1][3] < full
                continue
            assert [n for u, _, _, n in evals if n == full] == [full] * (1 + (kind == "acks"))
            assert sum(n for _, _, _, n in evals if n < full) <= 400


def test_monotone_blocks_skip_the_u0_probes(monkeypatch):
    # K-curve rows are nondecreasing: no knee probe and no cap evaluation
    # reads u = 0, and the estimate equals a run that probes it
    w = make_grid(1, 10, "rand:3:lognormal:1")
    us = []
    real = indices._knee_fails
    monkeypatch.setattr(indices, "_knee_fails", lambda lnphi, ls, u, *a: us.append(u) or real(lnphi, ls, u, *a))
    evals = _recorded_cap_evaluations(monkeypatch)
    skipped = family_index(w)
    assert us and evals and 0.0 not in us + [e[0] for e in evals]

    class Unchecked(_LevelBlock):
        def __init__(self, *a):
            super().__init__(*a)
            self.monotone = False

    monkeypatch.setattr(indices, "_LevelBlock", Unchecked)
    w._indices.clear()
    assert family_index(w) == skipped
    assert 0.0 in us and evals[-1] != evals[0] and any(e[0] == 0.0 for e in evals)


@pytest.mark.parametrize("L", [10, 12, 14])
@pytest.mark.parametrize("a", [-0.5, -0.75])
def test_cap_threshold_of_power_weights_is_the_closed_form(a, L):
    # the base cube's K-curve binds between its first knot h = 2^-L and 1:
    # C(u) = ln K(h) - ln K(1) + u L ln 2, so C(u) = ln 16 at 1 + a + 4 / L
    import mpmath

    w = make_grid(1, L, f"pow:{a}")
    est = family_index(w)
    ulp = np.spacing(est.delta_cap)
    # within 4 ulp of the root on the knots as stored (the bisection gave
    # 0.8999633789 for 0.9) ...
    blk = _LevelBlock.of_level(w, 0, "k")
    with mpmath.workdps(40):
        lnh, ln1, lsh, ls1 = (mpmath.mpf(float(x)) for x in (blk.lnphi[0, 0], blk.lnphi[0, -1], blk.ls[0], blk.ls[-1]))
        root = (mpmath.log(16) - (lnh - ln1)) / (ls1 - lsh)
        assert abs(est.delta_cap - root) <= 4 * ulp
    # ... and, as K(1) = 2.0000000000000115 (a sum of 2^L cells) at L = 14
    # moves that root 5.5 and 6.1 ulp, within 8 ulp of the closed form
    assert abs(est.delta_cap - (1.0 + a + math.log2(16.0) / L)) <= 8 * ulp


@given(random_grids(max_level_1d=10, max_level_2d=5), st.sampled_from(["k", "acks"]), st.sampled_from(_SETTINGS))
@settings(max_examples=40)
def test_cap_threshold_contract_random(w, kind, setting):
    # C(u) <= cap < C(u + 1e-9) on every row, the certificate bit-equal to
    # full-row evaluations, and u at least the frozen bisection's u and
    # within 1e-4 of it
    cap, gammas = setting
    new, old = indices._family_estimate(w, kind, cap, gammas), _frozen_family_index(w, kind, cap, gammas)
    _assert_cap_rebased(new, old, _family_blocks(w, kind, ())[1])
    assert new.delta_cap >= old.delta_cap


def test_cap_value_beyond_reads_the_rows_kept_above_it():
    # two rows on log-abscissae 0, 0.01, 1, 10 with ln 16 = L16: row A is
    # max(L16 + 0.01 (u - 0.5), L16 + 5e-6 + (u - 0.5005)), row B is
    # L16 + 10 (u - 0.50094).  Newton steps 1 -> 0.50094 (B's root) ->
    # 0.500495 (A's steep root, where B is 4.45e-3 below L16 and dropped)
    # -> 0.5; at 0.501 row B is the larger, so cap_value_beyond must read
    # the rows kept at u = 1, not those kept at the last failing iterate
    L16 = math.log(16.0)
    pa = [0.0, -(L16 - 0.005), -(L16 + 5e-6 - 0.5005), 100.0]
    pb = [0.0, -1.0, -1.0, -(L16 - 5.0094)]
    blk = _LevelBlock(np.exp([0.0, 0.01, 1.0, 10.0]), np.array([pa, pb]))
    est = indices._index_estimate([blk], [(1.0, [(4, 5.0)])], 16.0, 1, lambda b, row: "row")
    assert abs(est.delta_cap - 0.5) <= 1e-12
    full = indices._blocks_ok([blk], est.delta_cap + 1e-3, L16)[0]
    assert est.cap_value_beyond == math.exp(full) and abs(full - (L16 + 6e-4)) <= 1e-9


@given(
    random_grids(max_level_1d=10, max_level_2d=5, min_level=2),
    st.sampled_from([1.5, 4.0, 16.0]),
    st.sampled_from([gammas for _, gammas in _SETTINGS]),
)
@example(make_grid(1, 10, "rand:1:lognormal:1"), 4.0, _SETTINGS[0][1])  # the witness at u = 0, gamma = 1
@example(make_grid(2, 5, "rand:4:lognormal:2"), 16.0, _SETTINGS[0][1])
@example(make_grid(1, 8, "rand:4:lognormal:1"), 4.0, _SETTINGS[0][1])  # delta_hat > 0
@settings(max_examples=40)
def test_acks_cap_fields_and_witness_beyond_the_cap_at_u0_equal_full_reads(w, cap, gammas):
    # C(0) beyond the cap: the certificate at u = 1e-3 reads only the rows
    # whose C(0) is within reach of the family's, and a witness at u = 0 on
    # full-width windows takes the row constants of the u = 0 evaluation;
    # both equal frozen reads of every row of the level blocks
    lncap = math.log(cap)
    levels, blocks, windows = _family_blocks(w, "acks", gammas)
    c0 = _frozen_blocks_ok(blocks, 0.0, lncap)[1]
    assume(not (c0 <= lncap and math.exp(c0) <= cap))
    est = indices._family_estimate(w, "acks", cap, gammas)
    assert est.delta_cap == 0.0 and est.cap_value_at == _cap_value(c0)
    assert est.cap_value_beyond == _cap_value(_frozen_blocks_ok(blocks, 1e-3, lncap)[1])
    b, row, s, t = _frozen_witness(blocks, dict(windows)[est.gamma], est.delta_hat)
    assert est.witness == (_cube_at(w, levels[b], row).addr(), s, t)


def test_acks_u0_evaluation_serves_the_certificate_and_the_witness(monkeypatch):
    # C(0) beyond the cap and delta_hat = 0 at gamma = 1: past the knee
    # scans the level blocks are read once, at u = 0, and the certificate
    # reads the one row C(0) leaves it (each read every row before)
    w = make_grid(1, 10, "rand:1:lognormal:1")
    rows, in_knee = [], [False]
    real_scan, real_runmax = indices._knee_scan, indices._runmax

    def scan(*a):
        in_knee[0] = True
        try:
            return real_scan(*a)
        finally:
            in_knee[0] = False

    def runmax(x):
        if not in_knee[0]:
            rows.append(x.shape[0])
        return real_runmax(x)

    monkeypatch.setattr(indices, "_knee_scan", scan)
    monkeypatch.setattr(indices, "_runmax", runmax)
    est = acks_index(w, C_cap=4.0)
    assert (est.delta_cap, est.delta_hat, est.gamma) == (0.0, 0.0, 1.0)
    assert rows == [1 << lev for lev in range(w.L)] + [1]


def test_cap_value_beyond_reads_the_rows_within_reach_of_c0():
    # two rows on log-abscissae 0, 0, 10 with C(0) beyond the cap: row A
    # drops by c at no lever, C_A(u) = c, and row B by c - 5e-4 over the
    # lever 10, C_B(u) = c - 5e-4 + 10 u.  At u = 1e-3 row B binds, and
    # its C(0) is within 1e-3 times its block's log-window of c
    c = math.log(16.0) + 1.0
    blk = _LevelBlock(np.exp([0.0, 0.0, 10.0]), np.array([[c, 0.0, 100.0], [0.0, 0.0, 5e-4 - c]]))
    est = indices._index_estimate([blk], [(1.0, [(3, 5.0)])], 16.0, 1, lambda b, row: "row")
    assert est.delta_cap == 0.0 and est.cap_value_at == math.exp(c)
    full = _frozen_blocks_ok([blk], 1e-3, math.log(16.0))[1]
    assert est.cap_value_beyond == math.exp(full) and abs(full - (c + 9.5e-3)) <= 1e-12


def test_cap_threshold_where_c_is_flat_within_rounding_at_cap_10(monkeypatch):
    # one row with C(u) = A + 7 u, A = ln 10 - 7e-3 + 2.3e-16: Newton from
    # u = 1 lands near 1e-3 on a C one ulp above ln 10, and C keeps that
    # value for 293 floats below, each step of Newton less than one float;
    # doubling steps and a bisection back end on the largest float within
    # the cap as computed, where 64 one-float steps raised an error
    L10 = math.log(10.0)
    blk = _LevelBlock(np.exp([0.0, 7.0]), np.array([[2.2955850929940462, 0.0]]))
    evals = _recorded_cap_evaluations(monkeypatch)
    est = indices._index_estimate([blk], [(1.0, [(2, 3.5)])], 10.0, 1, lambda b, row: "row")
    assert 2 < len(evals) <= 30
    monkeypatch.undo()
    C = lambda u: indices._blocks_ok([blk], u, L10)[0]
    within = lambda c: c <= L10 and math.exp(c) <= 10.0
    u = est.delta_cap
    assert abs(u - 1e-3) <= 1e-15
    assert within(C(u)) and not within(C(math.nextafter(u, 1.0)))
    assert est.cap_value_at == math.exp(C(u)) <= 10.0 and est.cap_value_beyond == math.exp(C(u + 1e-3))


def test_cap_threshold_on_a_grid_scaled_by_1e200(monkeypatch):
    # log-values near 460 round C to multiples of 2^-44; at a cap whose log
    # lies one ulp below such a multiple, C stays one ulp above it over
    # some hundred floats (64 one-float steps raised an error there)
    cap = 16.00000000000011
    assert 0 < 2.0**-44 - math.log(cap) % 2.0**-44 <= 2.0**-51
    w0 = make_grid(1, 9, "pow:-0.75")
    w = WeightGrid(1, 9, np.asarray(w0.cells) * 1e200)
    evals = _recorded_cap_evaluations(monkeypatch)
    est = dataclasses.replace(acks_index(w, C_cap=cap), lambda_hat=None)
    assert len(evals) <= 30
    monkeypatch.undo()
    _assert_cap_rebased(est, _frozen_family_index(w, "acks", cap), _family_blocks(w, "acks", ())[1])
    assert abs(est.delta_cap - acks_index(w0, C_cap=cap).delta_cap) <= 1e-15


def test_cap_threshold_past_its_step_count_is_a_numerical_error(monkeypatch, capsys):
    # a constant reported beyond the cap at every u (u = 0 included, which
    # no family has) leaves the iteration at u = 0: it stops after 128
    # steps with one error line, not a loop
    real = indices._blocks_ok

    def beyond(blocks, u, lncap):
        _, slope, keep = real(blocks, u, -math.inf)  # keeping every row
        return lncap + 1.0, slope, keep

    monkeypatch.setattr(indices, "_blocks_ok", beyond)
    assert main(["analyze", "--weight", "pow:-0.5", "--level", "10", "--p", "2"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("rhlab: numerical error: FloatingPointError: cap threshold not reached") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# acks_index


def test_acks_index_const():
    w = make_grid(1, 6, "const:1")
    est = acks_index(w)
    assert est.lambda_hat is not None
    assert abs(est.lambda_hat) <= 1e-4


def test_acks_index_pow_half():
    w = make_grid(1, 10, "pow:-0.5")
    est = acks_index(w)
    assert abs(est.lambda_hat - 0.5) <= 0.05


def test_acks_cap_values_beyond_float_range():
    # t w*(t) drops from 5e199 to 5e-201 at t = 1/2: the constant at u = 0
    # is 1e400, reported as inf rather than raising OverflowError
    est = acks_index(WeightGrid(1, 1, [1e-200, 1e200]))
    assert est.delta_cap == 0.0
    assert est.cap_value_at == math.inf and est.cap_value_beyond == math.inf


def test_acks_lambda_is_one_minus_delta():
    w = make_grid(1, 6, "rand:101:lognormal:1")
    est = acks_index(w)
    assert math.isclose(est.lambda_hat, 1.0 - est.delta_hat, rel_tol=0, abs_tol=1e-15)


# ---------------------------------------------------------------------------
# hardy_residual


def test_hardy_residual_identity_curve():
    w = make_grid(1, 4, "const:1")
    K = k_l1_linf(w, w.base)  # K(s) = s exactly
    assert math.isclose(hardy_residual(K), 1.0, rel_tol=1e-12)


def test_hardy_residual_sqrt():
    ts = np.linspace(0.0, 1.0, 4097)
    phi = ConcaveCurve(ts, np.sqrt(ts))
    assert abs(hardy_residual(phi) - 2.0) <= 0.05


def test_hardy_residual_step_frozen():
    w = make_grid(1, 3, "step:2,1")
    K = k_l1_linf(w, w.base)
    # sup sits at t = 1: (1 + integral_{1/2}^1 (0.5 + s)/s ds) / 1.5
    expected = (1.5 + 0.5 * math.log(2.0)) / 1.5
    assert math.isclose(hardy_residual(K), expected, rel_tol=1e-12)


def test_hardy_residual_tracks_singularity_strength():
    # K of pow:a behaves like t^(1+a) near 0, whose residual is 1/(1+a)
    got = {}
    for a in (-0.25, -0.5, -0.75):
        w = make_grid(1, 12, f"pow:{a}")
        got[a] = hardy_residual(k_l1_linf(w, w.base))
        assert math.isclose(got[a], 1.0 / (1.0 + a), rel_tol=0.1)
    assert got[-0.75] > got[-0.5] > got[-0.25]


def test_hardy_residual_positive_on_corpus():
    for w in standard_corpus(1, seed=5, n_random=3):
        r = hardy_residual(k_l1_linf(w, w.base))
        assert 1.0 <= r < math.inf


def test_hardy_residual_one_hot_interior_max():
    # cells (3, 1, 1, ...): K = 3t on [0, h], then K = 2h + t on [h, 1], and
    # the residual peaks inside that piece, away from every knot
    mp = pytest.importorskip("mpmath")
    cells = np.ones(1 << 10)
    cells[0] = 3.0
    w = WeightGrid(1, 10, cells)
    mp.mp.dps = 40
    h = mp.mpf(2) ** -10
    N = lambda t: 3 * h + 2 * h * mp.log(t / h) + (t - h)
    # d(N/K)/dt = 0 where K^2 / t = K' N
    tstar = mp.findroot(lambda t: (2 * h + t) ** 2 / t - N(t), (h, 1), solver="anderson")
    ref = float(N(tstar) / (2 * h + tstar))
    assert math.isclose(ref, 1.4630555133655, rel_tol=1e-12)
    assert math.isclose(hardy_residual(k_l1_linf(w, w.base)), ref, rel_tol=1e-12)
    assert math.isclose(hardy_residual_sup(w, "base").value, ref, rel_tol=1e-12)


def _omega_bound_ok(c, got):
    """got within (8 + 2|c|/(1 + omega)) 2^-53 relative of W0(e^c), the
    conditioning of the rounded ln omega in the residual included."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        ref = mp.lambertw(mp.exp(mp.mpf(c))).real
        return abs(mp.mpf(got) - ref) <= (8 + 2 * abs(c) / (1 + ref)) * 2 ** mp.mpf(-53) * ref


@settings(max_examples=300)
@given(st.floats(min_value=-708.0, max_value=700.0))
def test_wright_omega_within_its_bound(c):
    assert _omega_bound_ok(c, indices._wright_omega(np.array([c]))[0])


def test_wright_omega_within_its_bound_on_a_sweep():
    # the regime seams, and the worst case of the sweeps, -32 < c < -16,
    # where ln omega is rounded to an ulp of 32
    seams = [-40.0, -2.0, 0.0, 1.0, 1e20]
    c = np.concatenate([
        seams, np.nextafter(seams, -np.inf), np.nextafter(seams, np.inf),
        np.random.default_rng(5).uniform(-45.0, 5.0, 1500), np.linspace(-708.0, 700.0, 301),
    ])
    got = indices._wright_omega(c)
    assert all(_omega_bound_ok(ci, gi) for ci, gi in zip(c.tolist(), got.tolist()))


def test_wright_omega_limits():
    c = np.array([1e20 * (1 + 2**-52), 1e300, math.inf, -746.0, -1e300, -math.inf, math.nan])
    got = indices._wright_omega(c)
    assert np.array_equal(got[:3], c[:3])
    assert np.array_equal(got[3:6], np.zeros(3))
    assert math.isnan(got[6])


def test_hardy_residual_keeps_scipy_bits(monkeypatch):
    # t* moves with omega's last ulps, and N / phi at t* only at second order:
    # every cube's residual stays within 2 ulp of scipy's route (3 of the
    # 177,299 here differ at all) and every supremum keeps its bits
    special = pytest.importorskip("scipy.special")
    grids = standard_corpus(1, seed=1) + standard_corpus(2, seed=1) + [
        make_grid(1, 14, "pow:-0.5"), make_grid(1, 16, "rand:1:lognormal:1"),
    ]
    rows = lambda: [h for w in grids for lev in range(w.L + 1) for h in _PieceRun.sweep(w, [lev], indices._hardy_rows)]
    ours, sups = rows(), [hardy_residual_sup(w).value for w in grids]
    monkeypatch.setattr(indices, "_wright_omega", special.wrightomega)
    for a, b in zip(ours, rows()):
        assert np.all(np.abs(a - b) <= 2 * np.spacing(b))
    assert [hardy_residual_sup(w).value for w in grids] == sups


def _dense_hardy(K, n=64):
    """max of N/K over n points per piece of a concave curve, knots included."""
    A, B, s0, s1 = K.pieces()
    best, N0 = 1.0, 0.0
    for a, b, lo, hi in zip(A, B, s0, s1):
        t = np.linspace(lo, hi, n + 1)[1:]
        N = N0 + b * (t - lo) + (a * np.log(t / lo) if lo > 0 else 0.0)
        best = max(best, float((N / (a + b * t)).max()))
        N0 = float(N[-1])
    return best


@given(random_grids(max_level_1d=8, max_level_2d=4))
def test_hardy_residual_at_least_dense_scan(w):
    K = k_l1_linf(w, w.base)
    assert hardy_residual(K) >= _dense_hardy(K) * (1.0 - 1e-12)


@given(random_grids(max_level_1d=8, max_level_2d=4))
def test_hardy_level_route_equals_single_route(w):
    level = hardy_residual_sup(w, "base").value
    assert math.isclose(level, hardy_residual(k_l1_linf(w, w.base)), rel_tol=1e-13)
