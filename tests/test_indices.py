"""Almost-increase constants and index estimators.

The analytic oracles: a power curve s^delta has index exactly delta; the
constant-weight K-curve has family index 1 with constant 1; s(2-s) on (0,1)
with a half window has almost-increase constant 4/3 at delta 1; the reverse
Hardy residual of s^(1/2) is 2. Estimator metadata is pinned down too: the
bracketing certificate around the cap threshold, the exact beta/q shift
identity, witness determinism, and scaling invariance.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import flat_grids, localized_grids, random_grids
from rhlab import indices
from rhlab.cli import main
from rhlab.grid import WeightGrid, _cube_at, level_cubes, make_grid
from rhlab.indices import (
    IndexEstimate,
    _LevelBlock,
    acks_index,
    ai_constant,
    family_index,
    hardy_residual,
    samko_alpha,
    single_index,
)
from rhlab.kcalc import ConcaveCurve, CurveFamily, StepProductCurve, _level_pieces, k_l1_linf
from rhlab.rearrange import rearrangement
from rhlab.weights import hardy_residual_sup, standard_corpus


# ---------------------------------------------------------------------------
# ai_constant


def test_ai_const_weight_curve():
    w = make_grid(1, 4, "const:1")
    K = k_l1_linf(w, w.base)
    for gamma in (1.0, 0.5, 0.125):
        c = ai_constant(K, 1.0, gamma)
        assert math.isclose(c.value, 1.0, rel_tol=1e-12)
    # delta = 0 asks for plain monotonicity, true of any K-curve
    assert math.isclose(ai_constant(K, 0.0).value, 1.0, rel_tol=1e-12)


def test_ai_quadratic_callable():
    c = ai_constant(lambda s: s * (2.0 - s), delta=1.0, gamma=0.5, domain_end=1.0)
    # ratio (2-s)/(2-t), maximized as s -> 0 with t at the window end
    assert math.isclose(c.value, 4.0 / 3.0, rel_tol=1e-6)
    assert c.t == 0.5


def test_ai_sees_interior_minimum():
    # K of step:2,1 is 0.5 + s on [1/2, 1]; at delta 0.6 the ratio
    # K(s) s^-delta dips inside that piece, to its minimum at s* = 0.75
    w = make_grid(1, 3, "step:2,1")
    c = ai_constant(k_l1_linf(w, w.base), 0.6)
    assert math.isclose(c.value, 0.5**-0.6 / (1.25 * 0.75**-0.6), rel_tol=1e-12)
    assert c.s == 0.5 and math.isclose(c.t, 0.75, rel_tol=1e-12)


def test_ai_unbounded_past_delta_one():
    w = make_grid(1, 4, "const:1")
    K = k_l1_linf(w, w.base)
    assert ai_constant(K, 1.2).value == math.inf


@pytest.mark.parametrize("f", [lambda s: s * (2.0 - s), lambda s: 1.5 + math.sin(40.0 * s)], ids=["concave", "wavy"])
@pytest.mark.parametrize("delta, gamma", [(0.0, 1.0), (0.4, 0.5), (1.0, 0.3), (1.2, 1.0)])
def test_ai_callable_equals_its_sampled_pair(f, delta, gamma):
    T = 1.0
    s = np.geomspace(gamma * T * 1e-9, gamma * T, 4097)
    c = ai_constant(f, delta, gamma, domain_end=T)
    pair = ai_constant((s, np.array([f(x) for x in s])), delta, gamma, domain_end=T)
    assert [x.hex() for x in (c.value, c.s, c.t)] == [x.hex() for x in (pair.value, pair.s, pair.t)]


def test_ai_callable_errors_keep_their_messages():
    with pytest.raises(ValueError, match="^domain_end required for callable curves$"):
        ai_constant(lambda s: s, 0.5)
    with pytest.raises(ValueError, match="^curve must be positive on the window$"):
        ai_constant(lambda s: s - 0.5, 0.5, domain_end=1.0)


def test_ai_parameter_validation():
    w = make_grid(1, 3, "const:1")
    K = k_l1_linf(w, w.base)
    with pytest.raises(ValueError):
        ai_constant(K, -0.1)
    with pytest.raises(ValueError):
        ai_constant(K, 0.5, gamma=1.5)
    with pytest.raises(ValueError):
        ai_constant(lambda s: s, 0.5)  # callable needs domain_end


@given(random_grids(max_level_1d=6, max_level_2d=3), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_ai_monotone_in_delta(w, d1, d2):
    lo, hi = sorted((d1, d2))
    K = k_l1_linf(w, w.base)
    assert ai_constant(K, lo).value <= ai_constant(K, hi).value * (1 + 1e-12)


@given(random_grids(max_level_1d=6, max_level_2d=3), st.sampled_from([0.25, 0.5, 1.0]))
def test_ai_monotone_in_gamma(w, g):
    K = k_l1_linf(w, w.base)
    smaller = ai_constant(K, 0.6, g / 2).value
    larger = ai_constant(K, 0.6, g).value
    assert smaller <= larger * (1 + 1e-12)


def test_ai_qpower_identity():
    # C(phi^q, delta) = C(phi, delta/q)^q, exact on a shared sample grid
    w = make_grid(1, 5, "rand:41:lognormal:1")
    K = k_l1_linf(w, w.base)
    q, delta = 2.5, 0.8
    a = ai_constant(lambda s: K.value(s) ** q, delta, domain_end=K.domain_end).value
    b = ai_constant(lambda s: K.value(s), delta / q, domain_end=K.domain_end).value
    assert math.isclose(a, b**q, rel_tol=1e-12)


# ---------------------------------------------------------------------------
# single_index and samko_alpha


def test_single_index_powers():
    t = np.geomspace(1e-6, 1.0, 20001)
    assert abs(single_index((t, np.sqrt(t))).delta_hat - 0.5) <= 1e-3
    assert abs(single_index((t, t)).delta_hat - 1.0) <= 1e-3


def test_single_index_oscillating_log():
    t = np.geomspace(1e-6, 1.0, 20001)
    phi = t * (1.0 + np.abs(np.sin(np.log(t))))
    est = single_index((t, phi), C_cap=2.0)
    assert 0.99 <= est.delta_hat <= 1.0


def test_single_index_flat_curve_is_zero():
    # a constant has no positive index: the binding ratio needs the whole
    # window, which the knee rule rejects
    t = np.geomspace(1e-6, 1.0, 4097)
    est = single_index((t, np.ones_like(t)))
    assert est.delta_hat == 0.0


def test_single_index_validation():
    t = np.geomspace(1e-3, 1.0, 100)
    with pytest.raises(ValueError):
        single_index((t, t), C_cap=1.0)
    with pytest.raises(ValueError):
        single_index((t, t), gamma=0.0)


def test_samko_alpha_powers():
    t = np.geomspace(1e-8, 1.0, 50001)
    for delta in (0.3, 0.7, 1.0):
        assert abs(samko_alpha((t, t**delta)) - delta) <= 0.01
    assert samko_alpha((t, np.ones_like(t))) == 0.0


def test_samko_agrees_with_single_index_classification():
    # positive index and positive alpha go together on a mixed corpus
    curves = []
    for i in range(15):
        w = make_grid(1, 6, f"rand:{500 + i}:lognormal:1")
        K = k_l1_linf(w, w.base)
        ts = np.geomspace(K.t[1], K.domain_end, 4001)
        curves.append((ts, K.value(ts)))
    flat = np.geomspace(1e-6, 1.0, 4001)
    for c in (1.0, 3.0):
        curves.append((flat, np.full_like(flat, c)))
    for ts, vs in curves:
        ind = single_index((ts, vs)).delta_hat
        alpha = samko_alpha((ts, vs))
        assert (ind > 0.02) == (alpha > 0.02)


def _frozen_samko_alpha(phi, h_grid=None, x_grid=(2.0, 4.0, 8.0, 16.0)):
    """samko_alpha with its three curve-type branches and per-h scan, before
    a concave curve became its knot pair and the scan an array ratio."""
    if isinstance(phi, ConcaveCurve):
        T = phi.domain_end
        floor = 4.0 * float(np.min(np.diff(phi.t)))
        ev = phi.value
    elif isinstance(phi, StepProductCurve):
        T = phi.domain_end
        floor = 4.0 * float(np.min(np.diff(np.concatenate(([0.0], phi.breaks)))))
        ev = phi.value
    else:
        t, v = (np.asarray(a, dtype=np.float64) for a in phi)
        T = float(t[-1])
        floor = max(4.0 * float(np.min(np.diff(t))), float(t[0]))
        ev = lambda s: np.interp(s, t, v)
    if h_grid is None:
        h_grid = []
        hcur = T
        while hcur >= floor:
            h_grid.append(hcur)
            hcur /= 10.0
        h_grid = h_grid[1:]
    best = None
    for x in x_grid:
        ratios = [float(ev(x * h)) / float(ev(h)) for h in h_grid if x * h <= T]
        if not ratios:
            continue
        cand = math.log(min(ratios)) / math.log(x)
        best = cand if best is None else max(best, cand)
    return best


def _samko_cases(w):
    K = k_l1_linf(w, w.base)
    ts = np.geomspace(K.t[1], K.domain_end, 513)
    step = StepProductCurve(rearrangement(w, w.base))
    return [K, step, (K.t, K.v), (ts, K.value(ts)), (step.breaks, step.value(step.breaks))]


def _assert_samko_frozen(w):
    for phi in _samko_cases(w):
        for kw in ({}, {"x_grid": (1.5, 3.0)}, {"h_grid": [0.3, 0.05, 0.011, 1e-3]}):
            try:
                want = _frozen_samko_alpha(phi, **kw)
            except ValueError:  # a one-sample pair has no knot spacing
                with pytest.raises(ValueError):
                    samko_alpha(phi, **kw)
                continue
            if want is None:
                with pytest.raises(ValueError, match="domain too small"):
                    samko_alpha(phi, **kw)
            else:
                assert np.float64(samko_alpha(phi, **kw)).view(np.uint64) == np.float64(want).view(np.uint64)


def test_samko_alpha_zero_curve_value_fails_loudly():
    t = np.linspace(0.01, 1.0, 200)
    with pytest.raises(ArithmeticError):
        samko_alpha((t, np.where(t < 0.5, 0.0, t)))


@given(random_grids(max_level_1d=8, max_level_2d=4))
def test_samko_alpha_matches_frozen_random(w):
    _assert_samko_frozen(w)


@given(st.sampled_from(flat_grids() + localized_grids()))
def test_samko_alpha_matches_frozen_flat_and_localized(w):
    _assert_samko_frozen(w)


# ---------------------------------------------------------------------------
# family_index


def test_family_index_const():
    w = make_grid(1, 6, "const:1")
    est = family_index(CurveFamily(w))
    assert abs(est.delta_hat - 1.0) <= 1e-4
    assert est.cap == 16.0
    assert est.monotone
    # the constant family is almost increasing with constant exactly 1
    assert est.cap_value_at <= 1.0 + 1e-12


def test_family_index_pow_half():
    w = make_grid(1, 10, "pow:-0.5")
    est = family_index(CurveFamily(w))
    assert abs(est.delta_hat - 0.5) <= 0.05


def test_family_index_certificate():
    for spec in ("step:2,1", "rand:61:lognormal:1"):
        w = make_grid(1, 7, spec)
        est = family_index(CurveFamily(w))
        assert est.cap_value_at <= est.cap + 1e-12
        if math.isfinite(est.cap_value_beyond):
            assert est.cap_value_beyond > est.cap
        assert est.delta_cap >= est.delta_hat - 1e-12


def test_family_index_shift_identity():
    w = make_grid(1, 8, "rand:71:lognormal:1")
    base = family_index(CurveFamily(w), beta=0.0, q=2.0)
    shifted = family_index(CurveFamily(w), beta=0.25, q=2.0)
    assert abs(shifted.delta_hat - (base.delta_hat - 0.5)) <= 2e-4


def test_family_index_scaling_invariance():
    w = make_grid(1, 7, "rand:83:lognormal:1")
    ref = family_index(CurveFamily(w))
    for c in (1e-3, 7.0, 1e4):
        ws = WeightGrid(w.d, w.L, w.cells * c, label="scaled")
        est = family_index(CurveFamily(ws))
        assert est.delta_hat == ref.delta_hat
        assert est.witness == ref.witness


def test_family_index_witness_deterministic():
    w = make_grid(2, 4, "rand:97:lognormal:1")
    a = family_index(CurveFamily(w))
    b = family_index(CurveFamily(w))
    assert a.witness == b.witness
    assert a.delta_hat == b.delta_hat
    # witness names a cube of the grid
    addr, s, t = a.witness
    assert ":" in addr and 0 < s <= t


def test_family_index_validation():
    w = make_grid(1, 4, "const:1")
    with pytest.raises(ValueError):
        family_index(CurveFamily(w), C_cap=0.5)
    with pytest.raises(ValueError):
        family_index(CurveFamily(w), beta=1.0)
    with pytest.raises(ValueError):
        family_index(CurveFamily(w), q=0.5)
    with pytest.raises(ValueError):
        family_index(CurveFamily(w), gamma_grid=())


@given(st.integers(0, 10**6))
@settings(max_examples=15)
def test_family_index_in_range(seed):
    w = make_grid(1, 6, f"rand:{seed}:lognormal:1")
    est = family_index(CurveFamily(w))
    assert 0.0 <= est.delta_hat <= 1.0
    assert est.monotone


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


def _ref_family_index(F, C_cap=16.0, gamma_grid=(1.0, 0.5, 0.25, 0.125)):
    w, beta, q = F.w, F.beta, F.q
    lncap, triv, tol = math.log(C_cap) / q, 1e-12 / q, 1e-4 / q
    best = None
    for gamma in gamma_grid:
        wins = _ref_windows(w, F.kind, gamma)
        if wins:
            u, mono = _ref_scan(lambda u: _ref_knee_ok(wins, u, lncap, triv), tol)
            if best is None or u > best[0]:
                best = (u, mono, gamma, wins)
    u_hat, mono, gamma, wins = best
    blocks = [_FrozenBlock.of_level(w, lev, F.kind) for lev in range(w.base.level, w.L)]
    cap = lambda u: _frozen_blocks_ok(blocks, u, lncap)
    u_cap, mono_cap = _ref_scan(lambda u: cap(u)[0], tol)
    beyond = u_cap + 1e-3 / q
    return IndexEstimate(
        delta_hat=q * (u_hat - beta),
        delta_cap=q * (u_cap - beta),
        cap=C_cap,
        gamma=gamma,
        resolution=w.L,
        witness=_ref_witness(w, wins, u_hat),
        monotone=mono and mono_cap,
        cap_value_at=math.exp(q * cap(u_cap)[1]),
        cap_value_beyond=math.exp(q * cap(beyond)[1]) if beyond <= 1.0 else math.inf,
    )


_SCAN_GRIDS = [(1, 12, s) for s in ("const:1", "step:2,1", "pow:-0.5", "pow:-0.95")]
_SCAN_GRIDS += [(1, 10, f"rand:{i}:lognormal:{sg}") for i, sg in ((1, 1), (2, 0.5), (3, 2))]
_SCAN_GRIDS += [(2, 5, s) for s in ("const:1", "step:4,1,1,1", "rand:4:lognormal:1", "rand:5:lognormal:2")]


@pytest.mark.parametrize("kind", ["k", "acks"])
@pytest.mark.parametrize("d, L, spec", _SCAN_GRIDS)
def test_family_index_equals_exhaustive_scan(d, L, spec, kind):
    w = make_grid(d, L, spec)
    for beta, q, cap, gammas in ((0.0, 1.0, 16.0, (1.0, 0.5, 0.25, 0.125)), (0.25, 2.0, 4.0, (0.5, 0.125))):
        F = CurveFamily(w, kind=kind, beta=beta, q=q)
        assert family_index(F, C_cap=cap, gamma_grid=gammas) == _ref_family_index(F, cap, gammas)


def test_cap_scan_is_a_binary_search(monkeypatch):
    calls = []
    real = indices._blocks_ok
    monkeypatch.setattr(indices, "_blocks_ok", lambda *a, **k: calls.append(a[1]) or real(*a, **k))
    family_index(CurveFamily(make_grid(1, 10, "rand:1:lognormal:1")))
    assert 0 < len(calls) <= 20


def test_family_index_memoised_per_grid(monkeypatch):
    w = make_grid(1, 8, "rand:5:lognormal:1")
    first = acks_index(w)
    calls = []
    real = indices._family_estimate
    monkeypatch.setattr(indices, "_family_estimate", lambda *a: calls.append(a) or real(*a))
    again = family_index(CurveFamily(w, kind="acks"))
    # served from the memo, and acks_index's lambda_hat did not leak into it
    assert calls == []
    assert again == dataclasses.replace(first, lambda_hat=None)
    family_index(CurveFamily(w, kind="acks"), C_cap=8.0)
    assert len(calls) == 1


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
# must agree bit for bit.


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


def _frozen_blocks_ok(blocks, u, lncap_q):
    cmax = 0.0
    for blk in blocks:
        lg = blk.lg(u)
        cmax = max(cmax, float((np.maximum.accumulate(lg, axis=1) - lg).max()))
    return cmax <= lncap_q + 1e-15, cmax


def _frozen_knee_ok(blocks, u, windows, lncap_q, triv_tol):
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


@pytest.mark.parametrize("tol", [1e-4, 1e-4 / 64])
@pytest.mark.parametrize("c", [-0.5, 0.0, 0.005, 0.25, 0.3, 37 / 64, 0.6, 63 / 64, 0.999, 1.0])
def test_scan_prefix_probes_equal_the_frozen_grid_search(c, tol):
    # the cap scan's one bisection of [0, 1] probes the frozen binary search
    # over the 1/64 grid and then its bisection, in the same order
    new, old = [], []
    u = indices._scan_prefix(lambda u: new.append(u) or u <= c, tol)
    assert u == _frozen_scan_prefix(lambda u: old.append(u) or u <= c, tol)
    assert new == old


def _frozen_family_index(F, C_cap=16.0, gamma_grid=(1.0, 0.5, 0.25, 0.125)):
    w, beta, q = F.w, F.beta, F.q
    levels = range(w.base.level, w.L)
    blocks = [_FrozenBlock.of_level(w, lev, F.kind) for lev in levels]
    windows = [(g, [indices._level_window(w, lev, F.kind, g) for lev in levels]) for g in gamma_grid]
    windows = [(g, win) for g, win in windows if any(n for n, _ in win)]
    lncap_q, triv_tol, utol = math.log(C_cap) / q, 1e-12 / q, 1e-4 / q
    knee = lambda u, ks: _frozen_knee_ok(blocks, u, [windows[k][1] for k in ks], lncap_q, triv_tol)
    best = None
    for (gamma, win), (u_hat, mono) in zip(windows, _frozen_scan_largest(knee, utol, len(windows))):
        if best is None or u_hat > best[0]:
            best = (u_hat, mono, gamma, win)
    u_hat, monotone, gamma_star, win_star = best

    def cap_value(u):
        try:
            return math.exp(q * _frozen_blocks_ok(blocks, u, lncap_q)[1])
        except OverflowError:
            return math.inf

    u_cap = _frozen_scan_prefix(lambda u: _frozen_blocks_ok(blocks, u, lncap_q)[0], utol)
    c_beyond = cap_value(u_cap + 1e-3 / q) if u_cap + 1e-3 / q <= 1.0 else math.inf
    wit = _frozen_witness(blocks, win_star, u_hat)
    return IndexEstimate(
        delta_hat=q * (u_hat - beta),
        delta_cap=q * (u_cap - beta),
        cap=C_cap,
        gamma=gamma_star,
        resolution=w.L,
        witness=("", 0.0, 0.0) if wit is None else (_cube_at(w, levels[wit[0]], wit[1]).addr(), wit[2], wit[3]),
        monotone=monotone,
        cap_value_at=cap_value(u_cap),
        cap_value_beyond=c_beyond,
    )


_SETTINGS = ((0.0, 1.0, 16.0, (1.0, 0.5, 0.25, 0.125)), (0.25, 2.0, 4.0, (0.5, 0.125)))


def _assert_equals_frozen_scan(w):
    for kind in ("k", "acks"):
        for beta, q, cap, gammas in _SETTINGS:
            F = CurveFamily(w, kind=kind, beta=beta, q=q)
            old = _frozen_family_index(F, cap, gammas)
            assert family_index(F, C_cap=cap, gamma_grid=gammas) == old
            if kind == "acks" and (beta, q) == (0.0, 1.0):
                want = dataclasses.replace(old, lambda_hat=1.0 - old.delta_hat)
                assert acks_index(w, C_cap=cap, gamma_grid=gammas) == want


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


@given(random_grids(), st.sampled_from(["k", "acks"]), st.sampled_from(_SETTINGS))
@settings(max_examples=30)
def test_knee_admissibility_is_a_prefix_per_row(w, kind, setting):
    _, q, cap, gammas = setting
    _, blocks, windows = _family_blocks(w, kind, gammas)
    for _, win in windows:
        for blk, (ncols, kappa) in zip(blocks, win):
            if not ncols:
                continue
            lnphi, ls = blk.lnphi[:, :ncols], blk.ls[:ncols]
            failed = np.zeros(lnphi.shape[0], dtype=bool)
            for u in np.linspace(0.0, 1.0, 65).tolist():
                fails = np.zeros_like(failed)
                fails[indices._knee_fails(lnphi, ls, u, kappa, math.log(cap) / q, 1e-12 / q)] = True
                # a row failing at one grid point fails at every later one
                assert not np.any(failed & ~fails)
                failed = fails


def _unpruned_family_index(F, C_cap, gamma_grid):
    """family_index with every probe reading every row of every block, in
    level order: one plain bisection of [0, 1] per window for the knee rule
    and one for the cap."""
    w, q = F.w, F.q
    levels, blocks, windows = _family_blocks(w, F.kind, gamma_grid)
    lncap_q, triv_tol, utol = math.log(C_cap) / q, 1e-12 / q, 1e-4 / q

    def knee_ok(win, u):
        for blk, (ncols, kappa) in zip(blocks, win):
            if ncols and indices._knee_fails(blk.lnphi[:, :ncols], blk.ls[:ncols], u, kappa, lncap_q, triv_tol).size:
                return False
        return True

    u_knee = [indices._scan_prefix(lambda u: knee_ok(win, u), utol) for _, win in windows]
    best = int(np.argmax(u_knee))  # the first best gamma
    u_hat, (gamma, win) = u_knee[best], windows[best]
    cap_value = lambda u: math.exp(q * indices._blocks_ok(blocks, u, lncap_q)[1])
    u_cap = indices._scan_prefix(lambda u: indices._blocks_ok(blocks, u, lncap_q)[0], utol)
    wit = indices._witness(blocks, win, u_hat)
    return IndexEstimate(
        delta_hat=q * (u_hat - F.beta),
        delta_cap=q * (u_cap - F.beta),
        cap=C_cap,
        gamma=gamma,
        resolution=w.L,
        witness=("", 0.0, 0.0) if wit is None else (_cube_at(w, levels[wit[0]], wit[1]).addr(), wit[2], wit[3]),
        monotone=True,
        cap_value_at=cap_value(u_cap),
        cap_value_beyond=cap_value(u_cap + 1e-3 / q) if u_cap + 1e-3 / q <= 1.0 else math.inf,
    )


@given(random_grids(max_level_1d=10, max_level_2d=5), st.sampled_from(["k", "acks"]), st.sampled_from(_SETTINGS))
@settings(max_examples=30)
def test_family_index_equals_unpruned_bisection(w, kind, setting):
    beta, q, cap, gammas = setting
    F = CurveFamily(w, kind=kind, beta=beta, q=q)
    assert family_index(F, C_cap=cap, gamma_grid=gammas) == _unpruned_family_index(F, cap, gammas)


def _recorded_scans(monkeypatch):
    """Record each scan's probes, as (u, ok) lists, one list per scan."""
    scans = []
    real = indices._scan_prefix

    def scan(ok_fn, tol):
        scans.append([])
        return real(lambda u: scans[-1].append((u, ok := ok_fn(u))) or ok, tol)

    monkeypatch.setattr(indices, "_scan_prefix", scan)
    return scans


@pytest.mark.parametrize("chunk", [2, 3, 7, 16, 65])
@pytest.mark.parametrize("n", [1, 3])
def test_scan_largest_result_does_not_depend_on_the_chunk(monkeypatch, chunk, n):
    # each row's knee verdict is its own: cutting every level block into
    # blocks of chunk rows changes no probe's verdict, so neither the
    # probes of the n windows' bisections nor the largest admissible u
    w = make_grid(1, 10, "rand:1:lognormal:1")
    for kind in ("k", "acks"):
        for beta, q, cap, gammas in _SETTINGS:
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
            runs = []
            for blks, wins, name in (
                (blocks, windows, lambda b, row: (levels[b], row)),
                (cut, cut_windows, lambda b, row: (at[b][0], at[b][1] + row)),
            ):
                scans = _recorded_scans(monkeypatch)
                est = indices._index_estimate(blks, wins, beta, q, cap, w.L, name)
                runs.append((est, scans))
                monkeypatch.undo()
            assert runs[1] == runs[0]
            assert len(runs[0][1]) == len(windows) + 1  # the knee scans and the cap scan


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
        if kind == "k":  # with the interior minima and their abscissae
            arrays += [blk.lnA, blk.lnB, sub.lnA, sub.lnB, blk.lg(0.5, with_s=True)[1]]
        # a level of n >= m cubes is column-major: so are its arrays, the
        # rows of any subset, and the ratio arrays at a scan point
        want = "F_CONTIGUOUS" if n >= m else "C_CONTIGUOUS"
        for x in arrays:
            assert x.flags[want]
        assert np.array_equal(sub.lnphi, blk.lnphi[::3])


@pytest.mark.parametrize("d, L", [(1, 12), (2, 6)])
def test_analyze_bytes_do_not_depend_on_the_block_layout(capsys, monkeypatch, d, L):
    argv = ["analyze", "--weight", "rand:1:lognormal:1", "--dim", str(d), "--level", str(L), "--q", "2"]
    assert main(argv) == 0
    live = capsys.readouterr().out
    built = []

    class RowMajor(_LevelBlock):
        def __init__(self, s, lnphi, A, B):
            # the piece arrays follow lnphi's layout
            super().__init__(s, np.ascontiguousarray(lnphi), A, B)
            built.append(self.lnA is None or self.lnA.flags.c_contiguous)

    monkeypatch.setattr(indices, "_LevelBlock", RowMajor)
    monkeypatch.setattr(indices, "_runmax", lambda x: np.maximum.accumulate(x, axis=1))
    assert main(argv) == 0
    assert capsys.readouterr().out == live
    assert built and all(built)


# The knee probes visit 271 block-levels at L = 12 and 347 at L = 16;
# in level order they would visit 163 and 192, but read more rows (below).
@pytest.mark.parametrize("L, bound", [(12, 400), (16, 475)])
def test_knee_passes_visit_the_failing_level_first(monkeypatch, L, bound):
    visits = []  # per probe, the (block, failed) of each block it reads
    real = indices._knee_fails

    def fails(lnphi, ls, *a):
        out = real(lnphi, ls, *a)
        visits[-1].append((ls.__array_interface__["data"][0], bool(out.size)))
        return out

    monkeypatch.setattr(indices, "_knee_fails", fails)
    scans = _recorded_scans(monkeypatch)
    real_scan = indices._scan_prefix
    monkeypatch.setattr(indices, "_scan_prefix", lambda ok_fn, tol: real_scan(lambda u: visits.append([]) or ok_fn(u), tol))
    family_index(CurveFamily(make_grid(1, L, "rand:1:lognormal:1")))
    assert 0 < sum(map(len, visits)) <= bound
    # a probe stops at its first failing block, and every later probe that
    # reads that block reads it first; in the same window, it reads it
    last, probe = None, 0
    for scan in scans:
        for i in range(len(scan)):
            seen = visits[probe]
            assert all(not failed for _, failed in seen[:-1])
            if last in [b for b, _ in seen]:
                assert seen[0][0] == last
            if i and visits[probe - 1] and visits[probe - 1][-1][1]:
                assert seen[0][0] == visits[probe - 1][-1][0]
            if seen and seen[-1][1]:
                last = seen[-1][0]
            probe += 1
    assert probe == len(visits)


# An unpruned bisection per window reads 103,426 rows at L = 12 and
# 1,636,579 at L = 16; pruned but in level order, 39,485 and 618,630.
@pytest.mark.parametrize("L, bound", [(12, 36_000), (16, 560_000)])
def test_knee_probes_read_only_the_rows_failing_before(monkeypatch, L, bound):
    rows = []
    real = indices._knee_fails
    monkeypatch.setattr(indices, "_knee_fails", lambda lnphi, *a: rows.append(lnphi.shape[0]) or real(lnphi, *a))
    family_index(CurveFamily(make_grid(1, L, "rand:1:lognormal:1")))
    assert 0 < sum(rows) <= bound


def test_cap_probes_read_only_the_rows_failing_before(monkeypatch):
    w = make_grid(1, 12, "rand:1:lognormal:1")
    rows = []
    real = indices._blocks_ok

    def counted(blocks, *a):
        blocks = list(blocks)
        rows.append(sum(b.lnphi.shape[0] for b in blocks))
        return real(blocks, *a)

    monkeypatch.setattr(indices, "_blocks_ok", counted)
    family_index(CurveFamily(w))
    full = w.ncells - 1  # the cubes of levels 0 .. L-1
    # the probes at u = 0 and u = 1 and the two certificates read every row;
    # the 14 probes between read 54 rows in all, not 14 * 4095
    assert len(rows) == 18
    assert rows[:2] == rows[-2:] == [full, full]
    assert sum(rows[2:-2]) <= 100


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


# ---------------------------------------------------------------------------
# single curves as one-row blocks, against the scalar code they replaced
#
# Frozen copies of single_index and ai_constant as they were before a single
# curve became a one-row _LevelBlock: their own candidate merges (knots plus
# interior minima, argsorted) and their own knee, cap and witness loops.


def _old_candidates_concave(K, end):
    inside = (K.t > 0) & (K.t <= end)
    s, v = K.t[inside], K.v[inside]
    if s.size == 0 or s[-1] < end:
        s, v = np.append(s, end), np.append(v, K.value(end))
    return s, v


def _old_minima_concave(K, delta, end):
    if not 0.0 < delta < 1.0:
        return np.empty(0), np.empty(0)
    A, B, s0, s1 = K.pieces()
    with np.errstate(divide="ignore", invalid="ignore"):
        tstar = delta * A / (B * (1.0 - delta))
    ok = (A > 0) & (B > 0) & (tstar > s0) & (tstar < s1) & (tstar < end)
    return tstar[ok], A[ok] / (1.0 - delta)


def _old_sup_ratio(s, lg):
    M = np.maximum.accumulate(lg)
    r = M - lg
    j = int(np.argmax(r))
    i = int(np.argmax(lg[: j + 1] >= M[j] - 1e-9))
    return float(r[j]), float(s[i]), float(s[j])


def _old_exact(K, s, lg_k, u, end):
    ms, mscaled = _old_minima_concave(K, u, end)
    if not ms.size:
        return s, lg_k
    s_all = np.concatenate([s, ms])
    lg_all = np.concatenate([lg_k, np.log(mscaled) - u * np.log(ms)])
    order = np.argsort(s_all, kind="stable")
    return s_all[order], lg_all[order]


def _old_ai_constant(phi, delta, gamma=1.0):
    """(value, s, t)"""
    end = gamma * (phi.domain_end if not isinstance(phi, tuple) else phi[0][-1])
    if isinstance(phi, ConcaveCurve):
        if delta > 1.0:
            return math.inf, 0.0, end
        s, v = _old_candidates_concave(phi, end)
        s, lg = _old_exact(phi, s, np.log(v) - delta * np.log(s), delta, end)
    elif isinstance(phi, StepProductCurve):
        if delta > 1.0:
            return math.inf, 0.0, end
        s, v = phi.two_sided(end)
        lg = np.log(v) - delta * np.log(s)
    else:
        t, v = phi
        keep = (t > 0) & (t <= end)
        s, lg = t[keep], np.log(v[keep]) - delta * np.log(t[keep])
    rlog, sw, tw = _old_sup_ratio(s, lg)
    return math.exp(rlog), sw, tw


def _old_single_index(phi, C_cap=16.0, gamma=1.0):
    if isinstance(phi, (ConcaveCurve, StepProductCurve)):
        T = phi.domain_end
        s, v = _old_candidates_concave(phi, gamma * T) if isinstance(phi, ConcaveCurve) else phi.two_sided(gamma * T)
    else:
        t, v = phi
        T = float(t[-1])
        keep = (t > 0) & (t <= gamma * T)
        s, v = t[keep], v[keep]
    lnphi, h = np.log(v), float(s[0])
    ls = np.log(s)
    kappa = 0.5 * math.log(gamma * T / h)
    lncap = math.log(C_cap)

    def ratio_at(u, exact):
        if exact and isinstance(phi, ConcaveCurve) and 0.0 < u < 1.0:
            return _old_exact(phi, s, lnphi - u * ls, u, gamma * T)
        return s, lnphi - u * ls

    def ok_knee(u, ks):
        ss, lg = ratio_at(u, exact=False)
        M = np.maximum.accumulate(lg)
        r = M - lg
        rmax = float(r.max())
        if rmax > lncap + 1e-15:
            return [(False, True)]
        if rmax <= 1e-12:
            return [(True, False)]
        lss = np.log(ss)
        ilast = np.maximum.accumulate(np.where(M - lg <= 1e-9, np.arange(lg.size), -1))
        lever = lss - lss[ilast]
        return [(float(np.where(r >= rmax - 1e-9, lever, np.inf).min()) <= kappa, False)]

    def cmax_at(u):
        ss, lg = ratio_at(u, exact=True)
        return float(np.max(np.maximum.accumulate(lg) - lg))

    [(u_hat, mono)] = _frozen_scan_largest(ok_knee, 1e-4)
    u_cap = _frozen_scan_prefix(lambda u: cmax_at(u) <= lncap + 1e-15, 1e-4)
    ss, lg = ratio_at(u_hat, exact=False)
    _, sw, tw = _old_sup_ratio(ss, lg)
    return IndexEstimate(
        delta_hat=u_hat,
        delta_cap=u_cap,
        cap=C_cap,
        gamma=gamma,
        resolution=int(round(math.log2(max(gamma * T / h, 1.0)))),
        witness=("curve", sw, tw),
        monotone=mono,
        cap_value_at=math.exp(cmax_at(u_cap)),
        cap_value_beyond=math.exp(cmax_at(u_cap + 1e-3)) if u_cap + 1e-3 <= 1.0 else math.inf,
    )


def _curves(w):
    """A concave K-curve, a rearrangement product and a sampled pair of w."""
    K = k_l1_linf(w, w.base)
    ts = np.geomspace(w.cell_measure, K.domain_end, 257)
    return K, StepProductCurve(rearrangement(w, w.base)), (ts, K.value(ts))


_CURVE_GRIDS = [(1, 8, s) for s in ("const:1", "step:2,1", "pow:-0.5", "pow:-0.95", "rand:3:lognormal:2")]
_CURVE_GRIDS += [(2, 4, "rand:4:lognormal:1")]


def _assert_single_index_matches(w, C_cap, gamma):
    K, P, pair = _curves(w)
    for phi in (P, pair):
        assert single_index(phi, C_cap, gamma) == _old_single_index(phi, C_cap, gamma)
    new, old = single_index(K, C_cap, gamma), _old_single_index(K, C_cap, gamma)
    assert (new.delta_hat, new.witness, new.monotone) == (old.delta_hat, old.witness, old.monotone)
    assert abs(new.delta_cap - old.delta_cap) <= 1e-4


@pytest.mark.parametrize("d, L, spec", _CURVE_GRIDS)
@pytest.mark.parametrize("C_cap, gamma", [(16.0, 1.0), (2.0, 0.5), (4.0, 0.3)])
def test_single_index_equals_frozen_scalar_code(d, L, spec, C_cap, gamma):
    _assert_single_index_matches(make_grid(d, L, spec), C_cap, gamma)


@given(random_grids(max_level_1d=7, max_level_2d=3, min_level=2), st.sampled_from([(16.0, 1.0), (2.0, 0.5), (4.0, 0.3)]))
@settings(max_examples=25)
def test_single_index_equals_frozen_scalar_code_random(w, cap_gamma):
    _assert_single_index_matches(w, *cap_gamma)


@given(
    random_grids(max_level_1d=7, max_level_2d=3, min_level=2),
    st.floats(0.0, 1.2),
    st.sampled_from([1.0, 0.5, 0.3]),
)
def test_ai_constant_equals_frozen_scalar_code(w, delta, gamma):
    for phi in _curves(w):
        c = ai_constant(phi, delta, gamma)
        for new, old in zip((c.value, c.s, c.t), _old_ai_constant(phi, delta, gamma)):
            assert new == old or math.isclose(new, old, rel_tol=1e-12)
