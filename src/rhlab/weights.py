"""Weight-class constants and equivalence checks between their definitions.

A weight w on a dyadic grid belongs to a reverse-Hölder or Muckenhoupt class
when a cube-uniform inequality between averages holds:

    RH_p:       (avg_Q w^p)^{1/p} <= C avg_Q w
    A_p:        (avg_Q w)(avg_Q w^{-1/(p-1)})^{p-1} <= C     (p > 1)
    RH_LLogL:   ||w||_{L log L(Q, dx/|Q|)} <= C avg_Q w
    Lorentz:    ||w chi_Q||_{L(p,q)} / |Q|^{1/p} <= C avg_Q w
    Fujii:      int_Q M_d(w chi_Q) <= C int_Q w
    RH_p(v):    ((1/v(Q)) int_Q w^p v)^{1/p} <= C (1/v(Q)) int_Q w v.

Each constant here is the max of its ratio over the cube family named by a
policy string (cubes="all-dyadic", "base" or "level:k"), with the attaining
cube as witness, swept level by level (_family_constant).  The kinds built
on K-curve pieces (the K-side RH_p, Lorentz and Hardy constants) sweep
runs of small levels in one kernel call each (kcalc._PieceRun), with the
bits of the level-by-level sweep.  The Lorentz constants of several p at
one q share each run's build (rh_lorentz_constants).  The reverse-Hardy
residual sup is exact, closed form via Wright omega (indices._hardy_rows).
The verification routines then test, over all dyadic cubes, the equivalences
between these classes and the index machinery: the K-side characterization
of RH_p, the limiting L log L class against the reverse Hardy residual, the
rearrangement-product index, the cellwise-power classification of RH_p
through A_infinity, Fujii's condition with the bound 4 (k^2 + k + 1), the
extrapolation bound 4 ||w||_1 (k^2 + k + 1) for the dyadic maximal operator
on the base cube, and the weighted reverse-Hölder K-inequality on the
packing family of the pair.  Each returns a list of per-case dicts, each
with a "pass" flag and every number the case was decided on.

Two-sided "comparable" assertions use a comparability radius R (default 8
in dimension 1, 32 in dimension 2), since the underlying statements carry
unspecified universal constants.  One-sided bounds are asserted with the
explicit constants above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .grid import (
    DyadicCube,
    WeightGrid,
    _cube_at,
    _rowmajor_of_morton,
    cube_levels,
    integrate,
    make_grid,
    row_means,
    row_sums,
)
from .kcalc import (
    PackingFamily,
    _k_curve,
    _PieceRun,
    extrapolation_norm,
    grid_power,
    k_l1_linf,
    k_weighted,
    k_weighted_curve,
    llogl_norm,
    llogl_norm_rows,
    packing_family,
)
from .indices import IndexEstimate, _hardy_rows, acks_index, family_index, hardy_residual
from .rearrange import _level_maximal, double_star, dyadic_maximal, iterated_maximal, rearrangement


@dataclass
class ClassConstant:
    """A weight-class constant: the max of its defining ratio over a cube
    family, with the attaining cube."""

    kind: str
    value: float
    p: float | None = None
    q: float | None = None
    witness: str = ""
    cube_policy: str = "all-dyadic"


def default_radius(d: int) -> float:
    """Comparability radius for two-sided equivalence assertions."""
    return 8.0 if d == 1 else 32.0


# ---------------------------------------------------------------------------
# cube-family plumbing

def _level_means(w: WeightGrid, level: int) -> np.ndarray:
    width = 1 << (w.d * (w.L - level))
    return w.float_level_sums(level) / width


def _cells(w: WeightGrid) -> np.ndarray:
    """w's Morton cells, after the level sums refused a mass beyond the float range."""
    w.float_level_sums(w.L)
    return w.zcells


def _level_row_means(cells: np.ndarray, w: WeightGrid, level: int) -> np.ndarray:
    """Per-cube means of an arbitrary cell array given in Morton order."""
    width = 1 << (w.d * (w.L - level))
    return row_means(cells.reshape(-1, width))


def _family_constant(w: WeightGrid, cubes: str, kind: str, family_values, ps=(None,), q=None) -> list[ClassConstant]:
    """The max of a per-cube ratio over the cube family of a policy string
    (grid.cube_levels: "all-dyadic", "base" or "level:k"), with the
    attaining cube, one constant per p of ps: family_values(levels) gives,
    level by level, the ratios of every cube of each level of levels in
    Morton order, one row per p (a vector for one); ties go to the first
    level and first Morton row.  The piece kinds give them run by run
    (kcalc._PieceRun.sweep), the others level by level."""
    levels = cube_levels(cubes, w.base.level, w.L)
    best = [-math.inf] * len(ps)
    where = [None] * len(ps)
    for level, values in zip(levels, family_values(levels)):
        rows = np.atleast_2d(values)
        for k, i in enumerate(np.argmax(rows, axis=1)):
            if float(rows[k, i]) > best[k]:
                best[k] = float(rows[k, i])
                where[k] = (level, int(i))
    return [
        ClassConstant(kind, v, p=p, q=q, witness=_cube_at(w, *at).addr(), cube_policy=cubes)
        for v, p, at in zip(best, ps, where)
    ]


# ---------------------------------------------------------------------------
# class constants

def _normal_powers(z: np.ndarray, e: float, ref: float) -> tuple[np.ndarray, int]:
    """(z 2^k)^e and k: k = 0 unless a power of z falls below the normal
    range and loses digits, when 2^k brings ref into [0.5, 1).  The
    constants using it are scale-invariant."""
    ze = z ** e
    if ze.min() >= np.finfo(np.float64).tiny:
        return ze, 0
    k = -int(np.frexp(ref)[1])
    return np.ldexp(z, k) ** e, k


def rh_p_constant(w: WeightGrid, p: float, cubes: str = "all-dyadic") -> ClassConstant:
    """max over the family of (avg_Q w^p)^{1/p} / avg_Q w."""
    if not p > 1.0:
        raise ValueError("p must exceed 1")
    z = _cells(w)
    zp, k = _normal_powers(z, p, z.max())
    ratios = lambda lev: _level_row_means(zp, w, lev) ** (1.0 / p) / np.ldexp(_level_means(w, lev), k)
    return _family_constant(w, cubes, "RH_p", partial(map, ratios), (p,))[0]


def a_p_constant(w: WeightGrid, p: float, cubes: str = "all-dyadic") -> ClassConstant:
    """max over the family of (avg_Q w)(avg_Q w^{-1/(p-1)})^{p-1}."""
    if not p > 1.0:
        raise ValueError("p must exceed 1")
    z = _cells(w)
    zdual, k = _normal_powers(z, -1.0 / (p - 1.0), z.min())
    ratios = lambda lev: np.ldexp(_level_means(w, lev), k) * _level_row_means(zdual, w, lev) ** (p - 1.0)
    return _family_constant(w, cubes, "A_p", partial(map, ratios), (p,))[0]


def rh_llogl_constant(w: WeightGrid, cubes: str = "all-dyadic") -> ClassConstant:
    """max over the family of the Luxemburg L log L norm over the average."""

    def ratios(lev):
        rows = _cells(w).reshape(-1, 1 << (w.d * (w.L - lev)))
        return llogl_norm_rows(rows) / row_means(rows)

    return _family_constant(w, cubes, "RH_LLogL", partial(map, ratios))[0]


def _lorentz_levels(run: _PieceRun, ps, q: float, h: float) -> list[np.ndarray]:
    """Lorentz L(p,q) norms of a weight of cell measure h restricted to
    each cube of a run of its levels, one (len(ps), n) array a level: the
    head integrals of every p from one build of the run's pieces
    (_PieceRun.piece_sums), then the exact 1/t tails."""
    heads = run.piece_sums(q, [q / p - q - 1.0 for p in ps])
    out = []
    for head, knots in zip(zip(*heads), run.blocks(run.K)):
        n, m = knots.shape
        T = m * h
        mass_q = knots[:, -1] ** q
        norms = np.empty((len(ps), n))
        for row, part, p in zip(norms, head, ps):
            pprime = p / (p - 1.0)
            tail = mass_q * T ** (q / p - q) * pprime / q
            row[:] = (part + tail) ** (1.0 / q)
        out.append(norms)
    return out


def rh_lorentz_constants(w: WeightGrid, ps, q: float, cubes: str = "all-dyadic") -> list[ClassConstant]:
    """For each p of ps, the max over the family of
    ||w chi_Q||_{L(p,q)} / (|Q|^{1/p} avg_Q w): every p of a run of levels
    from one build (_lorentz_levels), each constant equal bit for bit to
    its one-p call."""
    ps = tuple(ps)
    if not all(p > 1.0 for p in ps):
        raise ValueError("p must exceed 1")
    if not q >= 1.0:
        raise ValueError("q must be at least 1")

    def ratios(lev, norms):
        T = 2.0 ** (-w.d * lev)
        means = _level_means(w, lev)
        for row, p in zip(norms, ps):
            row /= T ** (1.0 / p) * means
        return norms

    values = lambda levels: map(ratios, levels, _PieceRun.sweep(w, levels, _lorentz_levels, ps, q, w.cell_measure))
    return _family_constant(w, cubes, "RH_Lorentz", values, ps, q)


def rh_lorentz_constant(w: WeightGrid, p: float, q: float, cubes: str = "all-dyadic") -> ClassConstant:
    """max over the family of ||w chi_Q||_{L(p,q)} / (|Q|^{1/p} avg_Q w):
    the one-p call of rh_lorentz_constants."""
    return rh_lorentz_constants(w, (p,), q, cubes)[0]


def fujii_constant(w: WeightGrid, cubes: str = "all-dyadic") -> ClassConstant:
    """max over the family of int_Q M_d(w chi_Q) / int_Q w.

    The maximal functions localized to the cubes of a level are the rows of
    one running max over the level sums from that level down
    (rearrange._level_maximal), so a level costs one pass.
    """
    ratios = lambda lev: row_sums(_level_maximal(w, lev)) / w.float_level_sums(lev)
    return _family_constant(w, cubes, "Fujii", partial(map, ratios))[0]


def rh_p_weighted_constant(g: WeightGrid, w: WeightGrid, p: float, cubes: str = "all-dyadic") -> ClassConstant:
    """max over the family of ((1/w(Q)) int_Q g^p w)^{1/p} / ((1/w(Q)) int_Q g w)."""
    if not p > 1.0:
        raise ValueError("p must exceed 1")
    if g.d != w.d or g.L != w.L or g.base != w.base:
        raise ValueError("g and w must share a grid")
    gp_w = (_cells(g) ** p) * _cells(w)
    g_w = g.zcells * w.zcells

    def ratios(lev):
        width = 1 << (w.d * (w.L - lev))
        wsum = w.float_level_sums(lev)
        return (row_sums(gp_w.reshape(-1, width)) / wsum) ** (1.0 / p) / (row_sums(g_w.reshape(-1, width)) / wsum)

    return _family_constant(g, cubes, "RH_p_weighted", partial(map, ratios), (p,))[0]


# ---------------------------------------------------------------------------
# Gehring improvement

@dataclass
class GehringResult:
    """Improved reverse-Hölder exponent with its index certificate."""

    p0: float
    p_max: float
    ind_hat: float
    certified: bool


def gehring_improve(w: WeightGrid, p: float, C_cap: float = 16.0) -> GehringResult:
    """Self-improving exponent: from the K-curve family index ind_hat,
    p_max = 1/(1 - ind_hat) (capped at 64 when ind_hat >= 1 - 1/64, where the
    formula diverges) and p0 = (p + p_max)/2, re-verified against the index
    criterion ind_hat > 1 - 1/p0."""
    if not p > 1.0:
        raise ValueError("p must exceed 1")
    est = family_index(w, C_cap=C_cap)
    ind_hat = est.delta_hat
    if ind_hat <= 1.0 - 1.0 / p:
        raise ValueError("not in RH_p at this resolution/cap")
    p_max = 64.0 if ind_hat >= 1.0 - 1.0 / 64.0 else 1.0 / (1.0 - ind_hat)
    p0 = 0.5 * (p + p_max)
    return GehringResult(p0=p0, p_max=p_max, ind_hat=ind_hat, certified=ind_hat > 1.0 - 1.0 / p0)


# ---------------------------------------------------------------------------
# K-side RH_p constant (the interpolation-side characterization)

def _kside_levels(run: _PieceRun, p: float) -> list[np.ndarray]:
    """Per cube of each level of a run, the sup over t in (0, |Q|] of
    R(t) = {int_0^t [s^{-1/p'} K_Q(s)]^p ds/s}^{1/p} / (t^{-1/p'} K_Q(t)),
    taken over the knots plus the denominator's interior minima t*.  That
    is a lower bound, not the exact sup: the numerator still grows at t*,
    so the sup can sit between these candidates (on a one-hot d=1 L=8 grid
    the result is up to 5.1e-4 relative low at p=1.5).  The t* candidates
    do decide values: R rises through t*, but it can peak past t* and fall
    by the piece's right knot, so R(t*) can beat every knot (a d=1 L=6 grid
    of ones with one cell 1.657959, at p = 12, is 8.1e-5 relative above its
    knots there).

    The partial pieces [s0, t*] up to the minima take the run's kernel call
    (_PieceRun.integrals); every other step runs on all its levels at once.
    """
    theta = 1.0 - 1.0 / p
    E = -theta * p - 1.0
    A, B, s0, s1, K = run.A, run.B, run.s0, run.s1, run.K
    # denominator minima: t* = theta a / (b (1 - theta)) inside a piece;
    # none on a cube's first piece, whose A is 0
    with np.errstate(divide="ignore", invalid="ignore"):
        tstar = theta * A / (B * (1.0 - theta))
    rows, cols = np.nonzero((A > 0) & (tstar > s0) & (tstar < s1))
    a, b, lo, t = A[rows, cols], B[rows, cols], s0[cols], tstar[rows, cols]
    del tstar
    main, part = run.integrals(p, E, a, b, lo, t)
    prefix = run.cumsum(main)
    num = (prefix[rows, cols - 1] + part) ** (1.0 / p)
    den = (a / (1.0 - theta)) * t ** -theta
    return run.split(run.cube_max(prefix ** (1.0 / p) / (s1 ** -theta * K), rows, cols, num / den))


def kside_rh_constant(w: WeightGrid, p: float, cubes: str = "all-dyadic") -> ClassConstant:
    """sup over the family of the K-side reverse-Hölder functional."""
    if not p > 1.0:
        raise ValueError("p must exceed 1")
    values = lambda levels: _PieceRun.sweep(w, levels, _kside_levels, p)
    return _family_constant(w, cubes, "RH_p_kside", values, (p,))[0]


# ---------------------------------------------------------------------------
# reverse-Hardy residual over a family

def hardy_residual_sup(w: WeightGrid, cubes: str = "all-dyadic") -> ClassConstant:
    """sup over the family of the reverse-Hardy residual of K_Q: exact,
    closed form via Wright omega, each run of levels' pieces through one
    indices._hardy_rows call."""
    values = lambda levels: _PieceRun.sweep(w, levels, _hardy_rows)
    return _family_constant(w, cubes, "HardyResidual", values)[0]


# ---------------------------------------------------------------------------
# verification routines

def verify_rhp_equivalence(w: WeightGrid, p: float, radius: float | None = None) -> list[dict]:
    """The RH_p constant and the K-side constant must be comparable within
    the radius."""
    R = default_radius(w.d) if radius is None else radius
    rh = rh_p_constant(w, p)
    ks = kside_rh_constant(w, p)
    ratio = rh.value / ks.value
    ok = 1.0 / R <= ratio <= R
    case = {
        "name": f"{w.label} p={p:g}",
        "pass": bool(ok),
        "rh_p": rh.value,
        "k_side": ks.value,
        "ratio": ratio,
    }
    return [case]


def verify_llogl_equivalence(w: WeightGrid, radius: float | None = None) -> list[dict]:
    """The L log L reverse-Hölder constant and the family sup of the reverse
    Hardy residual must be comparable within the radius."""
    R = default_radius(w.d) if radius is None else radius
    rh = rh_llogl_constant(w)
    hr = hardy_residual_sup(w)
    ratio = rh.value / hr.value
    ok = 1.0 / R <= ratio <= R
    case = {
        "name": w.label,
        "pass": bool(ok),
        "rh_llogl": rh.value,
        "hardy_sup": hr.value,
        "ratio": ratio,
    }
    return [case]


def verify_acks(w: WeightGrid, C_cap: float = 16.0) -> list[dict]:
    """Classification agreement: the rearrangement-product index satisfies
    lambda_hat < 1 - margin exactly when the K-curve family index exceeds
    the margin 0.02.  Cases with either index within 0.05 of its threshold
    are flagged borderline and excluded from the assertion."""
    margin = 0.02
    fam = family_index(w, C_cap=C_cap)
    ak = acks_index(w, C_cap=C_cap)
    in_by_family = fam.delta_hat > margin
    in_by_acks = ak.lambda_hat < 1.0 - margin
    borderline = (
        abs(fam.delta_hat - margin) <= 0.05
        or abs((1.0 - ak.lambda_hat) - margin) <= 0.05
    )
    ok = (in_by_family == in_by_acks) or borderline
    case = {
        "name": w.label,
        "pass": bool(ok),
        "delta_hat": fam.delta_hat,
        "lambda_hat": ak.lambda_hat,
        "in_by_family": bool(in_by_family),
        "in_by_acks": bool(in_by_acks),
        "borderline": bool(borderline),
    }
    return [case]


def verify_stromberg_wheeden(w: WeightGrid, p: float, C_cap: float = 16.0) -> list[dict]:
    """w in RH_p (family index above 1/p') must agree with w^p in
    A_infinity (family index of the cellwise power positive).

    Power weights whose p-th power is no longer locally integrable in the
    continuum (a p <= -1) are reported out-of-domain; cases with the RH-side
    index within 0.05 of the threshold are reported borderline.  Both are
    excluded from the assertion but their discrete classifications are still
    recorded.
    """
    if not p > 1.0:
        raise ValueError("p must exceed 1")
    thresh = 1.0 - 1.0 / p
    fam = family_index(w, C_cap=C_cap)
    wp = grid_power(w, p)
    fam_p = family_index(wp, C_cap=C_cap)
    in_rhp = fam.delta_hat > thresh
    in_ainf = fam_p.delta_hat > 0.02
    out_of_domain = w.spec[:1] == ("pow",) and w.spec[1] * p <= -1.0
    borderline = abs(fam.delta_hat - thresh) <= 0.05
    asserted = not (out_of_domain or borderline)
    ok = (in_rhp == in_ainf) if asserted else True
    case = {
        "name": f"{w.label} p={p:g}",
        "pass": bool(ok),
        "in_rhp": bool(in_rhp),
        "in_ainf": bool(in_ainf),
        "delta_hat": fam.delta_hat,
        "delta_hat_power": fam_p.delta_hat,
        "out_of_domain": out_of_domain,
        "borderline": borderline,
    }
    return [case]


def verify_fujii(w: WeightGrid) -> list[dict]:
    """Fujii's condition from the L log L constant: fujii_constant <=
    4 (k^2 + k + 1) with k = rh_llogl_constant; the cellwise iterated-maximal
    comparison constant is reported alongside."""
    fu = fujii_constant(w)
    k = rh_llogl_constant(w).value
    bound = 4.0 * (k * k + k + 1.0)
    ok = fu.value <= bound
    M1 = dyadic_maximal(w, w.base)
    M2 = iterated_maximal(w, w.base)
    c_iter = float(np.max(M2.zcells / M1.zcells))
    case = {
        "name": w.label,
        "pass": bool(ok),
        "fujii": fu.value,
        "rh_llogl": k,
        "bound": bound,
        "iterated_over_single": c_iter,
    }
    return [case]


def weak_type_residual(w: WeightGrid, Q: DyadicCube) -> float:
    """Joint weak-type (1,1) and (infinity, infinity) residual of the local
    dyadic maximal operator: the max over plateau breakpoints t of

        (M_d(w chi_Q))*(t) / w**(t),

    which the constant-1 dyadic bound keeps at or below 1.  The last
    breakpoint sits at |Q|, where w**(t) switches to its closed tail form
    mass / t.
    """
    rM = rearrangement(dyadic_maximal(w, Q), Q)
    t = rM.breaks
    return float(np.max(rM.star(t) / double_star(rearrangement(w, Q), t), initial=0.0))


def verify_extrapolation_bound(w: WeightGrid) -> list[dict]:
    """For the dyadic maximal operator on (L1(Q), Linf(Q)), Q the base cube:

        int_0^{|Q|} K(r, M_d(w chi_Q)) dr / r <= 4 ||w||_{L1(Q)} (k^2 + k + 1),

    k the reverse-Hardy residual of K_Q, at relative tolerance 1e-8; the
    weak-type hypothesis residual (at most 1) is checked alongside.
    """
    Q = w.base
    M = dyadic_maximal(w, Q)
    lhs = extrapolation_norm(M, Q)
    k = hardy_residual(k_l1_linf(w, Q))
    rhs = 4.0 * integrate(w, Q) * (k * k + k + 1.0)
    wt = weak_type_residual(w, Q)
    ok = lhs <= rhs * (1.0 + 1e-8) and wt <= 1.0 + 1e-9
    case = {
        "name": f"{w.label} cube={Q.addr()}",
        "pass": bool(ok),
        "lhs": lhs,
        "rhs": rhs,
        "hardy_residual": k,
        "weak_type_residual": wt,
    }
    return [case]


def origin_chain_masses(w: WeightGrid) -> list[float]:
    """w(Q) for the origin chain Q = child(0), child(0)(0), ... below the
    base cube, down to a cell, keeping the masses in (0, w(base))."""
    w_total = integrate(w, w.base)
    ts = []
    Qc = w.base
    for _ in range(w.L - w.base.level):
        Qc = Qc.child(0)
        t = integrate(w, Qc)
        if 0.0 < t < w_total:
            ts.append(t)
    return ts


def verify_weighted_rh(g: WeightGrid, w: WeightGrid, p: float) -> list[dict]:
    """g in RH_p(w dx) gives the K-inequality between packing estimates:

        estimate_p(t) <= C t^{1/p - 1} estimate_1(t)

    with C the weighted reverse-Hölder constant and the same packing family
    on both sides (the derivation is definitional, constant 1), checked at
    cube-aligned t values."""
    C = rh_p_weighted_constant(g, w, p).value
    Pi = packing_family(g, w, p)
    ts = origin_chain_masses(w)
    cases = []
    for t, ep, e1 in zip(ts, k_weighted_curve(g, w, p, ts, Pi), k_weighted_curve(g, w, 1.0, ts, Pi)):
        bound = C * t ** (1.0 / p - 1.0) * e1
        ok = ep <= bound * (1.0 + 1e-12)
        cases.append({
            "name": f"t={t:g}",
            "pass": bool(ok),
            "estimate_p": ep,
            "bound": bound,
        })
    return cases


# ---------------------------------------------------------------------------
# exactness, Herz, and packing property checks (shared by CLI suites and tests)

def verify_rearrange_exact(w: WeightGrid) -> list[dict]:
    """Exactness bundle for one weight: equimeasurable mass (bitwise: the
    rearrangement's mass equals the exact sum of its plateau form, each
    value repeated over its cells), partition additivity of the integral
    (1e-13 relative), K-curve concavity with the exact total, and the
    Luxemburg defining-integral residual."""
    Q0 = w.base
    r = rearrangement(w, Q0)
    counts = (r.measures / w.cell_measure).astype(np.int64)
    mass_exact = r.mass == math.ldexp(math.fsum(np.repeat(r.values, counts)), -w.d * w.L)
    plateau_mass = float(np.sum(r.values * r.measures))
    mass_close = math.isclose(plateau_mass, r.mass, rel_tol=1e-12)
    total = integrate(w, Q0)
    parts = sum(integrate(w, Q0.child(k)) for k in range(1 << w.d))
    additive = math.isclose(total, parts, rel_tol=1e-13)
    K = _k_curve(r)
    concave = bool(np.all(np.diff(K.slopes) < 0)) and math.isclose(K.mass, r.mass, rel_tol=1e-12)
    u = w.cube_cells(Q0) / llogl_norm(w, Q0)
    residual = abs(float(np.mean(u * np.log(np.e + u))) - 1.0)
    lux_ok = residual <= 1e-9
    case = {
        "name": w.label,
        "pass": bool(mass_exact and mass_close and additive and concave and lux_ok),
        "mass_exact": bool(mass_exact),
        "partition_additive": bool(additive),
        "concave": bool(concave),
        "luxemburg_residual": residual,
    }
    return [case]


def verify_herz(w: WeightGrid) -> list[dict]:
    """Dyadic Herz bounds at plateau points:

        (M_d(w chi_Q))*(t) <= w**(t)  and
        w**(t) <= (2^d + 1) (M_d(w chi_Q))*(t (1 - eps)),  eps = cell measure.
    """
    Q0 = w.base
    M = dyadic_maximal(w, Q0)
    rM = rearrangement(M, Q0)
    rw = rearrangement(w, Q0)
    ts = np.unique(np.concatenate((rM.breaks, rw.breaks)))
    maximal = rM.star(ts)
    dstar = double_star(rw, ts)
    scaled = ((1 << w.d) + 1.0) * rM.star(ts * (1.0 - w.cell_measure))
    ok1 = not np.any(maximal > dstar * (1.0 + 1e-12))
    ok2 = not np.any(dstar > scaled * (1.0 + 1e-12))
    worst1 = float(np.max(maximal / dstar, initial=0.0))
    worst2 = float(np.max(dstar / scaled, initial=0.0))
    case = {
        "name": w.label,
        "pass": bool(ok1 and ok2),
        "maximal_below_doublestar": bool(ok1),
        "doublestar_below_scaled_maximal": bool(ok2),
        "worst_ratio_1": worst1,
        "worst_ratio_2": worst2,
    }
    return [case]


def origin_sorted(w: WeightGrid) -> WeightGrid:
    """The weight's cells redistributed so the Morton order is nonincreasing
    (every dyadic cube nearest the origin holds the largest remaining cells);
    on such grids packing estimates with unit weight reproduce the K-curve at
    cube-aligned points exactly."""
    z = np.sort(w.zcells)[::-1]
    perm = _rowmajor_of_morton(w.d, w.L - w.base.level)
    cells = np.empty_like(z)
    cells[perm] = z
    return WeightGrid(w.d, w.L, cells, label=f"sorted({w.label})", base=w.base)


def verify_packing(f: WeightGrid) -> list[dict]:
    """Packing-estimate consistency on an origin-sorted grid:

      * with w = 1 the estimate at t = |Q_level| reproduces K(t) to 1e-12;
      * enlarging the packing family never decreases the estimate;
      * the weighted reverse-Hölder K-inequality holds on a mixed pair at
        p = 2.
    """
    fs = origin_sorted(f)
    ones = WeightGrid(f.d, f.L, np.ones(f.ncells), label="const:1", base=f.base)
    Pi = packing_family(fs, ones, 1.0)
    K = k_l1_linf(fs, fs.base)
    repro_ok = True
    worst = 0.0
    ts = [2.0 ** (-f.d * lev) for lev in range(f.base.level + 1, f.L + 1)]
    t_mid = 2.0 ** (-f.d)
    *ests, est_mid = k_weighted_curve(fs, ones, 1.0, ts + [t_mid], Pi)
    for t, est in zip(ts, ests):
        err = abs(est - K.value(t)) / K.value(t)
        worst = max(worst, err)
        if err > 1e-12:
            repro_ok = False
    sub = PackingFamily(Pi.geometry, Pi.rows[: max(1, len(Pi.rows) // 2)])
    mono_ok = k_weighted(fs, ones, 1.0, t_mid, sub) <= est_mid * (1.0 + 1e-15)
    wrh_ok = all(c["pass"] for c in verify_weighted_rh(fs, ones, 2.0))
    case = {
        "name": f.label,
        "pass": bool(repro_ok and mono_ok and wrh_ok),
        "reproduction_worst_rel": worst,
        "monotone": bool(mono_ok),
        "weighted_rh_pass": bool(wrh_ok),
    }
    return [case]


# ---------------------------------------------------------------------------
# corpus and reports

def standard_corpus(d: int, seed: int, L: int | None = None, n_random: int = 10) -> list[WeightGrid]:
    """The deterministic weight corpus for verification sweeps: analytic
    cases (constant, steps, and in dimension 1 power weights) plus lognormal
    grids drawn from the counter-based generator at consecutive seeds."""
    if L is None:
        L = 8 if d == 1 else 4
    specs = ["const:1", "const:3.7", "step:2,1", "step:4,1,1,1"]
    if d == 1:
        specs += ["pow:-0.25", "pow:-0.5", "pow:-0.75"]
    for i in range(n_random):
        sigma = 0.5 if i % 2 == 0 else 1.0
        specs.append(f"rand:{seed + i}:lognormal:{sigma:g}")
    return [make_grid(d, L, s) for s in specs]


def index_to_dict(est: IndexEstimate) -> dict:
    cube, s, t = est.witness
    out = {
        "delta_hat": float(est.delta_hat),
        "delta_cap": float(est.delta_cap),
        "cap": float(est.cap),
        "gamma": float(est.gamma),
        "witness": [str(cube), float(s), float(t)],
        "monotone": True,  # admissibility is a prefix of the scan by proof (see family_index)
        "L": int(est.resolution),
    }
    if est.lambda_hat is not None:
        out["lambda_hat"] = float(est.lambda_hat)
    return out


def analyze_report(
    w: WeightGrid,
    p_list: tuple[float, ...] = (1.5, 2.0, 3.0),
    q_list: tuple[float, ...] = (),
    C_cap: float = 16.0,
    gamma_grid: tuple[float, ...] = (1.0, 0.5, 0.25, 0.125),
    cube_policy: str = "all-dyadic",
) -> dict:
    """The JSON-ready analysis report: constants, indices, classifications.
    Every p of p_list must exceed 1 (rh_p_constant refuses it otherwise).

    Key order is fixed; all values are plain Python scalars so the encoder
    output is stable byte for byte.
    """
    constants = []
    for p in p_list:
        c = rh_p_constant(w, p, cube_policy)
        constants.append({"kind": c.kind, "p": p, "value": c.value, "witness": c.witness})
    for p in p_list:
        c = a_p_constant(w, p, cube_policy)
        constants.append({"kind": c.kind, "p": p, "value": c.value, "witness": c.witness})
    c = rh_llogl_constant(w, cube_policy)
    constants.append({"kind": c.kind, "value": c.value, "witness": c.witness})
    for q in q_list:
        for p, lc in zip(p_list, rh_lorentz_constants(w, p_list, q, cube_policy)):
            constants.append({"kind": lc.kind, "p": p, "q": q, "value": lc.value, "witness": lc.witness})
    c = fujii_constant(w, cube_policy)
    constants.append({"kind": c.kind, "value": c.value, "witness": c.witness})
    fam = family_index(w, C_cap=C_cap, gamma_grid=gamma_grid)
    ak = acks_index(w, C_cap=C_cap, gamma_grid=gamma_grid)
    classifications = {
        "rh_p": {f"{p:g}": bool(fam.delta_hat > 1.0 - 1.0 / p) for p in p_list},
        "a_inf": bool(fam.delta_hat > 0.02),
    }
    return {
        "schema": 1,
        "weight": w.label,
        "grid": {"d": w.d, "L": w.L},
        "cube_policy": cube_policy,
        "constants": constants,
        "indices": {
            "family": index_to_dict(fam),
            "acks": index_to_dict(ak),
            "cap": C_cap,
            "gamma": fam.gamma,
        },
        "classifications": classifications,
        "theorems": [],  # schema 1 keeps the key
    }
