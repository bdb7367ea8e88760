"""Weight-class constants and equivalence checks between their definitions.

A weight w on a dyadic grid belongs to a reverse-Hölder or Muckenhoupt class
when a cube-uniform inequality between averages holds:

    RH_p:       (avg_Q w^p)^{1/p} <= C avg_Q w
    A_p:        (avg_Q w)(avg_Q w^{-1/(p-1)})^{p-1} <= C     (p > 1)
    A_1:        M_d w <= C w  cellwise
    RH_LLogL:   ||w||_{L log L(Q, dx/|Q|)} <= C avg_Q w
    Lorentz:    ||w chi_Q||_{L(p,q)} / |Q|^{1/p} <= C avg_Q w
    Fujii:      int_Q M_d(w chi_Q) <= C int_Q w
    RH_p(v):    ((1/v(Q)) int_Q w^p v)^{1/p} <= C (1/v(Q)) int_Q w v.

Each constant here is the max of its ratio over the cube family named by a
policy string (cubes="all-dyadic", "base" or "level:k"), with the attaining
cube as witness, swept level by level (_family_constant).
The reverse-Hardy residual sup is exact, closed form via Wright omega
(indices._hardy_rows on each level's K-curve pieces).  The verification routines then test the
equivalences between these classes and the index machinery: the K-side
characterization of RH_p, the limiting L log L class against the reverse
Hardy residual, the rearrangement-product index, the cellwise-power
classification of RH_p through A_infinity, Fujii's condition with the
k^2 + k + 1 bound shape, the extrapolation bound for the dyadic maximal
operator, and the weighted reverse-Hölder K-inequality on packings.

Two-sided "comparable" assertions use a comparability radius R (default 8
in dimension 1, 32 in dimension 2), since the underlying statements carry
unspecified universal constants.  One-sided bounds are asserted with the
explicit constants recorded in the reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import (
    DyadicCube,
    WeightGrid,
    _cube_at,
    _rowmajor_of_morton,
    cube_levels,
    integrate,
    make_grid,
)
from .kcalc import (
    CurveFamily,
    PackingFamily,
    _level_pieces,
    extrapolation_norm,
    grid_power,
    k_l1_linf,
    k_weighted,
    k_weighted_curve,
    level_piece_integrals,
    llogl_norm,
    llogl_norm_rows,
    packing_family,
    power_piece_integral,
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


@dataclass
class TheoremReport:
    """Outcome of one verification routine: per-case records and the
    conjunction of their pass flags."""

    theorem: str
    corpus: str
    cases: list[dict]
    passed: bool
    constants: dict[str, float] = field(default_factory=dict)


def _single_case(theorem: str, corpus: str, case: dict, constants: dict) -> TheoremReport:
    """The report of one case, passed when the case passed."""
    return TheoremReport(theorem, corpus, [case], case["pass"], constants)


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
    return cells.reshape(-1, width).mean(axis=1)


def _family_constant(w: WeightGrid, cubes: str, kind: str, level_values, p=None, q=None) -> ClassConstant:
    """The max of a per-cube ratio over the cube family of a policy string
    (grid.cube_levels: "all-dyadic", "base" or "level:k"), with the
    attaining cube: level_values(level) gives the ratios of every cube of a
    level, in Morton order; ties go to the first level and first Morton row."""
    best = -math.inf
    where = None
    for level in cube_levels(cubes, w.base.level, w.L):
        ratios = level_values(level)
        i = int(np.argmax(ratios))
        if float(ratios[i]) > best:
            best = float(ratios[i])
            where = (level, i)
    level, i = where
    return ClassConstant(kind, best, p=p, q=q, witness=_cube_at(w, level, i).addr(), cube_policy=cubes)


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
    return _family_constant(w, cubes, "RH_p", ratios, p=p)


def a_p_constant(w: WeightGrid, p: float, cubes: str = "all-dyadic") -> ClassConstant:
    """p > 1: max of (avg_Q w)(avg_Q w^{-1/(p-1)})^{p-1}; p = 1: max cell
    ratio M_F w / w, with M_F w the max of avg_Q w over the family's cubes
    Q containing the cell (the dyadic maximal function for "all-dyadic")."""
    if not p >= 1.0:
        raise ValueError("p must be at least 1")
    if p == 1.0:
        M = np.zeros(w.ncells)
        for lev in cube_levels(cubes, w.base.level, w.L):  # the level sums refuse an overflow first
            np.maximum(M, np.repeat(_level_means(w, lev), 1 << (w.d * (w.L - lev))), out=M)
        ratios = M / w.zcells
        i = int(np.argmax(ratios))
        witness = _cube_at(w, w.L, i).addr()
        return ClassConstant("A_1", float(ratios[i]), p=1.0, witness=witness, cube_policy=cubes)
    z = _cells(w)
    zdual, k = _normal_powers(z, -1.0 / (p - 1.0), z.min())
    ratios = lambda lev: np.ldexp(_level_means(w, lev), k) * _level_row_means(zdual, w, lev) ** (p - 1.0)
    return _family_constant(w, cubes, "A_p", ratios, p=p)


def rh_llogl_constant(w: WeightGrid, cubes: str = "all-dyadic") -> ClassConstant:
    """max over the family of the Luxemburg L log L norm over the average."""

    def ratios(lev):
        rows = _cells(w).reshape(-1, 1 << (w.d * (w.L - lev)))
        return llogl_norm_rows(rows) / rows.mean(axis=1)

    return _family_constant(w, cubes, "RH_LLogL", ratios)


def _lorentz_level(w: WeightGrid, level: int, p: float, q: float) -> np.ndarray:
    """Lorentz L(p,q) norms of w restricted to each cube of a level."""
    vals, K, s0, s, A = _level_pieces(w, level)
    head = level_piece_integrals(A, vals, s0, s, q, q / p - q - 1.0).sum(axis=1)
    T = s.size * w.cell_measure
    pprime = p / (p - 1.0)
    tail = K[:, -1] ** q * T ** (q / p - q) * pprime / q
    return (head + tail) ** (1.0 / q)


def rh_lorentz_constant(w: WeightGrid, p: float, q: float, cubes: str = "all-dyadic") -> ClassConstant:
    """max over the family of ||w chi_Q||_{L(p,q)} / (|Q|^{1/p} avg_Q w)."""
    if not p > 1.0:
        raise ValueError("p must exceed 1")
    if not q >= 1.0:
        raise ValueError("q must be at least 1")

    def ratios(lev):
        T = 2.0 ** (-w.d * lev)
        return _lorentz_level(w, lev, p, q) / (T ** (1.0 / p) * _level_means(w, lev))

    return _family_constant(w, cubes, "RH_Lorentz", ratios, p=p, q=q)


def fujii_constant(w: WeightGrid, cubes: str = "all-dyadic") -> ClassConstant:
    """max over the family of int_Q M_d(w chi_Q) / int_Q w.

    The maximal functions localized to the cubes of a level are the rows of
    one running max over the level sums from that level down
    (rearrange._level_maximal), so a level costs one pass.
    """
    ratios = lambda lev: _level_maximal(w, lev).sum(axis=1) / w.float_level_sums(lev)
    return _family_constant(w, cubes, "Fujii", ratios)


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
        return (gp_w.reshape(-1, width).sum(axis=1) / wsum) ** (1.0 / p) / (g_w.reshape(-1, width).sum(axis=1) / wsum)

    return _family_constant(g, cubes, "RH_p_weighted", ratios, p=p)


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
    est = family_index(CurveFamily(w), C_cap=C_cap)
    ind_hat = est.delta_hat
    if ind_hat <= 1.0 - 1.0 / p:
        raise ValueError("not in RH_p at this resolution/cap")
    p_max = 64.0 if ind_hat >= 1.0 - 1.0 / 64.0 else 1.0 / (1.0 - ind_hat)
    p0 = 0.5 * (p + p_max)
    return GehringResult(p0=p0, p_max=p_max, ind_hat=ind_hat, certified=ind_hat > 1.0 - 1.0 / p0)


# ---------------------------------------------------------------------------
# K-side RH_p constant (the interpolation-side characterization)

def _kside_level(w: WeightGrid, level: int, p: float) -> np.ndarray:
    """Per-cube sup over t in (0, |Q|] of
    {int_0^t [s^{-1/p'} K_Q(s)]^p ds/s}^{1/p} / (t^{-1/p'} K_Q(t)),
    taken over the knots plus the denominator's interior minima.  That is a
    lower bound, not the exact sup: the numerator still grows at a minimum
    of the denominator, so the sup can sit between these candidates (on a
    one-hot d=1 L=8 grid the result is up to 5.1e-4 relative low at p=1.5).
    """
    theta = 1.0 - 1.0 / p
    vals, K, s0, s, A = _level_pieces(w, level)
    n = vals.shape[0]
    E = -theta * p - 1.0
    piece = level_piece_integrals(A, vals, s0, s, p, E)
    prefix = np.cumsum(piece, axis=1)
    ratios = prefix ** (1.0 / p) / (s[None, :] ** -theta * K)
    best = ratios.max(axis=1)
    # denominator minima: t* = theta a / (b (1 - theta)) inside a piece
    with np.errstate(divide="ignore", invalid="ignore"):
        tstar = theta * A / (vals * (1.0 - theta))
    valid = (A > 0) & (tstar > s0[None, :]) & (tstar < s[None, :])
    if np.any(valid):
        rows, cols = np.nonzero(valid)
        part = power_piece_integral(
            A[rows, cols], vals[rows, cols], s0[cols], tstar[rows, cols], p, E
        )
        base = np.concatenate((np.zeros((n, 1)), prefix[:, :-1]), axis=1)
        num = (base[rows, cols] + part) ** (1.0 / p)
        den = (A[rows, cols] / (1.0 - theta)) * tstar[rows, cols] ** -theta
        extra = num / den
        np.maximum.at(best, rows, extra)
    return best


def kside_rh_constant(w: WeightGrid, p: float, cubes: str = "all-dyadic") -> ClassConstant:
    """sup over the family of the K-side reverse-Hölder functional."""
    if not p > 1.0:
        raise ValueError("p must exceed 1")
    return _family_constant(w, cubes, "RH_p_kside", lambda lev: _kside_level(w, lev, p), p=p)


# ---------------------------------------------------------------------------
# reverse-Hardy residual over a family

def hardy_residual_sup(w: WeightGrid, cubes: str = "all-dyadic") -> ClassConstant:
    """sup over the family of the reverse-Hardy residual of K_Q: exact,
    closed form via Wright omega, each level's pieces through
    indices._hardy_rows."""

    def ratios(lev):
        vals, K, s0, s, A = _level_pieces(w, lev)
        return _hardy_rows(A, vals, s0, s, K)

    return _family_constant(w, cubes, "HardyResidual", ratios)


# ---------------------------------------------------------------------------
# verification routines

def verify_rhp_equivalence(
    w: WeightGrid, p: float, cubes: str = "all-dyadic", radius: float | None = None
) -> TheoremReport:
    """The RH_p constant and the K-side constant must be comparable within
    the radius."""
    R = default_radius(w.d) if radius is None else radius
    rh = rh_p_constant(w, p, cubes)
    ks = kside_rh_constant(w, p, cubes)
    ratio = rh.value / ks.value
    ok = 1.0 / R <= ratio <= R
    case = {
        "name": f"{w.label} p={p:g}",
        "pass": bool(ok),
        "rh_p": rh.value,
        "k_side": ks.value,
        "ratio": ratio,
    }
    return _single_case("rhp-equivalence", w.label, case, {"rh_p": rh.value, "k_side": ks.value, "radius": R})


def verify_llogl_equivalence(
    w: WeightGrid, cubes: str = "all-dyadic", radius: float | None = None
) -> TheoremReport:
    """The L log L reverse-Hölder constant and the family sup of the reverse
    Hardy residual must be comparable within the radius."""
    R = default_radius(w.d) if radius is None else radius
    rh = rh_llogl_constant(w, cubes)
    hr = hardy_residual_sup(w, cubes)
    ratio = rh.value / hr.value
    ok = 1.0 / R <= ratio <= R
    case = {
        "name": w.label,
        "pass": bool(ok),
        "rh_llogl": rh.value,
        "hardy_sup": hr.value,
        "ratio": ratio,
    }
    return _single_case("llogl-equivalence", w.label, case, {"rh_llogl": rh.value, "hardy_sup": hr.value, "radius": R})


def verify_acks(w: WeightGrid, C_cap: float = 16.0, margin: float = 0.02) -> TheoremReport:
    """Classification agreement: the rearrangement-product index satisfies
    lambda_hat < 1 - margin exactly when the K-curve family index exceeds
    the margin.  Cases with either index within 0.05 of its threshold are
    flagged borderline and excluded from the assertion."""
    fam = family_index(CurveFamily(w), C_cap=C_cap)
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
    return _single_case("acks-equivalence", w.label, case, {"delta_hat": fam.delta_hat, "lambda_hat": ak.lambda_hat})


def verify_stromberg_wheeden(w: WeightGrid, p: float, C_cap: float = 16.0) -> TheoremReport:
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
    fam = family_index(CurveFamily(w), C_cap=C_cap)
    wp = grid_power(w, p)
    fam_p = family_index(CurveFamily(wp), C_cap=C_cap)
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
    return _single_case(
        "stromberg-wheeden", w.label, case, {"delta_hat": fam.delta_hat, "delta_hat_power": fam_p.delta_hat}
    )


def verify_fujii(w: WeightGrid, cubes: str = "all-dyadic", c: float = 4.0) -> TheoremReport:
    """Fujii's condition from the L log L constant: fujii_constant <=
    c (k^2 + k + 1) with k = rh_llogl_constant; the cellwise iterated-maximal
    comparison constant is reported alongside."""
    fu = fujii_constant(w, cubes)
    k = rh_llogl_constant(w, cubes).value
    bound = c * (k * k + k + 1.0)
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
    return _single_case("fujii", w.label, case, {"fujii": fu.value, "rh_llogl": k, "iterated_over_single": c_iter})


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


def verify_extrapolation_bound(w: WeightGrid, Q: DyadicCube | None = None, c: float = 4.0) -> TheoremReport:
    """For the dyadic maximal operator on (L1(Q), Linf(Q)):

        int_0^{|Q|} K(r, M_d(w chi_Q)) dr / r <= c ||w||_{L1(Q)} (k^2 + k + 1),

    k the reverse-Hardy residual of K_Q, at relative tolerance 1e-8; the
    weak-type hypothesis residual (at most 1) is checked alongside.
    """
    Q = w.base if Q is None else Q
    M = dyadic_maximal(w, Q)
    lhs = extrapolation_norm(M, Q)
    k = hardy_residual(k_l1_linf(w, Q))
    rhs = c * integrate(w, Q) * (k * k + k + 1.0)
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
    return _single_case(
        "extrapolation-bound", w.label, case, {"lhs": lhs, "rhs": rhs, "hardy_residual": k, "weak_type_residual": wt}
    )


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


def verify_weighted_rh(
    g: WeightGrid, w: WeightGrid, p: float, cubes: str = "all-dyadic", Pi: PackingFamily | None = None
) -> TheoremReport:
    """g in RH_p(w dx) gives the K-inequality between packing estimates:

        estimate_p(t) <= C t^{1/p - 1} estimate_1(t)

    with C the weighted reverse-Hölder constant and the same packing family
    on both sides (the derivation is definitional, constant 1), checked at
    cube-aligned t values."""
    C = rh_p_weighted_constant(g, w, p, cubes).value
    if Pi is None:
        Pi = packing_family(g, w, p)
    ts = origin_chain_masses(w)
    cases = []
    for t, ep, e1 in zip(ts, k_weighted_curve(g, w, p, ts, Pi), k_weighted_curve(g, w, 1.0, ts, Pi)):
        bound = C * t ** (1.0 / p - 1.0) * e1.value
        ok = ep.value <= bound * (1.0 + 1e-12)
        cases.append({
            "name": f"t={t:g}",
            "pass": bool(ok),
            "estimate_p": ep.value,
            "bound": bound,
        })
    passed = all(c["pass"] for c in cases)
    return TheoremReport(
        theorem="weighted-rh",
        corpus=f"g={g.label} w={w.label} p={p:g}",
        cases=cases,
        passed=passed,
        constants={"rh_p_weighted": C},
    )


# ---------------------------------------------------------------------------
# exactness, Herz, and packing property checks (shared by CLI suites and tests)

def verify_rearrange_exact(w: WeightGrid) -> TheoremReport:
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
    K = k_l1_linf(w, Q0)
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
    return _single_case("rearrange-exactness", w.label, case, {"luxemburg_residual": residual})


def verify_herz(w: WeightGrid) -> TheoremReport:
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
    return _single_case("herz-bounds", w.label, case, {"worst_ratio_1": worst1, "worst_ratio_2": worst2})


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


def verify_packing(f: WeightGrid, p: float = 2.0) -> TheoremReport:
    """Packing-estimate consistency on an origin-sorted grid:

      * with w = 1 the estimate at t = |Q_level| reproduces K(t) to 1e-12;
      * enlarging the packing family never decreases the estimate;
      * the weighted reverse-Hölder K-inequality holds on a mixed pair.
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
        err = abs(est.value - K.value(t)) / K.value(t)
        worst = max(worst, err)
        if err > 1e-12:
            repro_ok = False
    sub = PackingFamily(Pi.geometry, Pi.rows[: max(1, len(Pi.rows) // 2)])
    mono_ok = k_weighted(fs, ones, 1.0, t_mid, sub).value <= est_mid.value * (1.0 + 1e-15)
    wrh = verify_weighted_rh(fs, ones, p)
    case = {
        "name": f.label,
        "pass": bool(repro_ok and mono_ok and wrh.passed),
        "reproduction_worst_rel": worst,
        "monotone": bool(mono_ok),
        "weighted_rh_pass": bool(wrh.passed),
    }
    return _single_case("packing-consistency", f.label, case, {"reproduction_worst_rel": worst})


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
        "monotone": bool(est.monotone),
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
    theorems: list[TheoremReport] | None = None,
) -> dict:
    """The JSON-ready analysis report: constants, indices, classifications.

    Key order is fixed; all values are plain Python scalars so the encoder
    output is stable byte for byte.
    """
    constants = []
    for p in p_list:
        c = rh_p_constant(w, p, cube_policy)
        constants.append({"kind": c.kind, "p": p, "value": c.value, "witness": c.witness})
    for p in p_list:
        if p > 1.0:
            c = a_p_constant(w, p, cube_policy)
            constants.append({"kind": c.kind, "p": p, "value": c.value, "witness": c.witness})
    c = rh_llogl_constant(w, cube_policy)
    constants.append({"kind": c.kind, "value": c.value, "witness": c.witness})
    for q in q_list:
        for p in p_list:
            if p > 1.0:
                lc = rh_lorentz_constant(w, p, q, cube_policy)
                constants.append({"kind": lc.kind, "p": p, "q": q, "value": lc.value, "witness": lc.witness})
    c = fujii_constant(w, cube_policy)
    constants.append({"kind": c.kind, "value": c.value, "witness": c.witness})
    fam = family_index(CurveFamily(w), C_cap=C_cap, gamma_grid=gamma_grid)
    ak = acks_index(w, C_cap=C_cap, gamma_grid=gamma_grid)
    classifications = {
        "rh_p": {f"{p:g}": bool(fam.delta_hat > 1.0 - 1.0 / p) for p in p_list if p > 1.0},
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
        "theorems": [
            {"id": t.theorem, "pass": t.passed, "details": t.constants} for t in (theorems or [])
        ],
    }
