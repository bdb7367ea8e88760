"""Shared strategies and settings for the test suite.

Random grids come from the package's own counter-based generator (so every
draw is reproducible from the printed spec string), and the dyadic strategy
builds cells as mantissa * 2^e with small mantissas, for which block sums
are exactly representable and bit-level assertions are meaningful.
"""

import numpy as np
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from rhlab.grid import DyadicCube, WeightGrid, make_grid

settings.register_profile(
    "rhlab",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    max_examples=50,
)
settings.load_profile("rhlab")


@st.composite
def random_grids(draw, max_level_1d=8, max_level_2d=4, min_level=1):
    """Lognormal grids through make_grid's deterministic generator."""
    d = draw(st.sampled_from([1, 2]))
    L = draw(st.integers(min_level, max_level_1d if d == 1 else max_level_2d))
    seed = draw(st.integers(0, 2**31 - 1))
    sigma = draw(st.sampled_from([0.3, 0.7, 1.0, 1.5]))
    return make_grid(d, L, f"rand:{seed}:lognormal:{sigma:g}")


@st.composite
def dyadic_grids(draw, max_level=6):
    """Grids whose cells are small integers times a power of two."""
    d = draw(st.sampled_from([1, 2]))
    L = draw(st.integers(1, max_level if d == 1 else max_level // 2))
    n = 1 << (d * L)
    mant = draw(st.lists(st.integers(1, 1 << 12), min_size=n, max_size=n))
    expo = draw(st.integers(-6, 6))
    cells = np.ldexp(np.asarray(mant, dtype=np.float64), expo)
    return WeightGrid(d, L, cells, label="dyadic-random")


def flat_grids() -> list[WeightGrid]:
    """Constant and step grids: their K-curves have pieces with intercept
    exactly 0 away from the origin, which take the closed-form route."""
    return [
        make_grid(1, 6, "const:1"),
        make_grid(1, 7, "const:3"),
        make_grid(2, 3, "const:2"),
        make_grid(1, 5, "step:2,1"),
        make_grid(1, 8, "step:4,1,1,1"),
        make_grid(2, 3, "step:3,1"),
    ]


def localized_grids() -> list[WeightGrid]:
    """Lognormal grids living on a proper subcube of the unit cube, so their
    level sums and Morton rows are indexed from a base below level 0."""
    cases = [(1, 7, DyadicCube(2, (1,))), (1, 5, DyadicCube(1, (1,))), (2, 4, DyadicCube(1, (1, 0)))]
    out = []
    for seed, (d, L, base) in enumerate(cases):
        cells = np.random.default_rng(seed).lognormal(0.0, 1.0, 1 << (d * (L - base.level)))
        out.append(WeightGrid(d, L, cells, label=f"local{seed}", base=base))
    return out


def frozen_double_star(r, t: float) -> float:
    """rearrange.double_star as the scalar function of t it was before it
    became elementwise: the frozen oracle of the bitwise tests."""
    if t >= r.total_measure:
        return r.mass / t
    i = int(np.searchsorted(r.breaks, t, side="right"))
    prev_b = r.breaks[i - 1] if i > 0 else 0.0
    prev_m = r.cum_mass[i - 1] if i > 0 else 0.0
    return (prev_m + r.values[i] * (t - prev_b)) / t


def frozen_gl_panel(A, B, s0, s1, q, E, table, gemv=False):
    """The Gauss-Legendre sum of (A + B s)^q s^E over each panel [s0, s1],
    one panel per row: the frozen oracle of the piece-integral kernel.  The
    node values (A + B s)^q (weight s^E) are summed by halving the node
    axis in the kernel's fixed order; with gemv, the unweighted values take
    the BLAS product with the weights that the kernel used to take."""
    nodes, weights = table
    mid = 0.5 * (s0 + s1)
    half = 0.5 * (s1 - s0)
    s = mid[:, None] + half[:, None] * nodes[None, :]
    if gemv:
        return half * (((A[:, None] + B[:, None] * s) ** q * s ** E) @ weights)
    f = (A[:, None] + B[:, None] * s) ** q * (s ** E * weights)
    k = f.shape[1]
    while k > 1:
        h = k // 2
        f[:, :h] += f[:, k - h : k]
        k -= h
    return half * f[:, 0]


def mp_piece_integral(A, B, s0, s1, q: int, E: float):
    """integral_{s0}^{s1} (A + B s)^q s^E ds for an integer q >= 1, exactly
    from the float inputs in 40-digit mpmath: the binomial expansion, each
    power of s integrated by its antiderivative (the logarithm at exponent
    -1).  Terms carrying a zero power of A = 0 are left out."""
    import mpmath

    with mpmath.workdps(40):
        A, B, s0, s1, E = (mpmath.mpf(float(x)) for x in (A, B, s0, s1, E))
        total = mpmath.mpf(0)
        for j in range(q + 1):
            if A == 0 and j < q:
                continue
            r = E + j + 1
            part = mpmath.log(s1 / s0) if r == 0 else (s1**r - (s0**r if s0 else 0)) / r
            total += mpmath.binomial(q, j) * A ** (q - j) * B**j * part
        return total


def mp_quad_piece(A, B, s0, s1, q: float, E: float):
    """integral_{s0}^{s1} (A + B s)^q s^E ds for any q, from the float
    inputs by 40-digit mpmath.quad (tanh-sinh) on geometric subintervals of
    ratio at most 2, for 0 < s0 < s1 and A + B s0 > 0."""
    import mpmath

    with mpmath.workdps(40):
        A, B, s0, s1, q, E = (mpmath.mpf(float(x)) for x in (A, B, s0, s1, q, E))
        n = max(1, int(mpmath.ceil(mpmath.log(s1 / s0, 2))))
        ends = [s0 * (s1 / s0) ** (mpmath.mpf(i) / n) for i in range(n)] + [s1]
        return mpmath.quad(lambda s: (A + B * s) ** q * s**E, ends)


def closed_form_q(q) -> bool:
    """Whether level_piece_integrals takes its closed form at q."""
    from rhlab.kcalc import _BINOMIAL_Q

    return 1.0 <= q <= _BINOMIAL_Q and float(q).is_integer()


def split_pieces(A, B, s0, s1, q, E) -> np.ndarray:
    """Where level_piece_integrals sums more than one Gauss-Legendre panel
    off the closed-form q: the live pieces with A != 0 and
    k log2(s1/s0) > 1, k = _panels_per_doubling(q, E)."""
    from rhlab.kcalc import _panels_per_doubling

    gl = (s1 > s0) & (A != 0.0)
    out = np.zeros(gl.shape, dtype=bool)
    if not closed_form_q(q) and np.any(gl):
        out[gl] = _panels_per_doubling(q, E) * (np.log2(s1[gl]) - np.log2(s0[gl])) > 1.0
    return out


def assert_mp_quad_close(got, A, B, s0, s1, q, E, where, units, sample=None):
    """got within units 2^-53 relative of mp_quad_piece on the pieces where
    where holds (an evenly spaced sample of at most sample of them); returns
    the worst relative error in units of 2^-53."""
    idx = np.argwhere(where)
    if sample is not None and len(idx) > sample:
        idx = idx[np.linspace(0, len(idx) - 1, sample).astype(int)]
    worst = 0.0
    for i in map(tuple, idx):
        exact = mp_quad_piece(A[i], B[i], s0[i], s1[i], q, E)
        err = float(abs(float(got[i]) - exact) / exact) / 2.0**-53
        assert err <= units, (i, float(got[i]), float(exact), err)
        worst = max(worst, err)
    return worst


def assert_near_frozen(got, ref, A, B, s0, s1, q, E):
    """The piece-integral kernel's results got against a frozen oracle ref
    of its former code, on the pieces (A, B, s0, s1) broadcast to got's
    shape.  Off the closed-form q, bit for bit on the pieces the kernel
    integrates in one panel (both take the same 40-node sums), and within
    32 2^-53 of 40-digit mpmath (mp_quad_piece) on up to 8 of the pieces it
    splits into geometric panels (split_pieces), where the frozen code
    passed its 20/40-node test on the whole piece or bisected it, up to
    129 2^-53 off on six-decade columns.  At the closed-form q the kernel
    integrates in closed form, so the bits move: it must lie within 16 ulp
    (16 eps relative) of the frozen 40-node sums of the pieces with
    s1 <= 2 s0, and within 8 2^-53 of 40-digit mpmath (mp_piece_integral)
    on the others: where the frozen code took a difference of
    antiderivatives (A = 0, or q = 1), which cancels, and where its wider
    panels may be bisected, whose added sums were up to 142 2^-53 off on
    six-decade columns."""
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape
    A, B, s0, s1 = (np.broadcast_to(np.asarray(x, dtype=np.float64), got.shape) for x in (A, B, s0, s1))
    if not closed_form_q(q):
        split = split_pieces(A, B, s0, s1, q, E)
        np.testing.assert_array_equal(got[~split].view(np.uint64), ref[~split].view(np.uint64))
        assert_mp_quad_close(got, A, B, s0, s1, q, E, split, 32, sample=8)
        return
    live = s1 > s0
    assert np.all(got[~live] == 0.0) and np.all(ref[~live] == 0.0)
    gl = live & (A != 0.0) & (q != 1.0) & (s1 <= 2.0 * s0)
    eps = np.finfo(np.float64).eps
    assert np.all(np.abs(got[gl] - ref[gl]) <= 16 * eps * np.abs(ref[gl]))
    for i in zip(*np.nonzero(live & ~gl)):
        exact = mp_piece_integral(A[i], B[i], s0[i], s1[i], int(q), E)
        assert abs(float(got[i]) - exact) <= 8 * 2.0**-53 * abs(exact), (i, float(got[i]), float(exact))
