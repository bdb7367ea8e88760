"""Piecewise-constant weights on dyadic grids over the unit cube.

A weight is a strictly positive function on [0,1)^d (d = 1 or 2) that is
constant on each cell of a uniform dyadic mesh with 2^L cells per axis.  Cell
values are stored row-major (axis 0 fastest).  Internally the cells are also
kept in Morton (Z-curve) order, where every dyadic subcube is one contiguous
slice; this makes cube-indexed sums, rearrangements, and per-level batch
computations simple array operations.

Integration is exact up to one rounding.  A cube's mass is one correctly
rounded math.fsum over the cube's Morton slice, scaled by the power of two
2^(-dL), so a parent's mass and each child's mass each round exactly once,
independent of evaluation order, and no per-cell object or per-level table
is kept.
"""

from __future__ import annotations

import functools
import io
import json
import math
import mmap
import os
import re
import sys
from dataclasses import dataclass

import numpy as np


class WeightSpecError(ValueError):
    """Raised for malformed or out-of-range generator descriptors."""


class WeightFormatError(ValueError):
    """Raised for bad weight files.

    ``code`` identifies the failure: "header" (missing or inconsistent
    header/structure), "cell-count" (wrong number of cells), "nonpositive"
    (a cell value <= 0), "parse" (unreadable numbers or syntax).
    """

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


@dataclass(frozen=True)
class DyadicCube:
    """Address of a dyadic subcube: refinement level and integer coords.

    ``coords`` has one entry per axis, each in [0, 2^level); axis 0 is the
    fastest-varying (row-major) axis.  The cube at level l has measure
    2^(-d*l).
    """

    level: int
    coords: tuple[int, ...]

    def __post_init__(self):
        if self.level < 0:
            raise ValueError("cube level must be nonnegative")
        n = 1 << self.level
        for c in self.coords:
            if not 0 <= c < n:
                raise ValueError(f"coordinate {c} outside [0, {n})")

    @property
    def d(self) -> int:
        return len(self.coords)

    @property
    def measure(self) -> float:
        return 2.0 ** (-self.d * self.level)

    def addr(self) -> str:
        return f"{self.level}:" + ",".join(str(c) for c in self.coords)

    def child(self, branch: int) -> "DyadicCube":
        cs = tuple((c << 1) | ((branch >> a) & 1) for a, c in enumerate(self.coords))
        return DyadicCube(self.level + 1, cs)

    def contains(self, other: "DyadicCube") -> bool:
        if other.level < self.level or other.d != self.d:
            return False
        shift = other.level - self.level
        return all(oc >> shift == c for oc, c in zip(other.coords, self.coords))


def parse_cube(addr: str, d: int) -> DyadicCube:
    """Parse "level:c0[,c1]" into a DyadicCube."""
    m = re.fullmatch(r"(\d+):(\d+(?:,\d+)*)", addr.strip())
    if not m:
        raise ValueError(f"bad cube address {addr!r}, expected level:c0[,c1]")
    level = int(m.group(1))
    coords = tuple(int(c) for c in m.group(2).split(","))
    if len(coords) != d:
        raise ValueError(f"cube address {addr!r} has {len(coords)} coords, grid is {d}-dimensional")
    return DyadicCube(level, coords)


def base_cube(d: int) -> DyadicCube:
    return DyadicCube(0, (0,) * d)


# ---------------------------------------------------------------------------
# Morton order helpers (d = 2; d = 1 is the identity)

def _spread1(x: int) -> int:
    # spread the low 32 bits of x so bit k lands at position 2k
    x &= 0xFFFFFFFF
    x = (x | (x << 16)) & 0x0000FFFF0000FFFF
    x = (x | (x << 8)) & 0x00FF00FF00FF00FF
    x = (x | (x << 4)) & 0x0F0F0F0F0F0F0F0F
    x = (x | (x << 2)) & 0x3333333333333333
    return (x | (x << 1)) & 0x5555555555555555


def morton_index(cube: DyadicCube) -> int:
    """Rank of the cube among the cubes of its level, in Morton order."""
    if cube.d == 1:
        return cube.coords[0]
    return _spread1(cube.coords[0]) | (_spread1(cube.coords[1]) << 1)


def _compact1by1(x: np.ndarray) -> np.ndarray:
    # inverse of _spread1, elementwise: gather the even bits of x into the low 32 bits
    x = x & np.uint64(0x5555555555555555)
    x = (x | (x >> np.uint64(1))) & np.uint64(0x3333333333333333)
    x = (x | (x >> np.uint64(2))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    x = (x | (x >> np.uint64(4))) & np.uint64(0x00FF00FF00FF00FF)
    x = (x | (x >> np.uint64(8))) & np.uint64(0x0000FFFF0000FFFF)
    x = (x | (x >> np.uint64(16))) & np.uint64(0x00000000FFFFFFFF)
    return x


def _demorton(d: int, r: np.ndarray) -> list[np.ndarray]:
    """Per-axis coordinates (int64) of Morton ranks r within one cube."""
    if d == 1:
        return [np.asarray(r, dtype=np.int64)]
    r = np.asarray(r, dtype=np.uint64)
    return [_compact1by1(r).astype(np.int64), _compact1by1(r >> np.uint64(1)).astype(np.int64)]


def _rowmajor_of_morton(d: int, L: int) -> np.ndarray:
    """Permutation p with p[r] = row-major index of the r-th Morton cell."""
    axes = _demorton(d, np.arange(1 << (d * L)))
    return axes[0] if d == 1 else axes[1] * (1 << L) + axes[0]


# ---------------------------------------------------------------------------
# Row reductions of level matrices (one row per cube)

def row_sums(x: np.ndarray) -> np.ndarray:
    """x.sum(axis=1) of a 2-D float64 array, bit for bit.

    numpy adds a row of fewer than 8 values one at a time from +0.0, and
    pays a per-row cost that dominates on such short rows; they are added
    here column by column in that same order.  From 8 values on numpy
    regroups the row (pairwise), so wider rows keep numpy's call.
    """
    n, m = x.shape
    if m >= 8:
        return x.sum(axis=1)
    out = np.zeros(n)
    for j in range(m):
        out += x[:, j]
    return out


def row_means(x: np.ndarray) -> np.ndarray:
    """x.mean(axis=1) of a 2-D float64 array, bit for bit: numpy's mean
    divides the row sums by the row length."""
    return row_sums(x) / x.shape[1]


def _sorted_short_rows(rows: np.ndarray) -> np.ndarray:
    """np.sort(rows, axis=1) of finite float64 rows of 2 or 4 values, bit
    for bit: np.sort pays a per-row cost that dominates on such rows, so
    they go through a min/max network by columns.  It returns the same
    values in the same order, and equal values have the same bits unless
    they are zeros of both signs, which no cell is."""
    cols = [rows[:, j] for j in range(rows.shape[1])]
    lo, hi = np.minimum(cols[0], cols[1]), np.maximum(cols[0], cols[1])
    if len(cols) == 2:
        return np.stack([lo, hi], axis=1)
    lo2, hi2 = np.minimum(cols[2], cols[3]), np.maximum(cols[2], cols[3])
    mid, mid2 = np.maximum(lo, lo2), np.minimum(hi, hi2)
    return np.stack([np.minimum(lo, lo2), np.minimum(mid, mid2), np.maximum(mid, mid2), np.maximum(hi, hi2)], axis=1)


# ---------------------------------------------------------------------------

class WeightGrid:
    """A strictly positive piecewise-constant weight on a dyadic grid.

    Parameters
    ----------
    d : 1 or 2.
    L : refinement level; 2^L cells per axis (absolute, even for localized
        grids).
    cells : row-major cell values; length 2^{d(L - base.level)}.
    label : free-form provenance string.
    base : the cube the grid lives on.  Defaults to the unit cube; localized
        grids (e.g. maximal functions on a subcube) carry their own base and
        cover only that cube's cells.

    ``spec`` is (kind, *parameters) as parsed from the generator descriptor
    when make_grid built the grid, and () otherwise; classifications read
    it, never the spelling of ``label``.
    """

    def __init__(self, d: int, L: int, cells, label: str = "", base: DyadicCube | None = None):
        self._keep(d, L, cells, label, base, copy=True)

    def _keep(self, d: int, L: int, cells, label: str, base: DyadicCube | None, copy: bool) -> "WeightGrid":
        """Set the grid up (the checks of __init__) and return it; without
        copy it keeps cells when they are a float64 array already: a file
        reader's array, which no one else holds (_file_grid)."""
        if d not in (1, 2):
            raise WeightSpecError(f"dimension must be 1 or 2, got {d}")
        if L < 0:
            raise WeightSpecError("level must be nonnegative")
        if base is None:
            base = base_cube(d)
        if base.d != d or base.level > L:
            raise WeightSpecError("base cube incompatible with grid")
        self.d = int(d)
        self.L = int(L)
        self.base = base
        cells = np.array(cells, dtype=np.float64, copy=copy or None)
        expected = 1 << (d * (L - base.level))
        if cells.ndim != 1 or cells.size != expected:
            raise WeightFormatError(
                "cell-count", f"expected {expected} cells for d={d} L={L}, got {cells.size}"
            )
        if not np.all(np.isfinite(cells)):
            raise WeightFormatError("parse", "cells must be finite numbers")
        if np.any(cells <= 0.0):
            raise WeightFormatError("nonpositive", "all cell values must be strictly positive")
        self.cells = cells
        self.cells.setflags(write=False)
        self.label = label
        self.spec: tuple = ()
        self._zcells: np.ndarray | None = None
        self._float_sums: list[np.ndarray] | None = None
        self._sorted_levels: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        # family_index and acks_index results keyed by (kind, C_cap, gamma_grid)
        self._indices: dict[tuple, object] = {}
        return self

    # -- geometry ----------------------------------------------------------

    @property
    def cell_measure(self) -> float:
        return 2.0 ** (-self.d * self.L)

    @property
    def measure(self) -> float:
        return self.base.measure

    @property
    def ncells(self) -> int:
        return self.cells.size

    def __repr__(self):
        return f"WeightGrid(d={self.d}, L={self.L}, base={self.base.addr()}, label={self.label!r})"

    # -- Morton layout -----------------------------------------------------

    @property
    def zcells(self) -> np.ndarray:
        """Cell values ordered along the Morton curve of the base cube."""
        if self._zcells is None:
            perm = _rowmajor_of_morton(self.d, self.L - self.base.level)
            z = self.cells[perm]
            z.setflags(write=False)
            self._zcells = z
        return self._zcells

    def _check_cube(self, Q: DyadicCube):
        if Q.d != self.d:
            raise ValueError(f"cube dimension {Q.d} does not match grid dimension {self.d}")
        if Q.level > self.L:
            raise ValueError(f"cube level {Q.level} exceeds grid level {self.L}")
        if not self.base.contains(Q):
            raise ValueError(f"cube {Q.addr()} lies outside the grid's base cube {self.base.addr()}")

    def zrange(self, Q: DyadicCube) -> tuple[int, int]:
        """Contiguous Morton slice [start, stop) of the cube's cells."""
        self._check_cube(Q)
        width = 1 << (self.d * (self.L - Q.level))
        start = morton_index(Q) * width - morton_index(self.base) * (1 << (self.d * (self.L - self.base.level)))
        return start, start + width

    def cube_cells(self, Q: DyadicCube) -> np.ndarray:
        a, b = self.zrange(Q)
        return self.zcells[a:b]

    # -- exact sums --------------------------------------------------------

    def _exact_tree(self, a: int, b: int) -> float:
        """Correctly rounded sum of the Morton cells [a, b), by math.fsum;
        OverflowError when the sum exceeds the float range.  (The name is
        the one the benchmark's per-layer trace reports.)"""
        # a memoryview yields Python floats without building a list
        return math.fsum(memoryview(self.zcells[a:b]))

    def float_level_sums(self, level: int) -> np.ndarray:
        """Float block sums over all cubes of a level (Morton order); OverflowError past the float range."""
        if self._float_sums is None:
            sums = [self.zcells.astype(np.float64)]
            fan = 1 << self.d
            with np.errstate(over="ignore"):
                while sums[-1].size > 1:
                    sums.append(row_sums(sums[-1].reshape(-1, fan)))
            if not math.isfinite(sums[-1][0]):  # the cells are positive: the top sum is the largest
                raise OverflowError("cube mass exceeds the float range")
            sums.reverse()
            self._float_sums = sums
        return self._float_sums[level - self.base.level]

    def sorted_level(self, level: int) -> tuple[np.ndarray, np.ndarray]:
        """(values desc, cumulative masses) per cube of a level.

        Returns arrays of shape (ncubes, cells_per_cube): row i holds the
        descending cell values of the i-th (Morton) cube and the cumulative
        sums values.cumsum(axis=1) * cell_measure, i.e. the K-curve knots.
        OverflowError when a cube's cell sum exceeds the float range.
        """
        rel = level - self.base.level
        if rel not in self._sorted_levels:
            width = 1 << (self.d * (self.L - level))
            rows = self.zcells.reshape(-1, width)
            asc = _sorted_short_rows(rows) if width in (2, 4) else np.sort(rows, axis=1)
            vals = asc[:, ::-1]  # the same reversed view on every width, so no loop downstream changes
            with np.errstate(over="ignore"):  # refused just below
                if width < 8:
                    # np.cumsum adds in sequence but pays a per-row cost that
                    # dominates on short rows: the same sums, a column at a time
                    cum = np.empty_like(vals, order="C")
                    cum[:, 0] = vals[:, 0]
                    for j in range(1, width):
                        np.add(cum[:, j - 1], vals[:, j], out=cum[:, j])
                else:
                    cum = np.cumsum(vals, axis=1)
                cum *= self.cell_measure
            if not np.all(np.isfinite(cum[:, -1])):
                raise OverflowError("cube mass exceeds the float range")
            vals.setflags(write=False)
            cum.setflags(write=False)
            self._sorted_levels[rel] = (vals, cum)
        return self._sorted_levels[rel]


# Cephes ndtri (S. L. Moshier): the rational approximations of the central
# branch (P0/Q0, y - 1/2 in [-3/8, 3/8]) and of the tails, in x = sqrt(-2 ln y),
# for 2 <= x < 8 (P1/Q1) and x >= 8 (P2/Q2), from the highest degree down;
# Q's leading coefficient is 1.
_NDTRI_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
             1.39312609387279679503e1, -1.23916583867381258016e0)
_NDTRI_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
             -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
             1.59056225126211695515e1, -1.18331621121330003142e0)
_NDTRI_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
             4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
             -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_NDTRI_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
             1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
             -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_NDTRI_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
             1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
             3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_NDTRI_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
             2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
             2.89247864745380683936e-6, 6.79019408009981274425e-9)
_EXPM2 = 0.13533528323661269189  # e^-2, where the tails begin
_NDTRI_BLOCK = 1 << 15
# x87 extended precision: the 64-bit significand fills the low 8 bytes of each
# 16-byte long double, so its low 11 bits are those that rounding to double drops
_X87_LONG_DOUBLE = (np.finfo(np.longdouble).nmant == 63 and np.dtype(np.longdouble).itemsize == 16
                    and sys.byteorder == "little")


def _polevl(x: np.ndarray, coef, monic: bool = False) -> np.ndarray:
    """Horner's rule from the highest coefficient, in Cephes' order (polevl,
    or p1evl with an implicit leading 1), one rounding per operation."""
    ans = x + coef[0] if monic else np.full_like(x, coef[0])
    for c in coef[1:]:
        ans *= x
        ans += c
    return ans


def _libm_log(x: np.ndarray) -> np.ndarray:
    """log(x) for x > 0, bit-equal to the C library's log, which Cephes calls.

    numpy's vectorised float64 log is not always libm's.  On x87 long
    doubles, log in extended precision rounded to double is libm's result
    unless the extended value lies within 1/32 ulp of a rounding midpoint:
    libm's log is within 0.52 ulp of the exact value (glibc's bound) and the
    extended log within 2^-11 ulp.  Those cells, about 3 %, and every cell
    on other long double formats, take math.log.
    """
    if not _X87_LONG_DOUBLE:
        return np.array([math.log(v) for v in x.tolist()], dtype=np.float64)
    ext = np.log(x.astype(np.longdouble))
    dropped = (ext.view(np.uint64)[::2] & np.uint64(0x7FF)).astype(np.int64)  # a midpoint is 0x400
    out = ext.astype(np.float64)
    near = np.flatnonzero(np.abs(dropped - 0x400) < 64)
    out[near] = [math.log(v) for v in x[near].tolist()]
    return out


def _ndtri(u: np.ndarray) -> np.ndarray:
    """The inverse of the standard normal CDF on (0, 1], bit-equal to
    scipy.special.ndtri: a numpy port of the Cephes ndtri with its branches,
    its Horner order and libm's log (_libm_log); ndtri(1) = inf.  Long
    arrays go in blocks of _NDTRI_BLOCK cells, whose temporaries stay in
    cache: at 2^18 cells that takes a third less time than one pass."""
    if u.size > _NDTRI_BLOCK:
        x = np.empty_like(u)
        for i in range(0, u.size, _NDTRI_BLOCK):
            x[i:i + _NDTRI_BLOCK] = _ndtri(u[i:i + _NDTRI_BLOCK])
        return x
    y = u - 0.5  # the central branch on every cell; the tails overwrite theirs
    y2 = y * y
    x = (y + y * (y2 * _polevl(y2, _NDTRI_P0) / _polevl(y2, _NDTRI_Q0, monic=True))) * 2.50662827463100050242e0
    tail = np.flatnonzero((u <= _EXPM2) | ((u > 1.0 - _EXPM2) & (u < 1.0)))
    upper = u[tail] > 1.0 - _EXPM2
    t = np.sqrt(-2.0 * _libm_log(np.where(upper, 1.0 - u[tail], u[tail])))
    z = 1.0 / t
    r = z * _polevl(z, _NDTRI_P1) / _polevl(z, _NDTRI_Q1, monic=True)
    far = np.flatnonzero(t >= 8.0)  # y < e^-32, about one draw in 2^45
    if far.size:
        r[far] = z[far] * _polevl(z[far], _NDTRI_P2) / _polevl(z[far], _NDTRI_Q2, monic=True)
    t = t - _libm_log(t) / t - r
    x[tail] = np.where(upper, t, -t)
    x[u == 1.0] = np.inf
    return x


def _generated(d: int, L: int, cells, label: str, *spec) -> WeightGrid:
    """A grid built from a descriptor, recording its parsed form; a cell
    outside (0, inf) left the float range, a numerical error."""
    if not np.all((cells > 0.0) & (cells < math.inf)):
        raise OverflowError(f"weight {label!r} has cells beyond the float range")
    w = WeightGrid(d, L, cells, label=label)
    w.spec = spec
    return w


def make_grid(d: int, L: int, spec: str) -> WeightGrid:
    """Build a weight from a generator descriptor.

    Descriptors: ``const:c`` (c > 0), ``pow:a`` (d = 1, a > -1; cell k holds
    the average of x^a over the cell to a few ulps), ``step:v0,v1,...`` (the i-th
    value fills the i-th block of consecutive row-major cells; the count must
    divide the cell count), ``rand:seed:lognormal:sigma`` (counter-based
    generator, see below), ``file:path`` (CSV or JSON by extension).

    Randomness is reproducible from the seed: cells are exp(sigma * z) where
    z = ndtri((r >> 11 + 1/2) * 2^-53), r are the raw 64-bit outputs of a
    Philox 4x64 counter-based generator keyed by the seed, and ndtri is a
    port of the Cephes ndtri, bit-equal to scipy.special.ndtri.  Like
    scipy's, it takes its tail logs from the platform's libm, and the cells
    take numpy's exp, so a platform whose libm log or numpy exp rounds
    differently may draw different last bits.
    """
    if not isinstance(spec, str) or ":" not in spec:
        raise WeightSpecError(f"malformed weight descriptor {spec!r}")
    kind, _, rest = spec.partition(":")
    n = 1 << (d * L)
    if kind == "const":
        try:
            c = float(rest)
        except ValueError as exc:
            raise WeightSpecError(f"bad constant in {spec!r}") from exc
        if not (c > 0.0 and math.isfinite(c)):
            raise WeightSpecError("const value must be positive and finite")
        return _generated(d, L, np.full(n, c), spec, "const", c)
    if kind == "pow":
        if d != 1:
            raise WeightSpecError("pow weights are one-dimensional")
        try:
            a = float(rest)
        except ValueError as exc:
            raise WeightSpecError(f"bad exponent in {spec!r}") from exc
        if a <= -1.0:
            raise WeightSpecError("pow exponent must exceed -1 (local integrability)")
        k = np.arange(n, dtype=np.float64)
        # cell average of x^a over [x_k, x_k + 2^-L), x_k = k 2^-L, without cancellation; checked in _generated
        with np.errstate(all="ignore"):
            cells = (k * 2.0**-L) ** (a + 1.0) * np.expm1((a + 1.0) * np.log1p(1.0 / k)) * 2.0**L / (a + 1.0)
        cells[0] = 2.0 ** (-L * a) / (a + 1.0)
        return _generated(d, L, cells, spec, "pow", a)
    if kind == "step":
        try:
            vals = [float(v) for v in rest.split(",") if v != ""]
        except ValueError as exc:
            raise WeightSpecError(f"bad step values in {spec!r}") from exc
        if not vals:
            raise WeightSpecError("step needs at least one value")
        if any(not (v > 0.0 and math.isfinite(v)) for v in vals):
            raise WeightSpecError("step values must be positive and finite")
        if n % len(vals) != 0:
            raise WeightSpecError(f"step value count {len(vals)} does not divide cell count {n}")
        cells = np.repeat(np.asarray(vals, dtype=np.float64), n // len(vals))
        return _generated(d, L, cells, spec, "step", tuple(vals))
    if kind == "rand":
        parts = rest.split(":")
        if len(parts) != 3 or parts[1] != "lognormal":
            raise WeightSpecError(f"malformed random descriptor {spec!r}; expected rand:seed:lognormal:sigma")
        try:
            seed = int(parts[0])
            sigma = float(parts[2])
        except ValueError as exc:
            raise WeightSpecError(f"bad seed or sigma in {spec!r}") from exc
        if not (sigma > 0.0 and math.isfinite(sigma)):
            raise WeightSpecError("sigma must be positive and finite")
        raw = np.random.Philox(key=seed).random_raw(n)
        u = ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53
        with np.errstate(all="ignore"):  # checked in _generated
            cells = np.exp(sigma * _ndtri(u))
        return _generated(d, L, cells, spec, "rand", seed, sigma)
    if kind == "file":
        w = load_weight(rest)
        if w.d != d or w.L != L:
            raise WeightSpecError(
                f"file {rest!r} holds a d={w.d} L={w.L} grid, requested d={d} L={L}"
            )
        return w
    raise WeightSpecError(f"unknown weight kind {kind!r}")


def integrate(w: WeightGrid, Q: DyadicCube) -> float:
    """Exact mass of the cube: sum of covered cell values times 2^(-dL).

    One correctly rounded math.fsum over the cube's Morton slice, then an
    exact scaling by 2^(-dL): the result is the correctly rounded value of
    the exact rational mass (unless it falls below 2^-1022, where the
    scaling rounds once more), so a parent's mass and each child's mass
    each round exactly once.  A cell sum beyond the float range (fsum's
    OverflowError) is summed again with the cells scaled by 2^(-dL) first,
    which is exact unless a scaled cell falls below 2^-1022: the mass, at
    most the largest cell, is always a float.
    """
    a, b = w.zrange(Q)
    try:
        return math.ldexp(w._exact_tree(a, b), -w.d * w.L)
    except OverflowError:
        return math.fsum(memoryview(np.ldexp(w.zcells[a:b], -w.d * w.L)))


def cube_levels(policy: str, lo: int, L: int) -> range:
    """The levels of a cube-family policy for a base cube at level lo and
    cells at level L: "all-dyadic" (lo..L), "base" (lo) or "level:k" (k)."""
    if policy == "all-dyadic":
        return range(lo, L + 1)
    if policy == "base":
        return range(lo, lo + 1)
    if policy.startswith("level:"):
        try:
            k = int(policy.split(":", 1)[1])
        except ValueError as exc:
            raise ValueError(f"bad level policy {policy!r}") from exc
        if not lo <= k <= L:
            raise ValueError(f"level {k} outside [{lo}, {L}]")
        return range(k, k + 1)
    raise ValueError(f"unknown cube policy {policy!r}")


def _level_coords(w: WeightGrid, level: int, rows) -> np.ndarray:
    """Absolute coords (one row per cube, one column per axis) of the cubes
    of a level at the given Morton rows."""
    rel = level - w.base.level
    axes = _demorton(w.d, rows)
    return np.stack([(c << rel) + a for c, a in zip(w.base.coords, axes)], axis=1)


def _cube_at(w: WeightGrid, level: int, row: int) -> DyadicCube:
    """The cube of a level at one Morton row (array row order)."""
    return DyadicCube(level, tuple(_level_coords(w, level, [row])[0].tolist()))


def level_cubes(w: WeightGrid, level: int) -> list[DyadicCube]:
    """Cubes of one level in Morton order (matching array row order)."""
    rows = np.arange(1 << (w.d * (level - w.base.level)))
    return [DyadicCube(level, c) for c in zip(*_level_coords(w, level, rows).T.tolist())]


# ---------------------------------------------------------------------------
# File formats

_CSV_HEADER = re.compile(r"# rhlab d=(\d+) L=(\d+)\s*")
_JSON_HEAD = re.compile(rb'\{"d": -?[0-9]+, "L": -?[0-9]+, "cells": \[')
_JSON_NUMBER = re.compile(rb"-?(?:0|[1-9][0-9]*)(\.[0-9]+)?([eE][-+]?[0-9]+)?")
_PAD = 24  # zero bytes before a file in its read buffer: every token's 24-byte window fits
_ROWS_PER_BLOCK = 1 << 14
# the float kernel's rows per pass: measured, 8,192 rows render a block of
# two columns in 8.1 ms against 12.1 ms in one pass, whose byte-index
# temporaries add 2.7 MB to the peak of a d=2 L=9 curve dump
_KERNEL_ROWS = 1 << 13

# Shortest round-trip decimals.  10^0..10^27 are exact in a 64-bit
# significand (5^27 < 2^64); 10^0..10^17 fit uint64.
_POW10_LD = np.cumprod(np.array([1] + [10] * 27, dtype=np.longdouble))
_POW10_U64 = np.cumprod(np.array([1] + [10] * 17, dtype=np.uint64))
# A rendered value is gathered from a 40-byte row: its 17 digits, zero-padded
# to 20 (digit i at byte 3 + i), then this alphabet; NUL pads each text.
_ALPHABET = "0123456789.e+-,\n \0\0\0"
_ALPHABET32 = np.frombuffer(_ALPHABET.encode(), dtype=np.uint32)
_TEXT_WIDTH = 26  # the longest repr, "-2.2250738585072014e-308", and a two-byte separator
_DECPT_MIN, _DECPT_MAX = -10, 45  # decpt = 17 - k (+1) for |k| <= 27


def _scaled(a: np.ndarray, k: np.ndarray) -> np.ndarray:
    """a * 10^k in x87 long double with one rounding, |k| <= 27 (clipped)."""
    k = np.clip(k, -27, 27)
    y = a.astype(np.longdouble) * _POW10_LD[np.maximum(k, 0)]
    big = np.flatnonzero(k < 0)
    y[big] /= _POW10_LD[-k[big]]
    return y


def _shortest_digits(x: np.ndarray):
    """repr's shortest round-trip decimal of each float64 of x, where it can
    be proven from one x87 long double product: (digits, nd, decpt, ok).

    digits is a uint64 in [10^16, 10^17) whose first nd decimal digits, read
    as 0.d1d2..., times 10^decpt are |x|; the others are 0.  ok marks the
    rows decided; on the rest (|x| outside [1e-11, 1e40), so 0, subnormals,
    inf and nan; rows too near a decision's edge; every row when long
    double is not x87) the three values mean nothing, and they are for
    repr.

    What repr prints.  Python's repr is David Gay's dtoa in mode 0.  Write
    |x| = m 2^E (2^52 <= m < 2^53) and Y = |x| 10^k in [10^16, 10^17).  The
    numbers that read back as x fill the interval (Y - Hlo, Y + Hhi), with
    Hhi = H = 2^(E-1) 10^k = Y / (2m), and Hlo = H/2 when m = 2^52, else H.
    dtoa's digits are c 10^-k for c the multiple of P = 10^j inside that
    interval with the largest j, j*; when two are inside, the one nearer to
    Y, and on a tie the one whose last digit c/P is even.  (A c on the
    interval's edge reads back as x or not by the parity of m: such rows go
    to repr.)  At step j the candidates are D = N - r and U = D + P, with
    N = floor(y) and r = N mod P.  A multiple of 10^(j+1) is one of 10^j,
    so the steps with a candidate inside are j = 0..j*.  Step 0 always has
    one, as Hlo + Hhi > Y 2^-53 > 1; steps 1 and 2 are tested.  From
    P = 100 on, P > Hlo + Hhi (< 23), so the one candidate inside at step 2
    is the only multiple of P inside at each later step, and j* - 2 is its
    count of trailing zeros.  Two candidates can be inside only for P <= 10.

    Error bound.  k is fixed so that y = fl(Y) lies in [10^16, 10^17),
    rounded once: 10^|k| is exact for |k| <= 27, so y = |x| * 10^k or
    |x| / 10^-k.  With Y in [2^e, 2^(e+1)), |y - Y| <= 2^(e-64) <= H 2^-10,
    since H = Y / (2m) > 2^(e-54).  N and f = y - N are exact, and f
    rounds to float64 within 2^-54.  The distances dlo = r + f and
    dhi = (P - r) - f take P - r exactly in uint64 (not P - (r + f) in
    float64, which is off by units past 2^53); below 16, the only range
    where they can be near H < 12, each float64 operation rounds within
    2^-50.  H is y / (2m) in float64, within H 2^-51.  So each of
    dlo - Hlo and dhi - Hhi is within H 2^-10 + 2^-47 < mu = H 2^-9 of its
    exact value, and dlo - dhi within 2 mu.  A row is decided when the
    tests it relies on clear these margins: at steps 1 and 2, a candidate
    inside or both outside; at step min(j*, 2), the candidate chosen
    inside, and the other outside or farther by more than 2 mu.  (Past
    step 2 the only test is the exact count of zeros.)  If Y falls outside
    [D, U], it lies within H 2^-10 of D or U, which is then inside and the
    nearer: the outcome is the one the exact distances give.  An inexact
    row needs 10^16 < y < 10^17, which puts Y in the same range.

    Exact ties.  Write |x| = M 2^E' with M odd.  For k >= 0,
    Y = M 5^k 2^(E'+k) is an integer when E' + k >= 0 and a half-integer
    when E' + k = -1.  Then 2Y < 2^58 fits the significand, y = Y, f is 0
    or 1/2 and the distances are exact, so the nearer candidate is decided
    exactly, a tie half-to-even as repr does: the 17-digit tie (f = 1/2)
    and the tie at P = 10 (r = 5, f = 0).  For k < 0 there are none: a tie
    makes Y or 2Y an odd integer w, and |x| = w 5^-k 2^(...) would have
    the odd factor w 5^-k > 2^53.
    """
    n = x.size
    a = np.abs(x)
    ok = (a >= 1e-11) & (a < 1e40)  # false on nan
    if not _X87_LONG_DOUBLE:
        return np.zeros(n, dtype=np.uint64), np.ones(n, dtype=np.int64), np.zeros(n, dtype=np.int64), np.zeros(n, dtype=bool)
    a[~ok] = 1.0
    bits = a.view(np.uint64)
    be = (bits >> np.uint64(52)).astype(np.int64)
    frac = bits & np.uint64((1 << 52) - 1)
    m = frac | np.uint64(1 << 52)
    k = 16 - np.floor(np.log10(a)).astype(np.int64)
    y = _scaled(a, k)
    N = y.astype(np.uint64)
    step = (N < _POW10_U64[16]).astype(np.int64) - (N >= _POW10_U64[17])  # log10 rounded across a power of ten
    fix = np.flatnonzero(step)
    if fix.size:
        k[fix] += step[fix]
        y[fix] = _scaled(a[fix], k[fix])
        N[fix] = y[fix].astype(np.uint64)
    f = (y - N.astype(np.longdouble)).astype(np.float64)
    # 2Y is an integer when the low 1074 - be - k bits of m are zero
    low = np.clip(1074 - be - k, 0, 53).astype(np.uint64)
    exact = (k >= 0) & ((m & ((np.uint64(1) << low) - np.uint64(1))) == 0)
    ok &= (np.abs(k) <= 27) & (N >= _POW10_U64[16]) & (N < _POW10_U64[17]) & (exact | (N > _POW10_U64[16]) | (f > 0.0))
    H = y.astype(np.float64) / (2.0 * m.astype(np.float64))
    mu = H * 2.0 ** -9
    Hlo = H * (0.5 + 0.5 * (frac != 0))  # halved below a power of two
    lo_in, lo_out, hi_in, hi_out = Hlo - mu, Hlo + mu, H - mu, H + mu

    # j* = the last step with a candidate inside; step 0 always has one by
    # more than mu, as Hlo + Hhi - 2 mu > 1
    jstar = ok - 1
    go, lost = ok, ~ok
    for P in _POW10_U64[1:3]:
        q = N // P
        r = N - q * P
        dlo = r.astype(np.float64) + f
        dhi = (P - r).astype(np.float64) - f
        was, go = go, go & ((dlo < lo_in) | (dhi < hi_in))
        lost |= was & ~go & ((dlo <= lo_out) | (dhi <= hi_out))
        jstar += go
    # from P = 100 on, P > Hlo + Hhi: the one candidate inside at j = 2 is
    # the only multiple of P inside at every later step, so j* counts its zeros
    rows = np.flatnonzero(go)
    c = q[rows] + (dlo[rows] >= lo_in[rows])
    for e in (8, 4, 2, 1):
        div = c % _POW10_U64[e] == 0
        c[div] //= _POW10_U64[e]
        jstar[rows] += e * div
    # at step min(j*, 2), of the candidates not surely outside the nearer, a
    # tie to the even digit
    P = _POW10_U64[np.clip(jstar, 0, 2)]
    q = N // P
    r = N - q * P
    dlo = r.astype(np.float64) + f
    dhi = (P - r).astype(np.float64) - f
    in_lo, out_lo, in_hi, out_hi = dlo < lo_in, dlo > lo_out, dhi < hi_in, dhi > hi_out
    diff = dlo - dhi
    both = ~out_lo & ~out_hi
    up = (both & ((diff > 0.0) | ((diff == 0.0) & (q % np.uint64(2) == 1)))) | (~both & out_lo)
    unsure = both & ((~exact & (np.abs(diff) <= 2.0 * mu)) | (up & ~in_hi) | (~up & ~in_lo))
    digits = (q + up) * P
    ok &= ~(lost | unsure)
    top = digits == _POW10_U64[17]  # rounded up to a power of ten
    digits[top] = _POW10_U64[16]
    return digits, np.where(top, 1, 17 - jstar), 17 - k + top, ok


@functools.cache
def _tail_masks() -> np.ndarray:
    """Row n (0 <= n <= 24) keeps the last n bytes of a 24-byte window, as
    its three little-endian uint64 words; built on first use, as _digits4."""
    keep = np.arange(24) >= 24 - np.arange(25)[:, None]
    return np.where(keep, 0xFF, 0).astype(np.uint8).view(np.uint64)


_WORD_SCALES = 2.0 ** np.array([0, 64, 128])


def _bytes8(b: int) -> np.uint64:
    return np.uint64(b * 0x0101010101010101)


def _decimal_values(buf: np.ndarray, bounds: np.ndarray, sep: int):
    """float(t) for each token t = buf[b + sep:c] of the uint8 buffer buf,
    b and c consecutive bounds (c >= 24), where it can be proven: (x, ok).

    ok marks the tokens decided: 1 to 23 bytes of ASCII digits with at most
    one point and at least one digit, whose digits read as an integer N
    below 1844 * 10^16 (so below 2^64), and whose quotient N / 10^f is not
    near a rounding midpoint (see load_weight); x is float(t) there.  Every
    other token (a sign, an exponent, whitespace, a longer token; every
    token when long double is not x87) is for float(), and its x means
    nothing.  The tokens go _KERNEL_ROWS at a time, so the temporaries stay
    in cache.
    """
    n = bounds.size - 1
    x, ok = np.zeros(n), np.zeros(n, dtype=bool)
    if not _X87_LONG_DOUBLE:
        return x, ok
    windows = np.ndarray((buf.size - 23,), dtype="V24", buffer=buf, strides=(1,))  # 24 bytes from each byte
    tails = _tail_masks()
    highs = _bytes8(0x80)
    for lo in range(0, n, _KERNEL_ROWS):
        b = bounds[lo:lo + 1 + _KERNEL_ROWS]
        e = b[1:]
        m = e - b[:-1] - sep
        # each token right-aligned in three little-endian words, its bytes
        # xor '0' (a digit is its value), 0 in the bytes before it
        a = windows[e - 24].view(np.uint64).reshape(-1, 3) ^ _bytes8(0x30)
        a &= np.take(tails, np.minimum(m, 24), axis=0)
        # a point (xor '0': 0x1E) is a zero byte of a ^ 0x1E, flagged in the
        # high bit of z.  The flags of all three words, scaled to their place,
        # sum to a float whose exponent gives p, 1 + the byte of the last
        # flag, 0 without one; a token with one point has no other flag, and
        # with two it keeps one, which the digit test below refuses
        t = a ^ _bytes8(0x1E)
        z = ((t - _bytes8(1)) & ~t & highs).astype(np.float64) * _WORD_SCALES
        p = np.frexp(z[:, 0] + z[:, 1] + z[:, 2])[1] >> 3
        # squeeze the point out: the bytes up to it move one byte up (toward
        # the token's end), which puts the 0 that leads the window first
        up = a << np.uint64(8)
        up.ravel()[1:] |= a.ravel()[:-1] >> np.uint64(56)
        up[:, 0] &= ~np.uint64(0xFF)
        keep = np.take(tails, 24 - p, axis=0)
        v = a & keep | up & ~keep
        bad = ((v + _bytes8(0x76)) | v) & highs  # a high bit in each byte above 9
        # eight digits per word (Lemire): pairs, then fours, then the word
        v = v * np.uint64(10) + (v >> np.uint64(8))
        pick = np.uint64(0x000000FF000000FF)
        v = ((v & pick) * np.uint64(100 + (10**6 << 32)) + ((v >> np.uint64(16)) & pick) * np.uint64(1 + (10**4 << 32))) >> np.uint64(32)
        N = v[:, 0] * _POW10_U64[16] + v[:, 1] * _POW10_U64[8] + v[:, 2]
        q = N.astype(np.longdouble) / _POW10_LD[np.where(p > 0, 24 - p, 0)]
        dropped = (q.view(np.uint64)[::2] & np.uint64(0x7FF)).astype(np.int64)  # a midpoint is 0x400
        x[lo:lo + _KERNEL_ROWS] = q
        ok[lo:lo + _KERNEL_ROWS] = (((bad[:, 0] | bad[:, 1] | bad[:, 2]) == 0) & (m <= 23) & (m > (p > 0))
                                    & (v[:, 0] < 1844) & (np.abs(dropped - 0x400) > 1))
    return x, ok


@functools.cache
def _digits4() -> np.ndarray:
    """The four ASCII digits of 0..9999, one uint32 each (memory order is
    text order); built on first use, so processes that print no curve or
    weight file do not hold it."""
    return (np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")).astype(np.uint8).view(np.uint32).ravel()


@functools.cache
def _layout_table(sep: str) -> np.ndarray:
    """For each (sign, nd, decpt) class, the source byte of each byte of
    repr's text followed by sep, in a value's 40-byte row (see _ALPHABET);
    NUL fills the rest of _TEXT_WIDTH.  repr writes -4 < decpt <= 16 in
    fixed notation, with ".0" on integers, and otherwise in exponent form
    with a sign and at least two exponent digits."""
    letters = "ABCDEFGHIJKLMNOPQ"  # digit i of the 17 stands as letters[i]
    texts = []
    for sign in ("", "-"):
        for nd in range(1, 18):
            d = letters[:nd]
            for decpt in range(_DECPT_MIN, _DECPT_MAX + 1):
                if not -4 < decpt <= 16:
                    text = d[0] + ("." + d[1:] if nd > 1 else "") + f"e{decpt - 1:+03d}"
                elif decpt <= 0:
                    text = "0." + "0" * -decpt + d
                elif decpt < nd:
                    text = d[:decpt] + "." + d[decpt:]
                else:
                    text = d + "0" * (decpt - nd) + ".0"
                texts.append((sign + text + sep).ljust(_TEXT_WIDTH, "\0"))
    source = np.zeros(256, dtype=np.uint8)
    source[np.frombuffer(_ALPHABET.encode(), dtype=np.uint8)] = np.arange(20, 40)
    source[np.frombuffer(letters.encode(), dtype=np.uint8)] = np.arange(3, 20)
    return source[np.frombuffer("".join(texts).encode(), dtype=np.uint8).reshape(len(texts), _TEXT_WIDTH)]


def _render(x: np.ndarray, sep: str, out: np.ndarray) -> None:
    """Write repr(v) + sep for each float64 v of x, NUL-padded, into the
    rows of the uint8 matrix out.  _shortest_digits decides the digits and
    _layout_table places them; the rows it leaves undecided take repr."""
    digits, nd, decpt, ok = _shortest_digits(x)
    # the 17 digits as a 1-digit and four 4-digit chunks; scalar divisors
    # keep numpy's fast integer division (a divisor array is 4x slower)
    hi = digits // np.uint64(10**8)
    lo = digits - hi * np.uint64(10**8)
    c0 = hi // np.uint64(10**8)
    hi -= c0 * np.uint64(10**8)
    c1, c3 = hi // np.uint64(10**4), lo // np.uint64(10**4)
    src = np.empty((x.size, 10), dtype=np.uint32)  # per value: 20 digit bytes, the alphabet
    src[:, :5] = _digits4()[np.stack([c0, c1, hi - c1 * np.uint64(10**4), c3, lo - c3 * np.uint64(10**4)], axis=1)]
    src[:, 5:] = _ALPHABET32
    cls = ((np.signbit(x) * 17 + nd - 1) * (_DECPT_MAX - _DECPT_MIN + 1) + decpt - _DECPT_MIN) * ok
    # every index is in range; mode "clip" spares take a buffered copy
    idx = np.take(_layout_table(sep), cls, axis=0, mode="clip") + np.arange(0, 40 * x.size, 40).reshape(-1, 1)
    np.take(src.view(np.uint8).ravel(), idx, out=out, mode="clip")
    rows = np.flatnonzero(~ok)
    if rows.size:
        text = [(repr(v) + sep).encode() for v in x[rows].tolist()]
        out[rows] = np.array(text, dtype=f"S{_TEXT_WIDTH}").view(np.uint8).reshape(-1, _TEXT_WIDTH)


def _text_blocks(*cols: np.ndarray, end: str = "\n"):
    """The rows of one or two float64 columns as text blocks of at most
    _ROWS_PER_BLOCK rows: every float printed as repr prints it, byte for
    byte, the values of a row comma-separated, each row followed by end.

    One kernel renders every float rhlab writes: _shortest_digits decides
    the digits of _KERNEL_ROWS values at once and _render lays them out in
    a byte matrix; the rows it leaves undecided, and every row where long
    double is not x87, take repr.  Only one block's text is alive at a
    time."""
    seps = [","] * (len(cols) - 1) + [end]
    for lo in range(0, cols[0].size, _ROWS_PER_BLOCK):
        block = [c[lo:lo + _ROWS_PER_BLOCK] for c in cols]
        out = np.empty((block[0].size, len(cols), _TEXT_WIDTH), dtype=np.uint8)
        for a in range(0, block[0].size, _KERNEL_ROWS):
            for i, sep in enumerate(seps):
                _render(block[i][a:a + _KERNEL_ROWS], sep, out[a:a + _KERNEL_ROWS, i])
        yield out.tobytes().translate(None, b"\0").decode("ascii")


def save_weight(w: WeightGrid, path: str) -> None:
    """Write a grid to JSON when the path ends in .json, else to CSV.

    Every cell is printed as repr prints it, so loading reads back
    bit-equal values: both formats are written in blocks of rows by
    _text_blocks, whose one kernel takes repr for the rows it leaves
    undecided.  The JSON bytes are json.dumps of {"d", "L", "cells",
    "label"} and a newline.  Only grids on the unit base cube are
    serializable.
    """
    if w.base.level != 0:
        raise ValueError("only grids on the unit base cube can be saved")
    with open(path, "w") as fh:
        if not path.endswith(".json"):
            fh.write(f"# rhlab d={w.d} L={w.L}\n")
            fh.writelines(_text_blocks(w.cells))
        else:
            fh.write(f'{{"d": {w.d}, "L": {w.L}, "cells": [')
            fh.write(", ".join(block[:-2] for block in _text_blocks(w.cells, end=", ")))
            fh.write(f'], "label": {json.dumps(w.label)}}}\n')


def _file_grid(d: int, L: int, cells, label: str) -> WeightGrid:
    """The grid a file's header and cell list describe; every defect of the
    file raises WeightFormatError."""
    if d not in (1, 2) or not 0 <= d * L <= 62:
        raise WeightFormatError("header", f"header says d={d} L={L}; need d = 1 or 2 and 0 <= d*L <= 62")
    if len(cells) != 1 << (d * L):
        raise WeightFormatError(
            "cell-count", f"header says {1 << (d * L)} cells, file has {len(cells)}"
        )
    try:
        cells = np.asarray(cells, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise WeightFormatError("parse", f"cells must be numbers: {exc}") from exc
    return WeightGrid.__new__(WeightGrid)._keep(d, L, cells, label, None, copy=False)


def _read_padded(path: str) -> mmap.mmap:
    """A file's bytes, read once into one buffer: _PAD zero bytes, the file,
    and an added newline, so that every line ends with one.  The buffer is
    an anonymous mapping, so its pages go back to the system when it is
    freed instead of staying in the heap."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        buf = mmap.mmap(-1, _PAD + size + 1)
        n = fh.readinto(memoryview(buf)[_PAD:])
        if n != size:  # a size not known in advance (a pipe), or a file that changed
            data = buf[_PAD:_PAD + n] + fh.read()
            buf = mmap.mmap(-1, _PAD + len(data) + 1)
            buf[_PAD:-1] = data
    buf[-1] = 10
    return buf


def _text(buf: mmap.mmap) -> io.TextIOWrapper:
    """The file in buf as open(path) reads it in text mode."""
    return io.TextIOWrapper(io.BytesIO(buf[_PAD:-1]))


def _kernel_text(buf: mmap.mmap) -> bool:
    """Whether reading buf as text decodes and translates nothing: ASCII
    bytes, which the locale encodings open() takes decode to themselves,
    and no carriage return."""
    return np.frombuffer(buf, dtype=np.uint8).max() < 0x80 and buf.find(b"\r") < 0


def _token_bounds(arr: np.ndarray, sep: int, first: int, last: int) -> np.ndarray:
    """first, the position of every byte sep in arr[first + 1:last], and
    last: the bounds of the tokens that sep separates.  The positions are
    found a megabyte at a time, so no bool array as long as the file is made."""
    found = [np.flatnonzero(arr[lo:min(lo + (1 << 20), last)] == sep) + lo for lo in range(first + 1, last, 1 << 20)]
    return np.concatenate([[first], *found, [last]])


def _csv_header(first: str) -> tuple[int, int]:
    m = _CSV_HEADER.fullmatch(first)
    if not m:
        raise WeightFormatError("header", f"bad header line {first!r}")
    return int(m.group(1)), int(m.group(2))


def _csv_cell(line: str, lineno: int) -> float | None:
    """The cell of a CSV line, None when it is blank: the line stripped,
    then float(); a line float() refuses is a parse error naming it."""
    line = line.strip()
    if not line:
        return None
    try:
        return float(line)
    except ValueError as exc:
        raise WeightFormatError("parse", f"line {lineno}: not a number: {line!r}") from exc


def _load_csv(buf: mmap.mmap, path: str) -> WeightGrid:
    label = f"file:{path}"
    if not _kernel_text(buf):
        with _text(buf) as fh:
            d, L = _csv_header(fh.readline())
            cells = [v for lineno, line in enumerate(fh, start=2) if (v := _csv_cell(line, lineno)) is not None]
        return _file_grid(d, L, cells, label)
    end = len(buf) - 1  # the added newline
    head = buf.find(b"\n", _PAD)
    d, L = _csv_header(buf[_PAD:min(head + 1, end)].decode("ascii"))
    if head < end - 1 and buf[end - 1] == 10:
        end -= 1  # the file's own last newline ends its last line
    arr = np.frombuffer(buf, dtype=np.uint8)
    bounds = _token_bounds(arr, ord("\n"), head, end)
    cells, ok = _decimal_values(arr, bounds, 1)
    # the lines left undecided take the str rule, in order: the first bad
    # line is the one named
    blank = []
    for i in np.flatnonzero(~ok).tolist():
        v = _csv_cell(buf[bounds[i] + 1:bounds[i + 1]].decode("ascii"), i + 2)
        if v is None:
            blank.append(i)
        else:
            cells[i] = v
    return _file_grid(d, L, np.delete(cells, blank) if blank else cells, label)


def _unique_keys(pairs: list) -> dict:
    obj = dict(pairs)
    if len(obj) != len(pairs):  # json.load keeps the last; the kernel read the first cells
        raise ValueError("duplicate key")
    return obj


def _json_cells(buf: mmap.mmap):
    """(the file's object with its cell list emptied, the cell values) of a
    JSON file laid out as save_weight writes it, its cells read by
    _decimal_values and float(); None for json.load's route."""
    head = _JSON_HEAD.match(buf, _PAD)
    close = buf.find(b"]", head.end()) if head else -1
    if close < 0 or not _kernel_text(buf):
        return None
    arr = np.frombuffer(buf, dtype=np.uint8)
    bounds = _token_bounds(arr, ord(","), head.end() - 2, close)
    if not np.all(arr[1:][bounds[1:-1]] == ord(" ")):
        return None
    cells, ok = _decimal_values(arr, bounds, 2)
    # a token decided is a JSON number unless it begins or ends with its
    # point or has a leading zero (not .5, 5. or 01.5)
    first, second, last = arr[2:][bounds[:-1]], arr[3:][bounds[:-1]], arr[bounds[1:] - 1]
    if np.any(ok & ((first == ord(".")) | (last == ord(".")) | (first == ord("0")) & (second - ord("0") < 10))):
        return None
    for i in np.flatnonzero(~ok).tolist():
        token = bytes(buf[bounds[i] + 2:bounds[i + 1]])
        number = _JSON_NUMBER.fullmatch(token)
        if not (number and (number[1] or number[2])):  # json reads an integer as an int
            return None
        cells[i] = float(token)  # what json calls on a fraction or an exponent
    try:
        obj = json.loads((buf[_PAD:head.end()] + buf[close:-1]).decode("ascii"), object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError):
        return None
    return obj, cells


def _json_weight(obj, path: str, cells=None) -> WeightGrid:
    """The grid of a parsed JSON weight file; cells, when given, are the
    values of its cell list, read already."""
    if not isinstance(obj, dict) or not {"d", "L", "cells"} <= set(obj):
        raise WeightFormatError("header", "JSON object must have keys d, L, cells")
    d, L = obj["d"], obj["L"]
    if not (type(d) is int and type(L) is int):  # bool is an int subclass
        raise WeightFormatError("header", "d and L must be integers")
    if cells is None:
        cells = obj["cells"]
        if not isinstance(cells, list):
            raise WeightFormatError("parse", "cells must be a list")
        if not set(map(type, cells)) <= {int, float}:
            raise WeightFormatError("parse", "cells must be JSON numbers")
    return _file_grid(d, L, cells, str(obj.get("label", f"file:{path}")))


def _load_json(buf: mmap.mmap, path: str) -> WeightGrid:
    read = _json_cells(buf)
    if read is not None:
        obj, cells = read
        return _json_weight(obj, path, cells)
    try:
        with _text(buf) as fh:
            obj = json.load(fh)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise WeightFormatError("parse", f"invalid JSON: {exc}") from exc
    return _json_weight(obj, path)


def load_weight(path: str) -> WeightGrid:
    """Read a grid from JSON when the path ends in .json, else from CSV;
    inverse of save_weight.

    Every cell is float() of its text, bit for bit, and a file gives the
    grid or the error that reading it in text mode gives: CSV line by line
    (each line stripped, blank lines skipped, the first line float()
    refuses a "parse" error naming it), JSON by json.load.  The file is
    read once, into one buffer.  A file that is not valid text, and JSON
    nested past the recursion limit, are "parse" errors too.

    One kernel, _decimal_values, reads the cells of a file that is ASCII
    and holds no carriage return, so that reading it as text decodes and
    translates nothing.  CSV: its tokens are the lines, and the lines it
    leaves undecided take the rule above, in order, so the first bad line
    is the one named.  JSON, when the file begins as save_weight writes it,
    {"d": <int>, "L": <int>, "cells": [, and its cells up to the first "]"
    are separated by ", ": a token it decides must also be a JSON number
    (not 5., .5 or 01.5); an undecided token with a fraction or an exponent
    takes float(), as json does.  Any other token (an integer the kernel
    does not decide, which json reads as an int; NaN; a string; a list), a
    duplicate key, or a file that json.loads refuses once its cell list is
    emptied goes to json.load.  d, L and the label come from that emptied
    file.  Where long double is not x87, float() reads every cell.

    Why a decided cell is float()'s.  A token of at most 23 bytes has
    f <= 22 digits after its point and is N / 10^f, N < 2^64 its digits
    read as an integer; float() rounds that value to the nearest double,
    ties to even.  N and 10^f (5^22 < 2^64) are exact in the 64-bit
    significand of x87 long double, so their quotient q is the value
    rounded once, to 64 bits.  Each midpoint between adjacent doubles has
    54 significant bits, so it is a long double, and rounding is monotone:
    q lies on the same side of every midpoint as N / 10^f, or on one.  The
    double nearest q is therefore float()'s unless q is a midpoint, that
    is, unless the 11 bits that rounding q to double drops are 0x400; the
    kernel sends q within 1 of that to float().  The values are 0 or in
    [10^-22, 2^64), far from the subnormals and from overflow, where the
    argument would fail.
    """
    buf = _read_padded(path)
    try:
        return _load_json(buf, path) if path.endswith(".json") else _load_csv(buf, path)
    except UnicodeDecodeError as exc:
        raise WeightFormatError("parse", f"not valid text: {exc}") from exc
