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

import json
import math
import re
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
        cells = np.asarray(cells, dtype=np.float64)
        expected = 1 << (d * (L - base.level))
        if cells.ndim != 1 or cells.size != expected:
            raise WeightFormatError(
                "cell-count", f"expected {expected} cells for d={d} L={L}, got {cells.size}"
            )
        if not np.all(np.isfinite(cells)):
            raise WeightFormatError("parse", "cells must be finite numbers")
        if np.any(cells <= 0.0):
            raise WeightFormatError("nonpositive", "all cell values must be strictly positive")
        self.cells = cells.copy()
        self.cells.setflags(write=False)
        self.label = label
        self.spec: tuple = ()
        self._zcells: np.ndarray | None = None
        self._float_sums: list[np.ndarray] | None = None
        self._sorted_levels: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        # family_index results keyed by (kind, beta, q, C_cap, gamma_grid)
        self._indices: dict[tuple, object] = {}

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
                    sums.append(sums[-1].reshape(-1, fan).sum(axis=1))
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
            vals = np.sort(self.zcells.reshape(-1, width), axis=1)[:, ::-1]
            with np.errstate(over="ignore"):  # refused just below
                cum = np.cumsum(vals, axis=1) * self.cell_measure
            if not np.all(np.isfinite(cum[:, -1])):
                raise OverflowError("cube mass exceeds the float range")
            vals.setflags(write=False)
            cum.setflags(write=False)
            self._sorted_levels[rel] = (vals, cum)
        return self._sorted_levels[rel]


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

    Randomness is reproducible across platforms: cells are exp(sigma * z)
    where z = ndtri((r >> 11 + 1/2) * 2^-53) and r are the raw 64-bit outputs
    of a Philox 4x64 counter-based generator keyed by the seed.
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
        from scipy.special import ndtri  # imported here: it is most of the package's start-up

        raw = np.random.Philox(key=seed).random_raw(n)
        u = ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53
        with np.errstate(all="ignore"):  # checked in _generated
            cells = np.exp(sigma * ndtri(u))
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
    each round exactly once.
    """
    a, b = w.zrange(Q)
    return math.ldexp(w._exact_tree(a, b), -w.d * w.L)


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
_ROWS_PER_BLOCK = 1 << 14


def _text_blocks(*cols: np.ndarray):
    """The rows of one or two float64 columns as text blocks of at most
    _ROWS_PER_BLOCK lines: the repr of each float, comma-separated, every
    line ending in a newline.  Only one block's Python floats and strings
    are alive at a time."""
    for lo in range(0, cols[0].size, _ROWS_PER_BLOCK):
        block = [c[lo:lo + _ROWS_PER_BLOCK].tolist() for c in cols]
        if len(block) == 1:
            yield "\n".join(map(repr, block[0])) + "\n"
        else:
            yield "".join([f"{a!r},{b!r}\n" for a, b in zip(*block)])


def save_weight(w: WeightGrid, path: str, format: str | None = None) -> None:
    """Write a grid to CSV or JSON (by extension unless given).

    Decimal strings are produced with repr, so loading reads back bit-equal
    values.  CSV is written in blocks of rows (_text_blocks), JSON by the
    one-shot C encoder, so no per-cell string list is built.  Only grids on
    the unit base cube are serializable.
    """
    if w.base.level != 0:
        raise ValueError("only grids on the unit base cube can be saved")
    fmt = format or ("json" if path.endswith(".json") else "csv")
    if fmt == "csv":
        with open(path, "w") as fh:
            fh.write(f"# rhlab d={w.d} L={w.L}\n")
            fh.writelines(_text_blocks(w.cells))
    elif fmt == "json":
        obj = {"d": w.d, "L": w.L, "cells": w.cells.tolist(), "label": w.label}
        with open(path, "w") as fh:
            fh.write(json.dumps(obj))
            fh.write("\n")
    else:
        raise ValueError(f"unknown format {fmt!r}")


def _file_grid(d: int, L: int, cells: list, label: str) -> WeightGrid:
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
    return WeightGrid(d, L, cells, label=label)


def load_weight(path: str, format: str | None = None) -> WeightGrid:
    """Read a grid from CSV or JSON; inverse of save_weight."""
    fmt = format or ("json" if path.endswith(".json") else "csv")
    if fmt == "csv":
        with open(path) as fh:
            first = fh.readline()
            m = _CSV_HEADER.fullmatch(first)
            if not m:
                raise WeightFormatError("header", f"bad header line {first!r}")
            d, L = int(m.group(1)), int(m.group(2))
            cells = []
            for lineno, line in enumerate(fh, start=2):
                line = line.strip()
                if not line:
                    continue
                try:
                    cells.append(float(line))
                except ValueError as exc:
                    raise WeightFormatError("parse", f"line {lineno}: not a number: {line!r}") from exc
        return _file_grid(d, L, cells, f"file:{path}")
    if fmt == "json":
        with open(path) as fh:
            try:
                obj = json.load(fh)
            except json.JSONDecodeError as exc:
                raise WeightFormatError("parse", f"invalid JSON: {exc}") from exc
        if not isinstance(obj, dict) or not {"d", "L", "cells"} <= set(obj):
            raise WeightFormatError("header", "JSON object must have keys d, L, cells")
        d, L = obj["d"], obj["L"]
        if not (type(d) is int and type(L) is int):  # bool is an int subclass
            raise WeightFormatError("header", "d and L must be integers")
        cells = obj["cells"]
        if not isinstance(cells, list):
            raise WeightFormatError("parse", "cells must be a list")
        if not set(map(type, cells)) <= {int, float}:
            raise WeightFormatError("parse", "cells must be JSON numbers")
        return _file_grid(d, L, cells, str(obj.get("label", f"file:{path}")))
    raise ValueError(f"unknown format {fmt!r}")
