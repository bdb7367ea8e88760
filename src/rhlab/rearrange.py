"""Decreasing rearrangements and the local dyadic maximal operator.

For a weight w restricted to a cube Q, the decreasing rearrangement w* is the
nonincreasing step function on (0, |Q|) equimeasurable with w|_Q; it is stored
as plateaus (value, measure) with strictly decreasing values.  The averaged
rearrangement is w**(t) = (1/t) integral_0^t w*(s) ds, extended past |Q| by
the exact tail rule mass/t (the cumulative integral is constant there).

The maximal operator is the local dyadic one: on each cell of Q0,

    (M_d w)(x) = max over dyadic cubes Q with x in Q, Q inside Q0
                 of the average of w over Q,

computed in one pass down the dyadic tree carrying the running maximum of
ancestor averages.  M_d satisfies two-sided rearrangement bounds with explicit
constants (see the verification suites): (M_d(w chi_Q0))*(t) <= w**(t) at the
breakpoints, and w**(t) <= (2^d + 1) (M_d(w chi_Q0))*(t(1-eps)) with eps one
cell measure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import DyadicCube, WeightGrid, _rowmajor_of_morton, integrate


@dataclass
class DecreasingStep:
    """A decreasing rearrangement stored as plateaus.

    values : strictly decreasing plateau values.
    measures : positive plateau widths, summing to total_measure.
    mass : exact integral of the source restriction (carried from the exact
        cube sum so equimeasurability is bit-exact).
    """

    values: np.ndarray
    measures: np.ndarray
    total_measure: float
    mass: float

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        m = np.asarray(self.measures, dtype=np.float64)
        if v.size != m.size or v.size == 0:
            raise ValueError("values and measures must be nonempty and equal length")
        if np.any(np.diff(v) >= 0):
            raise ValueError("plateau values must be strictly decreasing")
        if np.any(m <= 0):
            raise ValueError("plateau measures must be positive")
        self.values = v
        self.measures = m
        # cumulative widths and masses at plateau right endpoints
        self.breaks = np.cumsum(m)
        self.cum_mass = np.cumsum(v * m)

    @classmethod
    def from_cells(cls, cells: np.ndarray, cell_measure: float, mass: float) -> "DecreasingStep":
        vals, counts = np.unique(np.asarray(cells, dtype=np.float64), return_counts=True)
        vals = vals[::-1]
        counts = counts[::-1]
        measures = counts.astype(np.float64) * cell_measure
        total = cells.size * cell_measure
        return cls(vals, measures, total, mass)

    def star(self, t) -> np.ndarray | float:
        """Left-continuous plateau evaluation: w*(t) = v_k on (b_{k-1}, b_k];
        0 past the total measure."""
        t = np.asarray(t, dtype=np.float64)
        idx = np.searchsorted(self.breaks, t, side="left")
        out = np.where(idx < self.values.size, self.values[np.minimum(idx, self.values.size - 1)], 0.0)
        out = np.where(t <= 0, self.values[0], out)
        return out if out.shape else float(out)


def rearrangement(w: WeightGrid, Q: DyadicCube) -> DecreasingStep:
    """Sort the cube's cells descending and merge bit-equal values."""
    cells = w.cube_cells(Q)
    return DecreasingStep.from_cells(cells, w.cell_measure, mass=integrate(w, Q))


def double_star(r: DecreasingStep, t):
    """f**(t) = (1/t) integral_0^t f*, exact piecewise; mass/t from the
    total measure on.  Elementwise in t (a float for a scalar t); raises
    ValueError unless every t is positive."""
    t = np.asarray(t, dtype=np.float64)
    if np.any(t <= 0):
        raise ValueError("t must be positive")
    i = np.searchsorted(r.breaks, t, side="right")
    prev_b = np.concatenate(([0.0], r.breaks))[i]
    prev_m = np.concatenate(([0.0], r.cum_mass))[i]
    inside = (prev_m + r.values[np.minimum(i, r.values.size - 1)] * (t - prev_b)) / t
    out = np.where(t >= r.total_measure, r.mass / t, inside)
    return out if out.shape else float(out)


def _level_maximal(w: WeightGrid, level: int, a: int = 0, b: int | None = None) -> np.ndarray:
    """M_d(w chi_Q) for every cube Q of a level inside the Morton cell range
    [a, b) (default: the whole grid): row i holds, on the i-th such cube's
    cells in Morton order, the running maximum of the averages of each
    cell's dyadic ancestors inside that cube."""
    d, L = w.d, w.L
    b = w.ncells if b is None else b
    rm = None
    for lev in range(level, L + 1):
        width = 1 << (d * (L - lev))
        avgs = w.float_level_sums(lev)[a // width : b // width] / width
        rm = avgs if rm is None else np.maximum(np.repeat(rm, 1 << d), avgs)
    return rm.reshape(-1, 1 << (d * (L - level)))


def dyadic_maximal(w: WeightGrid, Q0: DyadicCube) -> WeightGrid:
    """Local dyadic maximal function of w chi_Q0, as a grid on Q0: the one
    row of _level_maximal over Q0's cells (one pass down the tree)."""
    rm = _level_maximal(w, Q0.level, *w.zrange(Q0))[0]
    d, L = w.d, w.L
    # rm is in Morton order over Q0's cells; convert to row-major
    perm = _rowmajor_of_morton(d, L - Q0.level)
    out = np.empty_like(rm)
    out[perm] = rm
    return WeightGrid(d, L, out, label=f"maximal[{Q0.addr()}] of {w.label}", base=Q0)


def iterated_maximal(w: WeightGrid, Q0: DyadicCube) -> WeightGrid:
    """M_d applied twice, both times localized to Q0."""
    first = dyadic_maximal(w, Q0)
    return dyadic_maximal(first, Q0)
