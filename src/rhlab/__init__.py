"""Rearrangements, K-functionals, and reverse-Hölder classes on dyadic grids.

The package computes, for weights discretized on dyadic grids over the unit
cube in dimension 1 or 2:

* decreasing rearrangements and dyadic maximal functions (`rearrange`),
* K-functional curves for the couple (L1, Linf), Holmstedt composites,
  Lorentz and L log L norms, the extrapolation-space norm, and
  weighted-pair K-functional estimates via packings, each an int64 array
  of level-table rows (`kcalc`),
* almost-increasing indices of the cube-indexed K-curve and
  rearrangement-product families of a weight, with bracketing certificates
  (`indices`),
* reverse-Hölder / Muckenhoupt class constants and the verification
  routines for the equivalences between their definitions (`weights`),
* a CLI driving all of it (`rhlab` console script, `cli`).

All randomness is counter-based and seeded.  The exact cube mass
(`integrate`) is correctly rounded; the level sums behind the class
constants are plain float sums.  Reports do not depend on `RHLAB_THREADS`,
nor on the BLAS build or its thread count: the quadrature sums its nodes
in a fixed order.
"""

from .grid import (
    DyadicCube,
    WeightFormatError,
    WeightGrid,
    WeightSpecError,
    base_cube,
    integrate,
    level_cubes,
    load_weight,
    make_grid,
    parse_cube,
    save_weight,
)
from .rearrange import (
    DecreasingStep,
    double_star,
    dyadic_maximal,
    iterated_maximal,
    rearrangement,
)
from .kcalc import (
    ConcaveCurve,
    HolmstedtCurve,
    PackedFunction,
    PackingFamily,
    extrapolation_norm,
    grid_power,
    k_l1_linf,
    k_weighted,
    k_weighted_curve,
    llogl_norm,
    lorentz_norm,
    packing_average,
    packing_family,
    power_piece_integral,
)
from .indices import (
    IndexEstimate,
    acks_index,
    family_index,
    hardy_residual,
)
from .weights import (
    ClassConstant,
    GehringResult,
    a_p_constant,
    analyze_report,
    fujii_constant,
    gehring_improve,
    hardy_residual_sup,
    kside_rh_constant,
    rh_llogl_constant,
    rh_lorentz_constant,
    rh_p_constant,
    rh_p_weighted_constant,
    standard_corpus,
    verify_acks,
    verify_extrapolation_bound,
    verify_fujii,
    verify_herz,
    verify_llogl_equivalence,
    verify_packing,
    verify_rearrange_exact,
    verify_rhp_equivalence,
    verify_stromberg_wheeden,
    verify_weighted_rh,
    weak_type_residual,
)

__version__ = "0.1.0"

__all__ = [
    "ClassConstant",
    "ConcaveCurve",
    "DecreasingStep",
    "DyadicCube",
    "GehringResult",
    "HolmstedtCurve",
    "IndexEstimate",
    "PackedFunction",
    "PackingFamily",
    "WeightFormatError",
    "WeightGrid",
    "WeightSpecError",
    "a_p_constant",
    "acks_index",
    "analyze_report",
    "base_cube",
    "double_star",
    "dyadic_maximal",
    "extrapolation_norm",
    "family_index",
    "fujii_constant",
    "gehring_improve",
    "grid_power",
    "hardy_residual",
    "hardy_residual_sup",
    "integrate",
    "iterated_maximal",
    "k_l1_linf",
    "k_weighted",
    "k_weighted_curve",
    "kside_rh_constant",
    "level_cubes",
    "llogl_norm",
    "load_weight",
    "lorentz_norm",
    "make_grid",
    "packing_average",
    "packing_family",
    "parse_cube",
    "power_piece_integral",
    "rearrangement",
    "rh_llogl_constant",
    "rh_lorentz_constant",
    "rh_p_constant",
    "rh_p_weighted_constant",
    "save_weight",
    "standard_corpus",
    "verify_acks",
    "verify_extrapolation_bound",
    "verify_fujii",
    "verify_herz",
    "verify_llogl_equivalence",
    "verify_packing",
    "verify_rearrange_exact",
    "verify_rhp_equivalence",
    "verify_stromberg_wheeden",
    "verify_weighted_rh",
    "weak_type_residual",
]
