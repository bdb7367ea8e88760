"""The fixed CLI operation list of each workload, generated from a seed.

Every operation is one ``rhlab`` command line.  The program sees only these
argument lists and the weight file ``write_inputs`` produces; everything
random in them is derived from the workload seed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

# The verification suites of ``rhlab verify``, in the order ``--suite all``
# runs them.  Kept here rather than read from the program, so a later change
# to the program cannot silently change the workload.
SUITES = (
    "rearrange",
    "herz",
    "rhp",
    "llogl",
    "lorentz",
    "acks",
    "stromberg",
    "fujii",
    "extrapolation",
    "packing",
    "gehring",
)

# The convert round trip reads a seeded d=1 L=18 weight file.
CONVERT_D, CONVERT_L = 1, 18


@dataclass(frozen=True)
class Op:
    """One CLI operation and what its output check needs to know."""

    id: str
    argv: tuple[str, ...]
    check: str  # "verify" | "analyze" | "curve" | "convert-json" | "convert-csv"
    cells: int = 0  # input-grid cells 2^{dL}; verify counts cases instead
    expect: dict = field(default_factory=dict)


def grid_seed(seed: int) -> int:
    """The nonnegative seed the generated descriptors use."""
    return seed % (1 << 31)


def input_paths(workdir: str) -> dict[str, str]:
    return {
        "csv": os.path.join(workdir, "weight.csv"),
        "json": os.path.join(workdir, "weight.json"),
        "csv_back": os.path.join(workdir, "weight_back.csv"),
    }


def _analyze(op_id: str, weight: str, d: int, L: int) -> Op:
    argv = ("analyze", "--weight", weight, "--dim", str(d), "--level", str(L), "--q", "2")
    return Op(op_id, argv, "analyze", 1 << (d * L), {"weight": weight, "d": d, "L": L})


def _curve(op_id: str, kind: str, weight: str, d: int, L: int) -> Op:
    argv = ("curve", "--kind", kind, "--weight", weight, "--dim", str(d), "--level", str(L))
    return Op(op_id, argv, "curve", 1 << (d * L), {"kind": kind})


def operations(workload: str, seed: int, workdir: str) -> list[Op]:
    """The operation list of one pass over ``workload``."""
    S = grid_seed(seed)
    if workload == "verify-all":
        return [
            Op(f"verify-{s}", ("verify", "--suite", s, "--seed", str(S)), "verify", 0, {"suite": s})
            for s in SUITES
        ]
    if workload == "analyze-deep":
        return [
            _analyze("analyze-pow-d1L14", "pow:-0.5", 1, 14),
            _analyze("analyze-rand-d1L16", f"rand:{S}:lognormal:1", 1, 16),
            _analyze("analyze-rand-d2L8", f"rand:{S + 1}:lognormal:1", 2, 8),
        ]
    if workload == "curve-dump":
        p = input_paths(workdir)
        cells = 1 << (CONVERT_D * CONVERT_L)
        return [
            _curve("curve-k-step-d1L20", "k", "step:4,1,1,1", 1, 20),
            _curve("curve-k-rand-d2L9", "k", f"rand:{S}:lognormal:1", 2, 9),
            _curve("curve-holmstedt-pow-d1L14", "holmstedt:0.5:2", "pow:-0.5", 1, 14),
            _curve("curve-wk-rand-d1L12", "weighted-k", f"rand:{S + 1}:lognormal:1", 1, 12),
            _curve("curve-wk-rand-d2L5", "weighted-k", f"rand:{S + 2}:lognormal:1", 2, 5),
            Op("convert-csv-json", ("convert", p["csv"], "--out", p["json"]), "convert-json", cells,
               {"out": p["json"], "d": CONVERT_D, "L": CONVERT_L}),
            Op("convert-json-csv", ("convert", p["json"], "--out", p["csv_back"]), "convert-csv", cells,
               {"out": p["csv_back"], "reference": p["csv"]}),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def warmup_operations(workload: str) -> list[tuple[str, ...]]:
    """Tiny commands of the workload's kinds, run once during set-up."""
    if workload == "verify-all":
        return [("verify", "--suite", "rearrange", "--cases", "1", "--level", "4")]
    if workload == "analyze-deep":
        return [("analyze", "--weight", "pow:-0.5", "--level", "4", "--q", "2")]
    if workload == "curve-dump":
        return [("curve", "--kind", "k", "--weight", "const:1", "--level", "4")]
    raise ValueError(f"unknown workload {workload!r}")


def csv_chunks(seed: int, rows: int = 1 << 14):
    """The seeded convert input in the CSV weight format, a block of rows
    at a time.  Written independently of the program, so the round trip
    checks its reader and writer against a fixed reference."""
    rng = np.random.default_rng(grid_seed(seed))
    cells = rng.lognormal(0.0, 1.0, 1 << (CONVERT_D * CONVERT_L))
    yield f"# rhlab d={CONVERT_D} L={CONVERT_L}\n"
    for i in range(0, cells.size, rows):
        yield "".join(f"{float(v)!r}\n" for v in cells[i : i + rows])


def write_inputs(workload: str, seed: int, workdir: str) -> None:
    """Write the weight files the workload's operations read."""
    os.makedirs(workdir, exist_ok=True)
    if workload == "curve-dump":
        with open(input_paths(workdir)["csv"], "w") as fh:
            fh.writelines(csv_chunks(seed))


def clear_outputs(workload: str, workdir: str) -> None:
    """Remove files the operations write, so a failed write cannot pass as
    the previous pass's output."""
    if workload == "curve-dump":
        p = input_paths(workdir)
        for key in ("json", "csv_back"):
            if os.path.exists(p[key]):
                os.remove(p[key])
