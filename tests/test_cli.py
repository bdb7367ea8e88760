"""Command-line interface: output formats, exit codes, and determinism.

Runs main() in-process and checks the exact bytes where the format is
contractual (curve CSV of the step weight, report headers and footers), the
four-way exit-code split, lossless convert round-trips, and that the thread
count (of the suites and of BLAS) never changes output bytes.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from rhlab import cli, grid, indices
from rhlab import weights as W
from rhlab.cli import main
from rhlab.grid import load_weight, make_grid, parse_cube, save_weight
from rhlab.kcalc import HolmstedtCurve, k_l1_linf, k_weighted_curve, packing_family
from rhlab.rearrange import rearrangement


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# curve


def test_curve_k_step_exact_rows(capsys):
    code, out, err = run_cli(capsys, "curve", "--weight", "step:2,1", "--kind", "k", "--cube", "0:0")
    assert code == 0
    assert out == "# curve kind=k cube=0:0\n0.0,0.0\n0.5,1.0\n1.0,1.5\n"


def test_curve_rearr_plateau_dump(capsys):
    code, out, err = run_cli(capsys, "curve", "--weight", "step:2,1", "--kind", "rearr", "--cube", "0:0")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "# curve kind=rearr cube=0:0"
    assert lines[1] == "0.0,2.0"
    assert lines[-1] == "1.0,1.0"


def test_curve_holmstedt_straight_line(capsys):
    code, out, err = run_cli(
        capsys, "curve", "--weight", "const:1", "--kind", "holmstedt:0.5:2", "--cube", "0:0"
    )
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    for t_str, v_str in rows:
        t, v = float(t_str), float(v_str)
        if t > 0:
            assert math.isclose(v, t, rel_tol=1e-9)


def test_curve_weighted_k(capsys):
    code, out, err = run_cli(
        capsys, "curve", "--weight", "step:2,1", "--kind", "weighted-k", "--cube", "0:0", "--p", "2"
    )
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    ts = [float(a) for a, _ in rows]
    vs = [float(b) for _, b in rows]
    assert ts == sorted(ts)
    assert all(v > 0 for v in vs)
    assert vs == sorted(vs)  # K-functionals are nondecreasing


def _frozen_curve_text(kind, weight, d, L, cube=None):
    """The curve dump as cmd_curve built it before it wrote row blocks: one
    (t, v) tuple and one repr line per row, joined by newlines (the oracle
    of the byte-identity tests; weighted-k at the default p = 1.5)."""
    w = make_grid(d, L, weight)
    Q = parse_cube(cube, d) if cube else w.base
    if kind == "k":
        K = k_l1_linf(w, Q)
        rows = list(zip(K.t.tolist(), K.v.tolist()))
    elif kind == "rearr":
        r = rearrangement(w, Q)
        rows = [(0.0, float(r.values[0]))]
        rows += list(zip(r.breaks.tolist(), r.values.tolist()))
    elif kind.startswith("holmstedt:"):
        theta, q = map(float, kind.split(":")[1:])
        K = k_l1_linf(w, Q)
        ts = K.t ** (1.0 - theta)
        rows = list(zip(ts.tolist(), HolmstedtCurve(K, theta, q).value(ts).tolist()))
    else:
        Pi = packing_family(w, w, 1.5)
        ts = sorted(W.origin_chain_masses(w))
        rows = list(zip(ts, k_weighted_curve(w, w, 1.5, ts, Pi)))
    lines = [f"# curve kind={kind} cube={Q.addr()}"]
    lines += [f"{repr(float(t))},{repr(float(v))}" for t, v in rows]
    return "\n".join(lines) + "\n"


# rand d=1 L=15 spans three default row blocks; const:1e-5 prints 1e-05
_CURVE_CASES = [
    ("k", "rand:3:lognormal:1", 1, 15, None),
    ("k", "rand:3:lognormal:1", 2, 5, "2:1,3"),
    ("k", "const:1e-5", 1, 12, None),
    ("k", "pow:-0.9", 1, 12, "3:5"),
    ("rearr", "pow:-0.9", 1, 12, None),
    ("rearr", "rand:4:lognormal:2", 2, 4, None),
    ("holmstedt:0.5:2", "pow:-0.5", 1, 10, None),
    ("holmstedt:0.3:1.5", "rand:2:lognormal:1", 2, 4, "1:1,0"),
    ("weighted-k", "rand:5:lognormal:1", 1, 10, None),
    ("weighted-k", "rand:5:lognormal:1", 2, 5, None),
]


def _curve_argv(kind, weight, d, L, cube):
    argv = ["curve", "--kind", kind, "--weight", weight, "--dim", str(d), "--level", str(L)]
    return argv + (["--cube", cube] if cube else [])


@pytest.mark.parametrize("case", _CURVE_CASES, ids=[f"{c[0]}-{c[1]}-d{c[2]}L{c[3]}-{c[4]}" for c in _CURVE_CASES])
def test_curve_bytes_equal_the_per_row_dump(capsys, case):
    code, out, err = run_cli(capsys, *_curve_argv(*case))
    assert (code, err) == (0, "")
    assert out == _frozen_curve_text(*case)


@pytest.mark.parametrize("case", [_CURVE_CASES[1], _CURVE_CASES[6]], ids=["k-d2", "holmstedt-d1"])
def test_curve_bytes_do_not_depend_on_the_block_size(capsys, monkeypatch, case):
    expected = _frozen_curve_text(*case)
    rows = expected.count("\n") - 1
    for size in (1, 3, rows - 1, rows, rows + 1):
        monkeypatch.setattr(grid, "_ROWS_PER_BLOCK", size)
        assert run_cli(capsys, *_curve_argv(*case)) == (0, expected, "")


def test_curve_out_file_holds_the_stdout_bytes(tmp_path, capsys):
    argv = _curve_argv(*_CURVE_CASES[4])
    code, out, err = run_cli(capsys, *argv)
    path = tmp_path / "curve.csv"
    assert run_cli(capsys, *argv, "--out", str(path)) == (0, "", f"rhlab: wrote {path}\n")
    assert path.read_text() == out


def test_curve_dump_memory_grows_with_the_grid_not_the_rows(monkeypatch):
    # 2^18 rows: the per-row tuples, line strings and joined text of the
    # old dump peaked at 84.5 MB; row blocks keep one block's objects alive
    with open(os.devnull, "w") as sink:
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            code = main(["curve", "--kind", "k", "--weight", "rand:1:lognormal:1", "--dim", "2", "--level", "9"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    assert peak / 1e6 < 35.0


def _weight_file(tmp_path, *cells):
    path = tmp_path / "w.csv"
    path.write_text("# rhlab d=1 L=1\n" + "".join(f"{v!r}\n" for v in cells))
    return f"file:{path}"


def test_curve_k_wide_range_cells(tmp_path, capsys):
    # cells 2^1329 apart: the exact mass is 5e199
    weight = _weight_file(tmp_path, 1e-200, 1e200)
    code, out, err = run_cli(capsys, "curve", "--weight", weight, "--kind", "k")
    assert code == 0 and err == ""
    assert out.strip().split("\n")[-1] == "1.0,5e+199"


def _run_quiet(capsys, *argv):
    """run_cli, failing on any warning (numpy's overflow warnings among
    them), which would otherwise reach stderr ahead of the one error line."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return run_cli(capsys, *argv)


def test_analyze_wide_range_cells(tmp_path, capsys):
    # the mass is finite, but w^2 on the 1e200 cell is not: RH_p and A_p
    # leave the float range, which is one numerical error line rather than
    # a report with Infinity in it (not strict JSON)
    code, out, err = _run_quiet(capsys, "analyze", "--weight", _weight_file(tmp_path, 1e-200, 1e200))
    assert code == 1 and out == ""
    assert err.startswith("rhlab: numerical error: FloatingPointError") and err.count("\n") == 1


def test_analyze_subnormal_powers_keep_their_digits(capsys):
    # (1e-160)^2 is subnormal and (1e-160)^3 underflows to 0: RH_p used to
    # read 0.9999944335758489 and 0.0 for a constant weight
    def constants(weight):
        code, out, err = _run_quiet(capsys, "analyze", "--weight", weight, "--level", "4", "--p", "2,3")
        assert (code, err) == (0, "")
        return [(c["kind"], c["p"], c["value"]) for c in json.loads(out)["constants"] if c["kind"] in ("RH_p", "A_p")]

    tiny, one = constants("const:1e-160"), constants("const:1")
    assert [c[:2] for c in tiny] == [c[:2] for c in one] and len(tiny) == 4
    for (_, _, got), (_, _, ref) in zip(tiny, one):
        assert math.isclose(got, ref, rel_tol=1e-15)


@pytest.mark.parametrize(
    "argv",
    [("analyze", "--weight", "rand:1:lognormal:1e10", "--level", "4"),
     ("curve", "--kind", "k", "--weight", "pow:400", "--level", "4"),
     ("analyze", "--weight", "rand:1:lognormal:300", "--level", "10")],
    ids=["rand-sigma-1e10", "pow-400", "rand-sigma-300"],
)
def test_generated_cells_beyond_float_range_are_numerical_errors(capsys, argv):
    # a generated cell that overflowed (or underflowed) is a numerical error,
    # not a bad input file (exit 3), and no numpy warning precedes it
    code, out, err = _run_quiet(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"rhlab: numerical error: OverflowError: weight {argv[argv.index('--weight') + 1]!r} has cells beyond the float range\n"


def test_analyze_report_is_strict_json(capsys):
    def refuse(name):
        raise AssertionError(f"{name} in the report")

    code, out, err = run_cli(capsys, "analyze", "--weight", "rand:2:lognormal:2", "--level", "6", "--q", "2")
    assert code == 0 and err == ""
    json.loads(out, parse_constant=refuse)


def test_curve_k_cell_sum_beyond_float_range(tmp_path, capsys):
    # the cells sum past the float range, but the mass 1e308 is finite: the
    # K-curve is printed (analyze still refuses the file, below)
    code, out, err = _run_quiet(capsys, "curve", "--weight", _weight_file(tmp_path, 1e308, 1e308), "--kind", "k")
    assert (code, err) == (0, "")
    assert out.splitlines()[1:] == ["0.0,0.0", "1.0,1e+308"]


def test_analyze_mass_beyond_float_range_is_numerical_error(tmp_path, capsys):
    # the level sums refuse a cube mass beyond the float range before any
    # class constant raises the cells to a power
    code, out, err = _run_quiet(capsys, "analyze", "--weight", _weight_file(tmp_path, 1e308, 1e308))
    assert (code, out) == (1, "")
    assert err == "rhlab: numerical error: OverflowError: cube mass exceeds the float range\n"


@pytest.mark.parametrize(
    "params, message",
    [("0.5:inf", "q must be finite"), ("0.5:nan", "q must be at least 1"),
     ("0.5:0.5", "q must be at least 1"), ("1.5:2", "theta must lie in (0, 1)")],
)
def test_holmstedt_parameters_checked_before_the_grid(capsys, monkeypatch, params, message):
    monkeypatch.setattr(cli, "make_grid", lambda *a: pytest.fail("grid built before the parameters were checked"))
    code, out, err = _run_quiet(capsys, "curve", "--weight", "rand:1:lognormal:1", "--level", "4", "--kind", f"holmstedt:{params}")
    assert (code, out, err) == (2, "", f"rhlab: error: {message}\n")


@pytest.mark.parametrize(
    "q, level, detail",
    [("300", "6", "overflow encountered in power"), ("1e300", "4", "")],
    ids=["inf-rows", "quadrature-warnings"],
)
def test_curve_beyond_float_range_is_numerical_error(capsys, q, level, detail):
    # (s^-theta K)^q leaves the float range: one numerical error line, not
    # inf in the CSV rows (q = 300) or numpy warnings ahead of the error
    # (q = 1e300, which used to fail in the quadrature)
    code, out, err = _run_quiet(
        capsys, "curve", "--weight", "rand:1:lognormal:1", "--level", level, "--kind", f"holmstedt:0.5:{q}"
    )
    assert (code, out) == (1, "")
    assert err.startswith("rhlab: numerical error: FloatingPointError: ") and err.count("\n") == 1
    assert detail in err


def test_curve_holmstedt_one_batched_piece_call(capsys, monkeypatch):
    from rhlab import kcalc

    calls = []
    real = kcalc.power_piece_integral
    monkeypatch.setattr(kcalc, "power_piece_integral", lambda *a, **k: calls.append(1) or real(*a, **k))
    code, out, err = run_cli(capsys, "curve", "--weight", "pow:-0.5", "--level", "8", "--kind", "holmstedt:0.5:2")
    assert code == 0 and len(out.splitlines()) == 1 + 257
    assert len(calls) == 2  # the prefix over K's pieces, then every t at once


@pytest.mark.parametrize(
    "exc, message",
    [
        (MemoryError(), "rhlab: numerical error: MemoryError\n"),
        (ZeroDivisionError("float division by zero"),
         "rhlab: numerical error: ZeroDivisionError: float division by zero\n"),
        (RuntimeError("routes disagree"), "rhlab: verification error: routes disagree\n"),
    ],
    ids=["memory", "arithmetic", "dual-route"],
)
def test_runtime_failures_exit_one_with_one_line(capsys, monkeypatch, exc, message):
    def fail(w, Q):
        raise exc

    monkeypatch.setattr(cli, "k_l1_linf", fail)
    code, out, err = run_cli(capsys, "curve", "--weight", "const:1", "--kind", "k")
    assert (code, out, err) == (1, "", message)


def test_curve_bad_cube_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "curve", "--weight", "const:1", "--kind", "k", "--cube", "9:9")
    assert code == 2
    code, out, err = run_cli(capsys, "curve", "--weight", "const:1", "--kind", "k", "--cube", "1:0,0")
    assert code == 2


def test_curve_bad_kind_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "curve", "--weight", "const:1", "--kind", "spline", "--cube", "0:0")
    assert code == 2
    code, out, err = run_cli(capsys, "curve", "--weight", "const:1", "--kind", "holmstedt:2:1", "--cube", "0:0")
    assert code == 2


# ---------------------------------------------------------------------------
# analyze


def test_analyze_const_json(capsys):
    code, out, err = run_cli(capsys, "analyze", "--weight", "const:1", "--level", "4")
    assert code == 0
    rep = json.loads(out)
    assert rep["schema"] == 1
    assert rep["weight"] == "const:1"
    assert rep["grid"] == {"d": 1, "L": 4}
    rh = [c for c in rep["constants"] if c["kind"] == "RH_p"]
    assert rh and all(math.isclose(c["value"], 1.0, rel_tol=1e-9) for c in rh)
    assert rep["classifications"]["a_inf"] is True


def test_analyze_deterministic_bytes(capsys):
    a = run_cli(capsys, "analyze", "--weight", "rand:5:lognormal:1", "--level", "5")
    b = run_cli(capsys, "analyze", "--weight", "rand:5:lognormal:1", "--level", "5")
    assert a == b
    assert a[0] == 0


# sha256 of analyze's stdout on the three analyze-deep benchmark commands and
# the README example, and two runs of many cap evaluations.  A change that
# moves these bytes on purpose re-bases the digests and names them as a test
# change.
_ANALYZE_DIGESTS = {
    "pow-d1L14": (
        ("--weight", "pow:-0.5", "--dim", "1", "--level", "14", "--q", "2"),
        "2d19b6d5f8fd98d0784a7c51778ce706739e11a36631198db81a10317399283a",
    ),
    "rand-d1L16": (
        ("--weight", "rand:1:lognormal:1", "--dim", "1", "--level", "16", "--q", "2"),
        "62d2cb36742fae186c16d158510d0dc35e2870e9eaa4156fd665b7266a692b7f",
    ),
    "rand-d2L8": (
        ("--weight", "rand:2:lognormal:1", "--dim", "2", "--level", "8", "--q", "2"),
        "8f024eeee71016f390fc00fabe0049db5533f2dddd9a430ab6abec0140380272",
    ),
    # the benchmark's rand grids at seed 13; d=2 has acks delta_hat > 0 at
    # gamma 0.125 with C(0) beyond the cap
    "rand-d1L16-seed13": (
        ("--weight", "rand:13:lognormal:1", "--dim", "1", "--level", "16", "--q", "2"),
        "3474a9eb4e28c2043de1b74ca5ae92fecc5f7c09dc586f2bdca0553d58c4f7e6",
    ),
    "rand-d2L8-seed13": (
        ("--weight", "rand:14:lognormal:1", "--dim", "2", "--level", "8", "--q", "2"),
        "e6975c006ea441b9636fef212683953780db0e6aa43682b26315897ea1c91dbe",
    ),
    "readme": (
        ("--weight", "pow:-0.5", "--level", "10", "--p", "1.5,2"),
        "340aa84a61804ebf0e87bad96fe3d45aeda9c030d29d49b020e096881e55ed70",
    ),
    # many cap evaluations inside (0, 1), on row blocks of few rows
    "rand-d1L12-cap4": (
        ("--weight", "rand:4:lognormal:2", "--level", "12", "--cap", "4", "--gamma", "0.5,0.125"),
        "3059c0747cd5db0232e751141b9b1064f91b0cd62ad2e7efe767bea89b4089f6",
    ),
    "step-d2L6-cap2": (
        ("--weight", "step:4,1,1,1", "--dim", "2", "--level", "6", "--cap", "2"),
        "b09ee7d71e98f2303401de60a928547bcf6b0243547d8b11d1115647319b8a4d",
    ),
}


@pytest.mark.parametrize("case", sorted(_ANALYZE_DIGESTS))
def test_analyze_bytes_are_pinned(capsys, case):
    argv, digest = _ANALYZE_DIGESTS[case]
    code, out, err = run_cli(capsys, "analyze", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the stdout of whole commands: verify --suite all at two seeds and
# on a d=2 grid, and a rand K-curve dump (about 250k rows).  A change that
# moves these bytes on purpose re-bases the digests and names them as a test
# change.
_GOLDEN_DIGESTS = {
    "verify-all-seed1": (
        ("verify", "--suite", "all", "--seed", "1"),
        "82f5fa05a0f84bce060ee73ffca304b85b9fba7992028924077cc1b06a01a181",
    ),
    "verify-all-seed4242": (
        ("verify", "--suite", "all", "--seed", "4242"),
        "82c6b361ef8bc066102eedf3cb3041e1bd52dabc63d5b7444f3f4133845df4ac",
    ),
    "verify-all-d2L5": (
        ("verify", "--suite", "all", "--dim", "2", "--level", "5"),
        "f05826339e26ee01f1a9e2309549542120f1a84fea155ec1adf2b4619e716293",
    ),
    "curve-k-rand-d2L9": (
        ("curve", "--kind", "k", "--weight", "rand:1:lognormal:1", "--dim", "2", "--level", "9"),
        "f8ae75a6ed6bc08751a71a26fa8120b1a357e7cab812d5c376f6ed6f7d91c257",
    ),
    # the suites whose constants sweep runs of levels in one kernel call
    "verify-rhp-seed13": (
        ("verify", "--suite", "rhp", "--seed", "13"),
        "7aa4df905f3bc628c06278bbd22a6321db7fa45a4962c694c43bdc1f78d64806",
    ),
    "verify-llogl-seed13": (
        ("verify", "--suite", "llogl", "--seed", "13"),
        "430ca36f732d8f10deb801a673022b9500c4189b04feea833cab1cd7dd1d24df",
    ),
    "verify-lorentz-seed13": (
        ("verify", "--suite", "lorentz", "--seed", "13"),
        "266c194225efd8ca07bb0596bf45d760d22341113ee9d6f56f75a3465cfdcf8e",
    ),
    "verify-rhp-d2": (
        ("verify", "--suite", "rhp", "--dim", "2"),
        "9a1f45949a07e303e2d7c6459eeb6b144427ce383c5419fa08a074f8bc9134be",
    ),
    "verify-llogl-d2": (
        ("verify", "--suite", "llogl", "--dim", "2"),
        "bb6166c27f3a9e5a800586b9cff1b9c07e2cc33e55f19e96c64587b1e1d87339",
    ),
    "verify-lorentz-d2": (
        ("verify", "--suite", "lorentz", "--dim", "2"),
        "b3c1168490d21f7f7f0ba3aeb7f05db3fda442e113a324d466812add7311443a",
    ),
}


@pytest.mark.parametrize("case", sorted(_GOLDEN_DIGESTS))
def test_command_bytes_are_pinned(capsys, case):
    argv, digest = _GOLDEN_DIGESTS[case]
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_analyze_refuses_p_one_before_the_grid(capsys, monkeypatch):
    # RH_p and A_p need p > 1: a --p entry of 1 is a usage error before a
    # grid of any size is built; verify and curve still take p = 1
    monkeypatch.setattr(cli, "make_grid", lambda *a: pytest.fail("grid built before --p was checked"))
    code, out, err = run_cli(capsys, "analyze", "--weight", "rand:1:lognormal:1", "--level", "22", "--p", "2,1")
    assert (code, out, err) == (2, "", "rhlab: error: analyze needs --p entries above 1\n")
    monkeypatch.undo()
    assert run_cli(capsys, "curve", "--kind", "weighted-k", "--weight", "rand:1:lognormal:1", "--level", "4", "--p", "1")[0] == 0
    assert run_cli(capsys, "verify", "--suite", "gehring", "--cases", "1", "--level", "4", "--p", "1")[0] == 0


def test_analyze_bad_descriptor_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "analyze", "--weight", "gauss:2")
    assert code == 2


def test_analyze_missing_file_is_io_error(capsys):
    code, out, err = run_cli(capsys, "analyze", "--weight", "file:/nonexistent/w.csv")
    assert code == 3


def test_analyze_out_writes_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, err = run_cli(capsys, "analyze", "--weight", "const:2", "--level", "3", "--out", str(path))
    assert code == 0
    assert out == ""
    assert "wrote" in err
    rep = json.loads(path.read_text())
    assert rep["weight"] == "const:2"


# ---------------------------------------------------------------------------
# verify


def test_verify_rearrange_suite(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--suite", "rearrange", "--seed", "7", "--cases", "4", "--dim", "1"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("# verify suite=rearrange d=1")
    assert "seed=7" in lines[0]
    assert lines[-1].endswith("cases passed")
    assert all(line.startswith("ok  ") for line in lines[1:-1])


def test_verify_herz_budget(capsys):
    t0 = time.monotonic()
    code, out, err = run_cli(capsys, "verify", "--suite", "herz", "--seed", "7", "--cases", "50")
    assert code == 0
    assert time.monotonic() - t0 < 10.0
    assert out.strip().split("\n")[-1].endswith("cases passed")


def _spy_growth_grids(monkeypatch) -> tuple[list, list]:
    """Lists that fill with the grids cli.make_grid builds (the lorentz
    suite's growth grids and the boundary grid) and with the grids of those
    that rh_p_constant runs on."""
    grids, rh_grids = [], []
    real_grid, real_rh = cli.make_grid, W.rh_p_constant

    def rh_p(w, *a):
        if any(w is g for g in grids):
            rh_grids.append(w)
        return real_rh(w, *a)

    monkeypatch.setattr(cli, "make_grid", lambda *a: grids.append(real_grid(*a)) or grids[-1])
    monkeypatch.setattr(W, "rh_p_constant", rh_p)
    return grids, rh_grids


def test_verify_lorentz_builds_each_growth_grid_once(capsys, monkeypatch):
    # three power weights at two growth levels: 6 grids, each built once,
    # with RH_p once per distinct p of the pairs (2 and 1.5) on each, where
    # rebuilding them for every (p, q) pair made 18 grids and 18 RH_p (and
    # a third, unread level made 9 grids and 18 RH_p)
    grids, rh_grids = _spy_growth_grids(monkeypatch)
    assert run_cli(capsys, "verify", "--suite", "lorentz", "--seed", "1")[0] == 0
    assert len(grids) == len({(g.label, g.L) for g in grids}) == 6
    assert len(rh_grids) == 12


def test_verify_all_builds_the_corpus_once(capsys, monkeypatch):
    # every suite reads one corpus: its 27 grids are built once, where each
    # suite building its own made 277; sharing the grids shares their index
    # memo, so the acks, stromberg and gehring suites make 72 index
    # estimates, not 107.  Beyond the corpus, the boundary grid and the 6
    # growth grids are built once each, with 12 RH_p on the growth grids.
    # The stromberg suite alone builds no random grid.
    built, estimated = [], []
    real_grid, real_estimate = W.make_grid, indices._index_estimate
    monkeypatch.setattr(W, "make_grid", lambda *a: built.append(a[2]) or real_grid(*a))
    monkeypatch.setattr(indices, "_index_estimate", lambda *a: estimated.append(a) or real_estimate(*a))
    grids, rh_grids = _spy_growth_grids(monkeypatch)
    assert run_cli(capsys, "verify", "--suite", "all", "--seed", "1")[0] == 0
    assert len(built) == len(set(built)) == 27 and len(estimated) == 72
    assert len(grids) == len({(g.label, g.L) for g in grids}) == 7 and len(rh_grids) == 12
    built.clear()
    assert run_cli(capsys, "verify", "--suite", "stromberg", "--seed", "1")[0] == 0
    assert len(built) == 7 and not [spec for spec in built if spec.startswith("rand")]


def test_verify_unknown_suite_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "fourier")
    assert code == 2


def test_verify_gehring_suite(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "gehring", "--seed", "3", "--cases", "2")
    assert code == 0
    body = out.strip().split("\n")[1:-1]
    assert any(line.startswith("ok  ") for line in body)
    # random grids may sit outside RH_p; those cases are reported as skips
    assert all(line.startswith(("ok  ", "skip")) for line in body)


def _frozen_gehring_lines(w, cfg):
    """The gehring suite's lines as they were built by hand."""
    p = min((p for p in cfg.p_list if p > 1.0), default=1.5)
    try:
        gr = cli.W.gehring_improve(w, p, C_cap=cfg.cap)
    except ValueError as exc:
        return [f"skip gehring {w.label} p={cli._fmt(p)} reason={exc}"]
    status = "ok  " if gr.certified and gr.p0 > p else "FAIL"
    f = cli._fmt
    return [f"{status} gehring {w.label} p={f(p)} p0={f(gr.p0)} p_max={f(gr.p_max)} "
            f"ind_hat={f(gr.ind_hat)} certified={f(gr.certified)}"]


def _frozen_lorentz_lines(w):
    """The lorentz suite's lines as they were built by hand."""
    vec_base = cli.W.rh_lorentz_constant(w, 2.0, 2.0, "base").value
    scalar = cli.lorentz_norm(w, w.base, 2.0, 2.0) / (w.measure ** 0.5 * (cli.integrate(w, w.base) / w.measure))
    full = cli.W.rh_lorentz_constant(w, 2.0, 2.0).value
    ok = math.isclose(vec_base, scalar, rel_tol=1e-9) and full >= vec_base * (1.0 - 1e-12)
    f = cli._fmt
    lines = [f"{'ok  ' if ok else 'FAIL'} lorentz {w.label} p=2.0 q=2.0 constant={f(full)} "
             f"base_vectorized={f(vec_base)} base_scalar={f(scalar)}"]
    if w.d == 1 and w.spec[:1] == ("pow",):
        for case in cli.lorentz_growth_agreement(w.label, w.d):
            kv = " ".join(f"{k}={f(v)}" for k, v in case.items() if k not in ("name", "pass"))
            lines.append(f"{'ok  ' if case['pass'] else 'FAIL'} lorentz {case['name']} {kv}")
    return lines


def test_suite_lines_match_hand_built_format(monkeypatch):
    # gehring and lorentz lines come from the shared case formatter, in the
    # bytes they had when each suite built its own
    growth = {"name": "n", "pass": False, "growth_lorentz": 2.5, "growing_rh": True, "borderline": False}
    cases = lambda label, d: [dict(growth, name=f"{label} p={p:g}") for p, _ in cli._LORENTZ_PAIRS]
    monkeypatch.setattr(cli, "lorentz_growth_agreement", cases)
    cfg = cli.RunConfig(command="verify")
    for spec in ("pow:-0.5", "const:1", "rand:3:lognormal:1", "rand:4:lognormal:1.5"):
        w = make_grid(1, 5, spec)
        for suite, frozen in (("gehring", _frozen_gehring_lines(w, cfg)), ("lorentz", _frozen_lorentz_lines(w))):
            assert cli._case_lines(suite, cli.SUITE_NAMES[suite](w, cfg))[0] == frozen


def test_verify_threads_do_not_change_bytes(capsys, monkeypatch):
    argv = ["verify", "--suite", "rhp", "--seed", "11", "--cases", "3", "--dim", "1"]
    monkeypatch.setenv("RHLAB_THREADS", "1")
    a = run_cli(capsys, *argv)
    monkeypatch.setenv("RHLAB_THREADS", "4")
    b = run_cli(capsys, *argv)
    assert a == b
    assert a[0] == 0


def test_blas_threads_do_not_change_bytes():
    # the quadrature sums no BLAS product, so the Lorentz, K-side and
    # Holmstedt outputs keep their bytes under a threaded BLAS (the variable
    # must be set before numpy is first imported, hence the subprocesses)
    script = (
        "import sys\n"
        "from rhlab.cli import main\n"
        "for argv in (['verify', '--suite', 'rhp'], ['verify', '--suite', 'lorentz'],\n"
        "             ['curve', '--kind', 'holmstedt:0.5:2', '--weight', 'pow:-0.5', '--level', '14']):\n"
        "    assert main(argv) == 0\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert outs[0].count("\n") > 16385


def test_commands_leave_scipy_unimported(tmp_path):
    # scipy is a test dependency only: the rand generator and the Hardy
    # residual use numpy ports of ndtri and wrightomega
    src_csv = tmp_path / "w.csv"
    save_weight(make_grid(1, 4, "rand:3:lognormal:1"), str(src_csv))
    commands = [
        ["verify", "--suite", "all", "--cases", "1"],
        ["analyze", "--weight", "rand:1:lognormal:1", "--level", "6"],
        ["curve", "--kind", "k", "--weight", "rand:1:lognormal:1", "--level", "6"],
        ["convert", str(src_csv), "--out", str(tmp_path / "w.json")],
    ]
    script = (
        "import sys\n"
        "from rhlab.cli import main\n"
        f"for argv in {commands!r}:\n"
        "    assert main(argv) == 0\n"
        "sys.stderr.write('scipy modules: %r' % sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.endswith("scipy modules: []")
    assert "# verify suite=llogl" in proc.stdout and "# curve kind=k" in proc.stdout


def test_verify_bad_thread_env_falls_back(capsys, monkeypatch):
    monkeypatch.setenv("RHLAB_THREADS", "many")
    code, out, err = run_cli(capsys, "verify", "--suite", "rearrange", "--cases", "2", "--dim", "1")
    assert code == 0


# ---------------------------------------------------------------------------
# convert


def test_convert_roundtrip_bit_exact(tmp_path, capsys):
    w = make_grid(1, 6, "rand:21:lognormal:1.5")
    src = tmp_path / "w.csv"
    save_weight(w, str(src))
    mid = tmp_path / "w.json"
    out_csv = tmp_path / "w2.csv"
    assert run_cli(capsys, "convert", str(src), "--out", str(mid))[0] == 0
    assert run_cli(capsys, "convert", str(mid), "--out", str(out_csv))[0] == 0
    assert np.array_equal(load_weight(str(out_csv)).cells, w.cells)
    # decimal text is identical after a full round trip
    assert out_csv.read_text() == src.read_text()


def test_convert_large_grid_budget(tmp_path, capsys):
    w = make_grid(2, 9, "rand:2:lognormal:1")  # 2^18 cells
    src = tmp_path / "big.csv"
    save_weight(w, str(src))
    t0 = time.monotonic()
    code, out, err = run_cli(capsys, "convert", str(src), "--out", str(tmp_path / "big.json"))
    assert code == 0
    assert time.monotonic() - t0 < 2.0


def test_convert_requires_out(tmp_path, capsys):
    src = tmp_path / "w.csv"
    save_weight(make_grid(1, 2, "const:1"), str(src))
    code, out, err = run_cli(capsys, "convert", str(src))
    assert code == 2


def test_convert_corrupt_input_is_io_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("# rhlab d=1 L=2\n1.0\n")
    code, out, err = run_cli(capsys, "convert", str(bad), "--out", str(tmp_path / "out.json"))
    assert code == 3


_MALFORMED_FILES = [
    ("no-header.csv", "rhlab d=1 L=1\n1\n2\n"),
    ("dim3.csv", "# rhlab d=3 L=1\n" + "1\n" * 8),
    ("huge-level.csv", "# rhlab d=1 L=1000000000\n1\n"),
    ("word.csv", "# rhlab d=1 L=1\n1\nx\n"),
    ("infinite.csv", "# rhlab d=1 L=1\n1\ninf\n"),
    ("negative.csv", "# rhlab d=1 L=1\n1\n-2\n"),
    ("syntax.json", '{"d": 1,'),
    ("keys.json", '{"d": 1, "L": 1}'),
    ("dim3.json", '{"d": 3, "L": 1, "cells": [1, 1, 1, 1, 1, 1, 1, 1]}'),
    ("negative-level.json", '{"d": 1, "L": -1, "cells": []}'),
    ("count.json", '{"d": 1, "L": 1, "cells": [1]}'),
    ("word.json", '{"d": 1, "L": 1, "cells": [1, "a"]}'),
    ("nested.json", '{"d": 1, "L": 1, "cells": [1, [2]]}'),
    # bytes that are not UTF-8, and nesting past the recursion limit, used to
    # exit 2 (UnicodeDecodeError is a ValueError) and 1 (RecursionError)
    pytest.param("not-utf8.csv", b"# rhlab d=1 L=1\n1.0\n\xff\xfe\n", id="not-utf8.csv"),
    pytest.param("not-utf8.json", b'{"d": 1, "L": 1, "cells": [1.0, 2.0], "label": "\xff"}', id="not-utf8.json"),
    pytest.param("deep.json", '{"d": 1, "L": 1, "cells": ' + "[" * 100_000 + "]" * 100_000 + "}", id="deep.json"),
]


@pytest.mark.parametrize("name, text", _MALFORMED_FILES)
def test_convert_malformed_file_is_io_error(tmp_path, capsys, name, text):
    bad = tmp_path / name
    bad.write_bytes(text if isinstance(text, bytes) else text.encode())
    code, out, err = run_cli(capsys, "convert", str(bad), "--out", str(tmp_path / "out.json"))
    assert code == 3
    assert out == "" and err.startswith("rhlab: error:")


_NON_NUMERIC_JSON = [
    ('{"d": true, "L": 1, "cells": [1.0, 2.0]}', "d and L must be integers"),
    ('{"d": 1, "L": 1.0, "cells": [1.0, 2.0]}', "d and L must be integers"),
    ('{"d": 1, "L": 1, "cells": ["1.5", 2.0]}', "cells must be JSON numbers"),
    ('{"d": 1, "L": 1, "cells": [1.5, true]}', "cells must be JSON numbers"),
    ('{"d": 1, "L": 1, "cells": [1.5, null]}', "cells must be JSON numbers"),
]


@pytest.mark.parametrize("text, message", _NON_NUMERIC_JSON)
def test_json_weight_rejects_booleans_and_strings(tmp_path, capsys, text, message):
    path = tmp_path / "w.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "curve", "--kind", "k", "--weight", f"file:{path}")
    assert (code, out, err) == (3, "", f"rhlab: error: {message}\n")


def test_json_integer_cells_stay_valid(tmp_path, capsys):
    path = tmp_path / "w.json"
    path.write_text('{"d": 1, "L": 1, "cells": [2, 1.0]}')
    code, out, err = run_cli(capsys, "curve", "--kind", "k", "--weight", f"file:{path}")
    assert (code, out, err) == (0, "# curve kind=k cube=0:0\n0.0,0.0\n0.5,1.0\n1.0,1.5\n", "")


def test_json_integer_cell_beyond_the_float_range_is_a_parse_error(tmp_path, capsys):
    # a 401-digit integer cell used to exit 1 as a numerical OverflowError
    path = tmp_path / "w.json"
    path.write_text('{"d": 1, "L": 1, "cells": [1, 1' + "0" * 400 + "]}")
    code, out, err = run_cli(capsys, "curve", "--kind", "k", "--weight", f"file:{path}")
    assert (code, out) == (3, "")
    assert err.startswith("rhlab: error: cells must be numbers: ") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# argument handling


def test_unknown_flag_is_usage_error(capsys):
    # argparse raises SystemExit internally; main maps it to the usage code
    code = main(["analyze", "--weight", "const:1", "--frobnicate"])
    assert code == 2


_UNREAD_FLAGS = [
    ("verify", "--suite", "herz", "--cases", "1", "--gamma", "0.5"),
    ("verify", "--suite", "herz", "--cases", "1", "--q", "2"),
    ("curve", "--kind", "k", "--weight", "const:1", "--level", "2", "--cap", "4"),
    ("curve", "--kind", "k", "--weight", "const:1", "--level", "2", "--q", "2"),
    ("curve", "--kind", "k", "--weight", "const:1", "--level", "2", "--gamma", "0.5"),
]


@pytest.mark.parametrize("argv", _UNREAD_FLAGS, ids=[f"{a[0]} {a[-2]}" for a in _UNREAD_FLAGS])
def test_subcommands_refuse_flags_they_do_not_read(capsys, argv):
    # --q and --gamma belong to analyze, --cap to analyze and verify
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "") and "unrecognized arguments" in err


def test_level_bounds_enforced(capsys):
    assert main(["analyze", "--weight", "const:1", "--level", "30"]) == 2
    assert main(["analyze", "--weight", "const:1", "--dim", "3"]) == 2
    assert main(["analyze", "--weight", "const:1", "--p", "0.5"]) == 2


@pytest.mark.parametrize("dim, level", [("1", "1"), ("1", "0"), ("2", "0")])
def test_verify_level_too_small_for_the_corpus(capsys, dim, level):
    code, out, err = run_cli(capsys, "verify", "--suite", "all", "--dim", dim, "--level", level)
    assert (code, out) == (2, "")
    assert err == f"rhlab: error: --level {level} too small for the verify corpus at d={dim}: it needs dim * level >= 2\n"


_NON_FINITE = [
    (("analyze", "--weight", "const:1", "--level", "3", "--p", "nan"), "--p entries must be finite, got 'nan'"),
    (("analyze", "--weight", "const:1", "--level", "3", "--p", "2", "--q", "nan"), "--q entries must be finite, got 'nan'"),
    (("analyze", "--weight", "const:1", "--level", "3", "--cap", "inf"), "--cap must be finite"),
    (("verify", "--suite", "rhp", "--cases", "1", "--level", "3", "--radius", "nan"), "--radius must be finite"),
    (("curve", "--weight", "const:1", "--level", "3", "--kind", "holmstedt:0.5:nan"), "q must be at least 1"),
    (("analyze", "--weight", "const:1", "--level", "3", "--q", "2,0.5"), "--q entries must be at least 1"),
]


@pytest.mark.parametrize("argv, message", _NON_FINITE, ids=[" ".join(a[-2:]) for a, _ in _NON_FINITE])
def test_non_finite_parameters_are_usage_errors(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"rhlab: error: {message}\n")


_CUBE_POLICIES = [
    ("level:99", 2),
    ("level:-1", 2),
    ("level:two", 2),
    ("level:", 2),
    ("level:0", 0),
    ("level:4", 0),
]


@pytest.mark.parametrize("cubes, code", _CUBE_POLICIES)
def test_cube_level_policy_checked_at_parse_time(capsys, cubes, code):
    got, out, err = run_cli(capsys, "analyze", "--weight", "rand:3:lognormal:1", "--level", "4", "--cubes", cubes)
    assert got == code
    if code:
        assert out == "" and err == f"rhlab: error: --cubes level:k needs an integer k in [0, 4], got {cubes!r}\n"
    else:
        assert json.loads(out)["cube_policy"] == cubes


def test_file_weight_adopts_dimensions(tmp_path, capsys):
    w = make_grid(2, 3, "rand:1:lognormal:1")
    src = tmp_path / "w.csv"
    save_weight(w, str(src))
    code, out, err = run_cli(capsys, "analyze", "--weight", f"file:{src}")
    assert code == 0
    rep = json.loads(out)
    assert rep["grid"] == {"d": 2, "L": 3}
