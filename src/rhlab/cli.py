"""Command-line driver: analyze weights, run verification suites, dump
curves, and convert weight files.

Output contract
---------------
Reports go to stdout (or the ``--out`` file); logs go to stderr.  Floats are
printed with shortest round-trip decimals, so identical configurations give
byte-identical reports.  The environment variable ``RHLAB_THREADS`` bounds
the per-case thread pool used by ``verify``; results are joined in case
order, so the thread count never changes the output bytes.

Exit codes: 0 success, 1 verification failure or numerical error, 2 usage
or configuration error, 3 I/O or ingestion error.

All randomness flows from the single 64-bit ``--seed`` through the
counter-based generator documented in ``grid.make_grid`` (Philox keyed by
seed; top 53 bits of each draw centered to (0,1), mapped through the normal
quantile and exponentiated), so corpora are identical across platforms and
thread counts.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections.abc import Iterable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .grid import (
    WeightFormatError,
    WeightGrid,
    _text_blocks,
    cube_levels,
    integrate,
    load_weight,
    make_grid,
    parse_cube,
    save_weight,
)
from .kcalc import HolmstedtCurve, k_l1_linf, k_weighted_curve, lorentz_norm, packing_family
from .rearrange import rearrangement
from . import weights as W

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_IO = 3

@dataclass
class RunConfig:
    """Validated run parameters shared by the subcommands."""

    command: str
    weight: str = ""
    d: int = 1
    L: int = 8
    p_list: tuple[float, ...] = (1.5, 2.0, 3.0)
    q_list: tuple[float, ...] = ()
    cap: float = 16.0
    gamma_list: tuple[float, ...] = (1.0, 0.5, 0.25, 0.125)
    cubes: str = "all-dyadic"
    seed: int = 1
    cases: int = 20
    out: str | None = None
    radius: float | None = None
    suite: str = ""
    kind: str = ""
    cube: str = ""
    convert_in: str = ""


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "yes" if v else "no"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _float_list(text: str, flag: str, least: float = -math.inf) -> tuple[float, ...]:
    try:
        vals = tuple(float(x) for x in text.split(",") if x.strip() != "")
    except ValueError:
        raise UsageError(f"{flag} expects a comma-separated list of numbers, got {text!r}")
    if not vals:
        raise UsageError(f"{flag} list is empty")
    if not all(map(math.isfinite, vals)):
        raise UsageError(f"{flag} entries must be finite, got {text!r}")
    if any(v < least for v in vals):
        raise UsageError(f"{flag} entries must be at least {least:g}")
    return vals


class UsageError(Exception):
    pass


def _thread_count() -> int:
    raw = os.environ.get("RHLAB_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        return 1
    return max(1, n)


def _pmap(fn, items: list) -> list:
    """Map preserving order; RHLAB_THREADS > 1 runs cases in a thread pool.

    Cases touch only their own immutable grids, and results are joined in
    submission order, so the pool size cannot change the output bytes.
    """
    n = _thread_count()
    if n <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=n) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# analyze

def cmd_analyze(cfg: RunConfig) -> tuple[list[str], int]:
    w = make_grid(cfg.d, cfg.L, cfg.weight)
    # beyond the float range: a numerical error, not warnings and Infinity
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        report = W.analyze_report(w, cfg.p_list, cfg.q_list, cfg.cap, cfg.gamma_list, cfg.cubes)
    try:
        return [json.dumps(report, indent=2, allow_nan=False) + "\n"], EXIT_OK
    except ValueError as exc:
        raise ArithmeticError(exc) from None


# ---------------------------------------------------------------------------
# verify

def _case_lines(suite: str, cases: list[dict]) -> tuple[list[str], bool]:
    """One ``status suite name k=v ...`` line per case dict, and whether
    every case passed; a case whose "pass" is None is a skip, which does
    not fail."""
    lines = []
    for case in cases:
        status = "skip" if case["pass"] is None else "ok  " if case["pass"] else "FAIL"
        kv = " ".join(f"{k}={_fmt(v)}" for k, v in case.items() if k not in ("name", "pass"))
        lines.append(f"{status} {suite} {case['name']} {kv}".rstrip())
    return lines, all(case["pass"] is None or bool(case["pass"]) for case in cases)


def _gehring_cases(w: WeightGrid, cfg: RunConfig) -> list[dict]:
    p = min((p for p in cfg.p_list if p > 1.0), default=1.5)
    name = f"{w.label} p={_fmt(p)}"
    try:
        gr = W.gehring_improve(w, p, C_cap=cfg.cap)
    except ValueError as exc:
        return [{"name": name, "pass": None, "reason": str(exc)}]
    return [{
        "name": name,
        "pass": gr.certified and gr.p0 > p,
        "p0": gr.p0,
        "p_max": gr.p_max,
        "ind_hat": gr.ind_hat,
        "certified": gr.certified,
    }]


_GROWTH_LEVELS = (10, 12, 14)
_LORENTZ_PAIRS = ((2.0, 2.0), (2.0, 3.0), (1.5, 2.0))


def lorentz_growth_agreement(label: str, d: int) -> list[dict]:
    """Growth-rate classification of the Lorentz constant against the plain
    reverse-Hölder constant across the resolutions _GROWTH_LEVELS, one case
    per (p, q) of _LORENTZ_PAIRS, in that order.

    Each constant is classified growing when it at least doubles from the
    lowest to the highest level; the classifications must agree, except when
    the two measured growth rates are within 25 percent of each other and
    merely straddle the doubling threshold (borderline, reported but not
    asserted).  Each level's grid is built once, and RH_p is computed once
    per distinct p on it.
    """
    growth = []  # per level: the (Lorentz, RH_p) constants of each pair
    for L in _GROWTH_LEVELS:
        wl = make_grid(d, L, label)
        rh = {p: W.rh_p_constant(wl, p).value for p in {p for p, _ in _LORENTZ_PAIRS}}
        growth.append([(W.rh_lorentz_constant(wl, p, q).value, rh[p]) for p, q in _LORENTZ_PAIRS])
    cases = []
    for (p, q), (lor0, rh0), (lor1, rh1) in zip(_LORENTZ_PAIRS, growth[0], growth[-1]):
        g_lor = lor1 / lor0
        g_rhp = rh1 / rh0
        grow_lor = g_lor >= 2.0
        grow_rhp = g_rhp >= 2.0
        rates_close = abs(math.log(g_lor / g_rhp)) <= math.log(1.25)
        borderline = (grow_lor != grow_rhp) and rates_close
        ok = (grow_lor == grow_rhp) or rates_close
        cases.append({
            "name": f"{label} p={p:g} q={q:g}",
            "pass": bool(ok),
            "growth_lorentz": g_lor,
            "growth_rh": g_rhp,
            "growing_lorentz": bool(grow_lor),
            "growing_rh": bool(grow_rhp),
            "borderline": bool(borderline),
        })
    return cases


def _lorentz_cases(w: WeightGrid, cfg: RunConfig) -> list[dict]:
    # dual-route consistency on the base cube: the per-level vectorized
    # constant against the scalar curve norm (different piece assembly)
    vec_base = W.rh_lorentz_constant(w, 2.0, 2.0, "base").value
    avg = integrate(w, w.base) / w.measure
    scalar = lorentz_norm(w, w.base, 2.0, 2.0) / (w.measure ** 0.5 * avg)
    full = W.rh_lorentz_constant(w, 2.0, 2.0).value
    cases = [{
        "name": f"{w.label} p=2.0 q=2.0",
        "pass": math.isclose(vec_base, scalar, rel_tol=1e-9) and full >= vec_base * (1.0 - 1e-12),
        "constant": full,
        "base_vectorized": vec_base,
        "base_scalar": scalar,
    }]
    if w.d == 1 and w.spec[:1] == ("pow",):
        cases += lorentz_growth_agreement(w.label, w.d)
    return cases


# suite name -> runner(w, cfg) giving one grid's case dicts, in the order
# `--suite all` runs them.  Each runner looks its verifier up on the weights
# module at call time, so a wrapper set there (perfbench's tracer) sees it.
SUITE_NAMES = {
    "rearrange": lambda w, cfg: W.verify_rearrange_exact(w),
    "herz": lambda w, cfg: W.verify_herz(w),
    "rhp": lambda w, cfg: [
        case for p in cfg.p_list if p > 1.0 for case in W.verify_rhp_equivalence(w, p, radius=cfg.radius)
    ],
    "llogl": lambda w, cfg: W.verify_llogl_equivalence(w, radius=cfg.radius),
    "lorentz": _lorentz_cases,
    "acks": lambda w, cfg: W.verify_acks(w, C_cap=cfg.cap),
    "stromberg": lambda w, cfg: [
        case for p in (1.5, 2.0) for case in W.verify_stromberg_wheeden(w, p, C_cap=cfg.cap)
    ],
    "fujii": lambda w, cfg: W.verify_fujii(w),
    "extrapolation": lambda w, cfg: W.verify_extrapolation_bound(w),
    "packing": lambda w, cfg: W.verify_packing(w),
    "gehring": _gehring_cases,
}


def _suite_corpus(suite: str, corpus: list[WeightGrid], boundary: list[WeightGrid]) -> list[WeightGrid]:
    """The grids a suite sweeps, of the run's corpus and boundary grids."""
    if suite == "stromberg":
        # the power-class agreement is an analytic statement: index transfer
        # under cellwise powers holds exactly for power-type weights but not
        # for iid-noise grids at finite resolution, so that suite sweeps the
        # analytic corpus only
        corpus = [w for w in corpus if w.spec[0] != "rand"]
    return corpus + boundary if suite in ("acks", "stromberg") else corpus


def run_suite(suite: str, cfg: RunConfig, corpus: list[WeightGrid]) -> tuple[list[str], int, int]:
    runner = SUITE_NAMES[suite]
    results = _pmap(lambda w: _case_lines(suite, runner(w, cfg)), corpus)
    lines = [f"# verify suite={suite} d={cfg.d} L={cfg.L} seed={cfg.seed} cases={cfg.cases}"]
    npass = 0
    ntotal = 0
    for case_lines, ok in results:
        lines.extend(case_lines)
        ntotal += 1
        npass += 1 if ok else 0
    lines.append(f"# suite {suite}: {npass}/{ntotal} cases passed")
    return lines, npass, ntotal


def cmd_verify(cfg: RunConfig) -> tuple[list[str], int]:
    if cfg.suite != "all" and cfg.suite not in SUITE_NAMES:
        raise UsageError(f"unknown suite {cfg.suite!r}; choose from {', '.join([*SUITE_NAMES, 'all'])}")
    suites = tuple(SUITE_NAMES) if cfg.suite == "all" else (cfg.suite,)
    # one corpus for every suite: each grid's caches and index memo serve
    # them all; the stromberg suite alone draws no random grid
    n_random = 0 if suites == ("stromberg",) else cfg.cases
    corpus = W.standard_corpus(cfg.d, cfg.seed, L=cfg.L, n_random=n_random)
    boundary = []
    if cfg.d == 1 and {"acks", "stromberg"} & set(suites):
        # near the A_inf boundary: reported, flagged borderline, not asserted
        boundary.append(make_grid(1, max(cfg.L, 12), "pow:-0.95"))
    out_lines: list[str] = []
    all_pass = 0
    all_total = 0
    for s in suites:
        lines, npass, ntotal = run_suite(s, cfg, _suite_corpus(s, corpus, boundary))
        out_lines.extend(lines)
        all_pass += npass
        all_total += ntotal
    if cfg.suite == "all":
        out_lines.append(f"# all: {all_pass}/{all_total} cases passed")
    code = EXIT_OK if all_pass == all_total else EXIT_VERIFY
    return ["\n".join(out_lines) + "\n"], code


# ---------------------------------------------------------------------------
# curve

def cmd_curve(cfg: RunConfig) -> tuple[Iterable[str], int]:
    """The curve's rows as a lazy sequence of text blocks.  Every value is
    computed before the first block is made, so an error prints nothing."""
    kind = cfg.kind
    if kind.startswith("holmstedt:"):  # parameters checked before the grid is built
        parts = kind.split(":")
        if len(parts) != 3:
            raise UsageError("holmstedt kind must be holmstedt:<theta>:<q>")
        try:
            theta, q = float(parts[1]), float(parts[2])
        except ValueError:
            raise UsageError(f"bad holmstedt parameters in {kind!r}")
        if not 0.0 < theta < 1.0:
            raise UsageError("theta must lie in (0, 1)")
        if not 1.0 <= q < math.inf:
            raise UsageError("q must be at least 1" if not q >= 1.0 else "q must be finite")
    w = make_grid(cfg.d, cfg.L, cfg.weight)
    addr = cfg.cube or w.base.addr()
    Q = parse_cube(addr, cfg.d)
    with np.errstate(over="raise", divide="raise", invalid="raise"):  # as in analyze
        if kind == "k":
            K = k_l1_linf(w, Q)
            t, v = K.t, K.v
        elif kind == "rearr":
            r = rearrangement(w, Q)
            t = np.concatenate(([0.0], r.breaks))
            v = np.concatenate((r.values[:1], r.values))
        elif kind.startswith("holmstedt:"):
            K = k_l1_linf(w, Q)
            t = K.t ** (1.0 - theta)
            v = HolmstedtCurve(K, theta, q).value(t)
        elif kind == "weighted-k":
            # weighted K-functional estimate of the weight against its own
            # measure, sampled at the w-measures of the origin-chain cubes
            p = next((p for p in cfg.p_list if p > 1.0), 2.0)
            Pi = packing_family(w, w, p)
            t = np.array(sorted(W.origin_chain_masses(w)), dtype=np.float64)
            v = np.array(k_weighted_curve(w, w, p, t, Pi), dtype=np.float64)
        else:
            raise UsageError(
                f"unknown curve kind {cfg.kind!r}; choose k, rearr, holmstedt:<theta>:<q>, weighted-k"
            )
    return chain([f"# curve kind={kind} cube={Q.addr()}\n"], _text_blocks(t, v)), EXIT_OK


# ---------------------------------------------------------------------------
# convert

def cmd_convert(cfg: RunConfig) -> tuple[list[str], int]:
    if not cfg.out:
        raise UsageError("convert requires --out")
    w = load_weight(cfg.convert_in)
    save_weight(w, cfg.out)
    return [], EXIT_OK


# ---------------------------------------------------------------------------
# plumbing

def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="rhlab",
        description="Rearrangements, K-functionals, and reverse-Hölder class "
        "constants for weights on dyadic grids.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, with_weight: bool):
        if with_weight:
            p.add_argument("--weight", required=True, help="weight descriptor: const:c | pow:a | step:v1,v2,... | rand:seed:lognormal:sigma | file:path")
        p.add_argument("--dim", type=int, default=None, help="dimension, 1 or 2 (default 1)")
        p.add_argument("--level", type=int, default=None, help="dyadic resolution L (default 8 for d=1, 4 for d=2)")
        p.add_argument("--p", default="1.5,2,3", help="comma-separated exponent list")
        p.add_argument("--out", default=None, help="write the report here instead of stdout")

    pa = sub.add_parser("analyze", help="constants, indices, classifications as JSON")
    common(pa, with_weight=True)
    pa.add_argument("--q", default="", help="comma-separated Lorentz second exponents")
    pa.add_argument("--cap", type=float, default=16.0, help="almost-increase constant cap")
    pa.add_argument("--gamma", default="1,0.5,0.25,0.125", help="comma-separated window fractions")
    pa.add_argument("--cubes", default="all-dyadic", help="cube family policy: all-dyadic | base | level:k")

    pv = sub.add_parser("verify", help="run a verification suite")
    common(pv, with_weight=False)
    pv.add_argument("--cap", type=float, default=16.0, help="almost-increase constant cap")
    pv.add_argument("--suite", required=True, help="one of " + ", ".join([*SUITE_NAMES, "all"]))
    pv.add_argument("--seed", type=int, default=1, help="corpus seed")
    pv.add_argument("--cases", type=int, default=20, help="random grids per suite")
    pv.add_argument("--radius", type=float, default=None, help="comparability radius (default 8 for d=1, 32 for d=2)")

    pc = sub.add_parser("curve", help="dump a curve as breakpoint CSV")
    common(pc, with_weight=True)
    pc.add_argument("--kind", required=True, help="k | rearr | holmstedt:<theta>:<q> | weighted-k")
    pc.add_argument("--cube", default=None, help="cube address level:c0[,c1] (default: base cube)")

    pt = sub.add_parser("convert", help="convert a weight file between CSV and JSON")
    pt.add_argument("input", help="input weight file (.csv or .json)")
    pt.add_argument("--out", default=None, help="output weight file (.csv or .json)")
    return top


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=args.command)
    if args.command == "convert":
        cfg.convert_in = args.input
        cfg.out = args.out
        return cfg
    weight = getattr(args, "weight", "")
    d = args.dim
    L = args.level
    if weight.startswith("file:") and (d is None or L is None):
        probe = load_weight(weight[5:])
        d = probe.d if d is None else d
        L = probe.L if L is None else L
    d = 1 if d is None else d
    if d not in (1, 2):
        raise UsageError(f"--dim must be 1 or 2, got {d}")
    L = (8 if d == 1 else 4) if L is None else L
    if not 0 <= L <= (24 if d == 1 else 12):
        raise UsageError(f"--level {L} out of range for d={d}")
    cfg.weight = weight
    cfg.d = d
    cfg.L = L
    cfg.p_list = _float_list(args.p, "--p", 1.0)
    cfg.out = args.out
    if args.command == "analyze":
        if 1.0 in cfg.p_list:  # RH_p and A_p need p > 1
            raise UsageError("analyze needs --p entries above 1")
        cfg.q_list = _float_list(args.q, "--q", 1.0) if args.q.strip() else ()
    if args.command != "curve":  # analyze and verify take --cap
        cfg.cap = args.cap
        if not cfg.cap > 1.0:
            raise UsageError("--cap must exceed 1")
        if not math.isfinite(cfg.cap):
            raise UsageError("--cap must be finite")
    if args.command == "analyze":
        cfg.gamma_list = _float_list(args.gamma, "--gamma")
        if any(not 0.0 < g <= 1.0 for g in cfg.gamma_list):
            raise UsageError("--gamma entries must lie in (0, 1]")
        cfg.cubes = args.cubes
        try:
            cube_levels(cfg.cubes, 0, L)
        except ValueError:
            if cfg.cubes.startswith("level:"):
                raise UsageError(f"--cubes level:k needs an integer k in [0, {L}], got {cfg.cubes!r}")
            raise UsageError(f"unknown --cubes policy {cfg.cubes!r}")
    if args.command == "verify":
        if d * L < 2:  # the corpus's step:4,1,1,1 needs four cells
            raise UsageError(f"--level {L} too small for the verify corpus at d={d}: it needs dim * level >= 2")
        cfg.suite = args.suite
        cfg.seed = args.seed
        cfg.cases = args.cases
        if cfg.cases < 0:
            raise UsageError("--cases must be nonnegative")
        cfg.radius = args.radius
        if cfg.radius is not None and not math.isfinite(cfg.radius):
            raise UsageError("--radius must be finite")
        if cfg.radius is not None and cfg.radius < 1.0:
            raise UsageError("--radius must be at least 1")
    if args.command == "curve":
        cfg.kind = args.kind
        cfg.cube = args.cube or ""
    return cfg


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else EXIT_USAGE
    try:
        cfg = _resolve_config(args)
        if cfg.command == "analyze":
            pieces, code = cmd_analyze(cfg)
        elif cfg.command == "verify":
            pieces, code = cmd_verify(cfg)
        elif cfg.command == "curve":
            pieces, code = cmd_curve(cfg)
        else:
            pieces, code = cmd_convert(cfg)
    except (WeightFormatError, OSError) as exc:
        print(f"rhlab: error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (UsageError, ValueError) as exc:  # WeightSpecError included
        print(f"rhlab: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ArithmeticError, MemoryError) as exc:
        # a quantity the float range or the memory cannot hold
        detail = f"{type(exc).__name__}: {exc}" if str(exc) else type(exc).__name__
        print(f"rhlab: numerical error: {detail}", file=sys.stderr)
        return EXIT_VERIFY
    except RuntimeError as exc:
        # internal dual-route inconsistency is a verification failure
        print(f"rhlab: verification error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    if cfg.out and cfg.command != "convert":
        try:
            with open(cfg.out, "w") as fh:
                fh.writelines(pieces)
        except OSError as exc:
            print(f"rhlab: error: {exc}", file=sys.stderr)
            return EXIT_IO
        print(f"rhlab: wrote {cfg.out}", file=sys.stderr)
    else:
        sys.stdout.writelines(pieces)  # pieces is never a bare str
    return code


if __name__ == "__main__":
    sys.exit(main())
