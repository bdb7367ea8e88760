"""Tests of the benchmark's own checker, tracer and result assembly.

Run from the root of a checkout:

    python3 -m pytest perfbench -q

The repository's test run (``testpaths = ["tests"]``) does not collect them.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import Op  # noqa: E402

import rhlab  # noqa: E402
from rhlab import cli  # noqa: E402

VERIFY = Op("verify-herz", ("verify", "--suite", "herz", "--cases", "1", "--level", "4"), "verify", 0, {"suite": "herz"})
ANALYZE = Op(
    "analyze-tiny",
    ("analyze", "--weight", "pow:-0.5", "--level", "5", "--q", "2"),
    "analyze",
    32,
    {"weight": "pow:-0.5", "d": 1, "L": 5},
)
CURVE = Op("curve-tiny", ("curve", "--kind", "k", "--weight", "step:4,1,1,1", "--level", "4"), "curve", 16, {"kind": "k"})
PACKING = Op("verify-packing", ("verify", "--suite", "packing", "--cases", "1", "--level", "4"), "verify", 0, {"suite": "packing"})
HOLMSTEDT = Op(
    "curve-holmstedt",
    ("curve", "--kind", "holmstedt:0.5:2", "--weight", "pow:-0.5", "--level", "5"),
    "curve",
    32,
    {"kind": "holmstedt:0.5:2"},
)


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def results(ops) -> list[tuple]:
    """(op, seconds, exit code, stdout, stderr, span) of each operation."""
    got = []
    worker.run_pass(ops, lambda *result: got.append(result))
    return got


def output(op: Op) -> str:
    [(_, _, code, stdout, _, _)] = results([op])
    assert code == 0
    return stdout


# -- verify ------------------------------------------------------------------


def test_verify_output_passes_and_counts_cases():
    ok, reason, work = checks.check(VERIFY, 0, output(VERIFY))
    assert ok, reason
    assert work >= 1


def test_injected_fail_line_fails():
    lines = output(VERIFY).splitlines()
    lines.insert(1, "FAIL herz const:1 maximal_below_doublestar=no")
    ok, reason, _ = checks.check(VERIFY, 0, "\n".join(lines) + "\n")
    assert not ok and "FAIL" in reason


def test_footer_with_failed_cases_fails():
    text = output(VERIFY)
    lines = text.splitlines()
    n = lines[-1].split(": ")[1].split("/")[1].split()[0]
    lines[-1] = f"# suite herz: {int(n) - 1}/{n} cases passed"
    assert not checks.check(VERIFY, 0, "\n".join(lines) + "\n")[0]


def test_missing_footer_and_nonzero_exit_fail():
    text = output(VERIFY)
    assert not checks.check(VERIFY, 0, "\n".join(text.splitlines()[:-1]) + "\n")[0]
    assert not checks.check(VERIFY, 1, text)[0]
    assert not checks.check(VERIFY, None, text)[0]


# -- analyze -----------------------------------------------------------------


def test_analyze_schema_and_key_order():
    text = output(ANALYZE)
    assert checks.check(ANALYZE, 0, text)[0]
    report = json.loads(text)
    reordered = {"weight": report["weight"], **{k: v for k, v in report.items() if k != "weight"}}
    assert not checks.check(ANALYZE, 0, json.dumps(reordered))[0]
    missing = {k: v for k, v in report.items() if k != "theorems"}
    assert not checks.check(ANALYZE, 0, json.dumps(missing))[0]
    assert not checks.check(ANALYZE, 0, text[: len(text) // 2])[0]


# -- curve -------------------------------------------------------------------


def test_curve_csv_passes():
    ok, reason, work = checks.check(CURVE, 0, output(CURVE))
    assert ok, reason
    assert work == 16


@pytest.mark.parametrize("cut", ["mid-row", "header-only", "no-newline", "extra-field", "bad-header"])
def test_truncated_or_malformed_curve_csv_fails(cut):
    text = output(CURVE)
    lines = text.splitlines()
    broken = {
        "mid-row": text[: text.rindex(",") + 1],
        "header-only": lines[0] + "\n",
        "no-newline": text.rstrip("\n"),
        "extra-field": "\n".join(lines[:-1] + [lines[-1] + ",1.0"]) + "\n",
        "bad-header": "\n".join(["# curve kind=rearr cube=0:0"] + lines[1:]) + "\n",
    }[cut]
    assert not checks.check(CURVE, 0, broken)[0]


# -- convert -----------------------------------------------------------------


def convert_ops(tmp_path):
    workdir = str(tmp_path)
    ops = workloads.operations("curve-dump", 5, workdir)
    with open(workloads.input_paths(workdir)["csv"], "w") as fh:
        fh.write("# rhlab d=1 L=3\n" + "".join(f"{0.5 + i!r}\n" for i in range(8)))
    to_json, to_csv = [op for op in ops if op.check.startswith("convert")]
    # a small grid in place of the benchmark's L=18 one
    to_json = Op(to_json.id, to_json.argv, to_json.check, 8, {**to_json.expect, "L": 3})
    return to_json, to_csv


def test_convert_round_trip_passes(tmp_path):
    to_json, to_csv = convert_ops(tmp_path)
    for op, _, code, stdout, _, _ in results([to_json, to_csv]):
        ok, reason, _ = checks.check(op, code, stdout)
        assert ok, reason


def test_convert_that_does_not_round_trip_fails(tmp_path):
    to_json, to_csv = convert_ops(tmp_path)
    results([to_json, to_csv])
    back = to_csv.expect["out"]
    with open(back) as fh:
        text = fh.read()
    with open(back, "w") as fh:
        fh.write(text.replace("0.5\n", "0.50\n", 1))
    assert not checks.check(to_csv, 0, "")[0]
    os.remove(back)
    assert not checks.check(to_csv, 0, "")[0]


def test_digest_is_the_sha256_of_the_whole_output():
    text = "0.5,1.0\n" * (checks.CHUNK // 3)  # more than one hashed chunk
    assert checks.digest(CURVE, text) == hashlib.sha256(text.encode()).hexdigest()


# -- run record and fail_ratio -----------------------------------------------


def test_corrupted_outputs_count_in_fail_ratio():
    good = output(VERIFY)
    corrupted = good.replace("ok   herz", "FAIL herz", 1)
    curve = output(CURVE)
    rec = worker.Run([VERIFY, CURVE])
    for verify_out, curve_out in ((good, curve), (corrupted, curve[:-3])):
        rec.record(VERIFY, 0.1, 0, verify_out, "", traced=False)
        rec.record(CURVE, 0.1, 0, curve_out, "", traced=False)
    assert (rec.attempted, rec.failed) == (4, 2)


def test_other_bytes_than_earlier_in_the_run_fail():
    good = output(VERIFY)
    rec = worker.Run([VERIFY])
    rec.record(VERIFY, 0.1, 0, good, "", traced=False)
    rec.record(VERIFY, 0.1, 0, good.replace("herz const:1", "herz const:1 ", 1), "", traced=False)
    assert rec.failed == 1


# -- host speed --------------------------------------------------------------


def test_scaled_time_follows_the_kernel_and_leaves_sampling_out():
    host = hostspeed.HostSpeed()
    host.samples = [(t, hostspeed.REFERENCE_S) for t in (0.0, 1.0, 2.0)] + [
        (t, 2 * hostspeed.REFERENCE_S) for t in (10.0, 11.0, 12.0)
    ]
    assert host.scaled(1.0, (0.0, 2.0)) == pytest.approx(1.0)
    assert host.scaled(2.0, (10.0, 12.0)) == pytest.approx(1.0)  # twice as slow a host
    assert host.scaled(1.0, (5.0, 5.0)) > 0  # no sample inside: the nearest three

    host = hostspeed.HostSpeed()
    host.start()
    try:
        t0, c0, s0 = time.perf_counter(), host.clock(), host.sampling_s
        while time.perf_counter() - t0 < 0.35:
            pass
        t1, c1, s1 = time.perf_counter(), host.clock(), host.sampling_s
    finally:
        host.stop()
    assert len(host.samples) >= 4 and s1 > s0  # the first at start, then one per PERIOD_S
    assert (t1 - t0) - (c1 - c0) == pytest.approx(s1 - s0, abs=1e-4)


# -- tracer ------------------------------------------------------------------


def test_tracer_wraps_every_import_site_and_restores():
    tracer = Tracer()
    originals = tracer.targets()
    namespaces = [rhlab, *tracer.modules.values()]
    bound = [(ns, attr) for ns in namespaces for attr, v in vars(ns).items() if any(v is f for f in originals.values())]
    assert len(bound) > len(originals)  # functions imported by name elsewhere
    tracer.install()
    try:
        assert all(not any(getattr(ns, attr) is f for f in originals.values()) for ns, attr in bound)
        assert rhlab.kcalc.integrate is not originals["grid.integrate"]
        assert vars(rhlab.grid.WeightGrid)["sorted_level"] is not originals["grid.sorted_level"]
    finally:
        tracer.uninstall()
    assert all(any(getattr(ns, attr) is f for f in originals.values()) for ns, attr in bound)
    assert vars(rhlab.grid.WeightGrid)["zrange"] is originals["grid.zrange"]


def test_traced_digests_equal_untraced_and_bypass_counts():
    curves = worker.measure([CURVE, HOLMSTEDT], seconds=0, tracer=Tracer())
    assert curves["digests_match"] and curves["failed"] == 0
    trace = curves["trace"]
    assert trace["cli.main"]["calls"] == 2
    assert trace["indices.family_index"]["calls"] == 0
    assert trace["grid.integrate"]["calls"] > 0 and trace["grid._exact_tree"]["self_s"] > 0
    assert trace["kcalc.power_piece_integral"]["extra"] > 0

    analyze = worker.measure([ANALYZE], seconds=0, tracer=Tracer())["trace"]
    assert analyze["indices.family_index"]["calls"] > 0 and analyze["grid.sorted_level"]["extra"] > 0
    assert analyze["grid.integrate"]["calls"] == 0 and analyze["kcalc.packing_average"]["calls"] == 0

    packing = worker.measure([PACKING], seconds=0, tracer=Tracer())["trace"]
    assert packing["kcalc.packing_average"]["calls"] > 0 and packing["grid.zrange"]["calls"] > 0
    assert 0.0 < packing["cli.main"]["self_s"] <= packing["cli.main"]["total_s"]


def test_self_times_sum_to_the_outermost_span():
    raw = worker.measure([ANALYZE], seconds=0, tracer=Tracer())
    total = raw["trace"]["cli.main"]["total_s"]
    self_sum = sum(st["self_s"] for st in raw["trace"].values())
    assert self_sum == pytest.approx(total, rel=1e-6)


# -- emitted metrics ---------------------------------------------------------


def test_every_benchmark_metric_is_emitted_with_its_unit():
    s = spec()
    raw = worker.measure([VERIFY, CURVE], seconds=0, tracer=Tracer())
    raw["setups"] = [0.5, 0.6, 0.7]
    for trace, entries in ((0, s["end_to_end"]), (1, s["per_layer"])):
        result = run.assemble(s, raw, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in entries}
        assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_traced_output_that_differs_marks_the_run_incorrect():
    good = output(CURVE)
    rec = worker.Run([CURVE])
    rec.record(CURVE, 0.1, 0, good, "", traced=False)
    rec.record(CURVE, 0.1, 0, good.replace("\n", "\n0.0,0.0\n", 1), "", traced=True)
    raw = {
        "failed": rec.failed,
        "attempted": rec.attempted,
        "ops": [{"scaled_s": [0.1]}],
        "work": [16],
        "peak_rss_mb": 1.0,
        "setups": [0.5],
    }
    result = run.assemble(spec(), raw, 0)
    assert not result["correct"] and (result["attempted"], result["failed"]) == (2, 1)


def test_operations_are_a_function_of_the_seed():
    for name in ("verify-all", "analyze-deep", "curve-dump"):
        assert workloads.operations(name, 7, "w") == workloads.operations(name, 7, "w")
    assert workloads.operations("analyze-deep", 7, "w") != workloads.operations("analyze-deep", 8, "w")
    text = lambda seed: "".join(workloads.csv_chunks(seed))  # noqa: E731
    assert text(3) == text(3) != text(4)
    assert text(3).count("\n") == 1 + (1 << workloads.CONVERT_L) and text(3).endswith("\n")
    assert [op.argv[2] for op in workloads.operations("verify-all", 1, "w")] == list(cli.SUITE_NAMES)
