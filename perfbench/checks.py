"""Output checks: when an operation counts as failed.

An operation fails when it exits nonzero, when its output breaks the format
the README documents for its subcommand, or when it prints other bytes than
the same operation printed earlier in the run.  Each check returns
``(ok, reason, work)``; ``work`` is the number of verification cases
(verify) or input-grid cells (everything else) the operation processed.
"""

from __future__ import annotations

import hashlib
import json
import math
import re

ANALYZE_KEYS = ["schema", "weight", "grid", "cube_policy", "constants", "indices", "classifications", "theorems"]

_VERIFY_HEADER = re.compile(r"# verify suite=(\S+) d=\d+ L=\d+ seed=-?\d+ cases=\d+")
_VERIFY_FOOTER = re.compile(r"# suite (\S+): (\d+)/(\d+) cases passed")
_CURVE_HEADER = re.compile(r"# curve kind=(\S+) cube=(\S+)")
_LINE = re.compile(r"[^\n]*\n")
CHUNK = 1 << 20  # characters hashed at a time


def _read_bytes(path: str) -> bytes | None:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError:
        return None


def digest(op, stdout: str) -> str:
    """sha256 of what the operation produced: its stdout, plus the file it
    wrote for convert."""
    h = hashlib.sha256()
    for i in range(0, len(stdout), CHUNK):  # no full-size bytes copy of a large output
        h.update(stdout[i : i + CHUNK].encode())
    if op.check.startswith("convert"):
        h.update(_read_bytes(op.expect["out"]) or b"")
    return h.hexdigest()


def check_verify(op, stdout: str) -> tuple[bool, str, int]:
    suite = op.expect["suite"]
    lines = stdout.splitlines()
    if not lines or not (m := _VERIFY_HEADER.fullmatch(lines[0])) or m.group(1) != suite:
        return False, "missing or wrong verify header", 0
    fails = [ln for ln in lines if ln.startswith("FAIL")]
    if fails:
        return False, f"{len(fails)} FAIL line(s), first: {fails[0][:120]}", 0
    footers = [m for ln in lines if (m := _VERIFY_FOOTER.fullmatch(ln))]
    if len(footers) != 1 or footers[0].group(1) != suite or lines[-1] != footers[0].group(0):
        return False, "missing or misplaced suite footer", 0
    n, total = int(footers[0].group(2)), int(footers[0].group(3))
    if total < 1 or n != total:
        return False, f"footer reports {n}/{total} cases passed", 0
    return True, "", total


def _finite_numbers(obj) -> bool:
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return True
    if isinstance(obj, (int, float)):
        return math.isfinite(obj)
    if isinstance(obj, list):
        return all(_finite_numbers(v) for v in obj)
    if isinstance(obj, dict):
        return all(_finite_numbers(v) for v in obj.values())
    return False


def check_analyze(op, stdout: str) -> tuple[bool, str, int]:
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return False, f"analyze output is not JSON: {exc}", 0
    if not isinstance(report, dict) or list(report) != ANALYZE_KEYS:
        return False, "analyze keys differ from the README schema or order", 0
    if report["schema"] != 1 or report["weight"] != op.expect["weight"]:
        return False, "wrong schema version or weight label", 0
    if report["grid"] != {"d": op.expect["d"], "L": op.expect["L"]}:
        return False, f"wrong grid {report['grid']!r}", 0
    if not report["constants"] or not all(isinstance(c, dict) and "value" in c for c in report["constants"]):
        return False, "constants missing or malformed", 0
    if not {"family", "acks"} <= set(report["indices"]):
        return False, "indices missing family or acks", 0
    if not _finite_numbers(report):
        return False, "analyze report holds a non-finite number", 0
    return True, "", op.cells


def check_curve(op, stdout: str) -> tuple[bool, str, int]:
    if not stdout.endswith("\n"):
        return False, "curve CSV does not end with a newline", 0
    lines = (m.group()[:-1] for m in _LINE.finditer(stdout))  # one row at a time, no list of all rows
    m = _CURVE_HEADER.fullmatch(next(lines))
    if not m or m.group(1) != op.expect["kind"]:
        return False, "missing or wrong curve header", 0
    prev_t = -math.inf
    i = 1
    for i, ln in enumerate(lines, start=2):
        try:
            t, v = map(float, ln.split(","))
        except ValueError:  # not two fields, or not numbers
            t = v = math.nan
        if not (math.isfinite(t) and math.isfinite(v)):
            return False, f"malformed curve row {i}: {ln[:80]!r}", 0
        if t < prev_t:
            return False, f"curve row {i} goes back in t", 0
        prev_t = t
    if i < 2:
        return False, "curve has no rows", 0
    return True, "", op.cells


def check_convert_json(op, stdout: str) -> tuple[bool, str, int]:
    data = _read_bytes(op.expect["out"])
    if data is None:
        return False, "convert wrote no JSON file", 0
    try:
        obj = json.loads(data)
    except json.JSONDecodeError as exc:
        return False, f"converted JSON does not parse: {exc}", 0
    d, L = op.expect["d"], op.expect["L"]
    if not isinstance(obj, dict) or obj.get("d") != d or obj.get("L") != L:
        return False, "converted JSON has the wrong d or L", 0
    if not isinstance(obj.get("cells"), list) or len(obj["cells"]) != 1 << (d * L):
        return False, "converted JSON has the wrong cell count", 0
    return True, "", op.cells


def check_convert_csv(op, stdout: str) -> tuple[bool, str, int]:
    back = _read_bytes(op.expect["out"])
    if back is None:
        return False, "convert wrote no CSV file", 0
    if back != _read_bytes(op.expect["reference"]):
        return False, "CSV -> JSON -> CSV round trip is not byte-identical", 0
    return True, "", op.cells


_CHECKS = {
    "verify": check_verify,
    "analyze": check_analyze,
    "curve": check_curve,
    "convert-json": check_convert_json,
    "convert-csv": check_convert_csv,
}


def check(op, exit_code: int | None, stdout: str) -> tuple[bool, str, int]:
    """Check one operation's result; ``exit_code`` is None when it raised."""
    if exit_code is None:
        return False, "raised an exception", 0
    if exit_code != 0:
        return False, f"exit code {exit_code}", 0
    return _CHECKS[op.check](op, stdout)
