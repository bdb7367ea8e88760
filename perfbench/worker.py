"""One benchmark process: set up, run passes over a workload, check outputs.

Started by ``run.py`` from the root of a checkout, one fresh process per
run, so the peak resident memory it reports belongs to that run alone.  It
prints ``ready`` with its set-up time, its peak RSS and the set-up time
scaled to the reference host speed once set-up is done, then, unless
``--setup-only`` is given, one JSON line with the run's raw results.

Set-up is everything before the first timed operation: interpreter start,
``import rhlab``, writing the input files and a warm-up call.  It is
measured from the launch time the parent passes in ``--launched``, read on
the system-wide monotonic clock.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.getcwd(), "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from rhlab import cli  # noqa: E402
import hostspeed  # noqa: E402
from tracer import Tracer  # noqa: E402

# No round starts that would end past this, whatever --seconds says, so a
# run stays inside the parent's time limit.
HARD_LIMIT_S = 150.0


def run_pass(ops, record, clock=time.perf_counter) -> float:
    """Run each operation once, in order, one at a time.  Each result goes
    to ``record(op, seconds, exit_code, stdout, stderr, span)`` as soon as
    the operation ends, so its output is checked, digested and dropped
    before the next operation starts.  ``span`` is the operation's start
    and end on the system-wide monotonic clock.  Times are read on
    ``clock``.  Returns the pass wall time: the sum of the operations'
    times, which leaves the checks out."""
    wall = 0.0
    for op in ops:
        out, err = io.StringIO(), io.StringIO()
        start = time.monotonic()
        t0 = clock()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(op.argv))
        except Exception as exc:  # a traceback is a failed operation, not a failed run
            code = None
            err.write(f"{type(exc).__name__}: {exc}\n")
        seconds = clock() - t0
        wall += seconds
        record(op, seconds, code, out.getvalue(), err.getvalue(), (start, time.monotonic()))
        out.close()
        err.close()
    return wall


class Run:
    """Accumulates the per-operation record of one run and checks every
    output against the bytes the same operation printed first.  Only
    digests are kept, never the outputs."""

    def __init__(self, ops):
        self.ops = ops
        self.records = {
            op.id: {"id": op.id, "argv": list(op.argv), "s": [], "spans": [], "sha256": None, "failures": []} for op in ops
        }
        self.attempted = 0
        self.failed = 0
        self.work: list[int] = []  # per untraced pass

    def record(self, op, seconds: float, code, stdout: str, stderr: str, traced: bool, span=(0.0, 0.0)) -> tuple[str, int]:
        """Check one operation's result; return its digest and work."""
        rec = self.records[op.id]
        ok, reason, work = checks.check(op, code, stdout)
        sha = checks.digest(op, stdout)
        if rec["sha256"] is None:
            rec["sha256"] = sha
        elif ok and sha != rec["sha256"]:
            ok, reason = False, "printed other bytes than earlier in the run" + (" (traced)" if traced else "")
        if not traced:
            rec["s"].append(seconds)
            rec["spans"].append(span)
        self.attempted += 1
        if not ok:
            self.failed += 1
            tail = stderr.strip().splitlines()[-1:]
            rec["failures"].append(reason + (f" [stderr: {tail[0][:200]}]" if tail else ""))
        return sha, work

    def run_pass(self, traced: bool, clock=time.perf_counter) -> tuple[float, list[str]]:
        """One pass over the operations; returns its wall time and the
        output digests in operation order."""
        digests, work = [], 0

        def record(op, seconds, code, stdout, stderr, span):
            nonlocal work
            sha, op_work = self.record(op, seconds, code, stdout, stderr, traced, span)
            digests.append(sha)
            work += op_work

        wall = run_pass(self.ops, record, clock)
        if not traced:
            self.work.append(work)
        return wall, digests


def machine_record() -> dict:
    blas = {}
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = {k: deps.get(k, {}).get("name", "") + " " + deps.get(k, {}).get("version", "") for k in ("blas", "lapack")}
    except (TypeError, AttributeError):  # numpy without show_config(mode=...)
        pass
    return {"numpy": np.__version__, "scipy": scipy.__version__, "blas": blas}


def measure(ops, seconds: float, tracer=None, clear_outputs=lambda: None) -> dict:
    """Run rounds of passes over ``ops`` until the next round would end past
    ``seconds`` (at least one round); return the run's raw record.

    A round is one untraced pass, followed with a ``tracer`` by one traced
    pass.  Every output of either kind is checked against the first output
    of the same operation, so a traced pass that prints other bytes fails.
    Untraced passes run with the host-speed sampler on; each of their
    operations also gets ``kernel_s``, the sampler's mean kernel time while
    it ran, and ``scaled_s``, its time at the reference host speed.
    """
    run = Run(ops)
    host = hostspeed.HostSpeed()
    walls, traced_walls = [], []
    digests_match = True
    t_start = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        clear_outputs()
        host.start()
        try:
            wall, plain = run.run_pass(traced=False, clock=host.clock)
        finally:
            host.stop()
        walls.append(wall)
        if tracer is not None:
            clear_outputs()
            tracer.install()
            try:
                wall, digests = run.run_pass(traced=True)
            finally:
                tracer.uninstall()
            traced_walls.append(wall)
            digests_match = digests_match and digests == plain
        now = time.perf_counter()
        if now - t_start + (now - t_round) > min(seconds, HARD_LIMIT_S):
            break
    for rec in run.records.values():
        spans = rec.pop("spans")
        rec["kernel_s"] = [host.mean_s(span) for span in spans]
        rec["scaled_s"] = [host.scaled(s, span) for s, span in zip(rec["s"], spans)]

    out = {
        "walls": walls,
        "work": run.work,
        "attempted": run.attempted,
        "failed": run.failed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "ops": list(run.records.values()),
    }
    if tracer is not None:
        n = len(traced_walls)
        out["traced_walls"] = traced_walls
        out["digests_match"] = digests_match
        out["trace"] = {
            key: {"calls": st.calls / n, "total_s": st.total_s / n, "self_s": st.self_s / n, "extra": st.extra / n}
            for key, st in tracer.stats.items()
        }
        out["trace_extras"] = {key: suffix for key, (suffix, _) in tracer.extras.items()}
        out["overhead_ratio"] = statistics.median(traced_walls) / statistics.median(walls)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--launched", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    ops = workloads.operations(args.workload, args.seed, args.workdir)
    workloads.write_inputs(args.workload, args.seed, args.workdir)
    for warm in workloads.warmup_operations(args.workload):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            cli.main(list(warm))
    setup_s = time.monotonic() - args.launched
    setup_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    kernel = statistics.median(hostspeed.kernel_s() for _ in range(5))
    print(f"ready {setup_s!r} {setup_rss_mb!r} {setup_s * hostspeed.REFERENCE_S / kernel!r}", flush=True)
    if args.setup_only:
        return 0

    tracer = Tracer() if args.trace else None
    out = measure(ops, args.seconds, tracer, lambda: workloads.clear_outputs(args.workload, args.workdir))
    out["machine"] = machine_record()
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
