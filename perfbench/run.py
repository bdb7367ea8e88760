"""Run one rhlab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload, untraced

Run it from the root of a checkout holding ``src/rhlab``.  Each run starts
fresh worker processes (``worker.py``): several that only set up, for the
``setup_s`` median, then one that sets up and measures.  The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``,
its per-layer metrics with ``--trace 1``.  The lines before it list every
metric by name and unit, the failure ratio, each operation's time and
output sha256, the set-up samples and the machine record.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

# Set-up-only processes per run; the measuring one adds a fifth sample.  One
# process's set-up time varies up to twofold from run to run on a shared VM,
# so setup_s is the median of five.
SETUP_PROBES = 4
RUN_LIMIT_S = 170.0  # every run, set-up probes included, ends within this
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
RECORDED_VARS = ("RHLAB_THREADS", "NUMPY_MADVISE_HUGEPAGE", "PYTHONHASHSEED", *BLAS_THREAD_VARS)


class BenchError(Exception):
    pass


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def worker_env() -> dict[str, str]:
    """The environment of the workers: ``RHLAB_THREADS`` unset, so the
    program's default is measured, BLAS threads at most nproc, no
    transparent huge pages for numpy arrays and a fixed string hash seed.
    Whether the kernel grants a 2 MB page depends on the machine's free
    memory, not on the program; with huge pages the peak RSS of the same run
    varied by up to 8 %.  The outputs do not depend on the hash seed, but the
    heap layout does: with a random seed the peak RSS of the same
    ``curve-dump`` run read 205 or 212 MB."""
    env = dict(os.environ)
    env.pop("RHLAB_THREADS", None)
    env["NUMPY_MADVISE_HUGEPAGE"] = "0"
    env["PYTHONHASHSEED"] = "0"
    for var in BLAS_THREAD_VARS:
        try:
            if int(env.get(var, "0")) > nproc():
                env[var] = str(nproc())
        except ValueError:
            env[var] = str(nproc())
    return env


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def environment_record(env: dict[str, str]) -> dict:
    return {
        "nproc": nproc(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "env_given": {v: os.environ.get(v) for v in RECORDED_VARS},
        "env_used": {v: env.get(v) for v in RECORDED_VARS},
    }


def _workdir(workload: str, seed: int) -> str:
    return os.path.join(".bench_work", f"{workload}-s{seed}")


def _start_worker(workload: str, args, extra: list[str], env, deadline: float) -> list[str]:
    """Run one worker to completion; return its stdout lines."""
    workdir = _workdir(workload, args.seed)
    cmd = [
        sys.executable, WORKER, "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--workdir", workdir,
        "--launched", repr(time.monotonic()), *extra,
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:  # subprocess.run has killed and reaped it
        raise BenchError(f"worker exceeded the {RUN_LIMIT_S:.0f} s run limit") from exc
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines or not lines[0].startswith("ready "):
        raise BenchError(f"worker exited with code {proc.returncode}")
    return lines


def run_workload(workload: str, args, env) -> dict:
    """Set-up probes, then the measuring worker; returns the raw record."""
    deadline = time.monotonic() + RUN_LIMIT_S
    readies = []
    try:
        for _ in range(SETUP_PROBES):
            readies.append(_start_worker(workload, args, ["--setup-only"], env, deadline)[0])
        lines = _start_worker(workload, args, [], env, deadline)
    finally:
        shutil.rmtree(os.path.join(ROOT, _workdir(workload, args.seed)), ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            os.rmdir(os.path.join(ROOT, ".bench_work"))
    readies.append(lines[0])
    raw = json.loads(lines[-1])
    raw["setups"] = [float(r.split()[3]) for r in readies]  # scaled; the measuring worker's last
    raw["setups_unscaled"] = [float(r.split()[1]) for r in readies]
    raw["setup_rss_mb"] = float(lines[0].split()[2])
    return raw


def end_to_end(raw: dict) -> dict[str, float]:
    """``wall_s`` is the sum over the operations of each one's median time
    scaled to the reference host speed; ``work_per_s`` is a pass's work
    over it."""
    wall = sum(statistics.median(op["scaled_s"]) for op in raw["ops"])
    return {
        "wall_s": wall,
        "work_per_s": statistics.median(raw["work"]) / wall,
        "peak_rss_mb": raw["peak_rss_mb"],
        "setup_s": statistics.median(raw["setups"]),
    }


def per_layer_value(name: str, raw: dict) -> float:
    """A per-layer metric by name: ``trace.overhead_ratio``,
    ``cli.op.<op-id>.s``, ``<module>.self_s`` or
    ``<module>.<function>.{calls,total_s,self_s,bytes,pieces}``."""
    trace = raw["trace"]
    if name == "trace.overhead_ratio":
        return raw["overhead_ratio"]
    if name.startswith("cli.op.") and name.endswith(".s"):
        op_id = name[len("cli.op."):-len(".s")]
        times = [op["scaled_s"] for op in raw["ops"] if op["id"] == op_id]
        return statistics.median(times[0]) if times else 0.0
    parts = name.split(".")
    if len(parts) == 2 and parts[1] == "self_s":
        layer_keys = [k for k in trace if k.split(".")[0] == parts[0]]
        if not layer_keys:
            raise BenchError(f"per-layer metric {name!r} names no traced module")
        return sum(trace[k]["self_s"] for k in layer_keys)
    key, _, stat = name.rpartition(".")
    if key not in trace:
        raise BenchError(f"per-layer metric {name!r} names no traced function")
    if stat in ("calls", "total_s", "self_s"):
        return trace[key][stat]
    if raw["trace_extras"].get(key) == stat:
        return trace[key]["extra"]
    raise BenchError(f"per-layer metric {name!r} has an unknown statistic")


def assemble(spec: dict, raw: dict, trace: int) -> dict:
    """The final result line of one run, with every metric ``spec`` lists
    for this kind of run, in its unit."""
    if trace:
        entries = spec["per_layer"]
        values = {m["name"]: per_layer_value(m["name"], raw) for m in entries}
    else:
        entries = spec["end_to_end"]
        computed = end_to_end(raw)
        values = {m["name"]: computed[m["name"]] for m in entries}
    return {
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in entries},
    }


def summary_lines(workload: str, spec: dict, raw: dict, result: dict) -> list[str]:
    lines = [f"# workload {workload}: {len(raw['walls'])} untraced pass(es), {len(raw['ops'])} operations each"]
    for op in raw["ops"]:
        status = "ok" if not op["failures"] else "FAIL " + "; ".join(sorted(set(op["failures"])))
        times = " ".join(f"{s:.3f}" for s in op["s"])
        kernel = " ".join(f"{k * 1e3:.3f}" for k in op["kernel_s"])
        scaled = " ".join(f"{s:.3f}" for s in op["scaled_s"])
        lines.append(f"#   op {op['id']} s=[{times}] kernel_ms=[{kernel}] scaled_s=[{scaled}] sha256={op['sha256']} {status}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for name, value in end_to_end(raw).items():
        lines.append(f"{workload} {name} {value!r} {units.get(name, '')}".rstrip())
    lines.append(f"# unscaled pass wall time, median over passes: {statistics.median(raw['walls']):.3f} s")
    setups = " ".join(f"{s:.3f}" for s in raw["setups"])
    unscaled = " ".join(f"{s:.3f}" for s in raw["setups_unscaled"])
    lines.append(
        f"# set-up: scaled_s=[{setups}] s=[{unscaled}], peak RSS at the end of the measuring worker's set-up"
        f" {raw['setup_rss_mb']:.1f} MB"
    )
    ratio = raw["failed"] / raw["attempted"]
    lines.append(f"{workload} fail_ratio {ratio!r} fraction ({raw['failed']}/{raw['attempted']} operations)")
    if "trace" in raw:
        lines.append(f"{workload} digests traced == untraced: {raw['digests_match']}")
        for name, m in result["metrics"].items():
            lines.append(f"{workload} {name} {m['value']!r} {m['unit']}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run an rhlab benchmark workload.")
    ap.add_argument("--workload", required=True, help="a workload of BENCHMARK.json, or 'all'")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None, help="measuring time (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"perfbench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, "src", "rhlab", "__init__.py")):
        print(f"perfbench: no rhlab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    names = [w["name"] for w in spec["workloads"]]
    chosen = names if args.workload == "all" else [args.workload]
    if any(w not in names for w in chosen):
        print(f"perfbench: unknown workload {args.workload!r}; choose from {', '.join(names)} or all", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = spec["run_seconds"]

    env = worker_env()
    results = {}
    for workload in chosen:
        try:
            raw = run_workload(workload, args, env)
            result = assemble(spec, raw, args.trace)
        except BenchError as exc:
            print(f"perfbench: {workload}: {exc}", file=sys.stderr)
            return 1
        for line in summary_lines(workload, spec, raw, result):
            print(line)
        results[workload] = result
    print("# environment " + json.dumps({**environment_record(env), **raw["machine"]}))
    print(json.dumps(results[chosen[0]] if len(chosen) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
