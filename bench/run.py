#!/usr/bin/env python3
"""Benchmark of the nonauto package: four workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload figures --seed 1 --seconds 16 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 16 --trace 1
    python3 bench/run.py --workload all --smoke     # every workload and check at toy sizes

With --trace 0 the passes run untraced and the result carries the end-to-end
metrics; with --trace 1 untraced passes fill half of --seconds, one traced
pass follows, and the result carries the per-layer metrics.  Every output is checked outside
the timed region.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  Outputs, the full result
and the trace land in .bench_out/<workload>/.
"""
from __future__ import annotations

import os

# Pin BLAS and OpenMP pools before numpy loads; child processes inherit these.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS",
               "NONAUTO_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("figures", "deep_orbits", "metric_table", "cli_custom")
SETUP_REPEATS = 5


def import_program():
    """Import nonauto from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    try:
        import nonauto
    except ImportError as exc:
        sys.exit(f"error: cannot import nonauto from {SRC}: {exc}")
    if SRC.resolve() not in Path(nonauto.__file__).resolve().parents:
        sys.exit(f"error: nonauto was imported from {nonauto.__file__}, not from {SRC}")


def environment(seed: int) -> dict:
    import numpy

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "nonauto").glob("*.py")):
        src_hash.update(path.name.encode() + path.read_bytes())
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_commit": commit, "src_sha256": src_hash.hexdigest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": version("scipy"), "mpmath": version("mpmath"),
        "nproc": os.cpu_count(), "cpu_model": cpu,
        "threads": {v: os.environ[v] for v in THREAD_VARS}, "seed": seed,
    }


def time_setup(name, seed, size, out) -> list[float]:
    """Seconds from starting a fresh interpreter to the workload being ready."""
    times = []
    for _ in range(SETUP_REPEATS if size == "full" else 1):
        t0 = perf_counter()
        proc = subprocess.Popen([sys.executable, str(ROOT / "bench" / "setup_probe.py"),
                                 name, str(seed), size, str(out)],
                                stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline().strip()
        times.append(perf_counter() - t0)
        proc.stdout.close()
        if proc.wait() != 0 or line != "ready":
            raise RuntimeError(f"set-up of {name} failed in a fresh interpreter")
    return times


def timed_passes(run, budget: float):
    """Run passes until `budget` seconds have gone (at least one).

    Returns wall seconds, outputs and job times per pass.
    """
    times, outputs, jobs = [], [], []
    start = perf_counter()
    while not times or perf_counter() - start < budget:
        t0 = perf_counter()
        out, job = run()
        times.append(perf_counter() - t0)
        outputs.append(out)
        jobs.append(job)
    return times, outputs, jobs


def peak_rss_mb(wl) -> float:
    who = resource.RUSAGE_CHILDREN if wl.name == "cli_custom" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    import tracing
    import workloads

    wl = workloads.WORKLOADS[name]
    out = ROOT / ".bench_out" / (name if size == "full" else f"{name}-{size}")
    out.mkdir(parents=True, exist_ok=True)
    env = environment(seed)
    sizes = workloads.SIZES[size][name]

    state = wl.setup(seed, sizes, out)
    setup_times = time_setup(name, seed, size, out)

    untraced_budget = seconds / 2 if trace else seconds
    times, outputs, jobs = timed_passes(lambda: wl.run(state), untraced_budget)
    rss = peak_rss_mb(wl)
    digests = [workloads.digest(o) for o in outputs]

    metrics = {}
    traced_times = []
    if not trace:
        metrics["setup_s"] = (statistics.median(setup_times), "s")
        metrics["wall_s"] = (statistics.median(times), "s")
        metrics["peak_rss_mb"] = (rss, "MB")
    else:
        # the traced passes call the CLI in-process, so its untraced base does too
        if name == "cli_custom":
            base_times, base_outputs, _ = timed_passes(lambda: wl.run(state, True), 0)
            digests += [workloads.digest(o) for o in base_outputs]
        else:
            base_times = times
        tracer = tracing.Tracer()
        tracing.install(tracer)
        tracer.active = True
        try:
            traced_times, traced_outputs, _ = timed_passes(lambda: wl.run(state, True), 0)
        finally:
            tracer.active = False
            tracer.restore()
        digests += [workloads.digest(o) for o in traced_outputs]
        tracer.write(out / "trace.json")
        metrics.update(tracing.layer_metrics(tracer))
        if name == "cli_custom":
            metrics["cli.import_s"] = (statistics.median(setup_times), "s")
        else:
            metrics["cli.import_s"] = (0.0, "s")
        metrics["trace.overhead_frac"] = (
            statistics.median(traced_times) / statistics.median(base_times) - 1.0, "ratio")
        for job_name in workloads.JOB_NAMES:
            values = [j[job_name] for j in jobs if job_name in j]
            metrics[job_name] = (statistics.median(values) if values else 0.0, "s")

    checks = workloads.Checks()
    checks.add(f"{name}.passes_identical", len(set(digests)) == 1,
               f"{len(digests)} passes, {len(set(digests))} distinct output digests")
    ref = workloads.load_reference(size).get(name, {})
    wl.check(state, outputs[0], checks, ref)
    probes = wl.probes(state, outputs[0])

    attempted = len(checks.records)
    failed = sum(not r["ok"] for r in checks.records)
    if trace:
        metrics["checks.failed_frac"] = (failed / attempted, "ratio")
        metrics["probes.open_defects"] = (sum(not p["ok"] for p in probes), "count")
    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace), "size": size,
        "env": env, "setup_times_s": setup_times, "pass_times_s": times,
        "traced_pass_times_s": traced_times, "jobs": jobs,
        "checks": checks.records, "probes": probes,
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(out / "result.json", "w") as fh:
        json.dump(result, fh, indent=1, default=str)
    return result


def report(result: dict) -> None:
    """Human-readable lines; the caller prints the JSON summary last."""
    print(f"workload {result['workload']} seed {result['seed']} trace {result['trace']} "
          f"size {result['size']} passes {len(result['pass_times_s'])}"
          f"+{len(result['traced_pass_times_s'])} traced")
    print("env " + json.dumps(result["env"], sort_keys=True))
    for rec in result["checks"]:
        print(f"check {'ok  ' if rec['ok'] else 'FAIL'} {rec['name']}  {rec['detail']}")
    for rec in result["probes"]:
        print(f"known-defect probe {'fixed' if rec['ok'] else 'open '} {rec['name']}  "
              f"{rec['detail']}")
    print(f"checks failed {result['failed']} of {result['attempted']} "
          f"(failed_frac {result['failed_frac']:.4g})")
    for name, m in result["metrics"].items():
        print(f"metric {result['workload']} {name} {m['value']!r} {m['unit']}")


def summary(result: dict) -> dict:
    return {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}


def run_all(args) -> int:
    """Each workload in its own process, so memory and imports stay separate."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        last = json.loads(lines[-1])
        merged["correct"] &= last["correct"]
        merged["attempted"] += last["attempted"]
        merged["failed"] += last["failed"]
        for metric, m in last["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=16.0,
                        help="measuring time per run; at least one pass always runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="toy sizes: runs every pass and check in seconds")
    args = parser.parse_args(argv)

    import_program()
    sys.path.insert(0, str(ROOT / "bench"))
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          "smoke" if args.smoke else "full")
    report(result)
    print(json.dumps(summary(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
