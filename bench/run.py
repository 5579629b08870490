"""spreadlab benchmark: seeded closed-loop job streams against the public API.

    python3 bench/run.py --workload spread-rees --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
Every measurement runs in a fresh interpreter (``bench/worker.py``) with
the numpy/BLAS/OpenMP thread counts pinned to 1.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it is a report with the run's details
(failed_ratio, tail percentile and sample count, machine, versions).

--trace 0  end-to-end metrics: set-up runs several times and its median is
           reported; one measured run of --seconds of job time gives the rest.
           Times are scaled to a reference host speed (hostspeed.py); the
           report line holds them unscaled as well.
--trace 1  per-layer metrics from a fixed number of rounds (TRACE_ROUNDS,
           whatever --seconds says), so that counts and self times measure
           the same work on every commit.  Four fresh interpreters run the
           same rounds, traced, untraced, untraced, traced; the first traced
           one gives the per-layer metrics and writes its spans to
           .bench_run/, and the pairs give the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402

DEFAULT_SEED = 1
SETUP_SAMPLES = 19            # fresh interpreters whose set-up time is measured
# rounds of each of the four interpreters of a --trace 1 run: about 7 s
# untraced on a 2-core Xeon at the commit that introduced the benchmark
TRACE_ROUNDS = {"spread-rees": 3, "cli-calculus": 6, "fatpoints": 6}
CHILD_TIMEOUT_S = 150
WORKLOAD_NAMES = ("spread-rees", "cli-calculus", "fatpoints")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


def _fail(msg: str) -> int:
    print(f"bench: {msg}", file=sys.stderr)
    return 1


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def child_env(root):
    """Environment of every worker: sources from root/src, one thread each."""
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def child(root, env, workdir, tag, *extra):
    """Run bench/worker.py in a fresh interpreter and return its result."""
    out = os.path.join(workdir, f"{tag}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--out", out,
           "--workdir", os.path.join(workdir, tag), *extra]
    proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{tag} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def _latency_stats(latencies):
    ordered = sorted(latencies)
    n = len(ordered)
    # highest percentile with at least ten samples beyond it: the 11th largest
    k = max(n - 11, 0)
    return {
        "latency_p50_ms": 1000.0 * statistics.median(ordered),
        "latency_tail_ms": 1000.0 * ordered[k],
        "tail_percentile": 100.0 * (k + 1) / n,
        "samples": n,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        return _fail("--seconds must be positive")

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "spreadlab", "__init__.py")):
        return _fail(f"no spreadlab sources under {src}; run from the repository root")

    workdir = os.path.join(root, ".bench_run", f"{args.workload}-seed{args.seed}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        return _measure(args, root, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, root, workdir) -> int:
    env = child_env(root)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.trace == 0:
        run_args = common + ["--mode", "run", "--seconds", str(args.seconds)]
    else:
        run_args = common + ["--mode", "rounds", "--rounds", str(TRACE_ROUNDS[args.workload])]
    if args.seed == DEFAULT_SEED:
        with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
            recorded = json.load(fh)["workloads"].get(args.workload, [])
        expect = os.path.join(workdir, "expect.json")
        with open(expect, "w", encoding="utf-8") as fh:
            json.dump(recorded, fh)
        run_args += ["--expect", expect]

    try:
        if args.trace == 0:
            # set-up samples before and after the measured run, so that
            # their median spans the whole run's time on the machine
            setups = [child(root, env, workdir, f"setup{i}", *common, "--mode", "setup")
                      for i in range(SETUP_SAMPLES // 2)]
            run = child(root, env, workdir, "run", *run_args)
            setups += [child(root, env, workdir, f"setup{i}", *common, "--mode", "setup")
                       for i in range(SETUP_SAMPLES // 2, SETUP_SAMPLES - 1)]
            setups.append(run)
            runs = [run]
        else:
            trace_path = os.path.join(root, ".bench_run",
                                      f"trace-{args.workload}-seed{args.seed}.jsonl")
            run = child(root, env, workdir, "traced0", *run_args, "--traced", "1",
                        "--trace-out", trace_path)
            untraced = [child(root, env, workdir, f"untraced{i}", *run_args) for i in range(2)]
            traced = [run, child(root, env, workdir, "traced1", *run_args, "--traced", "1")]
            runs = traced + untraced
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        return _fail(str(exc))

    attempted = sum(len(r["latencies"]) for r in runs)
    failed = sum(r["failed"] for r in runs)
    scale = hostspeed.scale(run["ref_s"])
    lat = _latency_stats([t * scale for t in run["latencies"]])
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "load": "closed loop, 1 client, 1 process, no extra threads",
        "rounds": run["rounds"], "attempted": attempted, "failed": failed,
        "failed_ratio": failed / attempted, "errors": [e for r in runs for e in r["errors"]][:5],
        "tail_percentile": round(lat["tail_percentile"], 3), "latency_samples": lat["samples"],
        "digests_checked": args.seed == DEFAULT_SEED,
        "machine": {"nproc": os.cpu_count(), "cpu": _cpu_model(),
                    "python": platform.python_version(), "numpy": run["numpy"]},
    }
    if args.trace == 0:
        raw_lat = _latency_stats(run["latencies"])
        report["unscaled"] = {
            "jobs_per_s": jobs_per_s([run], scaled=False),
            "latency_p50_ms": raw_lat["latency_p50_ms"],
            "latency_tail_ms": raw_lat["latency_tail_ms"],
            "setup_s": statistics.median(s["setup_s"] for s in setups),
        }
        report["host_kernel_ms"] = 1000.0 * statistics.median(run["ref_s"])
        metrics = {
            "jobs_per_s": (jobs_per_s([run]), "1/s"),
            "latency_p50_ms": (lat["latency_p50_ms"], "ms"),
            "latency_tail_ms": (lat["latency_tail_ms"], "ms"),
            "setup_s": (statistics.median(s["setup_s"] * hostspeed.scale(s["ref_s"])
                                          for s in setups), "s"),
            "peak_rss_mb": (run["peak_rss_kb"] / 1024.0, "MB"),
        }
    else:
        report.update({"trace_file": os.path.relpath(trace_path, root), "spans": run["spans"],
                       "wrapped_bindings": run["wrapped_bindings"]})
        t_rate, u_rate = jobs_per_s(traced), jobs_per_s(untraced)
        metrics = {name: tuple(pair) for name, pair in run["layers"].items()}
        metrics["trace.jobs_per_s"] = (t_rate, "1/s")
        metrics["trace.untraced_jobs_per_s"] = (u_rate, "1/s")
        metrics["trace.overhead_ratio"] = (u_rate / t_rate, "ratio")

    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def jobs_per_s(runs, scaled=True):
    """Correct jobs per second of job time, over the given worker runs.

    Scaled: each run's job time is taken at the reference host speed.
    """
    jobs = sum(len(r["latencies"]) - r["failed"] for r in runs)
    return jobs / sum(r["busy_s"] * (hostspeed.scale(r["ref_s"]) if scaled else 1.0)
                      for r in runs)


if __name__ == "__main__":
    sys.exit(main())
