"""The benchmark's own tests, and the recorder of its reference digests.

    python3 bench/selftest.py            # run the tests (a few minutes)
    python3 bench/selftest.py --record   # rewrite bench/digests.json

Run from the root of a checkout.  The tests check that

* the same seed gives identical inputs and identical output digests, in
  two fresh interpreters;
* the default seed reproduces the digests in bench/digests.json;
* a second seed keeps jobs_per_s within its BENCHMARK.json bound of the
  default seed's, on every workload: the two seeds' runs alternate, and
  their medians are compared, so that the machine's speed changes do not
  decide the outcome;
* every metric printed with --trace 0 and --trace 1 is named in
  BENCHMARK.json with the same unit;
* the runner exits non-zero, printing no result, where there are no
  sources to benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

# rounds recorded for the default seed: about three times what a 20 s run
# completes on a 2-core Xeon at the commit that introduced the benchmark
RECORD_ROUNDS = {"spread-rees": 24, "cli-calculus": 60, "fatpoints": 50}
SECOND_SEED = 2
COMPARE_RUNS = 5              # runs of each seed, alternating
COMPARE_SECONDS = 10


def _record(root, workload, seed, rounds, tag):
    env = run.child_env(root)
    workdir = os.path.join(root, ".bench_run", f"selftest-{tag}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        return run.child(root, env, workdir, "record", "--workload", workload,
                         "--seed", str(seed), "--mode", "rounds", "--rounds", str(rounds))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _bench(root, *args):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args], cwd=root,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600)
    return proc


def _result(proc):
    if proc.returncode != 0:
        raise AssertionError(f"run.py exited {proc.returncode}: {proc.stderr[-1000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def record(root):
    digests = {}
    for workload, rounds in RECORD_ROUNDS.items():
        out = _record(root, workload, run.DEFAULT_SEED, rounds, workload)
        if out["failed"] or None in out["digests"]:
            raise SystemExit(f"{workload}: jobs failed while recording: {out['errors']}")
        digests[workload] = out["digests"]
        print(f"{workload}: {len(out['digests'])} digests over {rounds} rounds")
    path = os.path.join(HERE, "digests.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"seed": run.DEFAULT_SEED, "workloads": digests}, fh, separators=(",", ":"))
        fh.write("\n")


def test_same_seed_same_inputs_and_outputs(root, spec):
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
        recorded = json.load(fh)["workloads"]
    for workload in run.WORKLOAD_NAMES:
        a = _record(root, workload, run.DEFAULT_SEED, 3, workload + "-a")
        b = _record(root, workload, run.DEFAULT_SEED, 3, workload + "-b")
        assert a["inputs"] == b["inputs"], f"{workload}: same seed, different inputs"
        assert a["digests"] == b["digests"], f"{workload}: same seed, different outputs"
        assert a["failed"] == 0, f"{workload}: {a['errors']}"
        n = len(a["digests"])
        assert a["digests"] == recorded[workload][:n], f"{workload}: digests differ from record"
        c = _record(root, workload, SECOND_SEED, 3, workload + "-c")
        assert c["inputs"] != a["inputs"], f"{workload}: the seed does not change the inputs"


def test_metric_names_match(root, spec):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        res = _result(_bench(root, "--workload", "cli-calculus", "--seconds", "2",
                             "--trace", str(trace)))
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {name: m["unit"] for name, m in res["metrics"].items()}
        assert got == want, f"--trace {trace}: printed {sorted(got)} vs BENCHMARK.json {sorted(want)}"
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1


def test_second_seed_within_bound(root, spec):
    bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "jobs_per_s")
    env = run.child_env(root)
    workdir = os.path.join(root, ".bench_run", "selftest-seeds")
    for workload in run.WORKLOAD_NAMES:
        rates = {run.DEFAULT_SEED: [], SECOND_SEED: []}
        for i in range(COMPARE_RUNS):
            order = sorted(rates) if i % 2 == 0 else sorted(rates, reverse=True)
            for seed in order:
                shutil.rmtree(workdir, ignore_errors=True)
                os.makedirs(workdir)
                res = run.child(root, env, workdir, "run", "--workload", workload, "--seed",
                                str(seed), "--mode", "run", "--seconds", str(COMPARE_SECONDS))
                assert res["failed"] == 0, f"{workload} seed {seed}: {res['errors']}"
                rates[seed].append(run.jobs_per_s([res]))
        shutil.rmtree(workdir, ignore_errors=True)
        first, second = (statistics.median(rates[s]) for s in (run.DEFAULT_SEED, SECOND_SEED))
        change = abs(second / first - 1.0)
        print(f"  {workload}: median jobs_per_s {first:.3f} (seed {run.DEFAULT_SEED}) vs "
              f"{second:.3f} (seed {SECOND_SEED}) over {COMPARE_RUNS} alternating runs each, "
              f"change {change:.3f}, bound {bound}")
        assert change <= bound, f"{workload}: second seed moves jobs_per_s by {change:.3f}"


def test_no_sources_no_result(root, spec):
    bare = os.path.join(root, ".bench_run", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
    try:
        proc = _bench(bare, "--workload", "fatpoints", "--seconds", "1")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, "runner succeeded without sources"
    assert proc.stdout.strip() == "", "runner printed output without sources"


TESTS = (test_same_seed_same_inputs_and_outputs, test_metric_names_match,
         test_second_seed_within_bound, test_no_sources_no_result)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="benchmark self-tests")
    ap.add_argument("--record", action="store_true", help="rewrite bench/digests.json")
    args = ap.parse_args(argv)
    root = os.getcwd()
    if args.record:
        record(root)
        return 0
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    failures = 0
    for test in TESTS:
        try:
            test(root, spec)
            print(f"PASS {test.__name__}")
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {test.__name__}: {exc}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
