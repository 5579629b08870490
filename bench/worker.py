"""One benchmark process: set-up, then (optionally) the closed job loop.

Run by ``bench/run.py`` in a fresh interpreter for every measurement, so
process-global state of the library (such as memo tables) starts empty and
cache hits come only from the stream's own repeats.  Writes one JSON
document to ``--out``.

Modes:
  setup   import spreadlab, generate inputs, run the warm-up job; report time
  run     setup, then run whole rounds until --seconds of job time passed,
          counted at the reference host speed (hostspeed.py), so that a
          slow phase of the host does not change the number of jobs run
  rounds  setup, then run exactly --rounds rounds and report every job's
          input and output digest; with --traced 1 under the span tracer
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import hostspeed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

_now = time.perf_counter


# reference-kernel samples taken after set-up, and one more after every
# this much job time, with the clock stopped (see hostspeed.py)
REF_SAMPLES = 5
REF_EVERY_S = 0.5

# Peak memory is read when this many rounds are done: the library's memo
# tables grow with every distinct job, so a later reading would charge a
# faster program for the extra jobs it fits into the run.
RSS_ROUNDS = 3


def _peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:10]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "rounds"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--rounds", type=int, default=0)
    ap.add_argument("--traced", type=int, default=0)
    ap.add_argument("--expect", default=None, help="JSON list of recorded job digests")
    ap.add_argument("--trace-out", default=None)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    # set-up: import the library, generate inputs, one warm-up job
    t0 = _now()
    import spreadlab  # noqa: F401

    wl = WORKLOADS[args.workload](args.seed, args.workdir)
    wl.prepare()
    first_round = wl.round(0)
    warm = wl.warmup_job()
    wl.check(warm, wl.execute(warm))
    setup_s = _now() - t0
    result = {"setup_s": setup_s, "ref_s": [hostspeed.sample() for _ in range(REF_SAMPLES)]}

    if args.mode != "setup":
        tracer = None
        if args.traced:
            import tracing

            tracer = tracing.Tracer()
            result["wrapped_bindings"] = tracing.install(tracer)
        expected = []
        if args.expect:
            with open(args.expect, encoding="utf-8") as fh:
                expected = json.load(fh)
        result.update(_loop(wl, first_round, args, tracer, expected, result["ref_s"]))
        if tracer is not None:
            result["layers"] = tracing.layer_metrics(tracer, result["output_bytes"])
            result["spans"] = len(tracer.spans)
            if args.trace_out:
                tracer.dump(args.trace_out)

    import numpy

    result["numpy"] = numpy.__version__
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def _loop(wl, first_round, args, tracer, expected, ref_s):
    """Closed loop, one client: each job starts when the previous returned.

    Only job execution is timed; input generation, output checks and
    host-speed samples run between jobs with the clock (and the tracer)
    stopped.  The loop ends at a round boundary, so every run holds the
    round mix exactly.
    """
    latencies = []
    inputs = []
    failed = 0
    errors = []
    digests = []
    output_bytes = 0
    busy = 0.0
    next_ref = REF_EVERY_S
    r = 0
    jobs = first_round
    while True:
        for job in jobs:
            index = len(latencies)
            if args.mode == "rounds":
                inputs.append(_digest(repr(job).replace(args.workdir, "")))
            if tracer is not None:
                tracer.trace_id = index
                tracer.active = True
            t0 = _now()
            try:
                out = wl.execute(job)
                err = None
            except Exception as exc:          # a failing job is counted, not fatal
                out, err = None, f"{type(exc).__name__}: {exc}"
            t1 = _now()
            if tracer is not None:
                tracer.active = False
            busy += t1 - t0
            latencies.append(t1 - t0)
            if busy >= next_ref:
                ref_s.append(hostspeed.sample())
                next_ref = busy + REF_EVERY_S
            digest = None
            if err is None:
                output_bytes += wl.output_bytes(out)
                try:
                    wl.check(job, out)
                    digest = _digest(wl.canonical(job, out))
                except Exception as exc:
                    err = f"{type(exc).__name__}: {exc}"
                if index < len(expected) and digest is not None and expected[index] != digest:
                    err = f"output digest {digest} differs from recorded {expected[index]}"
            digests.append(digest)
            if err is not None:
                failed += 1
                if len(errors) < 5:
                    errors.append(f"job {index} {str(job)[:120]}: {err}")
        r += 1
        if r == RSS_ROUNDS:
            peak_rss_kb = _peak_rss_kb()
        if (args.mode == "rounds" and r >= args.rounds) or \
                (args.mode == "run" and busy * hostspeed.scale(ref_s) >= args.seconds):
            break
        jobs = wl.round(r)
    if r < RSS_ROUNDS:
        peak_rss_kb = _peak_rss_kb()
    out = {"latencies": latencies, "failed": failed, "errors": errors, "rounds": r,
           "busy_s": busy, "output_bytes": output_bytes, "peak_rss_kb": peak_rss_kb}
    if args.mode == "rounds":
        out["digests"] = digests
        out["inputs"] = inputs
    return out


if __name__ == "__main__":
    sys.exit(main())
