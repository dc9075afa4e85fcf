"""Benchmark worker: one fresh single-threaded interpreter.

The worker times ``import poissonkit.cli`` first, runs one warm-up job and
reports ``ready`` as a JSON line on stdout.  It then waits for one command
on stdin: ``quit``, or ``loop`` to run a closed loop of jobs (one job at a
time, each started when the previous one and its checks are done) and
report the result as a second JSON line.

Each job is one or two in-process calls to ``poissonkit.cli.main(argv)``
with stdout and stderr captured in memory.  A fixed reference loop runs
between consecutive jobs; a job's host factor is the mean of the
reference times on either side of it divided by ``REF_NOMINAL_S``.

With ``--trace 1`` the loop runs twice over the same job sequence: once
untraced, with output checks, then with the tracer installed.  The traced
outputs must be byte-identical to the untraced ones.
"""

import sys
import time

_start = time.perf_counter()
import poissonkit.cli  # noqa: E402  (timed alone, before anything imports numpy)

IMPORT_S = time.perf_counter() - _start

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import hostref  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PROTOCOL = sys.stdout
MAX_REPORTED_PROBLEMS = 5


def send(message: dict) -> None:
    PROTOCOL.write(json.dumps(message) + "\n")
    PROTOCOL.flush()


def call_cli(argv) -> tuple[object, str, str]:
    """One CLI call; exceptions and argparse exits become a nonzero code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = poissonkit.cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crashing job is a failed job, not a crashed run
            code = "exception"
            err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


def run_job(job) -> tuple[float, list]:
    start = time.perf_counter()
    results = [call_cli(argv) for argv in job.argvs]
    return time.perf_counter() - start, results


def check_job(workload, job, results) -> list[str]:
    reference = [call_cli(argv) for argv in job.reference_argvs]
    try:
        return workload.check(job, results, reference)
    except Exception as exc:  # a malformed output is a failed check
        return [f"check raised {exc!r}"]


def digest(results) -> str:
    h = hashlib.sha256()
    for code, out, _ in results:
        h.update(f"{code}\0{out}\0".encode())
    return h.hexdigest()


def loop(workload, jobs, seconds, min_jobs, check=True, tracer=None, trace_jobs=0):
    """Closed loop until ``seconds`` have passed and ``min_jobs`` have run.

    Returns per-job records [raw_s, host_s, units, ok, digest] and, when
    tracing, host-normalized per-job snapshot deltas of the first
    ``trace_jobs`` jobs.
    """
    records, deltas, problems = [], [], []
    prev_ref = hostref.reference()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(records) < min_jobs:
        job = next(jobs)
        before = tracer.snapshot() if tracer and len(records) < trace_jobs else None
        raw, results = run_job(job)
        after = tracer.snapshot() if before is not None else None
        ref = hostref.reference()
        host = 0.5 * (prev_ref + ref)
        prev_ref = ref
        found = check_job(workload, job, results) if check else []
        problems += found
        records.append([raw, host, job.units, not found, digest(results)])
        if after is not None:
            scale = hostref.REF_NOMINAL_S / host
            deltas.append({
                k: (v - before.get(k, 0.0)) * (1.0 if k.startswith("count:") else scale)
                for k, v in after.items()
            })
    return records, deltas, problems


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-jobs", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-jobs", type=int, default=1)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]

    jobs = workload.jobs(args.seed, args.workdir)
    warm = next(jobs)
    _, results = run_job(warm)
    warm_problems = check_job(workload, warm, results)
    send({"ready": True, "module": poissonkit.__file__, "import_s": IMPORT_S,
          "warmup_problems": warm_problems})

    command = sys.stdin.readline().strip()
    if command != "loop":
        return 0

    if not args.trace:
        records, _, problems = loop(workload, jobs, args.seconds, args.min_jobs)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        send({"records": records, "problems": problems[:MAX_REPORTED_PROBLEMS],
              "peak_rss_mb": rss_mb})
        return 0

    # Traced run: the same job sequence, untraced then traced.
    half = 0.5 * args.seconds
    min_jobs = max(args.min_jobs, args.trace_jobs)
    plain, _, problems = loop(workload, jobs, half, min_jobs)
    tracer = tracing.Tracer()
    tracing.install_poissonkit(tracer)
    replay = workload.jobs(args.seed, args.workdir)
    next(replay)  # the warm-up job
    try:
        traced, deltas, _ = loop(
            workload, replay, half, min_jobs, check=False, tracer=tracer,
            trace_jobs=args.trace_jobs,
        )
    finally:
        tracer.uninstall()
    send({
        "records": plain,
        "traced_records": traced,
        "problems": problems[:MAX_REPORTED_PROBLEMS],
        "layer_metrics": tracing.per_job_metrics(deltas),
        "trace_jobs": len(deltas),
        "spans": [[layer, parent, n, total, self_s]
                  for (layer, parent), (n, total, self_s) in sorted(tracer.spans.items())],
        "installed": len(tracer.installed),
        "absent": tracer.absent,
        "absent_metrics": tracing.absent_metrics(tracer),
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
