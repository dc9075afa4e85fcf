"""poissonkit CLI benchmark.

    python3 bench/run.py                        # every workload, then every traced run
    python3 bench/run.py --workload check-mixed --seed 3 --seconds 30 --trace 0

Each workload is a closed loop with one client and one single-threaded
worker process (see worker.py).  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` makes the traced run and prints the per-layer
metrics.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--out PATH``
also writes the full record: provenance, raw seconds and host factors.

All times are host-normalized (see hostref.py).  The program is imported
from ``src/`` next to this directory; without it the benchmark exits with
code 2 and prints no result.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

# Fixed before numpy loads, in this process and (inherited) in every worker.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)
os.environ.pop("POISSON_THREADS", None)

import argparse  # noqa: E402
import compileall  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import select  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402

import hostref  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")

#: Fresh interpreters launched per run for ``setup_s``; the loop worker is
#: the last of them.
SETUP_LAUNCHES = 5
#: Reference runs before each launch and again after it reports ready; a
#: single run is too noisy to normalize one launch.
SETUP_REFS = 5
#: Jobs whose layer counts and times the traced run reports.
TRACE_JOBS = 30
#: Seconds a worker may take to report ready, or to finish its loop beyond
#: the requested measuring time.
WORKER_TIMEOUT_S = 120.0

E2E_UNITS = {
    "setup_s": "s",
    "job_s.p50": "s",
    "job_s.p90": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}


class HarnessError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed job)."""


def normalized(raw_s: float, host_s: float) -> float:
    return raw_s / host_s * hostref.REF_NOMINAL_S


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method) of at least two values."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# ---------------------------------------------------------------------------
# worker processes
# ---------------------------------------------------------------------------

def _read_message(proc: subprocess.Popen, timeout: float) -> dict:
    ready, _, _ = select.select([proc.stdout], [], [], timeout)
    if not ready:
        raise HarnessError(f"worker sent nothing within {timeout:.0f} s")
    line = proc.stdout.readline()
    if not line:
        raise HarnessError(f"worker exited with code {proc.wait()} before reporting")
    return json.loads(line)


class Launch:
    """One fresh worker interpreter; measures its set-up time."""

    def __init__(self, workload: str, seed: int, workdir: str, extra: list[str]):
        env = dict(os.environ, PYTHONPATH=SRC)
        argv = [
            sys.executable, os.path.join(BENCH_DIR, "worker.py"),
            "--workload", workload, "--seed", str(seed), "--workdir", workdir, *extra,
        ]
        refs = [hostref.reference() for _ in range(SETUP_REFS)]
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        try:
            self.ready = _read_message(self.proc, WORKER_TIMEOUT_S)
            self.setup_raw_s = time.perf_counter() - start
            refs += [hostref.reference() for _ in range(SETUP_REFS)]
            if not self.ready["module"].startswith(SRC + os.sep):
                raise HarnessError(f"worker imported {self.ready['module']}, not {SRC}")
        except BaseException:
            self.close()
            raise
        self.host_s = statistics.median(refs)

    def command(self, text: str) -> None:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()

    def result(self, timeout: float) -> dict:
        try:
            return _read_message(self.proc, timeout)
        finally:
            self.close()

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
                self.proc.wait(timeout=10)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 launches: int = SETUP_LAUNCHES, trace_jobs: int = TRACE_JOBS,
                 min_jobs: int = 1) -> dict:
    workload = WORKLOADS[name]
    workdir = os.path.join(WORK_ROOT, f"{name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        workload.prepare(seed, workdir)
        extra = ["--seconds", repr(seconds), "--min-jobs", str(min_jobs),
                 "--trace", str(int(trace)), "--trace-jobs", str(trace_jobs)]
        setups, warm_problems, warm_failed = [], [], 0
        try:
            for k in range(launches):
                launch = Launch(name, seed, workdir, extra)
                setups.append(launch)
                warm_problems += launch.ready["warmup_problems"]
                warm_failed += bool(launch.ready["warmup_problems"])
                if k < launches - 1:
                    launch.command("quit")
                    launch.close()
            launch.command("loop")
            result = launch.result(WORKER_TIMEOUT_S + 2 * seconds)
        finally:
            for launch in setups:
                launch.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return summarize(name, seed, seconds, trace, setups, warm_problems, warm_failed, result)


def _timing(records) -> dict:
    norm = [normalized(raw, host) for raw, host, *_ in records]
    raw = [r[0] for r in records]
    host = [r[1] / hostref.REF_NOMINAL_S for r in records]
    units = sum(r[2] for r in records)
    return {
        "job_s.p50": (statistics.median(norm), statistics.median(raw)),
        "job_s.p90": (percentile(norm, 90), percentile(raw, 90)),
        "work_per_s": (units / sum(norm), units / sum(raw)),
        "host_factor": statistics.median(host),
        "jobs": len(records),
        "units": units,
    }


def summarize(name, seed, seconds, trace, setups, warm_problems, warm_failed, result) -> dict:
    records = result["records"]
    failed = sum(1 for r in records if not r[3]) + warm_failed
    attempted = len(records) + len(setups)
    problems = warm_problems + result["problems"]
    setup_norm = [normalized(s.setup_raw_s, s.host_s) for s in setups]
    setup_host = [s.host_s / hostref.REF_NOMINAL_S for s in setups]
    import_norm = [normalized(s.ready["import_s"], s.host_s) for s in setups]
    timing = _timing(records)
    out = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "jobs": timing["jobs"],
        "work_units": timing["units"],
        "unit_name": WORKLOADS[name].unit_name,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "problems": problems[:5],
        "setup": {
            "value": statistics.median(setup_norm),
            "raw": statistics.median(s.setup_raw_s for s in setups),
            "host_factor": statistics.median(setup_host),
            "launches": len(setups),
        },
        "timing": timing,
    }
    if not trace:
        out["metrics"] = {
            "setup_s": out["setup"]["value"],
            "job_s.p50": timing["job_s.p50"][0],
            "job_s.p90": timing["job_s.p90"][0],
            "work_per_s": timing["work_per_s"][0],
            "peak_rss_mb": result["peak_rss_mb"],
        }
        return out

    traced = result["traced_records"]
    pairs = min(len(records), len(traced))
    mismatched = sum(1 for a, b in zip(records, traced) if a[4] != b[4])
    out["attempted"] += len(traced)
    out["failed"] += mismatched
    out["fail_ratio"] = out["failed"] / out["attempted"]
    untraced_p50 = statistics.median(normalized(r[0], r[1]) for r in records[:pairs])
    traced_p50 = statistics.median(normalized(r[0], r[1]) for r in traced[:pairs])
    layer = dict(result["layer_metrics"])
    layer["init.import_s"] = (statistics.median(import_norm), "s")
    layer["trace.overhead_s"] = (traced_p50 - untraced_p50, "s")
    out["trace_run"] = {
        "jobs_compared": pairs,
        "stdout_mismatches": mismatched,
        "untraced_job_s.p50": untraced_p50,
        "traced_job_s.p50": traced_p50,
        "traced_jobs_reported": result["trace_jobs"],
        "host_factor": statistics.median(
            r[1] / hostref.REF_NOMINAL_S for r in traced[: result["trace_jobs"]]
        ),
        "spans": result["spans"],
        "installed": result["installed"],
        "absent_names": result["absent"],
        "absent_metrics": result["absent_metrics"],
    }
    out["layer_metrics"] = layer
    out["metrics"] = {k: v[0] for k, v in layer.items()}
    return out


# ---------------------------------------------------------------------------
# provenance and printing
# ---------------------------------------------------------------------------

def provenance(seed: int) -> dict:
    sha = "unknown"
    if os.path.exists(os.path.join(ROOT, ".git")):  # never a repository above ROOT
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10,
            ).stdout.strip() or sha
        except (OSError, subprocess.TimeoutExpired):
            pass
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "absent"

    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "thread_env": {**THREAD_ENV, "POISSON_THREADS": "unset"},
        "seed": seed,
        "ref_nominal_s": hostref.REF_NOMINAL_S,
    }


def print_result(res: dict) -> None:
    p = print
    if not res["trace"]:
        t, s = res["timing"], res["setup"]
        p(f"workload {res['workload']}  seed {res['seed']}  {t['jobs']} jobs in "
          f"{res['seconds']:g} s  (closed loop, 1 client, 1 worker process)")
        p(f"  setup_s      {s['value']:.4f} s    raw {s['raw']:.4f} s, host factor "
          f"{s['host_factor']:.3f}, median of {s['launches']} launches")
        for key in ("job_s.p50", "job_s.p90"):
            p(f"  {key:<12} {t[key][0]:.5f} s   raw {t[key][1]:.5f} s, host factor "
              f"{t['host_factor']:.3f}")
        p(f"  work_per_s   {t['work_per_s'][0]:.2f} 1/s   raw {t['work_per_s'][1]:.2f} 1/s "
          f"({res['unit_name']}; {t['units']} in the timed loop)")
        p(f"  peak_rss_mb  {res['metrics']['peak_rss_mb']:.1f} MB")
    else:
        tr = res["trace_run"]
        p(f"traced {res['workload']}  seed {res['seed']}: {tr['jobs_compared']} jobs compared, "
          f"stdout byte-identical: {'yes' if not tr['stdout_mismatches'] else 'NO'}; "
          f"job_s.p50 {tr['untraced_job_s.p50']:.5f} s untraced, "
          f"{tr['traced_job_s.p50']:.5f} s traced")
        p(f"  per job over {tr['traced_jobs_reported']} traced jobs "
          f"({tr['installed']} names traced; host factor {tr['host_factor']:.3f}, "
          f"raw seconds = value x host factor):")
        for key, (value, unit) in res["layer_metrics"].items():
            p(f"  {key:<32} {value:.6g} {unit}")
        p("  spans (layer <- parent: spans, total s, self s; raw, all traced jobs):")
        for layer, parent, n, total, self_s in tr["spans"]:
            p(f"    {layer:<10} <- {parent:<10} {n:>9} {total:10.4f} {self_s:10.4f}")
        absent = tr["absent_metrics"] + tr["absent_names"]
        p(f"  absent: {', '.join(absent) if absent else 'none'}")
    p(f"  fail_ratio   {res['fail_ratio']:.4g} ratio ({res['failed']} of {res['attempted']} "
      f"jobs failed)")
    for problem in res["problems"]:
        p(f"  problem: {problem}")


def result_line(res: dict) -> str:
    units = E2E_UNITS if not res["trace"] else {k: v[1] for k, v in res["layer_metrics"].items()}
    return json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in res["metrics"].items()},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics, 1: traced run (default: both)")
    parser.add_argument("--out", help="write the full record as JSON here")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "poissonkit", "cli.py")):
        print(f"error: no poissonkit sources under {SRC}", file=sys.stderr)
        return 2
    # Build step: byte-compile the sources so no launch pays for it.
    if not compileall.compile_dir(SRC, quiet=1):
        print("error: poissonkit sources do not compile", file=sys.stderr)
        return 2

    names = [args.workload] if args.workload else list(WORKLOADS)
    modes = [bool(args.trace)] if args.trace is not None else [False, True]
    info = provenance(args.seed)
    print("provenance " + json.dumps(info))
    results = []
    try:
        for trace in modes:
            for name in names:
                res = run_workload(name, args.seed, args.seconds, trace)
                print_result(res)
                results.append(res)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"provenance": info, "results": results}, fh, indent=1)
            fh.write("\n")
    if len(results) == 1:
        print(result_line(results[0]))
    else:
        print(json.dumps({
            "correct": all(r["failed"] == 0 for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
