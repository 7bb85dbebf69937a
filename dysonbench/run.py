"""dysonmc benchmark: one closed-loop client issuing library jobs.

    python3 dysonbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the library is imported from its
src/ directory.  The workload seed generates the jobs; jobs run in cycles
of fixed composition until --seconds of job time have passed, and every
output goes through its workload's correctness gate.  The last line of
standard output is one JSON object with the end-to-end metrics (--trace 0)
or the per-layer metrics of a traced run (--trace 1).  A full record with
the environment is written to dysonbench/results/.

BLAS runs with --blas-threads threads (default 1, the plain single-thread
baseline).  Job latencies and set-up time are reported in normalised
seconds: CPU seconds of this process (all its threads), rescaled by the
speed of a fixed reference kernel timed next to them (see Reference).
Other load on a shared machine takes the CPU away from the benchmark and
slows the CPU it does get, for tens of seconds at a time; neither should
read as a slower program.  Wall and raw CPU times go to the record.
Set-up time is the median of three set-ups: this process and two fresh
child processes started one after another.  glibc malloc runs with fixed
thresholds (see fix_allocator), so that peak RSS is the same for the same
jobs.
"""

import argparse
import ctypes
import glob
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("limit-density", "finite-solve", "sample-verify", "ou-entries")
SETUP_PROBES = 2        # extra set-ups in child processes
UNITS = {"jobs_per_norm_s": "1/s", "job_norm_p50_s": "s", "job_norm_tail_s": "s",
         "setup_s": "s", "ok_frac": "ratio", "peak_rss_mb": "MB", "err_ratio_max": "ratio"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--blas-threads", type=int, default=1)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not 1 <= args.blas_threads <= (os.cpu_count() or 1):
        p.error("--blas-threads must lie between 1 and the number of CPUs")
    if args.seconds < 0:
        p.error("--seconds must be nonnegative")
    return args


def fix_blas_threads(n: int):
    """Must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(n)


# glibc malloc raises its mmap threshold (up to 32 MiB) and trim threshold
# as large blocks are freed, by a history that differs from run to run and
# left peak RSS of the same jobs up to 11% apart.  Fixing both at the top of
# that range keeps large arrays on the heap, as the adaptive rule ends up
# doing, and makes peak RSS repeat.  Low fixed thresholds would repeat too,
# but the page faults of a fresh mmap per array halve limit-density's speed.
MALLOC_THRESHOLDS = {"mmap": 32 << 20, "trim": 64 << 20}
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3


def fix_allocator():
    libc = ctypes.CDLL(None)
    if not hasattr(libc, "mallopt"):
        return None
    libc.mallopt(M_MMAP_THRESHOLD, MALLOC_THRESHOLDS["mmap"])
    libc.mallopt(M_TRIM_THRESHOLD, MALLOC_THRESHOLDS["trim"])
    return MALLOC_THRESHOLDS


def check_checkout():
    missing = [p for p in (os.path.join(SRC, "dysonmc", "__init__.py"),
                           os.path.join(ROOT, "models"))
               if not os.path.exists(p)]
    if missing:
        raise SystemExit(f"error: not a dysonmc checkout, missing {', '.join(missing)}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


# ---------------------------------------------------------------------------
# environment record

def _blas_runtime_threads():
    import numpy as np
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*.so*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.exists(head):
        return None
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.exists(path):
        with open(path) as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.exists(packed):
        with open(packed) as fh:
            for line in fh:
                if line.rstrip().endswith(ref[5:]):
                    return line.split()[0]
    return None


def _src_sha1():
    h = hashlib.sha1()
    for path in sorted(glob.glob(os.path.join(SRC, "dysonmc", "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def environment(blas_threads: int, malloc_thresholds) -> dict:
    import numpy as np
    import scipy
    libc = ctypes.CDLL(None)
    libc.sysconf.restype = ctypes.c_long
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "l2_bytes": libc.sysconf(191),   # _SC_LEVEL2_CACHE_SIZE
        "l3_bytes": libc.sysconf(194),   # _SC_LEVEL3_CACHE_SIZE
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_requested": blas_threads,
        "blas_threads_runtime": _blas_runtime_threads(),
        "malloc_thresholds_bytes": malloc_thresholds,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": _commit(),
        "src_sha1": _src_sha1(),
    }


# ---------------------------------------------------------------------------
# machine speed

# CPU seconds of one Reference.time() call on the machine that normalised
# seconds refer to: a job of normalised length t takes t CPU seconds on a
# machine that runs the reference kernel in REF_S
REF_S = 0.010
SETUP_REF_CALLS = 8
REF_WINDOW = 2


class Reference:
    """A fixed CPU kernel, independent of dysonmc, that tracks machine speed.

    Half LAPACK (a dense complex solve) and half interpreter loop, like the
    library's jobs.  On a shared host the CPU time of any such code drifts
    by 20-60% over tens of seconds, but the ratio of two of them stays
    within a few per cent, so a job's CPU time divided by the reference's,
    timed within the same few seconds, measures the program and not the host.
    """

    N = 160
    LOOP = 80_000

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(20160419)
        self.a = rng.standard_normal((self.N, self.N)) + 1j * rng.standard_normal((self.N, self.N))
        self.b = np.eye(self.N)
        self.solve = np.linalg.solve

    def time(self) -> float:
        c = time.process_time()
        self.solve(self.a, self.b)
        s = 0
        for i in range(self.LOOP):
            s += i * i
        return time.process_time() - c


# ---------------------------------------------------------------------------
# the closed loop

def run_cycles(wl, seconds, cycles=None, tracer=None, corrupt_first=False, ref=None):
    """Issue jobs cycle by cycle until `seconds` of job wall time have passed.

    With `cycles` given, replays exactly those job lists instead.  With a
    Reference, it is timed before every job and once after the last; the
    median of the REF_WINDOW timings on either side of a job gives its
    scale.  Returns (records, job_lists); a record is (job, wall_s, ok,
    ratios, error, cpu_s, scale, ref_s).
    """
    records, lists = [], []
    busy = 0.0
    c = 0
    while True:
        if cycles is not None:
            if c >= len(cycles):
                break
            jobs = cycles[c]
        else:
            if busy >= seconds and c > 0:
                break
            jobs = wl.cycle(c)
        lists.append(jobs)
        for job in jobs:
            ref_s = ref.time() if ref is not None else None
            if tracer is not None:
                tracer.job = job.index
                tracer.recording = True
            t, cpu = time.perf_counter(), time.process_time()
            try:
                out, err = wl.run(job), None
            except Exception as exc:  # a failed job is data, not a crash
                out, err = None, f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - t
            cpu = time.process_time() - cpu
            busy += wall
            if tracer is not None:
                tracer.recording = False
            ok, ratios = False, []
            if err is None:
                if corrupt_first and not records:
                    out = wl.corrupt(job, out)
                try:
                    ok, ratios = wl.gate(job, out)
                except Exception as exc:
                    err = f"gate {type(exc).__name__}: {exc}"
            records.append((job, wall, bool(ok), [float(r) for r in ratios], err, cpu, ref_s))
        c += 1
    if ref is None:
        return [r[:6] + (1.0, None) for r in records], lists
    # refs[i] was timed just before job i and refs[i + 1] just after it
    refs = [r[6] for r in records] + [ref.time()]
    out = []
    for i, r in enumerate(records):
        near = refs[max(0, i + 1 - REF_WINDOW):i + 1 + REF_WINDOW]
        out.append(r[:6] + (REF_S / statistics.median(near), r[6]))
    return out, lists


def tail(times, pct):
    """Nearest-rank latency at percentile pct and the number of jobs beyond it."""
    w = sorted(times)
    k = max(0, math.ceil(pct / 100.0 * len(w)) - 1)
    return w[k], len(w) - 1 - k


def end_to_end(records, setups, tail_pct):
    norm = [r[5] * r[6] for r in records]
    failed = sum(1 for r in records if not r[2])
    worst, busy, count = {}, {}, {}
    for r, t in zip(records, norm):
        c = r[0].cycle
        busy[c] = busy.get(c, 0.0) + t
        count[c] = count.get(c, 0) + 1
        if r[3]:
            worst[c] = max(worst.get(c, 0.0), max(r[3]))
    tail_s, beyond = tail(norm, tail_pct)
    values = {
        # cycles hold the same job mix, so the median over cycles of their
        # throughput discounts a cycle slowed by other load on the machine
        "jobs_per_norm_s": statistics.median(count[c] / busy[c] for c in busy),
        "job_norm_p50_s": statistics.median(norm),
        "job_norm_tail_s": tail_s,
        "setup_s": statistics.median(setups),
        "ok_frac": 1.0 - failed / len(records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        # worst ratio of a cycle, median over cycles: stable across seeds and
        # independent of how many cycles a faster program completes
        "err_ratio_max": statistics.median(worst.values()) if worst else 0.0,
    }
    metrics = {k: {"value": float(v), "unit": UNITS[k]} for k, v in values.items()}
    raw = {}
    for kind, i in (("wall", 1), ("cpu", 5)):
        t = [r[i] for r in records]
        raw[kind] = {"jobs_per_s": len(t) / sum(t), "job_p50_s": statistics.median(t),
                     "job_tail_s": tail(t, tail_pct)[0]}
    raw["scale_median"] = statistics.median(r[6] for r in records)
    return metrics, {"tail_percentile": tail_pct, "jobs_beyond_tail": beyond,
                     "jobs": len(records), "setup_samples_s": setups, "raw": raw}


def setup_probes(args, n):
    """Time n fresh set-ups in child processes, one at a time."""
    out = []
    for _ in range(n):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0",
               "--blas-threads", str(args.blas_threads), "--setup-probe"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=150, check=True)
        out.append(float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]))
    return out


def run_workload(args, setup_probes_n=SETUP_PROBES, corrupt_first=False):
    """Set up, run and measure one workload; returns (result, record)."""
    from workloads import WORKLOADS
    workdir = os.path.join(BENCH, f".work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    tracer = None
    try:
        wl = WORKLOADS[args.workload](ROOT, args.seed, workdir)
        # the reference is timed on both sides of the set-up, which runs
        # for up to a few seconds
        ref = Reference()
        refs = [ref.time() for _ in range(SETUP_REF_CALLS)]
        if args.trace:
            from spans import Tracer
            tracer = Tracer()
            tracer.install()
            tracer.job, tracer.recording = "setup", True
        wl.setup()
        setup_cpu = time.process_time() - sum(refs)
        if tracer is not None:
            tracer.recording = False
            tracer.uninstall()
        refs += [ref.time() for _ in range(SETUP_REF_CALLS)]
        setup_main = setup_cpu * REF_S / statistics.median(refs)
        if args.setup_probe:
            return {"setup_s": setup_main}, None
        info = wl.info()
        if args.trace:
            # a warm-up pass picks the jobs; they then run traced and once
            # more untraced, and the time ratio of those two is the overhead
            _, lists = run_cycles(wl, args.seconds / 3.0)
            tracer.install()
            try:
                records, _ = run_cycles(wl, 0, cycles=lists, tracer=tracer)
            finally:
                tracer.uninstall()
            plain, _ = run_cycles(wl, 0, cycles=lists)
            overhead = sum(r[1] for r in records) / sum(r[1] for r in plain) - 1.0
            metrics = tracer.summary({r[0].index: r[1] for r in records}, overhead)
            extra = {"jobs": len(records)}
        else:
            setups = [setup_main] + setup_probes(args, setup_probes_n)
            records, _ = run_cycles(wl, args.seconds, corrupt_first=corrupt_first, ref=ref)
            metrics, extra = end_to_end(records, setups, wl.TAIL_PCT)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = [r for r in records if not r[2]]
    result = {"correct": not failed, "attempted": len(records), "failed": len(failed),
              "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace,
              "environment": environment(args.blas_threads,
                                         getattr(args, "malloc_thresholds", None)),
              "workload_info": info, **extra,
              "failures": [{"job": r[0].index, "kind": r[0].kind, "error": r[4],
                            "ratios": r[3]} for r in failed[:20]],
              "jobs_run": [[r[0].cycle, r[0].kind, r[1], r[5], r[6], max(r[3], default=None),
                            r[7]] for r in records],
              "result": result}
    return result, record


def main(argv=None) -> int:
    args = parse_args(argv)
    fix_blas_threads(args.blas_threads)
    args.malloc_thresholds = fix_allocator()
    check_checkout()
    result, record = run_workload(args)
    if record is not None:
        out_dir = os.path.join(BENCH, "results")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
        summary = {k: record[k] for k in ("environment", "workload_info")}
        summary.update({k: record[k] for k in ("tail_percentile", "jobs_beyond_tail", "jobs",
                                               "raw") if k in record})
        print(json.dumps(summary, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
