"""Self-test of the benchmark harness.

    python3 dysonbench/selftest.py

For every workload: one minimal run (a single cycle) must report all
end-to-end metrics named in BENCHMARK.json with their units and pass its
gates; a second minimal run feeds a deliberately corrupted first output
through the workload's gate, which must count it as a failure.  A short
traced run must report every per-layer metric.  Exits 1 on any problem.
"""

import json
import os
import sys
from types import SimpleNamespace

import run

BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")


def check(cond, msg, problems):
    if not cond:
        problems.append(msg)


def main() -> int:
    run.fix_blas_threads(1)
    run.check_checkout()
    with open(BENCHMARK, encoding="utf-8") as fh:
        spec = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    for name in run.WORKLOAD_NAMES:
        args = SimpleNamespace(workload=name, seed=7, seconds=0.0, trace=0,
                               blas_threads=1, setup_probe=False)
        res, _ = run.run_workload(args, setup_probes_n=0)
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        check(got == e2e, f"{name}: end-to-end metrics {got} != {e2e}", problems)
        check(res["correct"] and res["failed"] == 0, f"{name}: clean run failed", problems)
        check(all(v["value"] > 0 for v in res["metrics"].values()),
              f"{name}: a metric reads 0", problems)

        bad, _ = run.run_workload(args, setup_probes_n=0, corrupt_first=True)
        ok_frac = bad["metrics"]["ok_frac"]["value"]
        check(bad["failed"] == 1 and not bad["correct"]
              and abs(ok_frac - (1 - 1 / bad["attempted"])) < 1e-12,
              f"{name}: corrupted output was not counted as a failure", problems)
        print(f"{name}: {res['attempted']} jobs clean, corrupted run "
              f"{bad['failed']}/{bad['attempted']} failed", flush=True)

    args = SimpleNamespace(workload="ou-entries", seed=7, seconds=0.0, trace=1,
                           blas_threads=1, setup_probe=False)
    res, _ = run.run_workload(args)
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    check(got == layers, "traced run: per-layer metrics differ from BENCHMARK.json", problems)
    for p in problems:
        print("FAIL:", p)
    print("selftest:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
