"""Benchmark command for bvflow.

Run from the root of a bvflow checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload runs in a fresh worker process (``worker.py``) whose
BLAS/OpenMP pools are pinned to one thread before numpy loads.  With
``--trace 0`` it prints the end-to-end metrics; ``setup_s`` is the
median over that worker and further set-up-only workers, since one
fresh-process set-up varies by tens of percent.  With ``--trace 1`` one
worker traces the layers and prints the per-layer metrics.  The last
line of standard output is the result as one JSON object; run records
and traces go to ``.bench_out/``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("report_strip", "crosscheck_smooth", "gronwall_rk4")
SETUP_SAMPLES = 3
DEADLINE_S = 170.0
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "bvflow", "__init__.py")):
        print("error: src/bvflow not found; run from the root of a bvflow checkout",
              file=sys.stderr)
        return 2
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    deadline = time.monotonic() + DEADLINE_S

    def worker(*extra):
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", out_dir, *extra]
        # run() kills the worker and waits for it if the deadline passes
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    try:
        result = worker()
        if not args.trace:
            samples = [result["metrics"]["setup_s"]["value"]]
            samples += [worker("--setup-only")["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
            result["metrics"]["setup_s"]["value"] = statistics.median(samples)
            result["record"]["setup_samples_s"] = samples
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError,
            IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    record = result.pop("record")
    record.update(result)
    name = f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for failure in sorted(set(record["failures"] + record.get("untraced_failures", []))):
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
