"""One benchmark process: set up a workload, time whole passes, check them.

Started by ``run.py`` in a fresh interpreter whose BLAS/OpenMP pools are
pinned to one thread before numpy loads.  Prints one JSON object.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                            --out DIR [--setup-only]
"""

import time

_T0 = time.perf_counter()  # set-up time starts before numpy and bvflow load

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402


def run_pass(wl, state):
    """Run every case once; returns (seconds, outputs, exceptions)."""
    outputs, raised = [], []
    t0 = time.perf_counter()
    for name, case in wl.cases:
        try:
            outputs.append(case(state))
        except Exception as exc:  # one failed operation; the pass goes on
            outputs.append(None)
            raised.append(f"{name}: {type(exc).__name__}: {exc}")
    return time.perf_counter() - t0, outputs, raised


class Passes:
    """Pass times, failures and the first pass's errors, over one run."""

    def __init__(self, wl, state):
        self.wl, self.state = wl, state
        self.times, self.failures, self.failed, self.errors = [], [], 0, None

    def one(self, tracer=None, snapshots=None):
        """Time one pass (traced if ``tracer``), then check it."""
        if tracer is not None:
            tracer.active = True
        dt, outputs, raised = run_pass(self.wl, self.state)
        if tracer is not None:
            tracer.active = False
            tracer.keep_spans = False  # spans of the set-up and the first traced pass only
            snapshots.append(tracer.snapshot())
        self.times.append(dt)
        self.failed += len(raised)
        self.failures += raised
        if not raised:
            self.failures += self.wl.check(self.state, outputs)
            errs = self.wl.errors(outputs)
            if self.errors is None:
                self.errors = errs
            elif errs != self.errors:
                self.failures.append("errors differ between passes of identical input")

    @property
    def attempted(self):
        return len(self.times) * len(self.wl.cases)


def gmean(values):
    return float(np.exp(np.mean(np.log(values)))) if values else 0.0


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    wl = workloads.WORKLOADS[args.workload]

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.keep_spans = True
        tracer.install()
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.out)
    try:
        state = wl.setup(args.seed, workdir)
        setup_s = time.perf_counter() - _T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        record = {"workload": args.workload, "seed": args.seed, "setup_s": setup_s}
        if tracer is None:
            passes = Passes(wl, state)
            start = time.perf_counter()
            while time.perf_counter() - start < args.seconds:
                passes.one()
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "pass_p50_s": {"value": statistics.median(passes.times), "unit": "s"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
                "err_gmean": {"value": gmean(passes.errors or []), "unit": "1"},
            }
        else:
            tracer.active = False
            setup_snapshot = tracer.snapshot()
            tracer.uninstall()
            plain, passes, snapshots = Passes(wl, state), Passes(wl, state), []
            start = time.perf_counter()
            # untraced and traced passes alternate, so that both see the same
            # machine speed and their ratio is the tracing overhead
            while time.perf_counter() - start < args.seconds:
                plain.one()
                tracer.install()
                passes.one(tracer, snapshots)
                tracer.uninstall()
            overhead = statistics.median(
                [t / u for t, u in zip(passes.times, plain.times)]) - 1.0
            metrics = layer_metrics(setup_snapshot, snapshots)
            metrics["trace.overhead_pct"] = {"value": 100.0 * overhead, "unit": "%"}
            record.update(untraced_pass_s=plain.times, untraced_failures=plain.failures)
            record["pass_counts"] = [s["counts"] for s in snapshots]
            trace_path = os.path.join(args.out, f"trace-{args.workload}-seed{args.seed}.json")
            with open(trace_path, "w", encoding="utf-8") as fh:
                json.dump({"fields": ["name", "start_s", "end_s", "parent"],
                           "spans": tracer.spans}, fh)
        record.update(pass_s=passes.times, failures=passes.failures, errors=passes.errors)
        runs = [passes] if tracer is None else [plain, passes]
        print(json.dumps({
            "correct": not any(r.failures for r in runs),
            "attempted": sum(r.attempted for r in runs),
            "failed": sum(r.failed for r in runs),
            "metrics": metrics,
            "record": record,
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
