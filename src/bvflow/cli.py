"""Command-line front end.

Subcommands: ``catalog``, ``run <config>``, ``check [--fast|--full]``,
``fit <csv> <ycol> <xcol>``.  ``run`` executes every scenario file,
multi-gamma and multi-epsilon ones included.

Exit codes: 0 success, 1 failed checks, 2 configuration or validation
errors, 3 non-transversal crossing or runaway trajectory.  Any scenario
value that ``run`` rejects exits 2 with a ``config error:`` line naming
its key, before any output is written.

``--threads`` (or the RFL_THREADS environment variable) caps the thread
pools of the numerical backends, overriding any preset
``OMP_NUM_THREADS``-style variable; it is applied before numpy is
imported, which is why the heavy imports below live inside functions.
A count that is not a positive integer exits 2 with one ``error:`` line,
before numpy loads.  Results do not depend on the thread count.
"""

from __future__ import annotations

import argparse
import os
import sys

__all__ = ["main"]


def _apply_threads(n):
    """Cap the thread pools at ``n`` (the ``--threads`` value), else at
    RFL_THREADS.  Returns an error line, and sets nothing, when the count
    is not a positive integer."""
    source = "--threads"
    if n is None:
        n, source = os.environ.get("RFL_THREADS"), "RFL_THREADS"
    if n is None:
        return None
    try:
        count = int(n)
    except ValueError:
        count = 0
    if count < 1:
        return f"{source} must be a positive integer, got {n!r}"
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        os.environ[var] = str(count)
    return None


def _cmd_catalog(_args) -> int:
    from . import catalog as cat

    header = f"{'id':<3} {'class':<13} {'jumps':<6} jump data (offset: xi, eta, sigma)"
    print(header)
    print("-" * len(header))
    for fid in cat.FIELD_IDS:
        fld = cat.get_field(fid)
        if not fld.jumps:
            print(f"{fid:<3} {fld.classification:<13} {'none':<6}")
            continue
        parts = []
        for j in fld.jumps:
            xi = ",".join(f"{v:+.3f}" for v in j.xi)
            eta = ",".join(f"{v:+.3f}" for v in j.eta)
            parts.append(f"s={j.offset:g}: xi=({xi}) eta=({eta}) sigma={j.sigma:g}")
        print(f"{fid:<3} {fld.classification:<13} {len(fld.jumps):<6} {'; '.join(parts)}")
    return 0


def _cmd_run(args) -> int:
    from . import experiments as exp

    cfg = exp.parse_config(args.config)
    paths = exp.run_scenario(cfg)
    for kind, path in paths.items():
        print(f"{kind}: {path}")
    return 0


def _cmd_check(args) -> int:
    from . import experiments as exp

    results = exp.run_checks(fast=not args.full)
    width = max(len(r.name) for r in results)
    failures = 0
    for r in results:
        status = "pass" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  {status}  {r.detail}")
        failures += 0 if r.passed else 1
    print(f"{len(results) - failures}/{len(results)} invariants passed")
    return 0 if failures == 0 else 1


def _cmd_fit(args) -> int:
    import csv

    from . import experiments as exp

    with open(args.csv, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        print("error: empty csv", file=sys.stderr)
        return 2
    for col in (args.ycol, args.xcol):
        if col not in rows[0]:
            print(
                f"error: column {col!r} not in {sorted(rows[0])}", file=sys.stderr
            )
            return 2
    y = [float(r[args.ycol]) for r in rows]
    x = [float(r[args.xcol]) for r in rows]
    try:
        slope, stderr = exp.fit_rate(y, x)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"slope {slope:.6f} stderr {stderr:.2e} ({len(x)} points)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bvflow",
        description="numerical laboratory for a.e. flows of BV vector fields",
    )
    parser.add_argument("--threads", default=None,
                        help="cap numerical thread pools (RFL_THREADS fallback)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("catalog", help="list catalog fields and their jump data")
    p_run = sub.add_parser("run", help="execute a scenario file")
    p_run.add_argument("config")
    p_check = sub.add_parser("check", help="run the invariant battery")
    mode = p_check.add_mutually_exclusive_group()
    mode.add_argument("--fast", action="store_true", default=True)
    mode.add_argument("--full", action="store_true", default=False)
    p_fit = sub.add_parser("fit", help="log-log rate fit of a csv column")
    p_fit.add_argument("csv")
    p_fit.add_argument("ycol")
    p_fit.add_argument("xcol")

    args = parser.parse_args(argv)
    error = _apply_threads(args.threads)
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    from . import experiments as exp
    from .flow import NonTransversalCrossingError, RunawayTrajectoryError

    handlers = {
        "catalog": _cmd_catalog,
        "run": _cmd_run,
        "check": _cmd_check,
        "fit": _cmd_fit,
    }
    try:
        return handlers[args.command](args)
    except exp.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NonTransversalCrossingError, RunawayTrajectoryError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
