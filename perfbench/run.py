"""The repo benchmark: one command, three workloads, checked outputs.

Usage, from the repository root::

    python3 perfbench/run.py --workload materialize --seed 1 --seconds 40 --trace 0

``--workload`` is ``materialize``, ``decide`` or ``serve`` (see
``perfbench/README.md``).  The work of a run is fixed in
``perfbench/spec.json`` and sized to ``run_seconds`` of
``BENCHMARK.json``, so every seed measures the same amount of work;
``--seconds`` is accepted for that interface.  With ``--trace 0`` the run measures the
end-to-end metrics named in ``BENCHMARK.json``; with ``--trace 1`` it
makes a separate traced run and reports the per-layer metrics.  The
last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The package is imported from ``src/`` of the checkout; nothing is
installed.  Without ``src/`` the command exits with status 2.
"""

from __future__ import annotations

import argparse
import gc
import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("materialize", "decide", "serve")


def _arguments(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--seconds", type=float, required=True,
        help="nominal run length; the work per run is fixed in spec.json",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="build the workload's inputs in this fresh process and exit (one set-up sample)",
    )
    return parser.parse_args(argv)


def _setup_seconds(args, work: Path, spec) -> float:
    """Median of several cold set-ups, each in a fresh process.

    A sample runs from spawning the process to its "ready" line, which
    it prints once the inputs are built (interpreter teardown is left
    out).  For ``materialize`` and ``decide`` the process then times
    the host-speed loop (see ``common.run_scaled``) and the sample is
    scaled by it.  The daemon's set-up is not scaled: it runs in
    another process than any loop the benchmark could time.
    """
    from common import REFERENCE_S, median, python, repo_python_env

    samples = []
    for _ in range(spec["setup_repeats"][args.workload]):
        if args.workload == "serve":
            import serve

            samples.append(serve.setup(ROOT, work))
            continue
        start = time.perf_counter()
        with subprocess.Popen(
            [python(), str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"],
            cwd=ROOT, env=repo_python_env(ROOT), stdout=subprocess.PIPE, text=True,
        ) as child:
            ready = child.stdout.readline()
            elapsed = time.perf_counter() - start
            reference = child.stdout.read().split()
            if child.wait(timeout=120) != 0 or ready.strip() != "ready" or not reference:
                raise RuntimeError(f"set-up process failed (exit {child.returncode})")
            samples.append(elapsed * REFERENCE_S / float(reference[-1]))
    return median(samples)


def _run(args, work: Path) -> dict:
    from common import load_spec, peak_rss_mb

    spec = load_spec()
    if args.workload == "serve":
        import serve

        if args.trace:
            return serve.run_traced(ROOT, work, args.seed)
        outcome = serve.run(ROOT, work, args.seed)
        outcome["setup_s"] = _setup_seconds(args, work, spec)
        return outcome
    module = __import__(args.workload)
    ops = module.setup(args.seed)
    # A user's run starts from a small heap; keep the benchmark's own
    # inputs and imports out of every later collection.
    gc.collect()
    gc.freeze()
    if args.trace:
        return module.run_traced(ops)
    outcome = module.run(ops)
    outcome["peak_rss_mb"] = peak_rss_mb()
    outcome["setup_s"] = _setup_seconds(args, work, spec)
    return outcome


def main(argv=None) -> int:
    args = _arguments(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_only:
        __import__(args.workload).setup(args.seed)
        print("ready", flush=True)
        from common import median, reference_seconds

        print(median([reference_seconds() for _ in range(5)]), flush=True)
        return 0
    from common import log

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)
    (HERE / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=HERE / ".work"))
    try:
        outcome = _run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failures = outcome["failures"]
    attempted = outcome["attempted"]
    log(f"error_rate {len(failures) / attempted:.4f} ({len(failures)} of {attempted} operations"
        " failed, were refused, wrong or lost)")
    for failure in failures[:20]:
        log(f"  FAILED {failure}")
    if args.trace:
        declared_metrics = declared["per_layer"]
        values = outcome["layers"]
    else:
        declared_metrics = declared["end_to_end"]
        values = outcome
    metrics = {}
    for metric in declared_metrics:
        # A layer a workload does not run reads 0; an end-to-end metric
        # is always measured.
        value = values.get(metric["name"], 0) if args.trace else values[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        log(f"{metric['name']} {value} {metric['unit']}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }, allow_nan=False), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
