"""Benchmark of the avfusion pipeline: one workload per process.

    python3 perfbench/run.py --workload desk --seed 0 --seconds 20 --trace 0

Each run measures set-up, makes one untimed warm-up pass whose outputs are
checked against independent recomputations, then repeats timed passes of
the same CLI calls for `--seconds` seconds (at least MIN_TIMED_PASSES) and
reports the median of each metric.  Every timed pass must reproduce the
warm-up's outputs byte for byte.  With `--trace 1` every second pass runs
with spans around each layer (see tracing.py) and the per-layer figures are
reported instead of the end-to-end ones.  The last line of standard output
is one JSON object: correct, attempted, failed and metrics.
"""

import argparse
import contextlib
import ctypes
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from pipeline import WORKLOADS, pass_steps

# One BLAS thread, fixed before numpy loads (numpy is imported in main).  The
# machine this was tuned on has two CPUs; with two OpenBLAS threads desk
# `evaluate` burned 3.6 s of CPU for 2.8 s of wall time and its spread
# between passes widened, because the second thread competes with the
# interpreter for the other CPU.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench-out"
SETUP_REPEATS = 5
MIN_TIMED_PASSES = 2
PASS_METRICS = ("train_mean_s", "train_mlp_s", "train_multiview_s", "evaluate_s",
                "diagnose_s", "pipeline_s")
MODULES = ("cli", "data", "evaluation", "heads", "layers", "linalg", "persistence",
           "svgplot", "training")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup():
    """Median wall time of a fresh interpreter importing the CLI.

    The workloads build no inputs outside the timed passes, so this is all
    of the set-up a user pays before the first CLI call.
    """
    code = "import sys; sys.path.insert(0, sys.argv[1]); import avfusion.cli"
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        # No timeout: with one, the wait polls with sleeps of up to 50 ms,
        # which rounds every figure to that step.
        subprocess.run([sys.executable, "-c", code, str(SRC)], check=True,
                       stdin=subprocess.DEVNULL, cwd=ROOT)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def blas_threads():
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def environment(numpy):
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def run_pass(cli_main, steps, tracer=None):
    """Runs every CLI call of a pass; returns ({metric: seconds}, exit codes)."""
    times = defaultdict(float)
    calls = []
    codes = []
    start = time.perf_counter()
    for i, (metric, argv) in enumerate(steps):
        if tracer is not None:
            tracer.call_id = i
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli_main(argv)
        except Exception as exc:  # a traceback is a failed call, not a crash
            code = repr(exc)
        calls.append(time.perf_counter() - t0)
        if metric is not None:
            times[metric] += calls[-1]
        codes.append(code)
    times["pipeline_s"] = time.perf_counter() - start
    times["calls"] = calls
    return dict(times), codes


def output_digests(work):
    digests = {}
    for dirpath, _, files in os.walk(work):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                digests[os.path.relpath(path, work)] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def record_codes(checks, name, steps, codes):
    bad = [(argv[0], code) for (_, argv), code in zip(steps, codes) if code != 0]
    return checks.record(f"{name}.exit_codes", not bad, f"non-zero: {bad}")


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "avfusion" / "__init__.py").is_file():
        print(f"perfbench: no avfusion source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy

    from refcheck import Checks
    from tracing import LAYER_UNITS, Patches, Tracer, layer_metrics
    from verify import verify_outputs

    modules = {m: importlib.import_module(f"avfusion.{m}") for m in MODULES}
    cli_main = modules["cli"].main
    workload = WORKLOADS[args.workload]
    setup_s = measure_setup()

    OUT.mkdir(exist_ok=True)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    steps = pass_steps(workload, args.seed, str(work / "out"))
    checks = Checks()
    try:
        _, codes = run_pass(cli_main, steps)
        reference = None
        if record_codes(checks, "warmup", steps, codes):
            try:
                verify_outputs(checks, workload, args.seed, str(work / "out"),
                               str(work / "check"), modules)
            except Exception as exc:  # a missing or unreadable output fails the check
                checks.record("warmup.outputs_readable", False, repr(exc))
            reference = output_digests(work / "out")

        tracer = Tracer()
        patches = Patches(tracer, modules)
        passes = {False: [], True: []}  # traced? -> [per-pass figures]
        last_spans = []
        begin = time.perf_counter()
        n = 0
        while n < MIN_TIMED_PASSES or time.perf_counter() - begin < args.seconds:
            traced = bool(args.trace) and n % 2 == 1
            if traced:
                tracer.reset()
                patches.install()
                try:
                    times, codes = run_pass(tracer.wrap("cli.self", cli_main), steps, tracer)
                finally:
                    patches.uninstall()
                times.update(layer_metrics(tracer))
                last_spans = list(tracer.spans)
            else:
                times, codes = run_pass(cli_main, steps)
            passes[traced].append(times)
            if record_codes(checks, f"pass{n}", steps, codes) and reference is not None:
                checks.record(f"pass{n}.same_outputs", output_digests(work / "out") == reference)
            n += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    def median(runs, key):
        return statistics.median(r[key] for r in runs)

    if args.trace:
        values = {k: median(passes[True], k) for k in LAYER_UNITS if k in passes[True][0]}
        values["trace.pipeline_s"] = median(passes[True], "pipeline_s")
        values["trace.overhead_s"] = values["trace.pipeline_s"] - median(
            passes[False], "pipeline_s")
    else:
        values = {k: median(passes[False], k) for k in PASS_METRICS}
        values["setup_s"] = setup_s
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    units = dict(LAYER_UNITS, peak_rss_mb="MB")
    metrics = {k: {"value": values[k], "unit": units.get(k, "s")} for k in sorted(values)}

    env = environment(numpy)
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "metrics": metrics,
              "passes": passes, "failed_checks": checks.failed}
    with open(OUT / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if args.trace:
        with open(OUT / f"{workload.name}-seed{args.seed}.trace.jsonl", "w",
                  encoding="utf-8") as fh:
            for span in last_spans:
                fh.write(json.dumps(dict(zip(
                    ("id", "parent", "call", "name", "start", "end"), span))) + "\n")
    for name, _, detail in checks.failed:
        print(f"check failed: {name}: {detail}", file=sys.stderr)
    print("environment " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": not checks.failed, "attempted": checks.attempted,
                      "failed": len(checks.failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
