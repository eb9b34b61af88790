"""Run one symplecta benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload kato-N48 --seed 1 --seconds 38 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory and nowhere else.  BLAS threads are pinned to BLAS_THREADS before
numpy loads.  The run repeats whole passes of the workload (with --trace 1,
pairs of an untraced and a traced pass) while the next one is expected to end
within `--seconds` of pass time, at least once, and reports medians.

--trace 0 reports the end-to-end metrics: wall_s (median pass), setup_s
(median over SETUP_PROBES fresh processes, run between the passes, of the time
from process start until the inputs are ready) and peak_rss_mb.  --trace 1 alternates untraced and
traced passes and reports the per-layer metrics of tracer.py plus
trace.overhead_s.  The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``; the environment record and
the failures go to the line before it and to ``.bench_work/``.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".bench_work"
REFERENCE = BENCH_DIR / "reference.json"
BLAS_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5
PERTURBATION = 1e-6


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true",
                   help="tiny grids, for the self-test")
    p.add_argument("--perturb", action="store_true",
                   help="add relative noise to calculus.quantize_T (self-test)")
    p.add_argument("--probe-setup", action="store_true",
                   help="internal: set up, print 'ready' and exit")
    return p.parse_args(argv)


def pin_threads():
    inherited = {v: os.environ.get(v) for v in THREAD_VARS}
    for v in THREAD_VARS:
        os.environ[v] = str(BLAS_THREADS)
    return inherited


def import_program():
    pkg = ROOT / "src" / "symplecta" / "__init__.py"
    if not pkg.is_file():
        raise SystemExit(f"symplecta sources not found under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import symplecta
    if Path(symplecta.__file__).resolve() != pkg.resolve():
        raise SystemExit(f"imported symplecta from {symplecta.__file__}, "
                         f"not from {pkg}")


def environment(seed, inherited):
    import numpy as np
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: {f: deps[k].get(f) for f in
                     ("name", "version", "openblas configuration")}
                 for k in ("blas", "lapack") if k in deps},
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "thread_env_inherited": inherited,
        "machine": platform.machine(),
        "seed": seed,
    }


def workdir_for(args):
    return WORK_DIR / (f"{args.workload}-s{args.seed}-t{args.trace}"
                       f"{'-smoke' if args.smoke else ''}-{os.getpid()}")


def probe_setup_time(args):
    """Seconds from the start of a fresh process until its inputs are ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds", "0",
           "--trace", "0", "--probe-setup"] + (["--smoke"] if args.smoke else [])
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        rest = proc.stdout.read()
        if proc.wait() != 0 or line.strip() != "ready":
            raise SystemExit(f"setup probe failed: {line}{rest}")
    return elapsed


def perturb_quantize(tracer, seed):
    """Wrap calculus.quantize_T to add PERTURBATION relative noise."""
    import numpy as np
    original = tracer.current("calculus.quantize_T")
    rng = np.random.default_rng(seed)

    def noisy(*args, **kwargs):
        A = original(*args, **kwargs)
        return A * (1 + PERTURBATION * rng.standard_normal(A.shape))
    return tracer.patch_everywhere(original, noisy)


def load_reference(key):
    if not REFERENCE.is_file():
        return {}, None
    entry = json.loads(REFERENCE.read_text()).get(key, {})
    return entry.get("values", {}), entry.get("seed")


def main(argv=None):
    args = parse_args(argv)
    inherited = pin_threads()
    import_program()
    import tracer
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from "
                         f"{sorted(workloads.WORKLOADS)}")
    setup, run_pass = workloads.WORKLOADS[args.workload]
    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    workdir = workdir_for(args)
    workloads.fresh_dir(workdir)
    try:
        if args.probe_setup:
            setup(args.seed, sizes, workdir)
            print("ready", flush=True)
            return 0
        inputs = setup(args.seed, sizes, workdir)
        ref_key = args.workload + ("@smoke" if args.smoke else "")
        checker = workloads.Checker(args.seed, *load_reference(ref_key))
        if args.perturb:
            perturb_quantize(tracer, args.seed)
        out = workloads.pass_dir_of(workdir)

        def one_pass(trace):
            workloads.fresh_dir(out)
            spans = tracer.Tracer() if trace else None
            if spans:
                spans.install()
            t0 = time.perf_counter()
            try:
                csvs = run_pass(inputs, checker, out)
            finally:
                elapsed = time.perf_counter() - t0
                if spans:
                    spans.uninstall()
            return elapsed, csvs, spans

        # Setup probes run between passes, so that their median spans the run.
        setup_times = []
        probes = 0 if args.trace else SETUP_PROBES
        # Every pass must write the same report CSVs as the first, untraced one.
        untraced, traced, first = [], [], None
        while True:
            if len(setup_times) < probes:
                setup_times.append(probe_setup_time(args))
            elapsed, csvs, _ = one_pass(False)
            untraced.append(elapsed)
            if first is None:
                first = csvs
            else:
                checker.op(f"csv-identical/untraced/{len(untraced)}", csvs == first)
            if args.trace:
                elapsed, csvs, spans = one_pass(True)
                traced.append((elapsed, spans))
                checker.op(f"csv-identical/traced/{len(traced)}", csvs == first)
            # start another step only if it should end within --seconds
            spent = sum(untraced) + sum(t for t, _ in traced)
            if spent * (len(untraced) + 1) / len(untraced) > args.seconds:
                break
        while len(setup_times) < probes:
            setup_times.append(probe_setup_time(args))

        if args.trace:
            summaries = [s.summary() for _, s in traced]
            metrics = {name: {"value": statistics.median(s[name] for s in summaries),
                              "unit": unit}
                       for name, unit in tracer.metric_names()
                       if name != "trace.overhead_s"}
            metrics["trace.overhead_s"] = {
                "value": statistics.median(t for t, _ in traced)
                - statistics.median(untraced), "unit": "s"}
        else:
            metrics = {
                "wall_s": {"value": statistics.median(untraced), "unit": "s"},
                "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
                "peak_rss_mb": {"value": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
            }
        env = environment(args.seed, inherited)
        record = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "smoke": args.smoke, "perturb": args.perturb, "environment": env,
            "pass_s": untraced, "traced_pass_s": [t for t, _ in traced],
            "setup_probe_s": setup_times, "metrics": metrics,
            "values": checker.values, "failures": checker.failures,
            "spans": [s.spans for _, s in traced],
        }
        result_path = WORK_DIR / (f"result-{args.workload}-s{args.seed}-t{args.trace}"
                                  f"{'-smoke' if args.smoke else ''}.json")
        result_path.write_text(json.dumps(record) + "\n")
        print(json.dumps({"environment": env, "result_file": str(result_path),
                          "failures": [f.splitlines()[0] for f in checker.failures]}))
        print(json.dumps({"correct": checker.failed == 0,
                          "attempted": checker.attempted,
                          "failed": checker.failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
