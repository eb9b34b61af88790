"""Self-test, reference recording and traced baseline of the benchmark.

    python3 perfbench/selftest.py             # smoke + perturbation (~1 min)
    python3 perfbench/selftest.py --record    # rewrite reference.json
    python3 perfbench/selftest.py --baseline  # rewrite baseline/, check layers

The default mode runs every workload on tiny grids with tracing off and on,
checks that each prints exactly the metrics of BENCHMARK.json with their units
and no failed operation, and then reruns it with `calculus.quantize_T`
wrapped to add 1e-6 relative noise, which must give a failure fraction above
zero.  `--record` runs each workload at seeds 0 and 1 (full and tiny grids)
and stores every checked value of seed 0, marking the values that do not
depend on the seed.  `--baseline` makes one untraced and one traced pass of
each full workload at seed 0, writes the top self-time entries to baseline/
and checks that each workload's layer separation holds.  Every mode exits
non-zero on a failed check.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN = BENCH_DIR / "run.py"
WORKLOADS = ("kato-N48", "modnorm-N40", "roundtrip-N128")
REF_SEED, OTHER_SEED = 0, 1


def run(workload, seed, trace, *flags):
    """Run one workload in its own process; return (result line, record)."""
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", str(trace), *flags]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    record = json.loads(Path(json.loads(lines[-2])["result_file"]).read_text())
    return result, record


def check(ok, message, failures):
    print(f"{'PASS' if ok else 'FAIL'}  {message}")
    if not ok:
        failures.append(message)


def smoke(failures):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
            1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            result, _ = run(workload, REF_SEED, trace, "--smoke")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            for name, unit in got.items():
                print(f"      {workload} trace={trace}  {name} [{unit}] = "
                      f"{result['metrics'][name]['value']}")
            check(sorted(result) == ["attempted", "correct", "failed", "metrics"]
                  and result["attempted"] >= 1,
                  f"{workload} trace={trace}: result keys", failures)
            check(got == want[trace],
                  f"{workload} trace={trace}: metric names and units match "
                  f"BENCHMARK.json", failures)
            check(result["correct"] and result["failed"] == 0,
                  f"{workload} trace={trace}: {result['failed']} of "
                  f"{result['attempted']} operations failed", failures)
        result, _ = run(workload, REF_SEED, 0, "--smoke", "--perturb")
        frac = result["failed"] / result["attempted"]
        check(frac > 0 and not result["correct"],
              f"{workload} with perturbed quantize_T: fail_frac = "
              f"{result['failed']}/{result['attempted']} = {frac:.3f} > 0", failures)


def record(failures):
    reference = {}
    for smoke_flag in ((), ("--smoke",)):
        for workload in WORKLOADS:
            values = {}
            for seed in (REF_SEED, OTHER_SEED):
                result, rec = run(workload, seed, 0, *smoke_flag)
                check(result["correct"], f"{workload}{smoke_flag} seed {seed}: "
                      f"{result['failed']} failed", failures)
                values[seed] = rec["values"]
            key = workload + ("@smoke" if smoke_flag else "")
            reference[key] = {"seed": REF_SEED, "values": {
                name: [v, values[OTHER_SEED].get(name) == v]
                for name, v in sorted(values[REF_SEED].items())}}
            print(f"      {key}: {len(reference[key]['values'])} values, "
                  f"{sum(i for _, i in reference[key]['values'].values())} "
                  f"seed-independent")
    if not failures:
        (BENCH_DIR / "reference.json").write_text(
            json.dumps(reference, indent=1, sort_keys=True) + "\n")


def baseline(failures):
    layers = {}
    for workload in WORKLOADS:
        result, rec = run(workload, REF_SEED, 1)
        check(result["correct"], f"{workload} traced: {result['failed']} failed",
              failures)
        m = {k: v["value"] for k, v in result["metrics"].items()}
        wall, traced_wall = rec["pass_s"][0], rec["traced_pass_s"][0]
        top = sorted(((v, k) for k, v in m.items()
                      if k.endswith(".self_s") and k.count(".") == 2), reverse=True)
        out = {"workload": workload, "seed": REF_SEED,
               "environment": rec["environment"], "wall_s": wall,
               "traced_wall_s": traced_wall,
               "trace.overhead_s": m["trace.overhead_s"],
               "top_self_s": [[k, v, v / traced_wall] for v, k in top[:8]],
               "module_self_s": {k: v for k, v in m.items()
                                 if k.endswith(".self_s") and k.count(".") == 1},
               "metrics": m}
        (BENCH_DIR / "baseline").mkdir(exist_ok=True)
        (BENCH_DIR / "baseline" / f"{workload}.json").write_text(
            json.dumps(out, indent=1) + "\n")
        layers[workload] = (m, traced_wall)
        print(f"      {workload}: wall_s {wall:.2f}, traced {traced_wall:.2f} s; "
              f"top self time (share of the traced pass):")
        for k, v, share in out["top_self_s"][:5]:
            print(f"        {k:48s} {v:7.3f} s  {100 * share:5.1f}%")

    def calls(workload, name):
        return layers[workload][0][f"{name}.calls"]

    # self times partition the traced pass, so compare them with its wall time
    m, wall = layers["kato-N48"]
    share = (m["katoschatten.self_s"] + m["weylrep.self_s"]) / wall
    check(share >= 0.75, f"kato-N48: katoschatten + weylrep self time is "
          f"{100 * share:.1f}% of the pass (>= 75%)", failures)
    m, wall = layers["modnorm-N40"]
    share = m["spaces.self_s"] / wall
    check(share >= 0.75, f"modnorm-N40: spaces self time is {100 * share:.1f}% "
          f"of the pass (>= 75%)", failures)
    for name, home in (("katoschatten.kato_synthesis", "kato-N48"),
                       ("weylrep.u_conjugator_batch", "kato-N48"),
                       ("weylrep.orthogonality_integral", "kato-N48"),
                       ("spaces.modulation_norms", "modnorm-N40"),
                       ("weylrep.weyl_standard", "roundtrip-N128")):
        counts = {w: calls(w, name) for w in WORKLOADS}
        check(counts[home] > 0 and all(c == 0 for w, c in counts.items() if w != home),
              f"{name} is called on {home} only: {counts}", failures)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--record", action="store_true")
    mode.add_argument("--baseline", action="store_true")
    args = p.parse_args()
    failures = []
    if args.record:
        record(failures)
    elif args.baseline:
        baseline(failures)
    else:
        smoke(failures)
    print(f"{len(failures)} failed check(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
