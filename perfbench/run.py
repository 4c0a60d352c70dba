"""Benchmark entry point: phantom workloads trained and located end to end.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 25 --trace 0

Each workload runs in two child processes with one BLAS and OpenMP thread:
one synthesizes the dataset, the other trains and locates on it, so the
measured process's peak RSS and the first-call cost of imports and BLAS
belong to that workload alone. `--seconds` caps the measured loop that
follows an untimed warm-up cycle: another train-and-locate cycle starts only
if it fits, and at least one runs. Timings are wall seconds corrected for the
shared host's speed (see perfbench/hostspeed.py). `--trace 0` reports the
end-to-end metrics; `--trace 1` wraps every layer's public functions and
reports per-layer self times and counts. `--workload all` runs every
workload in turn. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
TIMEOUT_S = 170  # per workload, both stages together
NAMES = ("desk", "fit")
# One BLAS/OpenMP thread, within the CPU count: the loop has one operation in
# flight, and a second BLAS thread on a shared host makes every matrix product
# wait for the slower of two contended CPUs.
BLAS_THREADS = "1"

sys.path.insert(0, ROOT)
from perfbench import metrics  # noqa: E402  (needs ROOT on the path)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--stage", choices=("setup", "measure"), help=argparse.SUPPRESS)
    ap.add_argument("--work", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def stage_main(args):
    """Run one stage of one workload in this process; print its result."""
    sys.path.insert(0, SRC)
    import planefinder
    if not os.path.abspath(planefinder.__file__).startswith(SRC + os.sep):
        raise SystemExit("planefinder imported from %s, not %s" % (planefinder.__file__, SRC))
    from perfbench import workloads
    if args.stage == "setup":
        result = workloads.set_up(args.workload, args.seed, args.trace, ROOT, args.work)
    else:
        result = workloads.measure(args.workload, args.seed, args.seconds, args.trace,
                                   ROOT, args.work)
    print(json.dumps(result))
    return 0


def run_stage(stage, name, args, work, deadline):
    """Run one stage in a fresh interpreter; returns its result or None."""
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS=BLAS_THREADS, OPENBLAS_NUM_THREADS=BLAS_THREADS,
               MKL_NUM_THREADS=BLAS_THREADS)
    cmd = [sys.executable, os.path.abspath(__file__), "--stage", stage, "--work", work,
           "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print("%s %s: no result within %d s" % (name, stage, TIMEOUT_S), file=sys.stderr)
        return None
    if proc.returncode != 0:
        print("%s %s: exit code %d" % (name, stage, proc.returncode), file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name, args):
    """Set-up stage, then measured stage; returns the workload's result."""
    deadline = time.monotonic() + TIMEOUT_S
    work = os.path.join(ROOT, ".bench_work", "%s-s%d-%d" % (name, args.seed, os.getpid()))
    os.makedirs(work)
    try:
        setup = run_stage("setup", name, args, work, deadline)
        measured = setup and run_stage("measure", name, args, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not measured:
        return None
    if args.trace:
        values = metrics.per_layer(
            metrics.merge(dict(setup["self_s"]), measured["self_s"]),
            metrics.merge(dict(setup["counts"]), measured["counts"]),
            setup["overhead_s"] + measured["overhead_s"])
    else:
        values = metrics.end_to_end([s + measured["fill_s"] for s in setup["setup_s"]],
                                    measured["train_s"], measured["locate_s"],
                                    measured["peak_rss_mb"])
    measured["slowdown"] = setup["slowdown"] + measured["slowdown"]
    measured["samples"] = {"setup_s": len(setup["setup_s"]),
                           "train_s": len(measured["train_s"]),
                           "locate_s": len(measured["locate_s"])}
    return {"correct": not measured["problems"], "attempted": measured["attempted"],
            "failed": measured["failed"],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
            "detail": measured}


def report(name, result):
    """Human-readable lines: environment, outputs, and every metric by name."""
    d = result["detail"]
    print("# %s env %s" % (name, json.dumps(d["env"], sort_keys=True)))
    print("# %s bundle_hash %s samples %s" % (name, d["bundle_hash"], json.dumps(d["samples"])))
    for key in ("train_s", "locate_s"):
        print("# %s %s samples %s" % (name, key, " ".join("%.4f" % v for v in d[key])))
    print("# %s mean host slowdown during each timed operation %s" % (
        name, " ".join("%.2f" % v for v in d["slowdown"])))
    for key, ranking in d["rankings"].items():
        print("# %s locate %s top5 %s" % (name, key, ranking[:5]))
    print("# %s ground-truth rank per locate %s" % (name, d["truth_rank"]))
    if d.get("traced_minus_untraced_s") is not None:
        print("# %s traced minus untraced cycle %.3f s" % (name, d["traced_minus_untraced_s"]))
    for line in d["errors"] + d["problems"]:
        print("# %s FAIL %s" % (name, line))
    rows = [(k, m["value"], m["unit"]) for k, m in result["metrics"].items()]
    if d["volume_f1"] is not None:
        rows.append(("volume_f1", d["volume_f1"], "ratio"))
    rows.append(("error_rate", d["failed"] / d["attempted"], "ratio"))
    for metric, value, unit in rows:
        print("%-6s %-40s %14.6g %s" % (name, metric, value, unit))


def main(argv=None):
    args = parse_args(argv)
    if args.stage:
        return stage_main(args)
    if not os.path.isfile(os.path.join(SRC, "planefinder", "__init__.py")):
        print("no planefinder sources under %s" % SRC, file=sys.stderr)
        return 2
    names = NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result = run_workload(name, args)
        if result is None:
            return 1
        report(name, result)
        results[name] = result
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
    }
    if len(names) == 1:
        summary["metrics"] = results[names[0]]["metrics"]
    else:
        summary["metrics"] = {"%s.%s" % (n, k): m for n, r in results.items()
                              for k, m in r["metrics"].items()}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
