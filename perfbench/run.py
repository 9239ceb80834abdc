"""devoc benchmark: one workload per invocation, result as the last stdout line.

    python3 perfbench/run.py --workload corpus-1px --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

Run from the repository root. The library is imported from ./src of this
checkout; without it the benchmark exits 2 and prints no result. `all` runs
every workload in its own child process and exits 1 unless each is correct. With
`--trace 0` the result holds the end-to-end metrics, with `--trace 1` the
per-layer metrics of a traced run (spans go to .perfbench-out/). See
perfbench/README.md for the definitions.
"""

from __future__ import annotations

import os
import sys

# One process and one thread, BLAS included, set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def code_digest():
    """Hash of the library and benchmark sources: ledger entries from other
    code versions are never compared."""
    h = hashlib.sha256()
    for base in (SRC, HERE):
        for d, dirs, files in sorted(os.walk(base)):
            dirs[:] = sorted(x for x in dirs if x != "__pycache__")
            for f in sorted(files):
                if f.endswith(".py"):
                    path = os.path.join(d, f)
                    h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()


def check_ledger(outdir, run, outcome):
    """Runs of the same workload, size, seed and code must agree on the
    fingerprint and, when both were traced, on every exact count."""
    ledger = os.path.join(outdir, "ledger")
    os.makedirs(ledger, exist_ok=True)
    key = "%s-%s-%d-%s.json" % (run.workload, run.size, run.seed, code_digest()[:16])
    path = os.path.join(ledger, key)
    entry = {"fingerprint": outcome.fingerprint, "counts": outcome.counts}
    if os.path.exists(path):
        with open(path) as fh:
            old = json.load(fh)
        if old["fingerprint"] != outcome.fingerprint:
            outcome.errors.append("fingerprint differs from an earlier run of this seed")
        if old["counts"].keys() == outcome.counts.keys() and old["counts"] != outcome.counts:
            outcome.errors.append("exact counts differ from an earlier run of this seed")
        if len(old["counts"]) > len(outcome.counts):
            entry = old
    tmp = path + ".tmp.%d" % os.getpid()
    with open(tmp, "w") as fh:
        json.dump(entry, fh, sort_keys=True)
    os.replace(tmp, path)


def run_all(args, names):
    correct = True
    for name in names:
        argv = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds)]
        argv += ["--trace", str(args.trace), "--size", args.size]
        print("== %s" % name, flush=True)
        proc = subprocess.run([sys.executable, os.path.abspath(__file__)] + argv, stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="", flush=True)
        lines = proc.stdout.splitlines()
        correct = correct and proc.returncode == 0 and bool(lines) and json.loads(lines[-1])["correct"]
    return 0 if correct else 1


def main(argv=None):
    if not os.path.isfile(os.path.join(SRC, "devoc", "__init__.py")):
        print("error: no devoc sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads  # imports devoc from SRC

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args, list(workloads.WORKLOADS))

    outdir = os.path.join(ROOT, ".perfbench-out")
    workdir = os.path.join(ROOT, ".perfbench-work", "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(outdir, exist_ok=True)
    os.makedirs(workdir)
    # a terminated run still removes its scratch files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    run = workloads.Run(args.workload, args.seed, args.seconds, bool(args.trace), args.size, workdir, outdir)
    try:
        outcome = workloads.WORKLOADS[args.workload](run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if outcome.fingerprint:
        check_ledger(outdir, run, outcome)

    for note in outcome.notes:
        print(note)
    print("fingerprint %s" % outcome.fingerprint)
    print("counts %s" % json.dumps(outcome.counts, sort_keys=True))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    if outcome.metrics:
        if set(outcome.metrics) != {m["name"] for m in declared}:
            outcome.errors.append("measured metrics differ from those BENCHMARK.json declares")
        for m in declared:
            value = outcome.metrics.get(m["name"], 0.0)
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            print("%-48s %14.6f %s" % (m["name"], value, m["unit"]))
    for err in outcome.errors[:20]:
        print("error: %s" % err, file=sys.stderr)
    result = {
        "correct": not outcome.errors,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
