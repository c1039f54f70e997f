"""stab3 benchmark: one command that times a workload, checks it, prints metrics.

    python3 perfbench/run.py --workload verify-p7 --seed 1 --seconds 30 --trace 0

Run it from the repository root; it times the sources under `src/`.  The
load is a closed loop in one process with no threads: each iteration starts
a fresh interpreter (child.py) that sets the workload up, runs it once with
its checks and reports, and the next starts after it ends.  Iterations go
on until --seconds have passed, and at least MIN_RUNS are made.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: medians over
the iterations of the run time and of the set-up time, each also in units
of a reference loop timed during it (child.SpeedProbe), and of peak RSS.
Set-up-only iterations, interleaved, add set-up samples.  The plain run
wall time is printed too.  --trace 1 alternates untraced and traced
iterations; it reports the per-layer metrics of BENCHMARK.json as medians
over the traced ones, and the tracing overhead against the untraced
median.  Wall time comes only from untraced runs.

Every iteration's outputs are checked against golden digests recorded from
the seed commit (golden.json).  A mismatch, a non-zero exit or a crash
counts its operations as failed; it does not stop the benchmark.  If no
iteration completes, the result has correct false and no metrics.  The
last line of stdout is one JSON object {correct, attempted, failed,
metrics}; the lines before it are a readable report.  The full record,
with the environment at start and end, goes to perfbench/out/.

`--record-golden` runs each workload once and rewrites golden.json.  Only
do that on a commit whose certificates are meant to change.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
CHILD = os.path.join(HERE, "child.py")
GOLDEN = os.path.join(HERE, "golden.json")
MIN_RUNS = 3
MIN_TRACED_RUNS = 4  # two untraced, two traced
SETUP_SHARE = 0.04  # least share of the measured time that set-up takes
DEADLINE_S = 170  # the whole benchmark ends within this many seconds

sys.path.insert(0, HERE)
import workloads  # noqa: E402
from child import REFUSED  # noqa: E402


class BenchError(Exception):
    """The benchmark cannot measure here; exit non-zero without a result."""


def git_sha(root):
    """Commit of the checkout, read from .git without running git; None if absent."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def environment(seed):
    return {
        "time": time.time(),
        "python": sys.version.split()[0],
        "executable": sys.executable,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_sha": git_sha(ROOT),
        "seed": seed,
        "loadavg": list(os.getloadavg()),
    }


def run_child(request, timeout):
    """One iteration in a fresh interpreter: (result dict or None, error text)."""
    # A fixed hash seed steadies dict and set timings; cached bytecode keeps
    # compilation out of set-up, as for an installed package.
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    try:
        proc = subprocess.run([sys.executable, CHILD], input=json.dumps(request),
                              capture_output=True, text=True, timeout=timeout,
                              cwd=ROOT, env=env)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        return None, f"timed out after {timeout:.0f} s"
    if proc.returncode == REFUSED:
        raise BenchError(proc.stderr.strip())
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        return None, f"exit code {proc.returncode}: {' | '.join(tail)}"
    return json.loads(lines[-1]), None


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def measure(wl, seed, seconds, trace, golden):
    """Closed loop of child runs; returns the record of this benchmark run."""
    inputs = wl.inputs(seed)
    expected = len(wl.expected_ops(inputs, golden))
    os.makedirs(os.path.join(OUT, "tmp"), exist_ok=True)
    os.makedirs(os.path.join(OUT, "spans"), exist_ok=True)
    start = time.monotonic()
    plain, traced, setups, errors = [], [], [], []
    attempted = failed = 0
    run_id = 0
    while run_id < (MIN_TRACED_RUNS if trace else MIN_RUNS) or time.monotonic() - start < seconds:
        left = DEADLINE_S - (time.monotonic() - start)
        if left < 1:
            break
        with_trace = bool(trace) and run_id % 2 == 1
        request = {
            "workload": wl.name, "seed": seed, "run_id": run_id, "inputs": inputs,
            "golden": golden, "trace": with_trace, "src": SRC,
            "tmp_dir": os.path.join(OUT, "tmp"),
            "spans_path": os.path.join(OUT, "spans", f"{wl.name}-seed{seed}-run{run_id}.csv.gz"),
        }
        result, error = run_child(request, left)
        run_id += 1
        if result is None:
            attempted += expected + with_trace
            failed += expected + with_trace
            errors.append((run_id - 1, error))
            continue
        attempted += result["attempted"]
        failed += len(result["failures"])
        errors += [(run_id - 1, f"{op}: {why}") for op, why in result["failures"]]
        (traced if with_trace else plain).append(result)
        # Set-up lasts tens of ms on two workloads, too few samples for a
        # steady median, so set-up-only iterations follow until set-up has
        # taken SETUP_SHARE of the time.  Each is one operation.
        while not trace and sum(r["setup_s"] for r in plain + setups) < (
                SETUP_SHARE * (time.monotonic() - start)):
            left = DEADLINE_S - (time.monotonic() - start)
            if left < 1:
                break
            result, error = run_child(dict(request, setup_only=True), left)
            attempted += 1
            if result is None:
                failed += 1
                errors.append((run_id - 1, f"set-up: {error}"))
                break
            setups.append(result)
    return {"inputs": inputs, "plain": plain, "traced": traced, "setups": setups,
            "errors": errors, "attempted": attempted, "failed": failed}


def median_of(results, key):
    return statistics.median(r[key] for r in results)


def end_to_end(plain, setups):
    setups = plain + setups
    values = {
        "wall_s": [r["wall_s"] for r in plain],
        "wall_ref": [r["wall_ref"] for r in plain],
        "setup_s": [r["setup_s"] for r in setups],
        "setup_ref": [r["setup_ref"] for r in setups],
        "peak_rss_mib": [r["maxrss_kib"] / 1024 for r in plain],
    }
    return {name: (statistics.median(v), *quartiles(v), len(v)) for name, v in values.items()}


def per_layer(plain, traced):
    names = traced[0]["layers"].keys()
    out = {name: statistics.median(r["layers"][name] for r in traced) for name in names}
    out["trace.overhead_ratio"] = median_of(traced, "wall_s") / median_of(plain, "wall_s") - 1
    return out


def record_golden():
    golden = {}
    for wl in workloads.WORKLOADS.values():
        inputs = wl.inputs(0)
        request = {"workload": wl.name, "seed": 0, "run_id": 0, "inputs": inputs,
                   "golden": {}, "trace": False, "src": SRC, "record": True,
                   "tmp_dir": os.path.join(OUT, "tmp")}
        os.makedirs(request["tmp_dir"], exist_ok=True)
        result, error = run_child(request, 600)
        if result is None:
            raise BenchError(f"{wl.name}: {error}")
        problems = result["failures"] + [
            (op, why) for op, (_, why) in result["observed"].items() if why]
        if problems:
            raise BenchError(f"{wl.name}: {problems[:3]}")
        golden[wl.name] = {op: dig for op, (dig, _) in sorted(result["observed"].items())
                           if dig is not None}
        print(f"{wl.name}: {len(golden[wl.name])} digests")
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)
    try:
        if sys.flags.optimize:
            raise BenchError("refusing to run under -O: stab3's assert checks would vanish")
        if not os.path.isfile(os.path.join(SRC, "stab3", "__init__.py")):
            raise BenchError(f"no stab3 sources under {SRC}")
        if args.record_golden:
            record_golden()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        with open(GOLDEN, encoding="utf-8") as fh:
            golden = json.load(fh)[args.workload]
        return report(args, spec, golden)
    except (BenchError, OSError, KeyError) as exc:
        sys.stderr.write(f"benchmark error: {type(exc).__name__}: {exc}\n")
        return 2


def report(args, spec, golden) -> int:
    wl = workloads.WORKLOADS[args.workload]
    env_start = environment(args.seed)
    rec = measure(wl, args.seed, args.seconds, args.trace, golden)
    env_end = environment(args.seed)

    print(f"# stab3 benchmark: workload={wl.name} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace}")
    for label, env in (("start", env_start), ("end", env_end)):
        print(f"# env {label}: python {env['python']}, nproc {env['nproc']}, "
            f"git {env['git_sha']}, load {env['loadavg']}")
    # A program that never completes an iteration is reported as incorrect,
    # with its failed operations and no metrics.
    measured = bool(rec["plain"]) and (bool(rec["traced"]) or not args.trace)
    e2e = end_to_end(rec["plain"], rec["setups"]) if measured else {}
    if measured:
        print(f"# interpreter flags: {rec['plain'][0]['flags']}")
    else:
        print(f"# no metrics: no {'untraced' if not rec['plain'] else 'traced'} iteration completed")
    for name, (med, q1, q3, n) in e2e.items():
        print(f"{name:<14} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  n={n}")
    ratio = rec["failed"] / rec["attempted"] if rec["attempted"] else 1.0
    print(f"ops_failed_ratio {ratio:.6g}  ops_failed {rec['failed']}  "
        f"ops_attempted {rec['attempted']}")
    for run_id, why in rec["errors"][:10]:
        print(f"# FAILED run {run_id}: {why}")

    if not measured:
        chosen, values = [], {}
    elif args.trace:
        values = per_layer(rec["plain"], rec["traced"])
        chosen = spec["per_layer"]
        print(f"# per-layer medians over {len(rec['traced'])} traced runs")
        for m in chosen:
            print(f"{m['name']:<52} {values[m['name']]:.6g} {m['unit']}")
    else:
        chosen = spec["end_to_end"]
        values = {name: v[0] for name, v in e2e.items()}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in chosen}

    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{wl.name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "env_start": env_start, "env_end": env_end,
                   "end_to_end": e2e, "ops_attempted": rec["attempted"],
                   "ops_failed": rec["failed"], "ops_failed_ratio": ratio,
                   "errors": rec["errors"][:100], "metrics": metrics,
                   "runs": rec["plain"] + rec["traced"], "setups": rec["setups"]}, fh, indent=1, default=str)
    print(f"# record: {os.path.relpath(path, ROOT)}")
    print(json.dumps({"correct": measured and rec["failed"] == 0, "attempted": rec["attempted"],
                    "failed": rec["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
