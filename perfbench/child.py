"""One workload run in a fresh interpreter; started by run.py.

Reads a JSON request on stdin, imports stab3 from the request's source
directory, sets the workload up, runs it once with its checks, and prints one
JSON result line on stdout.  Set-up (importing every stab3 module plus
engine construction) and the run are timed separately, and the result
carries this process's peak resident set size, so each figure belongs to one
run.  With "setup_only" set, the child stops after set-up.  With "trace"
set, the tracer wraps stab3 before set-up and the result adds the
per-layer metrics; the spans are written to "spans_path".

The child refuses to run under `python -O`: stab3 keeps checks in bare
asserts, which -O removes, so the timing would be of a program without them.
"""

from __future__ import annotations

import json
import mmap
import os
import resource
import signal
import statistics
import sys
import tempfile
import time
from fractions import Fraction

REFUSED = 3
SETUP_PERIOD = 0.01  # seconds between speed samples during set-up
RUN_PERIOD = 0.05  # and during the run
FAULT_PAGES = 128  # fresh pages fault_loop touches


def cpu_loop():
    """Tuple-keyed dict updates, small list comprehensions, Fraction sums."""
    d = {}
    for i in range(600):
        k = ((i & 63, i % 7), i & 3)
        d[k] = d.get(k, 0) + (i * 31) % 7919
    rows = [[(x * 3 + 1) % 31 for x in range(40)] for _ in range(10)]
    s = Fraction(0)
    for i in range(1, 150):
        s += Fraction(i % 7 + 1, i % 5 + 2)
    return d, rows, s


def fault_loop():
    """Touches fresh pages of an anonymous mapping: page faults and zeroing."""
    with mmap.mmap(-1, FAULT_PAGES * mmap.PAGESIZE) as m:
        for i in range(0, len(m), mmap.PAGESIZE):
            m[i] = 1


class SpeedProbe:
    """Times a phase of a run and samples the machine's speed meanwhile.

    Every `period` seconds a SIGALRM handler times `loop`, which never
    touches stab3, and the loop is timed once more just before and just
    after the phase.  A shared host changes speed by tens of percent within
    seconds; the loop slows with it, so `ref`, the phase time over the
    loop's harmonic mean time, cancels that drift.  `elapsed` is the phase
    time without the handler's own time.  With period 0 the probe only
    times the phase.

    Which loop tracks a phase best depends on the phase.  The run and the
    engine construction compute, and of the loops tried `cpu_loop` tracked
    all three workloads' runs best.  Importing stab3 in a new interpreter
    allocates fresh memory (about 620 page faults for verify-p7); it slows
    with the host far less than `cpu_loop` does and about as much as
    `fault_loop`.
    """

    def __init__(self, period, loop=cpu_loop):
        self.period = period
        self.loop = loop
        self.samples = []
        self.ticks = []  # (start, end) of each handler call
        self.spent = 0.0  # seconds the handler took inside the phase
        self.elapsed = None

    @property
    def ref(self):
        return self.elapsed / statistics.harmonic_mean(self.samples) if self.samples else None

    def sample(self):
        t0 = time.perf_counter()
        self.loop()
        self.samples.append(time.perf_counter() - t0)

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.sample()
        self.ticks.append((t0, time.perf_counter()))

    def __enter__(self):
        if self.period:
            self.loop()  # warm the loop before the first sample
            self.sample()
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        if self.period:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            self.sample()
        # A handler runs between bytecodes, so it lies wholly before or after `end`.
        self.spent = sum(t1 - t0 for t0, t1 in self.ticks if t1 <= end)
        self.elapsed = end - self.t0 - self.spent
        return False


def main() -> int:
    req = json.load(sys.stdin)
    if sys.flags.optimize:
        sys.stderr.write("refusing to time stab3 under -O: its assert checks would vanish\n")
        return REFUSED
    sys.path.insert(0, req["src"])
    import tracer as tracing
    import workloads

    result_out = sys.stdout
    sys.stdout = sys.stderr  # the program's own prints must not mix with the result
    wl = workloads.WORKLOADS[req["workload"]]
    inputs = req["inputs"]

    # Only untraced runs are probed, which keeps the probe out of the spans.
    # Set-up is timed in two phases, each against the loop that tracks it.
    period = 0 if req["trace"] else SETUP_PERIOD
    with SpeedProbe(period, fault_loop) as imports:
        modules = tracing.import_all()
    src = os.path.realpath(req["src"])
    if not os.path.realpath(modules[0].__file__).startswith(src + os.sep):
        sys.stderr.write(f"stab3 was imported from {modules[0].__file__}, not {src}\n")
        return 1
    tr = None
    with SpeedProbe(period) as build:
        if req["trace"]:
            tr = tracing.Tracer(req["run_id"]).install()
        state = wl.setup(inputs)
    setup = {
        "setup_s": imports.elapsed + build.elapsed,
        "setup_ref": None if req["trace"] else imports.ref + build.ref,
        "setup_probe_s": {"imports": imports.samples, "build": build.samples},
    }
    if req.get("setup_only"):
        result_out.write(json.dumps(setup) + "\n")
        return 0

    with tempfile.TemporaryDirectory(dir=req["tmp_dir"]) as tmp:
        with SpeedProbe(0 if req["trace"] else RUN_PERIOD) as run:
            observed = wl.run(state, inputs, tmp)
            expected = wl.expected_ops(inputs, req["golden"])
            failures = workloads.check(expected, observed, req["golden"])

    if tr is not None:
        expected.append("tracer.complete")
        missed = tr.unwrapped()
        if missed:
            failures.append(("tracer.complete", f"unwrapped originals at {missed}"))
        elif tr.stat_errors:
            failures.append(("tracer.complete", f"counters failed: {tr.stat_errors}"))
    result = {
        **setup,
        "wall_s": run.elapsed,
        "wall_ref": run.ref,
        "probe_s": run.samples,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "attempted": len(expected),
        "failures": failures,
        "flags": {name: getattr(sys.flags, name) for name in dir(sys.flags)
                  if not name.startswith(("_", "n_")) and isinstance(getattr(sys.flags, name), int)},
    }
    if req.get("record"):
        result["observed"] = observed
    if tr is not None:
        result["layers"] = tr.metrics()
        tr.write_spans(req["spans_path"],
                       f"workload={req['workload']} seed={req['seed']} run_id={req['run_id']}")
    result_out.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
