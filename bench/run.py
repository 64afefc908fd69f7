"""Closed-loop benchmark of the sncalc exact calculus.

    python3 bench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

One client in one process, no threads: each op is one input decided end to
end, and the next op starts when the previous one returns.  Workloads:
verify, fibers, forms and lattice are the ones listed in BENCHMARK.json;
smith runs the forms trees through the Smith normal form and exposes its
stalls (it is not listed there, since its ops fail by the time limit).
``--workload all`` runs each of them in its own process and prints every
metric of every workload.

Set-up is timed in SETUP_RUNS fresh interpreters and reported as a median.
Then WARMUP_S of ops run untimed.  With ``--trace 0`` the run times ops
untraced and prints the end-to-end metrics.  With ``--trace 1`` it times
ops untraced for a third of the time, then the same ops traced, and prints
the per-layer metrics: medians per op of the self time and calls of every
public function, module and hook, plus ``trace.overhead`` (traced ÷
untraced ops per second on those ops).

Times are scaled to a reference machine speed.  The shared 2-core machine
the benchmark was written on changes speed by up to 2x every few tens of
milliseconds, with other tenants on its cores, and the raw times of repeated
runs spread by 10-30%.  So a fixed pure-Python calibration kernel is timed
between ops at least every CAL_EVERY_S, and each op's time is reported as
measured time * CAL_REF_S / (mean calibration time near the op); rates
are scaled alike, and set-up by the calibrations around each set-up.  The
printout shows the raw measured value beside every scaled one.

Every answer is checked against an oracle in workloads.py.  Each op runs
under an interval timer of OP_LIMIT_S seconds; an op over it is aborted,
counted as failed and written with (workload, seed, index, n) to
``.bench_out/witnesses-<workload>-<seed>.json``.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  The exit
code is 1 on any wrong answer or error, 2 when the package is not there.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import resource
import signal
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

OP_LIMIT_S = 3.0  # far above every op that completes (max about 0.5 s, verify)
SETUP_RUNS = 7  # fresh interpreters whose set-up time is reported as a median
SETUP_ITEMS = 200  # inputs built during set-up, before the first timed op
WARMUP_S = 0.5  # untimed ops first, so caches fill before timing
ALL = ("verify", "fibers", "forms", "lattice", "smith")
CAL_REF_S = 0.0018  # calibration kernel time the reported times are scaled to
CAL_EVERY_S = 0.01  # longest wall time between calibration samples
CAL_WINDOW_S = 0.02  # samples this near an op, or one op duration, scale it


def calibration_kernel() -> int:
    """Fixed pure-Python work in the instruction mix of the package:
    Fraction arithmetic, small-int tuples, dicts and lists."""
    acc = Fraction(0)
    table: dict[tuple[int, int], int] = {}
    row: list[int] = []
    for i in range(1, 300):
        acc += Fraction(i % 7 + 1, i % 11 + 1)
        key = (i % 13, i % 17)
        table[key] = table.get(key, 0) + acc.numerator % 97
        row = [x * i for x in range(8)]
    return sum(table.values()) + len(row)


def calibrate() -> float:
    """Time of one warm run of the calibration kernel.  The first run only
    warms the caches, which the op before it left in a state that depends
    on the input; the collector is off so the op's garbage is not
    collected on the kernel's clock."""
    gc.disable()
    try:
        calibration_kernel()
        t0 = perf_counter()
        calibration_kernel()
        return perf_counter() - t0
    finally:
        gc.enable()


class OpTimeout(BaseException):
    """Raised by the interval timer; a BaseException so no handler in the
    package can swallow it."""


def _alarm(signum, frame):
    raise OpTimeout()


def setup(workload: str, seed: int):
    """Import sncalc and build the first inputs.

    Returns (seconds, calibration time, workload, items), the calibration
    being the mean of one run just before and one just after.
    """
    cal = calibrate()
    t0 = perf_counter()
    import workloads

    wl = workloads.WORKLOADS[workload]
    items = [wl.make(seed, i) for i in range(SETUP_ITEMS)]
    dt = perf_counter() - t0
    return dt, (cal + calibrate()) / 2, wl, items


def setup_probe(workload: str, seed: int) -> tuple[float, float]:
    """(set-up time, calibration time) of a fresh interpreter."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
    dt, cal = done.stdout.split()[-2:]
    return float(dt), float(cal)


class Phase:
    """Outcomes of one timed loop, with the calibration samples taken
    between its ops."""

    def __init__(self):
        self.latency: list[float] = []
        self.when: list[tuple[float, float]] = []  # (start, end) of each op
        self.accept: list[bool] = []  # the oracle's answer for each op
        self.ok: list[bool] = []  # answered correctly within the limit
        self.cal: list[float] = []
        self.cal_t: list[float] = []  # when each calibration sample ended
        self.wrong = 0
        self.errors = 0
        self.timeouts = 0
        self.witnesses: list[dict] = []

    @property
    def attempted(self) -> int:
        return len(self.latency)

    @property
    def failed(self) -> int:
        return self.wrong + self.errors + self.timeouts

    def ops_per_s(self, latency: list[float]) -> float:
        return sum(self.ok) / sum(latency)

    def calibrate(self) -> None:
        self.cal.append(calibrate())
        self.cal_t.append(perf_counter())

    def scaled(self) -> list[float]:
        """Each latency times CAL_REF_S over the mean calibration time of
        the samples within one op duration (at least CAL_WINDOW_S) of the
        op, and always the last one before it and the first one after it."""
        out = []
        for dt, (start, end) in zip(self.latency, self.when):
            w = max(CAL_WINDOW_S, dt)
            lo = min(bisect.bisect_left(self.cal_t, start - w),
                     bisect.bisect_right(self.cal_t, start) - 1)
            hi = max(bisect.bisect_right(self.cal_t, end + w),
                     bisect.bisect_left(self.cal_t, end) + 1)
            out.append(dt * CAL_REF_S / statistics.fmean(self.cal[lo:hi]))
        return out


def measure(wl, seed: int, items: list, seconds: float, tracer=None, max_ops=None) -> Phase:
    """Run ops from input 0 on until `seconds` of wall time have passed or
    `max_ops` ops are done."""
    ph = Phase()
    deadline = perf_counter() + seconds
    index = 0
    ph.calibrate()
    while perf_counter() < deadline and index != max_ops:
        # the machine's speed changes every few tens of milliseconds, so
        # calibration samples are taken at least every CAL_EVERY_S
        if perf_counter() - ph.cal_t[-1] >= CAL_EVERY_S:
            ph.calibrate()
        item = items[index] if index < len(items) else wl.make(seed, index)
        index += 1
        if tracer is not None:
            tracer.begin_op(item.n, item.accept)
        problem = None
        t0 = perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, OP_LIMIT_S)
            try:
                result = wl.run(item)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except OpTimeout:
            ph.timeouts += 1
            problem = f"over the {OP_LIMIT_S} s limit"
        except Exception as exc:  # any error is a failed op, with its witness
            ph.errors += 1
            problem = f"error: {exc!r}"
        t1 = perf_counter()
        if tracer is not None:
            tracer.end_op()
        if problem is None:
            problem = wl.check(item, result)
            ph.wrong += problem is not None
        ph.latency.append(t1 - t0)
        ph.when.append((t0, t1))
        ph.accept.append(item.accept)
        ph.ok.append(problem is None)
        if problem is not None:
            ph.witnesses.append({"workload": wl.name, "seed": seed, "index": item.index,
                                 "n": item.n, "elapsed_s": round(t1 - t0, 3), "problem": problem})
    ph.calibrate()
    return ph


def tail(latency: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples): the highest percentile with at least ten
    samples beyond it; with fewer than 11 samples, the maximum."""
    xs = sorted(latency)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(setup_s: float, ph: Phase, latency: list[float]) -> dict[str, float | None]:
    """The end-to-end metrics of a phase from the given per-op latencies."""
    accepts = [dt for dt, a in zip(latency, ph.accept) if a]
    rejects = [dt for dt, a in zip(latency, ph.accept) if not a]
    return {
        "setup_s": setup_s,
        "ops_per_s": ph.ops_per_s(latency),
        "op_p50_ms": 1e3 * statistics.median(latency),
        "op_tail_ms": 1e3 * tail(latency)[0],
        "accept_p50_ms": 1e3 * statistics.median(accepts) if accepts else None,
        "reject_p50_ms": 1e3 * statistics.median(rejects) if len(rejects) >= 10 else None,
        "failed_frac": ph.failed / ph.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
         "accept_p50_ms": "ms", "reject_p50_ms": "ms", "failed_frac": "ratio",
         "peak_rss_mb": "MB"}


def run_one(args, spec: dict) -> int:
    dt, cal, wl, items = setup(args.workload, args.seed)
    setups = [(dt, cal)] + [setup_probe(args.workload, args.seed) for _ in range(SETUP_RUNS - 1)]
    setup_raw = statistics.median(dt for dt, _ in setups)
    setup_s = statistics.median(dt * CAL_REF_S / cal for dt, cal in setups)
    signal.signal(signal.SIGALRM, _alarm)
    warmup = measure(wl, args.seed, items, WARMUP_S)

    if args.trace:
        import tracer as tracing

        # the traced phase repeats the untraced phase's ops, so the overhead
        # compares the same inputs
        plain = measure(wl, args.seed, items, args.seconds / 3)
        tr = tracing.Tracer()
        tr.install()
        try:
            traced = measure(wl, args.seed, items, 2 * args.seconds / 3, tr, plain.attempted)
        finally:
            tr.uninstall()
        phases = [warmup, plain, traced]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]} | wl.extra_layers
        names = list(units)
        values = tr.layer_metrics([n for n in names if n != "trace.overhead"], wl.sizes)
        k = traced.attempted
        values["trace.overhead"] = sum(plain.scaled()[:k]) / sum(traced.scaled())
        OUT.mkdir(exist_ok=True)
        spans = tr.dump(OUT / f"spans-{args.workload}-{args.seed}.tsv.gz")
        print(f"# {spans} spans over {traced.attempted} traced ops")
        for name in names:
            print(f"{name} {values[name]:.6g} {units[name]}")
    else:
        ph = measure(wl, args.seed, items, args.seconds)
        phases = [warmup, ph]
        cal = statistics.median(ph.cal)
        values = end_to_end(setup_s, ph, ph.scaled())
        raw = end_to_end(setup_raw, ph, ph.latency)
        names = [m["name"] for m in spec["end_to_end"]]
        units = UNITS
        _, pct, samples = tail(ph.latency)
        print(f"# machine speed: calibration {1e3 * cal:.3f} ms against {1e3 * CAL_REF_S} ms;"
              " times below are scaled to the reference, raw values in brackets")
        for name, v in values.items():
            if v is None:
                print(f"{name} n/a (fewer than 10 rejects)")
                continue
            extra = f"  (p{pct:.2f} of {samples} ops)" if name == "op_tail_ms" else ""
            print(f"{name} {v:.6g} {UNITS[name]}  [{raw[name]:.6g}]{extra}")

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    broken = sum(p.wrong + p.errors for p in phases)
    # the phases repeat inputs from index 0, so a failing input shows once
    witnesses = list({w["index"]: w for p in phases for w in p.witnesses}.values())
    print(f"# {args.workload} seed {args.seed}: {attempted} ops, {failed} failed "
          f"({sum(p.timeouts for p in phases)} over the time limit)")
    if witnesses:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"witnesses-{args.workload}-{args.seed}.json"
        path.write_text(json.dumps(witnesses, indent=1) + "\n")
        for w in witnesses:
            print(f"# witness {json.dumps(w)}")
    print(json.dumps({
        "correct": broken == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in names},
    }))
    return 1 if broken else 0


def run_all(args) -> int:
    """Each workload in its own fresh process, so set-up and RSS are its own."""
    code = 0
    for name in ALL:
        print(f"== {name}", flush=True)
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(done.stdout)
        code = max(code, done.returncode)
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*ALL, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "sncalc" / "__init__.py").is_file() or not spec_path.is_file():
        sys.stderr.write(f"error: no sncalc package under {ROOT / 'src'}\n")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_probe:
        dt, cal, _, _ = setup(args.workload, args.seed)
        print(dt, cal)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args, json.loads(spec_path.read_text()))


if __name__ == "__main__":
    sys.exit(main())
