#!/usr/bin/env python3
"""Benchmark of the rmtgpu command-line tool: host throughput and RMT cost.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

The benchmark builds bin/rmtgpu.exe with dune, then acts as one closed-loop
client: it issues the workload's requests (rmtgpu invocations) one after the
other, in an order drawn from the seed, and repeats the whole request set in
passes until --seconds have elapsed.  Every output is checked (simulations
must verify against the CPU reference, campaigns must stay covered, the
validator must accept, generated kernels must compute what the Python
reference computes).  The last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
and writes the request spans as a Chrome trace to
_build/perfbench/spans-<workload>-<seed>.json.

Times are host wall-clock; cycles are simulated GPU cycles, and every
simulation starts with cold modelled caches.  The host is shared and its
speed drifts, so a request's host time is the best of its repeats (the least
disturbed one) and a pass is the sum of those over the request set.
"""

import argparse
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True  # leave nothing behind in the benchmark's directory
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import kernelgen  # noqa: E402

EXE = os.path.join("_build", "default", "bin", "rmtgpu.exe")
OUT = os.path.join("_build", "perfbench")
VARIANTS = ["original", "intra+lds", "intra-lds", "intra+lds-fast", "inter"]
ENV = dict(os.environ, RMTGPU_JOBS="1", DUNE_CACHE="disabled")
SETUP_REPEATS = 3
REQUEST_TIMEOUT_S = 60


class Request:
    """One rmtgpu invocation.  Plain simulations carry [sim] = (kernel,
    variant) and report cycles; the other requests belong to the workload's
    own analysis layer.  [check] maps stdout to (ok, cycles)."""

    def __init__(self, argv, check, sim=None):
        self.argv, self.check, self.sim = argv, check, sim
        self.key = " ".join(argv)
        self.layer = "analysis" if sim is None else "simulate"


def first_line(out):
    return out.split("\n", 1)[0]


def check_sim(out):
    """`run`/`profile`/`trace` header: "<id> under <v>: N cycles over ...
    (finished, verified=true)"."""
    line = first_line(out)
    ok = "(finished, verified=true)" in line
    try:
        cycles = int(line.split(": ", 1)[1].split(" cycles", 1)[0])
    except (IndexError, ValueError):
        return False, None
    return ok, cycles


def check_clean(out):
    return first_line(out).endswith(": clean"), None


def check_dump(out):
    return "\nresources: " in out, None


def check_inject(out):
    line = first_line(out)
    ok = line.endswith("[covered]") and " crash=0 hang=0" in line
    return ok, None


def run_request(req):
    """Returns the request's host wall seconds, whether its output checked
    out, and its simulated cycles."""
    t0 = time.perf_counter()
    try:
        p = subprocess.run([EXE] + req.argv, stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, text=True, env=ENV,
                           timeout=REQUEST_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # the child is killed and reaped
        return time.perf_counter() - t0, False, None
    dt = time.perf_counter() - t0
    if p.returncode != 0:
        return dt, False, None
    ok, cycles = req.check(p.stdout)
    return dt, ok, cycles


# ---------------------------------------------------------------- workloads


def sweep_requests(seed):
    """The paper's main experiment: simulate each kernel unprotected and
    under every RMT flavor, and compile the two main flavors with the
    optimizer and register allocator (static resource report).  One kernel
    per behaviour class of the registry that runs in well under a second
    (memory-bound, compute-bound, store-heavy, under-utilizing)."""
    reqs = []
    for k in ["BinS", "BlkSch", "FWT", "PS"]:
        for v in VARIANTS:
            reqs.append(Request(["run", k, v], check_sim, (k, v)))
        for v in ["intra+lds", "inter"]:
            reqs.append(Request(["dump", k, v, "--alloc", "-O"], check_dump))
    return reqs


# (kernel, flavor, injected structure, injections): structures inside each
# flavor's sphere of replication, so every campaign must stay covered
CAMPAIGNS = [
    ("PS", "intra+lds", "lds", 6),
    ("PS", "intra-lds", "vgpr", 6),
    ("PS", "inter", "sgpr", 6),
    ("PS", "inter", "lds", 6),
    ("BinS", "inter", "vgpr", 3),
    ("BinS", "intra+lds-fast", "vgpr", 3),
]


def campaign_requests(seed):
    """Fault-injection campaigns, each with its fault-free golden runs of
    the unprotected and the protected kernel."""
    reqs, golden = [], set()
    for k, v, target, n in CAMPAIGNS:
        golden |= {(k, "original"), (k, v)}
        reqs.append(Request(["inject", k, v, target, "-n", str(n), "-j", "1"],
                            check_inject))
    for k, v in sorted(golden):
        reqs.append(Request(["run", k, v], check_sim, (k, v)))
    return reqs


def trace_check(path):
    def check(out):
        ok, cycles = check_sim(out)
        try:
            with open(path) as f:
                events = json.load(f)
        except (OSError, ValueError):
            return False, cycles
        if isinstance(events, dict):
            events = events.get("traceEvents", [])
        return ok and len(events) > 0, cycles
    return check


def instrumented_requests(seed):
    """The same simulations with the per-instruction profiler, the dynamic
    sanitizer and the scheduler tracer attached, next to the plain runs
    they instrument."""
    reqs = []
    for k in ["BinS", "FWT", "PS"]:
        for v in ["original", "intra+lds"]:
            reqs.append(Request(["run", k, v], check_sim, (k, v)))
            reqs.append(Request(["profile", k, v, "--top", "8"], check_sim))
            target = "baseline" if v == "original" else v
            reqs.append(Request(["check", k, target], check_clean))
    # PrefixSum keeps the Chrome-trace file small (the others write tens
    # of MB, which would measure the disk rather than the tracer)
    for v in ["original", "intra+lds"]:
        path = os.path.join(OUT, f"trace-PS-{v}.json")
        reqs.append(Request(["trace", "PS", v, "-o", path], trace_check(path)))
    return reqs


GEN_KERNELS = 3
GEN_ITEMS = 32768


def validate_requests(seed):
    """Translation validation and the static SoR contract over seeded
    generated kernels, cross-checked by differential execution of every
    flavor against the Python reference; plus the validator over a fixed
    slice of the registry."""
    rng = random.Random(seed)
    kdir = os.path.join(OUT, "kernels")
    os.makedirs(kdir, exist_ok=True)
    reqs = []
    for i in range(GEN_KERNELS):
        src, prog = kernelgen.generate(rng, f"gen{i}")
        scalar = rng.randint(0, (1 << 31) - 1)
        path = os.path.join(kdir, f"gen{i}.rgk")
        with open(path, "w") as f:
            f.write(src)
        expected = Expected(prog, scalar)
        reqs.append(Request(["lint", path, "--full"], check_clean))
        reqs.append(Request(["check", path], check_clean))
        for v in VARIANTS:
            argv = ["runfile", path, "--variant", v,
                    "--global", str(GEN_ITEMS), "--local", str(kernelgen.LOCAL),
                    "--arg", f"buf:{GEN_ITEMS}:index",
                    "--arg", f"buf:{GEN_ITEMS}:zero",
                    "--arg", f"i32:{scalar}",
                    "--show", f"1:0:{GEN_ITEMS}"]
            reqs.append(Request(argv, expected.check, (f"gen{i}", v)))
    for k in ["FWT", "PS", "R", "SF"]:
        reqs.append(Request(["lint", k, "--full"], check_clean))
    return reqs


class Expected:
    """Checks a `runfile` result against the Python reference, computed
    once on first use (outside the timed region)."""

    def __init__(self, prog, scalar):
        self.prog, self.scalar, self.values = prog, scalar, None

    def check(self, out):
        lines = out.splitlines()
        if len(lines) < 2 or "(finished)" not in lines[0]:
            return False, None
        try:
            cycles = int(lines[0].split(": ", 1)[1].split(" cycles", 1)[0])
            got = [int(x) for x in lines[1].split(":", 1)[1].split()]
        except (IndexError, ValueError):
            return False, None
        if self.values is None:
            self.values = kernelgen.reference(self.prog, GEN_ITEMS, self.scalar)
        return got == self.values, cycles


WORKLOADS = {
    "sweep": sweep_requests,
    "campaign": campaign_requests,
    "validate": validate_requests,
    "instrumented": instrumented_requests,
}


# ---------------------------------------------------------------- build and run


def build():
    if not (os.path.isfile("dune-project")
            and os.path.isfile(os.path.join("bin", "rmtgpu.ml"))):
        sys.exit("perfbench: run from the root of an rmtgpu source checkout")
    p = subprocess.run(["dune", "build", "--root", ".", "./bin/rmtgpu.exe"],
                       stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                       text=True, env=ENV)
    if p.returncode != 0:
        sys.stderr.write(p.stdout)
        sys.exit("perfbench: build failed")


def setup(workload, seed):
    """Up-to-date check of the build, input generation and a warm start of
    the program (it loads the kernel registry).  Returns the requests and
    the program's start-up time."""
    build()
    os.makedirs(OUT, exist_ok=True)
    reqs = WORKLOADS[workload](seed)
    t0 = time.perf_counter()
    p = subprocess.run([EXE, "list"], stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, env=ENV, timeout=REQUEST_TIMEOUT_S)
    if p.returncode != 0:
        sys.exit("perfbench: rmtgpu list failed")
    return reqs, time.perf_counter() - t0


def geomean(xs):
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    build()  # the first build may be long; it is not part of set-up time
    setup_times, startup_times = [], []

    def timed_setup():
        t0 = time.perf_counter()
        reqs, startup = setup(args.workload, args.seed)
        setup_times.append(time.perf_counter() - t0)
        startup_times.append(startup)
        return reqs

    for _ in range(SETUP_REPEATS):
        reqs = timed_setup()

    rng = random.Random(args.seed)
    samples = {r.key: [] for r in reqs}
    cycles = {}
    spans = []
    attempted = failed = passes = 0
    start = time.perf_counter()
    deadline = start + args.seconds
    # whole passes until the deadline, then stop at the first request past
    # it; every request has at least one sample.  Set-up is repeated after
    # each pass so that its median, like the requests, spans the run.
    while passes == 0 or time.perf_counter() < deadline:
        order = reqs[:]
        rng.shuffle(order)
        for r in order:
            if passes > 0 and time.perf_counter() >= deadline:
                break
            t0 = time.perf_counter()
            dt, ok, cyc = run_request(r)
            attempted += 1
            if not ok:
                failed += 1
                print(f"perfbench: FAILED rmtgpu {r.key}", file=sys.stderr)
            samples[r.key].append(dt)
            if r.sim is not None and cyc is not None:
                cycles[r.sim] = cyc
            if args.trace:
                spans.append({"name": r.argv[0], "cat": r.layer, "ph": "X",
                              "ts": (t0 - start) * 1e6, "dur": dt * 1e6,
                              "pid": 1, "tid": 1,
                              "args": {"request": r.key, "pass": passes,
                                       "ok": ok}})
        passes += 1
        timed_setup()

    best = {k: min(xs) for k, xs in samples.items()}
    sims = [r for r in reqs if r.sim is not None]
    base = [best[r.key] for r in sims if r.sim[1] == "original"]
    rmt = [best[r.key] for r in sims if r.sim[1] != "original"]
    ratios = [cycles[(k, v)] / cycles[(k, "original")]
              for (k, v) in cycles if v != "original" and (k, "original") in cycles]
    correct = failed == 0 and len(cycles) == len(sims) and len(ratios) > 0

    if args.trace:
        metrics = {
            "startup_ms": (min(startup_times) * 1e3, "ms"),
            "simulate_base_s": (sum(base), "s"),
            "simulate_rmt_s": (sum(rmt), "s"),
            "rmt_host_ratio": ((sum(rmt) / len(rmt)) / (sum(base) / len(base)), "x"),
            "analysis_s": (sum(best[r.key] for r in reqs if r.sim is None), "s"),
            "sim_cycles": (sum(cycles.values()), "count"),
        }
        path = os.path.join(OUT, f"spans-{args.workload}-{args.seed}.json")
        with open(path, "w") as f:
            json.dump({"traceEvents": spans, "samples": samples}, f)
    else:
        metrics = {
            "pass_s": (sum(best.values()), "s"),
            "sim_kcycles_per_s": (sum(cycles.values()) / 1e3 / (sum(base) + sum(rmt)),
                                  "kcycles/s"),
            "rmt_slowdown": (geomean(ratios) if ratios else 1.0, "x"),
            "setup_s": (statistics.median(setup_times), "s"),
        }
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
