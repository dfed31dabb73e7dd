#!/usr/bin/env python3
"""Closed-loop benchmark of goldcut.reconstruct.

    python3 perfbench/run.py --workload golden_sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: it imports goldcut from src/ there and
refuses to run without it. One process, one caller, no think time: each
reconstruct call starts when the previous one has returned, and BLAS thread
pools are capped at 1. The workload (see workloads.py) is a fixed cycle of
ops; the run repeats whole rounds of that cycle while the next round still
fits in --seconds. Every op's output is checked against the uncut oracle
outside the timed region (see checks.py).

--trace 0 reports the end-to-end metrics with tracing off. --trace 1 runs
every op twice per round, untraced and traced, reports per-layer metrics
from the traced calls (see tracer.py) plus the tracing overhead, and writes
the spans to perfbench/out/. Both print each metric by name with its unit,
then, as the last line, one JSON object with keys correct, attempted,
failed and metrics. The exit code is 1 when any check failed.
"""
from __future__ import annotations

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Set-up is repeated in fresh processes (the first sample is this process's
# own) and reported as the median.
SETUP_SAMPLES = 7
P90_MIN_OPS = 100
MAX_FAIL_LINES = 20

# (name, unit). variants_executed and tuples_contracted are the paper's cost
# units summed over one round of the op cycle; they repeat exactly for a
# seed. error_rate and recon_p90_s are printed but kept out of the JSON
# metrics: error_rate is carried by "failed"/"attempted" (it is 0 when the
# program is right), and p90 needs >= 100 ops, which a K=4 run never has.
END_TO_END = (
    ("recon_p50_s", "s"),
    ("recon_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("variants_executed", "count/round"),
    ("tuples_contracted", "count/round"),
)

# (name, unit, spans it needs). Sums are per round of traced ops, so the
# .self_s values add up to trace.round_wall_s. A metric whose span no longer
# exists in goldcut is left out.
PER_LAYER = (
    ("simulator.simulate.self_s", "s/round", ("simulator.simulate",)),
    ("simulator.simulate.calls", "count/round", ("simulator.simulate",)),
    ("simulator.gates_applied", "count/round", ("simulator.simulate",)),
    ("simulator.amp_bytes_computed", "B/round", ("simulator.simulate",)),
    ("simulator.sample.self_s", "s/round", ("simulator.sample",)),
    ("simulator.sample.calls", "count/round", ("simulator.sample",)),
    ("simulator.shots_drawn", "count/round", ("simulator.sample",)),
    ("simulator.exact_distribution.self_s", "s/round", ("simulator.exact_distribution",)),
    ("reconstructor.build_tensor.upstream.self_s", "s/round", ("reconstructor.build_tensor",)),
    ("reconstructor.build_tensor.downstream.self_s", "s/round",
     ("reconstructor.build_tensor",)),
    ("reconstructor.build_tensor.calls", "count/round", ("reconstructor.build_tensor",)),
    ("reconstructor.contract.self_s", "s/round", ("reconstructor.contract",)),
    ("reconstructor.tuples_contracted", "count/round", ("reconstructor.contract",)),
    ("golden.detect_exact.self_s", "s/round", ("golden.detect_exact",)),
    ("golden.detect_statistical.self_s", "s/round", ("golden.detect_statistical",)),
    ("golden.pairs_flagged", "count/round", ("golden.detect_exact", "golden.detect_statistical")),
    ("golden.pairs_insufficient", "count/round", ("golden.detect_statistical",)),
    ("golden.true_flag_ratio", "ratio", ("golden.detect_statistical",)),
    ("fragmenter.run_fragment.self_s", "s/round", ("fragmenter.run_fragment",)),
    ("fragmenter.run_fragment.calls", "count/round", ("fragmenter.run_fragment",)),
    ("fragmenter.variants_run", "count/round", ("fragmenter.run_fragment",)),
    ("fragmenter.useful_variant_ratio", "ratio",
     ("fragmenter.run_fragment", "reconstructor.build_tensor", "reconstructor.contract")),
    ("fragmenter.upstream_variants.self_s", "s/round", ("fragmenter.upstream_variants",)),
    ("fragmenter.downstream_variants.self_s", "s/round", ("fragmenter.downstream_variants",)),
    ("circuits.bipartition.self_s", "s/round", ("circuits.bipartition",)),
    ("pipeline.parent_permutation.self_s", "s/round", ("pipeline.parent_permutation",)),
    ("pipeline.reconstruct.self_s", "s/round", ()),
    ("metrics.cost_report.self_s", "s/round", ("metrics.cost_report",)),
    ("circuits.golden_ansatz.self_s", "s/setup", ("circuits.golden_ansatz",)),
    ("trace.round_wall_s", "s/round", ()),
    ("trace.overhead_frac", "ratio", ()),
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("golden_sweep", "multicut_exact", "multicut_shots"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes (K=2, two golden widths) for the smoke test")
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up, print it as JSON and exit")
    return p.parse_args(argv)


def use_checkout_sources():
    """Import goldcut from src/ of this checkout, never from elsewhere."""
    if not (SRC / "goldcut" / "__init__.py").is_file():
        sys.exit("perfbench: %s has no goldcut sources (src/goldcut); "
                 "run from a checkout of the repository" % ROOT)
    sys.path[:0] = [str(SRC), str(HERE)]


def run_op(circuit, op, seed):
    import goldcut

    obs = None
    if op.observable == "zstring":
        n = circuit.n_qubits
        obs = goldcut.ObservableSpec.pauli_string("Z" * n, range(n))
    return goldcut.reconstruct(circuit, obs, shots=op.shots, seed=seed, prune=op.prune)


def setup(name, seed, smoke):
    """Import goldcut, generate and certify the circuits, and warm up with
    one op of each kind on a small circuit. Returns (workload, seconds)."""
    start = time.perf_counter()
    import workloads

    wl = workloads.BUILDERS[name](seed, smoke)
    for circuit, op in wl.warmup:
        run_op(circuit, op, seed)
    return wl, time.perf_counter() - start


def setup_in_fresh_process(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
    if args.smoke:
        cmd.append("--smoke")
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if out.returncode != 0:
        sys.exit("perfbench: set-up in a fresh process failed:\n" + out.stderr)
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def machine_info(args) -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "blas_threads": int(BLAS_THREADS),
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace}


def timed(fn, *args):
    start = time.perf_counter()
    try:
        result = fn(*args)
    except Exception as exc:  # a failing op is counted as failed, never dropped
        return None, time.perf_counter() - start, exc
    return result, time.perf_counter() - start, None


class Ledger:
    """Outcome and timing of every op attempted in the measured loop."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.times = []            # untraced op wall times, ops that returned
        self.traced_ids = []
        self.traced_wall = 0.0
        self.rounds = 0
        self.round_variants = []
        self.round_tuples = []
        self.golden_true = 0       # statistical ops: truly golden pairs ...
        self.golden_found = 0      # ... and how many of them were flagged
        self._variants = self._tuples = 0

    def check(self, op, circuit, oracle, run, exc):
        from checks import check_op

        self.attempted += 1
        fails = (["raised %s: %s" % (type(exc).__name__, exc)] if exc is not None
                 else check_op(op, circuit, oracle, run))
        if fails:
            self.failed += 1
            if self.failed <= MAX_FAIL_LINES:
                print("FAIL %s: %s" % (op.label, "; ".join(fails)), file=sys.stderr)

    def untraced(self, op, circuit, oracle, seed):
        run, dt, exc = timed(run_op, circuit, op, seed)
        self.check(op, circuit, oracle, run, exc)
        if run is not None:
            self.times.append(dt)
            self._variants += run.cost.variants_executed
            self._tuples += run.cost.basis_tuples_contracted

    def traced(self, op, circuit, oracle, seed, tracer):
        op_id = "r%d/%s" % (self.rounds, op.label)
        result, _, exc = timed(tracer.op, op_id, run_op, circuit, op, seed)
        run = None
        if result is not None:
            run, dt = result       # dt is the root span's duration
            self.traced_ids.append(op_id)
            self.traced_wall += dt
            if op.prune == "statistical":
                self.golden_true += len(oracle.golden)
                self.golden_found += len(oracle.golden & tracer.flagged_statistical)
        self.check(op, circuit, oracle, run, exc)

    def end_round(self):
        self.rounds += 1
        self.round_variants.append(self._variants)
        self.round_tuples.append(self._tuples)
        self._variants = self._tuples = 0


def measure(wl, seed, seconds, oracles, tracer=None) -> Ledger:
    """Repeat whole rounds of the op cycle while the next one still fits.

    With a tracer every op runs twice per round, untraced and traced; which
    of the two goes first alternates, so slow drift cancels out of the
    overhead."""
    ledger = Ledger()
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for i, op in enumerate(wl.ops):
            circuit, oracle = wl.circuits[op.circuit], oracles[op.circuit]
            traced_first = tracer is not None and (ledger.rounds + i) % 2 == 1
            if traced_first:
                ledger.traced(op, circuit, oracle, seed, tracer)
            ledger.untraced(op, circuit, oracle, seed)
            if tracer is not None and not traced_first:
                ledger.traced(op, circuit, oracle, seed, tracer)
        ledger.end_round()
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            return ledger


def end_to_end_metrics(ledger, setup_samples):
    times = ledger.times
    values = {
        "recon_p50_s": statistics.median(times),
        "recon_per_s": len(times) / sum(times),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "variants_executed": float(statistics.median(ledger.round_variants)),
        "tuples_contracted": float(statistics.median(ledger.round_tuples)),
    }
    notes = {
        "recon_p50_s": "median of %d ops" % len(times),
        "setup_s": "median of %d set-ups" % len(setup_samples),
        "variants_executed": "%d rounds" % ledger.rounds,
    }
    return {name: (values[name], unit, notes.get(name, "")) for name, unit in END_TO_END}


def per_layer_metrics(ledger, tracer, ansatz_self_s):
    rounds = ledger.rounds
    selfs = tracer.self_times(set(ledger.traced_ids))
    untraced = sum(ledger.times)
    values = {
        "circuits.golden_ansatz.self_s": ansatz_self_s,
        "golden.true_flag_ratio": (ledger.golden_found / ledger.golden_true
                                   if ledger.golden_true else 1.0),
        "fragmenter.useful_variant_ratio": (
            tracer.counts["fragmenter.useful_variants"]
            / max(tracer.counts["fragmenter.variants_run"], 1)),
        "trace.round_wall_s": ledger.traced_wall / rounds,
        "trace.overhead_frac": ledger.traced_wall / untraced - 1.0,
    }
    out = {}
    for name, unit, needs in PER_LAYER:
        if any(span not in tracer.wrapped for span in needs):
            continue
        if name in values:
            value = values[name]
        elif name.endswith(".self_s"):
            value = selfs.get(name[:-len(".self_s")], 0.0) / rounds
        elif name.endswith(".calls"):
            span = name[:-len(".calls")]
            value = sum(n for s, n in tracer.calls.items()
                        if s == span or s.startswith(span + ".")) / rounds
        else:
            value = tracer.counts[name] / rounds
        out[name] = (value, unit, "")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    use_checkout_sources()
    if args.setup_only:
        _, seconds = setup(args.workload, args.seed, args.smoke)
        print(json.dumps({"setup_s": seconds}))
        return 0

    tracer = None
    ansatz_self_s = 0.0
    if args.trace:
        import goldcut  # noqa: F401  (the tracer wraps goldcut's modules)
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        (wl, setup_s), _ = tracer.op("setup", setup, args.workload, args.seed, args.smoke,
                                     root="setup")
        ansatz_self_s = tracer.self_times({"setup"}).get("circuits.golden_ansatz", 0.0)
        tracer.counts.clear()
        tracer.calls.clear()
    else:
        wl, setup_s = setup(args.workload, args.seed, args.smoke)
    setup_samples = [setup_s]
    if not args.trace:
        setup_samples += [setup_in_fresh_process(args) for _ in range(SETUP_SAMPLES - 1)]

    from checks import CircuitOracle

    oracles = [CircuitOracle(c, any(op.shots and op.circuit == i for op in wl.ops))
               for i, c in enumerate(wl.circuits)]
    info = machine_info(args)
    print("machine " + json.dumps(info))
    ledger = measure(wl, args.seed, args.seconds, oracles, tracer)

    if tracer is None:
        metrics = end_to_end_metrics(ledger, setup_samples) if ledger.times else {}
        extra = [("error_rate", ledger.failed / ledger.attempted, "ratio",
                  "%d of %d ops" % (ledger.failed, ledger.attempted))]
        if len(ledger.times) >= P90_MIN_OPS:
            extra.append(("recon_p90_s", statistics.quantiles(ledger.times, n=10)[-1], "s",
                          "%d ops" % len(ledger.times)))
    else:
        gap = tracer.self_sum_gap(set(ledger.traced_ids))
        if gap > 1e-9:
            sys.exit("perfbench: layer self times miss the op wall time by %.3g s" % gap)
        metrics = per_layer_metrics(ledger, tracer, ansatz_self_s) if ledger.traced_ids else {}
        extra = []
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / ("trace-%s-seed%d.json" % (args.workload, args.seed))
        tracer.write(path, info)
        tracer.uninstall()
        print("spans %d written to %s" % (len(tracer.spans), path.relative_to(ROOT)))

    for name, (value, unit, note) in metrics.items():
        print("metric %-46s %-22r %-12s %s" % (name, value, unit, note))
    for name, value, unit, note in extra:
        print("metric %-46s %-22r %-12s %s" % (name, value, unit, note))
    correct = ledger.failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
