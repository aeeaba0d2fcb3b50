"""perfbench: the glaisher benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of estimate, limit_sequence, cli, or `all` (each workload
in turn, one child process at a time).  Run from anywhere; the program is
imported from `src/` next to this directory, so nothing is installed.

--trace 0 measures the end-to-end metrics with tracing off.  --trace 1 spends
half of the time untraced and half traced on the same seeded inputs, then runs
the micro-probes, and reports the per-layer metrics; the raw spans are written
to `.perfbench-out/` at the root of the checkout.  Every operation is checked
against the mpmath value of ln A.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; `correct` is false only for
failures that are not among the known defects listed in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import probes
import workloads
from tracer import INTEGRAND_SPAN, Tracer
from workloads import ROOT, THREAD_ENV, child_env, spawn

SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
MIN_PASSES = 3  # a run repeats its list of inputs at least this often
SETUP_BATCHES = 9  # spread over the run; each is the fastest of SETUP_BATCH spawns
SETUP_BATCH = 3
ORACLE_SRC = (
    "import mpmath; mpmath.mp.dps = 50; "
    "print(mpmath.log(mpmath.glaisher), mpmath.__version__)"
)
SETUP_SRC = (
    "import glaisher, sys, time; "
    "sys.stdout.write(str(time.clock_gettime_ns(time.CLOCK_MONOTONIC)))"
)
MAX_EXAMPLES = 5

_ns = time.perf_counter_ns


class BenchError(Exception):
    """The benchmark cannot produce a result (program missing, oracle failed, ...)."""


@dataclasses.dataclass
class Loop:
    best_ns: list  # per input, the fastest of its executions
    executions: int
    total_ns: int  # wall time of every execution, summed
    passes: int
    failed: int  # inputs with at least one failure reason
    unexpected: int  # inputs with a failure outside the known defects
    categories: Counter  # failure category -> inputs
    examples: list
    self_rss_kb: int  # this process's peak, read before any statistics are computed
    setup_s: list  # one value per set-up batch


def run_loop(wl, lib, ops, seconds, oracle, seed, tracer=None, setup=None) -> Loop:
    """Closed loop, one client: run, time and check the inputs in passes until time is up.

    Each pass runs every input once, in a seeded order that changes from pass
    to pass.  The loop ends when the time is up, but not before MIN_PASSES
    complete passes.  Every execution is checked; an input whose
    failure reasons change between executions counts as an unexpected failure
    (`nondeterministic`).  `setup`, if given, is called SETUP_BATCHES times at
    pass boundaries spread evenly over the run.
    """
    order = list(range(len(ops)))
    rng = random.Random(f"order:{wl.name}:{seed}")
    best = [None] * len(ops)
    outcome = [None] * len(ops)
    setup_s = []
    executions = total = passes = 0
    done = False  # MIN_PASSES complete passes and every set-up batch are behind
    start = _ns()
    span = int(seconds * 1e9)
    while True:
        while setup is not None and len(setup_s) < SETUP_BATCHES:
            if _ns() - start < len(setup_s) * span // SETUP_BATCHES:
                break
            setup_s.append(setup())
        rng.shuffle(order)
        for i in order:
            op = ops[i]
            gc.disable()  # as timeit does; collections run between operations instead
            t0 = _ns()
            try:
                if tracer is None:
                    out = wl.run(lib, op)
                else:
                    tracer.op_id += 1
                    out = tracer.call("op", wl.run, lib, op)
                reasons = None
            except Exception as exc:  # counted as a failed operation, never fatal
                out, reasons = None, [f"exception_{type(exc).__name__}"]
            dt = _ns() - t0
            gc.enable()
            executions += 1
            total += dt
            if best[i] is None or dt < best[i]:
                best[i] = dt
            if reasons is None:
                try:
                    reasons = wl.check(op, out, oracle)
                except (AttributeError, TypeError, ValueError, KeyError, IndexError):
                    reasons = ["malformed_result"]  # the program returned something unusable
            key = tuple(sorted(set(reasons)))
            if outcome[i] is None:
                outcome[i] = key
            elif key != outcome[i]:
                outcome[i] = tuple(sorted(set(outcome[i] + key + ("nondeterministic",))))
            if done and _ns() - start >= span:
                break
        else:
            passes += 1
            done = passes >= MIN_PASSES and (setup is None or len(setup_s) == SETUP_BATCHES)
            continue
        break
    self_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    failed = unexpected = 0
    categories = Counter()
    examples = []
    for op, reasons in zip(ops, outcome):
        if not reasons:
            continue
        failed += 1
        cats = {wl.classify(op, r) or f"unexpected:{r}" for r in reasons}
        categories.update(cats)
        if any(c.startswith("unexpected:") for c in cats):
            unexpected += 1
            if len(examples) < MAX_EXAMPLES:
                examples.append({"op": op, "reasons": list(reasons)})
    return Loop(best, executions, total, passes, failed, unexpected, categories, examples,
                self_rss_kb, setup_s)


def compute_oracle(env):
    """ln A from mpmath at 50 digits, computed once in a child process, untimed."""
    rc, out, err, _, _ = spawn([sys.executable, "-c", ORACLE_SRC], env, OUT_DIR)
    if rc != 0:
        raise BenchError(f"mpmath oracle failed: {err.decode(errors='replace').strip()}")
    text, version = out.decode().split()
    return float(text), text, version


def setup_batch(env) -> float:
    """Fastest of SETUP_BATCH spawns: seconds from spawning a fresh interpreter until
    `import glaisher` returns."""
    argv = [sys.executable, "-c", SETUP_SRC]
    samples = []
    for _ in range(SETUP_BATCH):
        t0 = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        rc, out, err, _, _ = spawn(argv, env, OUT_DIR)
        if rc != 0:
            raise BenchError(f"import glaisher failed: {err.decode(errors='replace').strip()}")
        samples.append((int(out) - t0) / 1e9)
    return min(samples)


def load_program():
    sys.path.insert(0, str(SRC))
    import glaisher
    import glaisher.bench
    import glaisher.cli

    if Path(glaisher.__file__).resolve().parent != (SRC / "glaisher").resolve():
        raise BenchError(f"imported glaisher from {glaisher.__file__}, not from {SRC}")
    return glaisher


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metadata(args, mpmath_version) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "glaisher").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, 1 client, 1 process",
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": getattr(sys.modules.get("numpy"), "__version__", "not imported"),
        "mpmath": mpmath_version,
        "commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
    }


def end_to_end(loop: Loop) -> tuple:
    best_ms = [x / 1e6 for x in loop.best_ns]
    n = len(best_ms)
    metrics = {
        "latency_ms.p50": (statistics.median(best_ms), "ms"),
        "latency_ms.p90": (statistics.quantiles(best_ms, n=10)[8], "ms"),
        "ops_per_s": (n / (sum(best_ms) / 1e3), "1/s"),
        "pass_frac": ((n - loop.failed) / n, "ratio"),
        "peak_rss_mb": (loop.self_rss_kb / 1024.0, "MB"),
        "setup_s": (statistics.median(loop.setup_s), "s"),
    }
    timed = (f"n={n} inputs, each the fastest of its {loop.passes}+ executions; "
             f"{loop.executions} executions in all")
    notes = {
        "latency_ms.p50": timed,
        "latency_ms.p90": timed,
        "ops_per_s": timed,
        "pass_frac": f"n={n} inputs, every execution checked",
        "peak_rss_mb": f"this process, after {loop.executions} executions",
        "setup_s": (f"median of {len(loop.setup_s)} batches spread over the run, "
                    f"each the fastest of {SETUP_BATCH} spawns"),
    }
    return metrics, notes


def per_layer(tracer: Tracer, loop: Loop, overhead: float) -> dict:
    ops = loop.executions
    op_ns = loop.total_ns
    t = tracer.layer_totals()  # layer -> [self ns, total ns, calls, results, converged]
    empty = [0, 0, 0, 0, 0]
    evals = tracer.agg.get(INTEGRAND_SPAN, empty)
    csv = tracer.agg.get("bench.records_to_string", empty)

    def ratio(a, b):
        return a / b if b else 0.0

    out = {f"{layer}.self_us_per_op": (t[layer][0] / ops / 1e3, "us")
           for layer in ("specfun", "integrands", "quadrature", "estimator")}
    out.update({
        "integrands.evals_per_op": (evals[0] / ops, "count"),
        "integrands.busy_share": (ratio(evals[1], op_ns), "ratio"),
        "quadrature.calls_per_op": (t["quadrature"][2] / ops, "count"),
        "quadrature.converged_ratio": (ratio(t["quadrature"][4], t["quadrature"][3]), "ratio"),
        "bench.records_per_op": (t["bench"][3] / ops, "count"),
        "bench.self_ms_per_op": (t["bench"][0] / ops / 1e6, "ms"),
        "bench.converged_ratio": (ratio(t["bench"][4], t["bench"][3]), "ratio"),
        "bench.csv_us_per_op": (csv[1] / ops / 1e3, "us"),
        "cli.self_ms_per_op": (t["cli"][0] / ops / 1e6, "ms"),
        "trace.overhead_frac": (overhead, "ratio"),
    })
    return out


def write_trace(path: Path, meta: dict, tracer: Tracer) -> None:
    lines = [json.dumps({"meta": meta, "agg": tracer.agg, "dropped_records": tracer.dropped})]
    lines += [json.dumps(r) for r in tracer.records]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def report(loops, metrics: dict, notes: dict) -> None:
    """One line per metric with its unit and what it was measured on, then the failures."""
    n = len(loops[0].best_ns)
    failed = loops[0].failed
    cats = loops[0].categories
    for name, (value, unit) in metrics.items():
        print(f"{name:45s} {value:14.6g} {unit:6s} ({notes[name]})")
    detail = ", ".join(f"{c} {k}" for c, k in sorted(cats.items())) or "none"
    print(f"{'failed_frac':45s} {failed / n:14.6g} ratio  ({failed} of {n} inputs; {detail})")
    for lp in loops:
        for ex in lp.examples:
            print(f"unexpected failure: {json.dumps(ex, default=str)}")


def run_one(args) -> dict:
    env = child_env()
    oracle, oracle_text, mpmath_version = compute_oracle(env)
    lib = load_program()
    wl = workloads.make(args.workload)
    ops = wl.inputs(args.seed)
    meta = metadata(args, mpmath_version)
    print("meta " + json.dumps(meta))
    print(f"oracle ln A = {oracle_text}")

    if not args.trace:
        loops = [run_loop(wl, lib, ops, args.seconds, oracle, args.seed,
                          setup=lambda: setup_batch(env))]
        metrics, notes = end_to_end(loops[0])
    else:
        half = args.seconds / 2.0
        plain = run_loop(wl, lib, ops, half, oracle, args.seed)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_loop(wl, lib, ops, half, oracle, args.seed, tracer)
        finally:
            tracer.uninstall()
        loops = [plain, traced]
        overhead = sum(traced.best_ns) / sum(plain.best_ns) - 1.0
        metrics = per_layer(tracer, traced, overhead)
        cli_ops = workloads.Cli().inputs(args.seed)
        first = {}
        for op in cli_ops:
            first.setdefault(op["kind"], op["args"])
        cli_argvs = [first[kind] for kind in workloads.CLI_KINDS]
        found = probes.run_all(lib, args.seed, oracle, cli_argvs, env, OUT_DIR)
        notes = {name: f"{traced.executions} traced executions" for name in metrics}
        notes.update({name: "probe, median of repeats" for name in found})
        metrics = dict(sorted({**metrics, **found}.items()))
        write_trace(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl", meta, tracer)

    report(loops, metrics, notes)
    # Counted over the distinct inputs, so the same seed gives the same counts.
    return {
        "correct": all(lp.unexpected == 0 for lp in loops),
        "attempted": len(ops),
        "failed": max(lp.failed for lp in loops),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args) -> dict:
    """Each workload in its own child process, one after the other."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.rstrip("\n").split("\n")
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            raise BenchError(f"workload {name} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = value
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="glaisher benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "glaisher" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'glaisher'}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)  # before numpy is imported
    OUT_DIR.mkdir(exist_ok=True)
    try:
        result = run_all(args) if args.workload == "all" else run_one(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
