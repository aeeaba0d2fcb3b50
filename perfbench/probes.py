"""Micro-probes: the per-layer baseline table, each number measured untraced.

Every probe calls public functions of the program on seeded inputs and
reports a median over repeats.  Child processes run one at a time.
"""

from __future__ import annotations

import contextlib
import io
import random
import statistics
import sys
import time

from workloads import ROUTES, spawn

_ns = time.perf_counter_ns

PROBE_TOLS = {"tol1e-6": 1e-6, "tol1e-10": 1e-10, "tol1e-12": 1e-12}
SEQ_NS = {"n1e3": 1_000, "n1e4": 10_000, "n1e5": 100_000}
SEQ_REPEATS = {"n1e3": 21, "n1e4": 11, "n1e5": 5}
INTEGRAND_IDS = ("classical", "binet_form13", "malmsten_form19", "lngamma_direct")
# 41 log-spaced n over the limit-sequence range [1e3, 1e5].
SEQ_GRID = tuple(round(10 ** (3 + 2 * i / 40)) for i in range(41))


def _per_call_ns(fn, points, repeats=7):
    """Median over repeats of the mean ns of fn(x) for x in points."""
    times = []
    for _ in range(repeats):
        t0 = _ns()
        for x in points:
            fn(x)
        times.append((_ns() - t0) / len(points))
    return statistics.median(times)


def _median_ms(fn, repeats):
    fn()  # warm
    times = []
    for _ in range(repeats):
        t0 = _ns()
        fn()
        times.append((_ns() - t0) / 1e6)
    return statistics.median(times)


def integrand_probes(lib, rng):
    """ns per evaluation on points covering the series branch (t < 0.2) and the tail."""
    tail_points = [10 ** rng.uniform(-3.0, 1.7) for _ in range(2000)]
    unit_points = [rng.uniform(0.0, 0.5) for _ in range(2000)]
    out = {}
    for iid in INTEGRAND_IDS:
        f = lib.integrands.get_integrand(iid).eval
        points = unit_points if iid == "lngamma_direct" else tail_points
        out[f"integrands.eval_ns.{iid}"] = (_per_call_ns(f, points), "ns")
    out["specfun.log_gamma_ns"] = (_per_call_ns(lib.specfun.log_gamma_plus_one, unit_points), "ns")
    return out


def quadrature_probes(lib):
    """One G10+G21 panel of an identity integrand: the engine's own cost."""
    integrate_finite = lib.quadrature.integrate_finite

    def ident(x):
        return x

    batch = range(200)
    times = []
    for _ in range(9):
        t0 = _ns()
        for _ in batch:
            integrate_finite(ident, 0.0, 1.0, 1e-2)
        times.append((_ns() - t0) / len(batch) / 1e3)
    return {"quadrature.panel_us_identity": (statistics.median(times), "us")}


def estimator_probes(lib):
    out = {}
    for route in ROUTES:
        for label, tol in PROBE_TOLS.items():
            ms = _median_ms(lambda: lib.estimator.ln_a(route, tol), 15)
            out[f"estimator.route_ms.{route}.{label}"] = (ms, "ms")
            evals = lib.estimator.ln_a(route, tol).evaluations
            out[f"estimator.route_evals.{route}.{label}"] = (evals, "count")
    return out


def specfun_probes(lib, oracle):
    out = {}
    for label, n in SEQ_NS.items():
        ms = _median_ms(lambda: lib.specfun.glaisher_seq_log_term(n), SEQ_REPEATS[label])
        out[f"specfun.seq_term_ms.{label}"] = (ms, "ms")
    violations = 0
    for n in SEQ_GRID:
        est = lib.estimator.ln_a_limit_sequence(n)
        if not abs(est.ln_A - oracle) <= est.discretization_error + est.truncation_error:
            violations += 1
    out["specfun.seq_bound_violations"] = (violations, "count")
    return out


def _importtime_ms(stderr: bytes, name: str) -> float:
    """Cumulative import time of top-level module `name` from `-X importtime` output."""
    for line in stderr.decode().splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == name:
            return int(parts[1]) / 1e3
    raise ValueError(f"{name} not found in -X importtime output")


def cli_probes(lib, argvs, env, out_dir, repeats=5):
    """Interpreter start, import cost, and a warm in-process replay of the cli argv mix."""
    py = sys.executable
    interp, imp, imp_np = [], [], []
    spawn([py, "-c", "pass"], env, out_dir)  # warm
    for _ in range(repeats):
        interp.append(spawn([py, "-c", "pass"], env, out_dir)[4] * 1e3)
        rc, _, err, _, _ = spawn([py, "-X", "importtime", "-c", "import glaisher"], env, out_dir)
        if rc != 0:
            raise RuntimeError("import glaisher failed in a child process")
        imp.append(_importtime_ms(err, "glaisher"))
        imp_np.append(_importtime_ms(err, "numpy"))
    main = lib.cli.main
    sink = io.StringIO()
    times = []
    for timed in (False, True):
        for argv in argvs:
            sink.seek(0)
            sink.truncate()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                t0 = _ns()
                main(list(argv))
                dt = (_ns() - t0) / 1e6
            if timed:
                times.append(dt)
    return {
        "cli.interp_ms": (statistics.median(interp), "ms"),
        "cli.import_ms": (statistics.median(imp), "ms"),
        "cli.import_numpy_ms": (statistics.median(imp_np), "ms"),
        "cli.main_ms": (statistics.median(times), "ms"),
    }


def run_all(lib, seed, oracle, cli_argvs, env, out_dir):
    """Every probe; metric name -> (value, unit)."""
    rng = random.Random(f"probes:{seed}")
    out = {}
    out.update(integrand_probes(lib, rng))
    out.update(quadrature_probes(lib))
    out.update(estimator_probes(lib))
    out.update(specfun_probes(lib, oracle))
    out.update(cli_probes(lib, cli_argvs, env, out_dir))
    return out
