"""Call the glaisher library on a fixed, seeded grid and print what each call returned.

Usage:
    python tools/lib_grid.py [CHECKOUT] > lib.txt

CHECKOUT is the root of a glaisher checkout (default: the one holding this
script); its src/ is imported.  Each call prints one line: the call, then
the repr of its result (every field of a ConstantEstimate or
QuadratureResult, floats in shortest round-trip form) or the class of the
exception it raised.  Messages are left out, so a reworded error does not
count as a changed result.  The calls are

  * ln_a over route x tol x {auto, truncate_at T} x budget, with each T
    drawn from a seeded generator, then RANDOM_CALLS more draws of route,
    tol (log-uniform), auto or truncate_at T, and budget;
  * ln_a_limit_sequence over n_max, then over n_max x tol;
  * binet_theta and malmsten_log_gamma over (x, tol);
  * construct_reference once;
  * bench.sweep_truncation (binet, malmsten) and bench.sweep_nodes (every
    route) over tol x a list of T or budgets: nested, never nested,
    repeated and seeded ones;
  * ln_a('limit_sequence', ...) over {default, n_max} x tol, with n_max
    passed as max_evals;
  * ln_a_limit_sequence(N_MAX, tol) at each bar that lies in the accepted
    tol range (_seq_bar(n), n = 2..19) and at its two float neighbours, so
    the tie rule (a tol equal to a bar selects that n) is pinned;
  * ln_a('binet'|'malmsten', 1e-12, 200.0) at budgets on each side of the
    87-point level and past it, where a larger budget changes nothing;
  * glaisher_seq_log_term(n) at every n <= 1000, at the 200 log-spaced n
    in [1e3, 1e5] of tests/test_oracle.py's bar test, and at 77777, 99991
    and N_MAX;
  * each registered integrand's eval (labelled eval:<id>), binet_integrand
    form 12, malmsten_integrand form 18 and specfun._theta_kernel at
    POINT_COUNT log-spaced t in [1e-6, 50] and at each series switch and
    its two float neighbours, so the series are pinned pointwise and not
    only inside sums; lngamma_direct only at the t within its domain;
  * quadrature.integrate on the classical, binet_form13 and
    malmsten_form19 integrands over tol x {auto, T = 5, 50, 500} x budget
    {default, 43}, so integrate's own record, truncated tails included, is
    pinned and not only the ln_a record built from it.

It is the library twin of tools/cli_grid.py: a refactor that should change
no number is checked by running the grid on both checkouts and diffing:

    python tools/lib_grid.py /path/to/parent > parent.txt
    python tools/lib_grid.py > change.txt
    diff parent.txt change.txt && echo identical
"""

from __future__ import annotations

import math
import random
import sys
from pathlib import Path

SEED = 20240607
ROUTES = ["classical", "binet", "malmsten", "direct_lgamma"]
TOLS = [1e-13, 3e-13, 1e-12, 1e-11, 1e-10, 1e-9, 3e-8, 1e-6, 1e-4, 1e-3]
BUDGETS = [None, 31, 62, 93, 500, 2000]
SPECFUN_TOLS = [1e-12, 1e-10, 1e-8, 1e-6, 1e-4]
SPECFUN_XS = [0.0, 0.1, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 10.0]
SEQUENCE_NS = [1, 2, 3, 100, 1000, 4001]
SEQUENCE_N_MAXES = [1, 5, 20, 1000]  # and estimator.N_MAX
RANDOM_CALLS = 6000
SWEEP_TOLS = [1e-13, 1e-11, 1e-8, 1e-6, 1e-3]
T_LISTS = [[5.0, 10.0, 20.0, 40.0, 80.0, 160.0, 320.0], [7.0, 11.0, 13.0, 17.0],
           [25.0, 25.0, 50.0], [500.0]]
BUDGET_LISTS = [[64, 128, 256, 512, 1024], list(range(21, 211, 21)), [63, 63, 126],
                [21, 22, 41, 42, 43, 300]]
SEEDED_LISTS = 2
TIE_NS = range(2, 20)  # the n whose bar lies in [TOL_MIN, TOL_MAX]
# Each side of the 87-point level, and past it, on the two routes forced to
# a long truncated tail.
LEVEL_EDGE_BUDGETS = [86, 87, 128, 129, 170, 171]
# The integrands' pointwise grid: log-spaced over [1e-6, 50], across every
# switch of their evaluators.
POINT_COUNT = 200
# quadrature.integrate's own record: the semi-infinite integrands, with the
# automatic rule and three forced T, at the default budget and at 43.
INTEGRATE_IDS = ["classical", "binet_form13", "malmsten_form19"]
INTEGRATE_TS = [None, 5.0, 50.0, 500.0]
INTEGRATE_BUDGETS = [None, 43]


def calls(glaisher, rng):
    """(label, thunk) for every call of the grid, in a fixed order."""

    estimator, specfun, bench = glaisher.estimator, glaisher.specfun, glaisher.bench

    def ln_a(route, tol, truncate_at, budget):
        kw = {} if budget is None else {"max_evals": budget}
        label = f"ln_a({route!r}, {tol!r}, {truncate_at!r}, {kw!r})"
        return label, lambda: estimator.ln_a(route, tol, truncate_at, **kw)

    for route in ROUTES:
        for tol in TOLS:
            for budget in BUDGETS:
                t_cut = rng.uniform(2.0, 200.0)
                for truncate_at in (None, t_cut):
                    yield ln_a(route, tol, truncate_at, budget)
    for _ in range(RANDOM_CALLS):
        route = rng.choice(ROUTES)
        tol = 10.0 ** rng.uniform(-13.0, -3.0)
        truncate_at = rng.choice([None, rng.uniform(0.5, 300.0)])
        budget = rng.choice(BUDGETS)
        yield ln_a(route, tol, truncate_at, budget)
    for n in SEQUENCE_NS:
        yield f"ln_a_limit_sequence({n!r})", lambda n=n: estimator.ln_a_limit_sequence(n)
    for n_max in (*SEQUENCE_N_MAXES, estimator.N_MAX):
        for tol in TOLS:
            yield (f"ln_a_limit_sequence({n_max!r}, {tol!r})",
                   lambda n=n_max, t=tol: estimator.ln_a_limit_sequence(n, t))
    for fn in (specfun.binet_theta, specfun.malmsten_log_gamma):
        xs = SPECFUN_XS + [rng.uniform(0.05, 20.0) for _ in range(10)]
        for x in xs:
            for tol in SPECFUN_TOLS:
                yield f"{fn.__name__}({x!r}, {tol!r})", lambda f=fn, x=x, t=tol: f(x, t)
    yield "construct_reference()", estimator.construct_reference
    t_lists = T_LISTS + [sorted(rng.uniform(5.0, 500.0) for _ in range(4))
                         for _ in range(SEEDED_LISTS)]
    budget_lists = BUDGET_LISTS + [sorted(rng.randrange(21, 2000) for _ in range(5))
                                   for _ in range(SEEDED_LISTS)]
    for tol in SWEEP_TOLS:
        for method in ("binet", "malmsten"):
            for ts in t_lists:
                yield (f"sweep_truncation({method!r}, {ts!r}, {tol!r})",
                       lambda m=method, ts=ts, t=tol: bench.sweep_truncation(m, ts, t))
        for route in ROUTES:
            for budgets in budget_lists:
                yield (f"sweep_nodes({route!r}, {budgets!r}, {tol!r})",
                       lambda r=route, b=budgets, t=tol: bench.sweep_nodes(r, b, t))
    for n_max in (None, *SEQUENCE_N_MAXES, estimator.N_MAX):
        for tol in TOLS:
            yield ln_a("limit_sequence", tol, None, n_max)
    for n in TIE_NS:
        bar = estimator._seq_bar(n)
        for tol in (math.nextafter(bar, 0.0), bar, math.nextafter(bar, 1.0)):
            yield (f"ln_a_limit_sequence({estimator.N_MAX!r}, {tol!r})",
                   lambda t=tol: estimator.ln_a_limit_sequence(estimator.N_MAX, t))
    for route in ("binet", "malmsten"):
        for budget in LEVEL_EDGE_BUDGETS:
            yield ln_a(route, 1e-12, 200.0, budget)
    term_ns = [*range(1, 1001), *(round(1e3 * 100.0 ** (i / 199)) for i in range(200)),
               77777, 99991, specfun.N_MAX]
    for n in term_ns:
        yield f"glaisher_seq_log_term({n!r})", lambda n=n: specfun.glaisher_seq_log_term(n)
    integrands = glaisher.integrands
    switches = (integrands.SERIES_SWITCH_T, specfun._THETA_KERNEL_SWITCH)
    points = sorted({1e-6 * 5e7 ** (i / (POINT_COUNT - 1)) for i in range(POINT_COUNT)}
                    | {x for s in switches
                       for x in (math.nextafter(s, 0.0), s, math.nextafter(s, 1.0))})
    for iid in integrands.INTEGRAND_IDS:
        spec = integrands.get_integrand(iid)
        for t in points:
            if t <= spec.domain_upper:
                yield f"eval:{iid}({t!r})", lambda f=spec.eval, t=t: f(t)
    for fn, form in ((integrands.binet_integrand, 12), (integrands.malmsten_integrand, 18)):
        for t in points:
            yield f"{fn.__name__}({t!r}, {form!r})", lambda f=fn, t=t, k=form: f(t, k)
    for t in points:
        yield f"_theta_kernel({t!r})", lambda t=t: specfun._theta_kernel(t)
    for iid in INTEGRATE_IDS:
        spec = integrands.get_integrand(iid)
        for tol in TOLS:
            for truncate_at in INTEGRATE_TS:
                for budget in INTEGRATE_BUDGETS:
                    kw = {} if budget is None else {"max_evals": budget}
                    yield (f"integrate({iid!r}, {tol!r}, {truncate_at!r}, {kw!r})",
                           lambda s=spec, t=tol, T=truncate_at, kw=kw:
                           glaisher.quadrature.integrate(s, t, T, **kw))


def main() -> int:
    root = Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).resolve().parents[1])
    sys.path.insert(0, str(root / "src"))
    import glaisher
    import glaisher.bench  # noqa: F401  (a submodule the package does not import)

    for label, thunk in calls(glaisher, random.Random(SEED)):
        try:
            out = repr(thunk())
        except Exception as exc:  # noqa: BLE001  (the class is the result)
            out = f"raised {type(exc).__name__}"
        print(f"{label} -> {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
