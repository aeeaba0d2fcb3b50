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
  * ln_a_limit_sequence over n;
  * binet_theta and malmsten_log_gamma over (x, tol);
  * identity_residual_eq4 over tol, and construct_reference once.

It is the library twin of tools/cli_grid.py: a refactor that should change
no number is checked by running the grid on both checkouts and diffing:

    python tools/lib_grid.py /path/to/parent > parent.txt
    python tools/lib_grid.py > change.txt
    diff parent.txt change.txt && echo identical
"""

from __future__ import annotations

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
RANDOM_CALLS = 6000


def calls(glaisher, rng):
    """(label, thunk) for every call of the grid, in a fixed order."""

    def ln_a(route, tol, truncate_at, budget):
        kw = {} if budget is None else {"max_evals": budget}
        label = f"ln_a({route!r}, {tol!r}, {truncate_at!r}, {kw!r})"
        return label, lambda: glaisher.ln_a(route, tol, truncate_at, **kw)

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
        yield f"ln_a_limit_sequence({n!r})", lambda n=n: glaisher.ln_a_limit_sequence(n)
    for fn in (glaisher.binet_theta, glaisher.malmsten_log_gamma):
        xs = SPECFUN_XS + [rng.uniform(0.05, 20.0) for _ in range(10)]
        for x in xs:
            for tol in SPECFUN_TOLS:
                yield f"{fn.__name__}({x!r}, {tol!r})", lambda f=fn, x=x, t=tol: f(x, t)
    for tol in TOLS:
        yield f"identity_residual_eq4({tol!r})", lambda t=tol: glaisher.identity_residual_eq4(t)
    yield "construct_reference()", glaisher.construct_reference


def main() -> int:
    root = Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).resolve().parents[1])
    sys.path.insert(0, str(root / "src"))
    import glaisher

    for label, thunk in calls(glaisher, random.Random(SEED)):
        try:
            out = repr(thunk())
        except Exception as exc:  # noqa: BLE001  (the class is the result)
            out = f"raised {type(exc).__name__}"
        print(f"{label} -> {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
