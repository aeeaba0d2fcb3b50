import math

import numpy as np
import pytest

from glaisher import quadrature
from glaisher.bench import (
    CSV_HEADER,
    ConvergenceRecord,
    check_T_list,
    csv_text,
    records_to_string,
    sweep_nodes,
    sweep_truncation,
)
from glaisher.estimator import LN_A_REFERENCE, ROUTES, ln_a
from glaisher.quadrature import DEFAULT_MAX_EVALS

T_GRID = [25.0, 50.0, 100.0, 200.0]
MEMO_TOLS = [1e-13, 1e-10, 1e-6, 1e-3]
# Nested, never nested, and repeated.
MEMO_T_LISTS = [[5.0, 10.0, 20.0, 40.0, 80.0, 160.0, 320.0], [7.0, 11.0, 13.0, 17.0],
                [25.0, 25.0, 50.0]]
MEMO_LADDERS = [[64, 128, 256, 512, 1024], list(range(21, 211, 21)), [63, 63, 126]]


def _alone(est, node_budget):
    """The record of one ln_a run, made on its own."""
    return ConvergenceRecord(
        method=est.method,
        truncation_mode=est.truncation_mode,
        truncation_T=est.truncation_T,
        node_budget=node_budget,
        evaluations_used=est.evaluations,
        abs_error=abs(est.ln_A - LN_A_REFERENCE),
        converged=est.converged,
    )


@pytest.fixture(scope="module")
def binet_truncation():
    return sweep_truncation("binet", T_GRID, tol=1e-12)


@pytest.fixture(scope="module")
def malmsten_truncation():
    return sweep_truncation("malmsten", [25.0, 40.0, 50.0, 100.0], tol=1e-12)


class TestTruncationSweep:
    def test_binet_T100_error(self, binet_truncation):
        rec = next(r for r in binet_truncation if r.truncation_T == 100.0)
        # analytic tail estimate (2/3) * (1/(2T) - 1/(2T^2)) ~ 3.3e-3
        assert 3.3e-3 / 2.0 <= rec.abs_error <= 3.3e-3 * 2.0

    def test_binet_error_halves_with_doubled_T(self, binet_truncation):
        e50 = next(r.abs_error for r in binet_truncation if r.truncation_T == 50.0)
        e100 = next(r.abs_error for r in binet_truncation if r.truncation_T == 100.0)
        assert abs(e50 / e100 - 2.0) <= 0.4  # halves within 20%

    def test_binet_one_over_T_fit(self, binet_truncation):
        # least-squares slope of abs_error vs 1/T should be ~1/3
        xs = [1.0 / r.truncation_T for r in binet_truncation]
        ys = [r.abs_error for r in binet_truncation]
        slope = sum(x * y for x, y in zip(xs, ys)) / sum(x * x for x in xs)
        assert abs(slope - 1.0 / 3.0) <= 0.25 / 3.0

    def test_malmsten_T40(self, malmsten_truncation):
        rec = next(r for r in malmsten_truncation if r.truncation_T == 40.0)
        assert rec.abs_error <= 1e-12

    def test_tail_class_separation(self, binet_truncation):
        # at T = 40 the malmsten route is >= 6 orders of magnitude better
        b = sweep_truncation("binet", [40.0], tol=1e-12)[0]
        m = sweep_truncation("malmsten", [40.0], tol=1e-12)[0]
        assert m.abs_error <= 1e-6 * b.abs_error

    def test_non_converged_recorded_not_dropped(self, binet_truncation):
        # truncate-only binet cannot meet tol 1e-12; rows exist, flagged
        assert len(binet_truncation) == len(T_GRID)
        assert all(not r.converged for r in binet_truncation)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            sweep_truncation("classical", [25.0])
        with pytest.raises(ValueError):
            sweep_truncation("binet", [100.0, 50.0])
        with pytest.raises(ValueError):
            sweep_truncation("binet", [1.0])

    def test_range_is_the_engine_contract(self):
        # The CLI prints this message; its range is quadrature's.
        with pytest.raises(ValueError, match=r"^T values must lie in \[5, 500\]$"):
            check_T_list([5.0, 500.5])
        (rec,) = sweep_truncation("malmsten", [500], tol=1e-6)
        assert type(rec.truncation_T) is float and rec.truncation_T == 500.0


class TestNodeSweep:
    def test_budget_too_small_is_a_legal_outcome(self):
        recs = sweep_nodes("classical", [32])
        assert len(recs) == 1
        assert recs[0].evaluations_used > 0

    def test_doubling_budget_never_hurts(self):
        recs = sweep_nodes("malmsten", [64, 128, 256, 512, 1024], tol=1e-12)
        for a, b in zip(recs, recs[1:]):
            assert b.abs_error <= a.abs_error + 1e-12

    def test_malmsten_beats_truncate_only_binet(self):
        malm = sweep_nodes("malmsten", [256, 512, 1024, 2048], tol=1e-12)
        good = [r for r in malm if r.abs_error <= 1e-9]
        assert good, "malmsten never reached 1e-9"
        evals_m = min(r.evaluations_used for r in good)
        binet = [
            ln_a("binet", 1e-12, 200.0, b)
            for b in (1024, 4096, 10000)
        ]
        errors = [abs(e.ln_A - LN_A_REFERENCE) for e in binet]
        assert all(err > 1e-9 for err in errors)
        assert all(
            evals_m < e.evaluations or err > 1e-9 for e, err in zip(binet, errors)
        )

    @pytest.mark.parametrize("method", list(ROUTES))
    def test_settled_run_is_reused(self, node_calls, method):
        # At tol 1e-12 classical hits the cap at budgets 32 (K21) and 64 (the
        # 43-point level) and settles at 87 evaluations.  The run at 2048 is
        # reused down to 128, and only 64 and 32 run again, so the sweep
        # costs one run per distinct evaluation count.
        budgets = [32, 64, 128, 256, 512, 1024, 2048]
        alone = [_alone(ln_a(method, 1e-12, max_evals=b), b) for b in budgets]
        if method == "classical":
            assert [r.evaluations_used for r in alone[:3]] == [21, 43, 87]
        node_calls.clear()
        assert sweep_nodes(method, budgets, tol=1e-12) == alone
        assert len(node_calls) == sum({r.evaluations_used for r in alone})

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            sweep_nodes("malmsten", [16])
        with pytest.raises(ValueError):
            sweep_nodes("malmsten", [])

    def test_budgets_must_be_integers(self):
        with pytest.raises(ValueError):
            sweep_nodes("binet", [31.9, 64.5])
        assert sweep_nodes("binet", [np.int64(31)])[0].node_budget == 31


class TestPanelMemo:
    """A sweep's records are those of its runs made one by one."""

    @pytest.mark.parametrize("tol", MEMO_TOLS)
    @pytest.mark.parametrize("method", ["binet", "malmsten"])
    def test_truncation_sweep_equals_runs_alone(self, method, tol):
        for ts in MEMO_T_LISTS:
            alone = [_alone(ln_a(method, tol, T), DEFAULT_MAX_EVALS) for T in ts]
            assert sweep_truncation(method, ts, tol) == alone

    @pytest.mark.parametrize("tol", MEMO_TOLS)
    @pytest.mark.parametrize("method", list(ROUTES))
    def test_node_sweep_equals_runs_alone(self, method, tol):
        for budgets in MEMO_LADDERS:
            alone = [_alone(ln_a(method, tol, max_evals=b), b) for b in budgets]
            assert sweep_nodes(method, budgets, tol) == alone

    def test_a_truncation_sweep_costs_its_runs(self, node_calls):
        # Each T runs once, on the first panel of its own tail map: the
        # sweep computes the values of its runs and no more.
        records = sweep_truncation("binet", [100.0, 200.0], 1e-11)
        assert len(node_calls) == sum(r.evaluations_used for r in records)
        assert all(r.evaluations_used in (21, 43, 87) for r in records)

    def test_classical_graded_maps_at_two_T_do_not_share(self):
        # Classical's graded tail map depends on T through its end T/(T+5),
        # so each T builds a node table of its own; a repeated T reuses it.
        quadrature._nodes.cache_clear()
        runs = [ln_a("classical", 1e-10, T) for T in (25.0, 50.0)]
        assert quadrature._nodes.cache_info().misses == 2
        assert ln_a("classical", 1e-10, 25.0) == runs[0]
        assert quadrature._nodes.cache_info()[:2] == (1, 2)


class TestCsv:
    def _record(self):
        return ConvergenceRecord(
            method="binet",
            truncation_mode="truncate",
            truncation_T=100.0,
            node_budget=10000,
            evaluations_used=1234,
            abs_error=0.0032511188,
            converged=False,
        )

    def test_header_exact(self):
        assert CSV_HEADER == (
            "method,truncation_mode,truncation_T,node_budget,"
            "evaluations_used,abs_error,converged"
        )

    def test_single_record_two_lines(self):
        text = records_to_string([self._record()])
        lines = text.strip().split("\n")
        assert len(lines) == 2
        assert lines[0] == CSV_HEADER
        assert lines[1] == "binet,truncate,100.0,10000,1234,0.0032511188,false"

    def test_csv_text(self):
        x = 0.1 + 0.2
        text = csv_text("a,b,c,d", [("binet", x, 21, True), ("malmsten", 2.5e-16, 0, False)])
        assert text == "a,b,c,d\nbinet,0.30000000000000004,21,true\nmalmsten,2.5e-16,0,false\n"
        assert float(text.splitlines()[1].split(",")[1]) == x

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            records_to_string([])
