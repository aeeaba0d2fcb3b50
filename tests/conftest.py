"""Fixtures shared by the test modules."""

import pytest

from glaisher import quadrature


@pytest.fixture
def node_calls(monkeypatch):
    """(memo, x) of every integrand value quadrature computes, in order.

    The memo is the panel memo of the integrand the engine sees, kept alive
    so that its id names it, and x the node in that integrand's variable.
    """
    calls, memos = [], []
    finite = quadrature.integrate_finite

    def counting(f, a, b, tol, max_evals, *, panels=None):
        memos.append(panels)

        def g(x):
            calls.append((id(panels), x))
            return f(x)

        return finite(g, a, b, tol, max_evals, panels=panels)

    monkeypatch.setattr(quadrature, "integrate_finite", counting)
    return calls
