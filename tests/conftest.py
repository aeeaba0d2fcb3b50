"""Fixtures shared by the test modules."""

import pytest

from glaisher import quadrature


@pytest.fixture
def node_calls(monkeypatch):
    """The node t of every integrand value quadrature computes, in order.

    t is in the integrand's own variable: integrate_finite applies its map
    when it builds the node table, so f sees the mapped nodes.
    """
    calls = []
    finite = quadrature.integrate_finite

    def counting(f, *args, **kwargs):
        def g(t):
            calls.append(t)
            return f(t)

        return finite(g, *args, **kwargs)

    monkeypatch.setattr(quadrature, "integrate_finite", counting)
    return calls
