"""Cross-validated computation of ln A, the log of the Glaisher-Kinkelin constant.

Four independent routes (a classical integral, a Binet-derived integral, a
Malmsten-derived integral, and direct quadrature of the ln-Gamma definite
integral) plus the defining limit sequence, with explicit error budgets and
convergence benchmarking of the Binet-vs-Malmsten tail behavior.  The
package exports the one entry, ln_a(method, ...), with METHODS,
ConstantEstimate and LN_A_REFERENCE; every other name is imported from the
module that defines it.
"""

from .estimator import LN_A_REFERENCE, METHODS, ConstantEstimate, ln_a

__version__ = "0.1.0"
