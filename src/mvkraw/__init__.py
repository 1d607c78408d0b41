"""Exact-arithmetic multivariate Krawtchouk toolkit.

Subpackages by role:

- ``numeric``: scalar modes, combinatorics, the lattice, the d = 1 kernel totals
- ``kappa``: the parameter space, families, involution, validation
- ``hyperg``: kernel-sum and generating-function evaluation, tables
- ``liemod``: matrix Lie algebra, module action, bilinear form, pairing
- ``bispec``: difference operators in the degree variables
- ``verify``: named check suites over all of the above
- ``cli``: command-line front end
"""

from .kappa import ParameterSet, validate

__all__ = ["ParameterSet", "validate"]
__version__ = "0.1.0"
