"""Exact-arithmetic curve-count calculator for projective spaces.

Subpackages/modules:

- graded_algebra: target cohomology rings (projective builtins + JSON-loaded)
- combinatorics: graded sign conventions
- invariant_store: canonical invariant keys, tables, persistent cache
- complex_solver: recursion engine for the complex counts
- real_solver: recursion engine for the real counts
- potentials: truncated generating series and differential-equation residuals
- cli: the ``gwcalc`` command line tool
"""

__version__ = "0.1.0"
