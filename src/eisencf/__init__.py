"""Continued fractions over the Eisenstein field.

Exact arithmetic in Q(sqrt(-3)), the hexagonal continued fraction map with
digits in the index-3 module of Z[zeta], its finite range structure and dual
cells, and floating-point estimation of the invariant density and the
denominator growth rate.
"""

# nothing is re-exported, so that `import eisencf.cli` loads no numpy
__version__ = "0.1.0"
