"""Atomic lengths of (affine) Weyl group elements and their universality,
checked at desk scale: entropy of affine permutations, quadratic-form
representation scans, Hall-type difference sets, core multipartitions, and
finite-type saturation."""

__version__ = "0.1.0"

# The choice lists the command line offers, here so that its parser reads
# them without loading the modules that use them; affine_classical and
# finite_weyl re-export them.
LATTICE_TAGS = ("B1", "C1", "D1", "A2odd", "A2even", "D2")
SERIES = ("A", "B", "C", "D")
