"""Frozen outputs of expensive exact computations.

Each entry records the value together with how it was produced, so a
regression can be re-derived from scratch.  All counts are exact
integers over the stated finite field.
"""

# Number of complete isotropic flags of the split 5-dimensional
# quadratic space (antidiagonal gram) satisfying the curve pattern,
# by exhaustive projective enumeration.  With corner coefficient 3
# the variety has no rational point over F_23; with coefficient 1
# it does.
CURVE_COUNT_Q23 = {3: 0, 1: 16}

# Cross-checks of the same counts at small q, where the generic
# flag enumeration and the fast per-point test were both run and
# agreed (the rational-point dichotomy is specific to q = 23).
CURVE_COUNT_Q3 = {3: 0, 1: 4}
CURVE_COUNT_Q5 = {3: 4, 1: 0}
CURVE_COUNT_Q9_COEFF1 = 8

# |GL_n(F_3)| for the exhaustively enumerated groups.
GL2_F3_ORDER = 48
GL3_F3_ORDER = 11232

# Slodowy-slice orbital counts for x = diag(1, -1) in gl_2 over
# F_q': group elements moving x into the regular slice, divided by
# the stabilizer of the triple (the scalars).  Grows linearly in q'.
THETA_DIAG_GL2 = {3: 2, 9: 8}

# Sign vectors of every augmented facet of sl3 over k((t)) in the window
# x in [0, 1/4]^2, r in [1/8, 1/4], against its 6 critical hyperplanes
# in critical_hyperplanes order ("+": r above the plane, "-": below,
# "0": on it).  Enumerated by the recursive sign-tree search that
# padicwf 0.1.0 used (16 facets in about 3.4 s); the arrangement engine
# that replaced it must reproduce them.
SL3_FACET_SIGNS = [
    "--++++", "--+++-", "--+++0", "--++-+", "--++--", "--++-0",
    "--++0+", "--++0-", "--++00", "--+---", "--+0--", "--+00-",
    "---+--", "--0+--", "--0+-0", "00++--",
]
