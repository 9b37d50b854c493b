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

# The corner coefficients c in 1..p-1 whose curve pattern has no point
# over F_p, at every prime from 5 to 47: the zeros of
# curve_counts(range(1, p), p).  The sets from 5 to 31 came from one
# test per coefficient against one quadric solve per prime; those at
# 37 to 47 were found by that route and by the one pass over the
# isotropic points that fills every coefficient at once, which agreed.
# Every count of the sweep is divisible by 4.  The q = 5 and q = 23
# sets agree with CURVE_COUNT_Q5 and CURVE_COUNT_Q23.  p = 47 lies
# above the bound 41 of the u7 example.
CURVE_ZEROS = {5: {1, 4}, 7: {1, 5, 6}, 11: set(), 13: set(),
               17: {2, 4, 8, 9, 13, 15}, 19: set(), 23: {3, 8, 21, 22},
               29: set(), 31: {10, 15, 28}, 37: set(), 41: set(),
               43: set(), 47: {41}}

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

# The backward reachable set of `graph reach --scenario u7h`: the
# vertices with a directed path into the end of the u7h trace, in the
# window x in [0, 1]^2, r in [-1, 1].  Closed by predecessor queries;
# certified by a second, forward route (every vertex but the target has
# an out-edge into the set: its cocharacter walk if its facet is
# horizontal, else a facet below it with the same matrix).  All 1248
# cosets are nilpotent.
U7H_REACH_VERTICES = 1248

# Its census by facet depth: the number of vertices at dimension 0, 1,
# 2, ... of that depth (78 nonzero (depth, dim) cells).
U7H_REACH_CENSUS = {
    "-1": [5, 4],
    "-9/10": [4, 12, 12, 4],
    "-5/6": [7, 33, 51, 21],
    "-3/4": [6, 16, 26, 10],
    "-7/10": [4, 12, 12, 4],
    "-2/3": [2, 6, 6, 2],
    "-1/2": [4, 63, 138, 81],
    "-1/3": [2, 6, 6, 2],
    "-3/10": [4, 12, 12, 4],
    "-1/4": [9, 31, 51, 22],
    "-1/6": [9, 41, 65, 27],
    "-1/8": [2, 6, 6, 2],
    "-1/10": [5, 15, 15, 5],
    "0": [5, 43, 79, 42],
    "1/10": [3, 9, 9, 3],
    "1/6": [5, 20, 29, 12],
    "1/4": [4, 14, 19, 8],
    "3/10": [2, 6, 6, 2],
    "1/3": [1, 3, 3, 1],
    "1/2": [1, 4, 7, 4],
}
