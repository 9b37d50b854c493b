"""The dense routes that `liealg` and `linalg` replaced with sparse ones,
kept as references that the sparse routes must agree with: the
commutator of tuple matrices and the sl2 certificate on it; the linear
rows of the Jacobson-Morozov solve, one per prime-field coordinate of
each entry; and the nilpotency test, Jordan block sizes and polynomial
evaluation on ffield elements and matrices."""

from padicwf import liealg as lg
from padicwf import linalg as la
from padicwf.orbits import partition


def bracket(a, b):
    """The commutator a b - b a of tuple matrices."""
    return la.mat_sub(la.mat_mul(a, b), la.mat_mul(b, a))


def mats(trip, field, n):
    """The matrices c, h, d of a triple held as nonzero entries."""
    z = la.fzero(field)
    return tuple(la.dense(M, z, n) for M in (trip.c, trip.h, trip.d))


def sl2_check(c, h, d, field):
    """[h, c] = 2c, [h, d] = -2d and [c, d] = h on the whole matrices."""
    two = la.fone(field) + la.fone(field)
    return (bracket(h, c) == la.mat_scale(two, c)
            and bracket(h, d) == la.mat_scale(-two, d)
            and bracket(c, d) == h)


def flat(X, field):
    """Entries of X over the prime subfield, row by row."""
    return [a for row in X for e in row for a in field.coords(e)]


def linear_rows(images, field, n):
    """Matrix over the prime subfield of x -> sum_k x_k images[k], for
    n x n images: one row per entry coordinate, one column per image."""
    flats = [flat(X, field) for X in images]
    return [[f[i] for f in flats] for i in range(n * n * len(field.basis))]


def is_nilpotent(X):
    """Whether X^n = 0, read as X^(2^k) = 0 for the least 2^k >= n."""
    n = len(X)
    P, k = X, 1
    while True:
        if all(not e for row in P for e in row):
            return True
        if k >= n:
            return False
        P = la.mat_mul(P, P)
        k *= 2


def block_sizes(A, d, full):
    """Partition of the Jordan block sizes of A on its generalized kernel,
    of dimension `full`, each block of size k spanning d*k dimensions,
    from the ranks of the powers of A; ValueError("not nilpotent") if the
    kernels stop short of full."""
    n = len(A)
    dims, P = [0], None
    while dims[-1] < full:
        P = A if P is None else la.mat_mul(P, A)
        dims.append(n - la.rank(P))
        if dims[-1] == dims[-2]:
            raise ValueError("not nilpotent")
    geq = [(b - a) // d for a, b in zip(dims, dims[1:])]
    return partition(sum(1 for g in geq if g > i)
                     for i in range(max(geq, default=0)))


def poly_eval_mat(f, a, field):
    """f(a) for a polynomial f, constant term first."""
    out = la.mat_scale(f[0], la.identity(field, len(a)))
    pw = None
    for c in f[1:]:
        pw = a if pw is None else la.mat_mul(pw, a)
        out = la.mat_add(out, la.mat_scale(c, pw))
    return out


def poly_eval(f, x, field):
    """f(x) by Horner's rule."""
    s = la.fzero(field)
    for c in reversed(f):
        s = s * x + c
    return s


def primary_parts(X, field):
    """`liealg.primary_parts` with p(X) and its block sizes on ffield
    matrices."""
    out = []
    for p, m, _ in lg.primary_parts(X, field):
        d = la.poly_deg(p)
        out.append((p, m, block_sizes(poly_eval_mat(p, X, field), d,
                                      d * m)))
    return out
