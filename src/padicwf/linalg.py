"""Exact linear algebra over field element objects.

Matrices are tuples of tuples (immutable) whose entries support +, -, *
and truth testing (zero is the only falsy element).

The kernels `mat_mul`, `mat_add`, `mat_sub` and `mat_scale` skip
zeros: `mat_mul` multiplies each nonzero entry of a row of a only by
the nonzero entries of the matching row of b, and adding a zero
returns the other operand.  A product with a zero factor is zero, and
adding one changes no entry, so every entry is the one the dense loop
would give.
`bracket` works on the sparse form alone, a matrix held as its nonzero
entries {(i, j): entry} (`sparse`, and back by `dense`): the one
commutator of the package, for the sl2 certificate and the integer codes
of `liealg` and the commutation test of `wavefront`'s chains.

Every row reduction of one matrix in the package goes through one
Gauss-Jordan kernel, `rref` (`springerlab._rref_codes` is the same
elimination, pivot rule and determinant included, on stacks of ExtField
code arrays).  It touches entries only through the field operations it
is given, ops = (sub, mul, inv), and tests them for zero by truth value,
so one code path serves every element representation: ffield elements
(`FF_OPS`, the default), integers and Fractions over Q (`Q_OPS`) and
the integer codes of `ffield.ExtField` (its `ops`, with the field
itself as the field of `solve` and `kernel_basis`).
It returns the reduced rows, the pivot columns and, for square input,
the determinant; `rank`, `kernel_basis` and `solve` are read off it.

Polynomials are lists of coefficients, constant term first.  Over the
finite fields of `ffield`, `squarefree_decomposition` is Yun's algorithm
with one p-th-root recursion for characteristic p; `factor_poly` splits
each of its parts by degree and then by Cantor-Zassenhaus, and returns
a polynomial of degree 1 at once, as its own monic factor with
multiplicity 1: `liealg.primary_parts` factors the characteristic
polynomial of each diagonal block of a block-triangular form, and most
of those blocks are 1x1.  A constant still factors as [].
"""

import operator
import random
from fractions import Fraction
from functools import partial


def fzero(field):
    z = field.zero
    return z() if callable(z) else z


def fone(field):
    o = field.one
    return o() if callable(o) else o


def mat(rows):
    return tuple(tuple(r) for r in rows)


def zero_mat(field, n):
    z = fzero(field)
    return tuple(tuple(z for _ in range(n)) for _ in range(n))


def identity(field, n):
    z, o = fzero(field), fone(field)
    return tuple(tuple(o if i == j else z for j in range(n))
                 for i in range(n))


def unit_mats(field, n, units):
    """The n x n matrices b E_ij of units given as (i, j, b)."""
    z = fzero(field)
    return [tuple(tuple(b if (r, c) == (i, j) else z for c in range(n))
                  for r in range(n)) for i, j, b in units]


def mat_add(a, b):
    return tuple(tuple((x + y if y else x) if x else y
                       for x, y in zip(ra, rb))
                 for ra, rb in zip(a, b))


def mat_sub(a, b):
    """a - b; where both entries are zero, b's zero."""
    return tuple(tuple((x - y if y else x) if x else (-y if y else y)
                       for x, y in zip(ra, rb))
                 for ra, rb in zip(a, b))


def mat_scale(c, a):
    return tuple(tuple(c * x if x else x for x in r) for r in a)


def mat_mul(a, b):
    """The product a b, summing only the products of two nonzero entries
    in the order of the inner index.  An entry that no such product
    reaches is a sum of zeros: it takes the value of one of its
    skipped products, the zero of the entries' representation."""
    assert len(a[0]) == len(b)
    nzb = [[(j, y) for j, y in enumerate(r) if y] for r in b]
    zero = None
    out = []
    for i, r in enumerate(a):
        row = [None] * len(b[0])
        for k, x in enumerate(r):
            if x:
                for j, y in nzb[k]:
                    s = row[j]
                    row[j] = x * y if s is None else s + x * y
        for j, s in enumerate(row):
            if s is None:
                if zero is None:
                    zero = a[i][0] * b[0][j]
                row[j] = zero
        out.append(tuple(row))
    return tuple(out)


def mat_comb(coeffs, mats, field, n):
    """The n x n matrix sum_k coeffs[k] * mats[k], over the nonzero
    coefficients."""
    X = zero_mat(field, n)
    for c, M in zip(coeffs, mats):
        if c:
            X = mat_add(X, mat_scale(c, M))
    return X


def sparse(a):
    """The nonzero entries of the matrix a, as {(i, j): entry}."""
    return {(i, j): x for i, r in enumerate(a) for j, x in enumerate(r)
            if x}


def dense(a, zero, n):
    """The n x n matrix with the nonzero entries a = {(i, j): entry} and
    `zero` elsewhere."""
    return tuple(tuple(a.get((i, j), zero) for j in range(n))
                 for i in range(n))


def bracket(a, b):
    """The commutator a b - b a of square matrices given by their nonzero
    entries {(i, j): entry}, with the same keys: a product of two nonzero
    entries is added at (i, j) for a_ik b_kj and subtracted for b_ik a_kj,
    and the entries that sum to zero are dropped.  Addition is
    commutative, so each entry is that of `mat_sub(mat_mul(a, b),
    mat_mul(b, a))` on the dense matrices."""
    rows, cols = {}, {}
    for (k, j), y in b.items():
        rows.setdefault(k, []).append((j, y))
        cols.setdefault(j, []).append((k, y))
    out = {}
    for (i, k), x in a.items():
        for j, y in rows.get(k, ()):
            s = out.get((i, j))
            out[i, j] = x * y if s is None else s + x * y
        for j, y in cols.get(i, ()):
            s = out.get((j, k))
            out[j, k] = -(y * x) if s is None else s - y * x
    return {key: x for key, x in out.items() if x}


# -- the elimination kernel ---------------------------------------------


# The arithmetic of ffield elements, the default.
FF_OPS = (operator.sub, operator.mul, operator.methodcaller("inv"))
# The arithmetic of Q on integers and Fractions: an inverse is
# Fraction(1, x), as 1 / x would be a float for an integer.
Q_OPS = (operator.sub, operator.mul, partial(Fraction, 1))


def rref(rows, ops=FF_OPS):
    """Reduced row echelon form by Gauss-Jordan elimination.

    ops = (sub, mul, inv) is the field's arithmetic; zero must be the only
    falsy element.  Returns (rows, pivots, det): the reduced rows, zero
    rows last; the pivot column of each nonzero row; and for square
    non-empty input the determinant, else None.
    """
    sub, mul, inv = ops
    rows = [list(r) for r in rows]
    n, m = len(rows), len(rows[0]) if rows else 0
    pivots = []
    det, flips = None, 0
    for c in range(m):
        r = len(pivots)
        if r == n:
            break
        piv = next((i for i in range(r, n) if rows[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            flips += 1
        lead = rows[r][c]
        det = lead if det is None else mul(det, lead)
        s = inv(lead)
        rows[r] = top = [mul(x, s) if x else x for x in rows[r]]
        for i in range(n):
            f = rows[i][c]
            if i != r and f:
                rows[i] = [sub(x, mul(f, y)) if y else x
                           for x, y in zip(rows[i], top)]
        pivots.append(c)
    if n != m or not n:
        det = None
    elif len(pivots) < n:
        det = sub(rows[0][0], rows[0][0])
    elif flips % 2:
        det = _neg(det, sub)
    return rows, pivots, det


def _neg(x, sub):
    return sub(sub(x, x), x)


def rank(a, ops=FF_OPS):
    return len(rref(a, ops)[1])


def kernel_basis(a, field, ops=FF_OPS):
    """Basis of the right kernel of the matrix a."""
    n = len(a[0]) if a else 0
    rows, pivots, _ = rref(a, ops)
    z, o = fzero(field), fone(field)
    basis = []
    for fc in range(n):
        if fc in pivots:
            continue
        v = [z] * n
        v[fc] = o
        for r, pc in enumerate(pivots):
            v[pc] = _neg(rows[r][fc], ops[0])
        basis.append(tuple(v))
    return basis


def solve(a, b, field, ops=FF_OPS):
    """One solution x of a x = b, or None."""
    m = len(a[0]) if a else 0
    rows, pivots, _ = rref([list(r) + [y] for r, y in zip(a, b)], ops)
    if m in pivots:
        return None  # inconsistent
    x = [fzero(field)] * m
    for r, pc in enumerate(pivots):
        x[pc] = rows[r][m]
    return tuple(x)


# -- characteristic polynomial (division-free, Berkowitz) --------------


def charpoly(a, field):
    """Characteristic polynomial of a, constant term first, monic.

    Berkowitz' algorithm: no divisions, valid over any commutative ring.
    Sign convention: returns det(X*I - a) coefficients.
    """
    n = len(a)
    z, o = fzero(field), fone(field)
    if n == 0:
        return [o]
    # iteratively build the coefficient vector
    poly = [o, -a[0][0]]  # charpoly of the 1x1 leading block, highest first
    for k in range(1, n):
        # principal (k+1)x(k+1) block data
        row = [a[k][j] for j in range(k)]        # R
        col = [a[j][k] for j in range(k)]        # S
        akk = a[k][k]
        blk = [[a[i][j] for j in range(k)] for i in range(k)]  # A_k
        # toeplitz column: [1, -akk, -R S, -R A S, -R A^2 S, ...]
        tcol = [o, -akk]
        vec = col
        for _ in range(k):
            s = z
            for i in range(k):
                s = s + row[i] * vec[i]
            tcol.append(-s)
            vec = [sum((blk[i][j] * vec[j] for j in range(k)), z)
                   for i in range(k)]
        new = [z] * (k + 2)
        for i in range(k + 2):
            s = z
            for j in range(min(i, len(poly) - 1) + 1):
                if i - j < len(tcol):
                    s = s + tcol[i - j] * poly[j]
            new[i] = s
        poly = new
    poly.reverse()  # constant term first
    return poly


# -- polynomial utilities over a finite field --------------------------


def poly_trim(f):
    while len(f) > 1 and not f[-1]:
        f = f[:-1]
    return f


def poly_deg(f):
    f = poly_trim(f)
    if len(f) == 1 and not f[0]:
        return -1
    return len(f) - 1


def poly_add(f, g, field):
    z = fzero(field)
    n = max(len(f), len(g))
    f = list(f) + [z] * (n - len(f))
    g = list(g) + [z] * (n - len(g))
    return poly_trim([x + y for x, y in zip(f, g)])


def poly_mul(f, g, field):
    z = fzero(field)
    out = [z] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        if not x:
            continue
        for j, y in enumerate(g):
            out[i + j] = out[i + j] + x * y
    return poly_trim(out)


def poly_divmod(f, g, field):
    z = fzero(field)
    f = list(poly_trim(f))
    g = poly_trim(g)
    dg = poly_deg(g)
    assert dg >= 0, "division by zero polynomial"
    inv = g[-1].inv()
    q = [z] * max(1, len(f) - dg)
    while poly_deg(f) >= dg:
        d = poly_deg(f)
        c = f[d] * inv
        q[d - dg] = c
        for i in range(dg + 1):
            f[d - dg + i] = f[d - dg + i] - c * g[i]
        f = list(poly_trim(f))
    return poly_trim(q), poly_trim(f)


def poly_monic(f):
    f = poly_trim(f)
    if poly_deg(f) < 0:
        return f
    inv = f[-1].inv()
    return [c * inv for c in f]


def poly_gcd(f, g, field):
    f, g = poly_trim(f), poly_trim(g)
    while poly_deg(g) >= 0:
        _, r = poly_divmod(f, g, field)
        f, g = g, r
    return poly_monic(f)


def poly_deriv(f, field):
    z = fzero(field)
    if len(f) <= 1:
        return [z]
    out = []
    for i in range(1, len(f)):
        c = z
        for _ in range(i):
            c = c + f[i]
        out.append(c)
    return poly_trim(out)


def _pth_root_poly(f, field):
    """p-th root of f when f(x) = g(x^p): the inverse Frobenius on each
    coefficient, which is conj on the fields of degree at most 2."""
    assert all(not c for i, c in enumerate(f) if i % field.p), \
        "polynomial is not a p-th power"
    return poly_trim([c.conj() for c in f[::field.p]])


def poly_powmod(f, e, mod, field):
    """f^e modulo the polynomial mod."""
    _, r = poly_divmod(f, mod, field)
    out = [fone(field)]
    while e:
        if e & 1:
            _, out = poly_divmod(poly_mul(out, r, field), mod, field)
        e >>= 1
        if e:
            _, r = poly_divmod(poly_mul(r, r, field), mod, field)
    return out


def _quo(f, g, field):
    return poly_divmod(f, g, field)[0]


def squarefree_decomposition(f, field):
    """List of (g, m), g monic, squarefree and pairwise coprime, with
    monic f = prod g^m.

    Yun's algorithm (SYMSAC 1976), with one p-th-root recursion for
    characteristic p.  Let b be the product of the distinct factors h
    whose multiplicity e_h is prime to p; then f'/gcd(f, f') =
    sum e_h h' b/h.  Yun's loop takes i = 1, 2, ... and splits off
    gcd(b, c - b') with c = sum (e_h - i + 1) h' b/h: the factors with
    e_h = i mod p.  What these parts leave of f is a p-th power.  Its
    p-th root decomposes recursively, and a factor met there with
    multiplicity j and in the part of residue i has e_h = i + p j.
    """
    f = poly_monic(f)
    if poly_deg(f) <= 0:
        return []
    df = poly_deriv(f, field)
    a = poly_gcd(f, df, field)
    b, c = _quo(f, a, field), _quo(df, a, field)
    parts, rest, i = [], f, 1
    while poly_deg(b) > 0:
        d = poly_add(c, [-x for x in poly_deriv(b, field)], field)
        g = poly_gcd(b, d, field)
        parts.append((g, i))
        for _ in range(i):
            rest = _quo(rest, g, field)
        b, c, i = _quo(b, g, field), _quo(d, g, field), i + 1
    out = []
    p = field.p
    for r, j in squarefree_decomposition(_pth_root_poly(rest, field),
                                         field):
        for k, (g, e) in enumerate(parts):
            s = poly_gcd(g, r, field)
            if poly_deg(s) > 0:
                out.append((s, e + p * j))
                parts[k] = (_quo(g, s, field), e)
                r = _quo(r, s, field)
        out.append((r, p * j))
    return [(g, m) for g, m in parts + out if poly_deg(g) > 0]


def _distinct_degree(f, field):
    """Pairs (g, d): g the product of the degree-d irreducible factors
    of the squarefree monic f."""
    q = field.q
    x = [fzero(field), fone(field)]
    out = []
    rem = poly_monic(f)
    d = 0
    xq = x
    while poly_deg(rem) > 0:
        d += 1
        if 2 * d > poly_deg(rem):
            out.append((rem, poly_deg(rem)))
            break
        xq = poly_powmod(xq, q, rem, field)
        g = poly_gcd(poly_add(xq, [fzero(field), -fone(field)], field),
                     rem, field)
        if poly_deg(g) > 0:
            out.append((g, d))
            rem, _ = poly_divmod(rem, g, field)
            _, xq = poly_divmod(xq, rem, field) if poly_deg(rem) > 0 \
                else (None, xq)
    return out


def factor_poly(f, field):
    """Monic irreducible factorization: list of (factor, multiplicity).

    Each squarefree part is split by degree, then by Cantor-Zassenhaus
    from a fixed seed, so the factors come in a reproducible order.  A
    polynomial of degree 1 is its own monic factor, with multiplicity 1.
    """
    if poly_deg(f) == 1:
        return [(poly_monic(f), 1)]
    rng = random.Random(12345)
    q = field.q

    def split(u, d):
        """The irreducible factors of u, a product of distinct ones of
        degree d."""
        n = poly_deg(u)
        if n == d:
            return [u]
        while True:
            h = poly_trim([field.random(rng) for _ in range(n)])
            if poly_deg(h) < 1:
                continue
            g = poly_gcd(h, u, field)
            if not 0 < poly_deg(g) < n:
                hp = poly_powmod(h, (q ** d - 1) // 2, u, field)
                g = poly_gcd(poly_add(hp, [-fone(field)], field), u, field)
            if 0 < poly_deg(g) < n:
                return split(g, d) + split(_quo(u, g, field), d)

    return [(h, m) for g, m in squarefree_decomposition(f, field)
            for gd, d in _distinct_degree(g, field) for h in split(gd, d)]
