"""Exact linear algebra over field element objects.

Matrices are tuples of tuples (immutable) whose entries support +, -, *
and truth testing (zero is the only falsy element).

Every row reduction in the package goes through one Gauss-Jordan kernel,
`rref`.  It touches entries only through the field operations it is
given, ops = (sub, mul, inv), and tests them for zero by truth value, so
one code path serves every element representation: ffield elements
(`FF_OPS`, the default), integers and Fractions over Q (`Q_OPS`) and
the integer codes of `springerlab.ExtField` (its table-driven `ops`).
It returns the reduced rows, the pivot columns and, for square input,
the determinant; `rank`, `kernel_basis`, `solve` and `mat_inv` are read
off it.

Polynomials are lists of coefficients, constant term first.
"""

import operator
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


def zero_mat(field, n, m=None):
    z = fzero(field)
    m = n if m is None else m
    return tuple(tuple(z for _ in range(m)) for _ in range(n))


def identity(field, n):
    z, o = fzero(field), fone(field)
    return tuple(tuple(o if i == j else z for j in range(n))
                 for i in range(n))


def mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb))
                 for ra, rb in zip(a, b))


def mat_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb))
                 for ra, rb in zip(a, b))


def mat_scale(c, a):
    return tuple(tuple(c * x for x in r) for r in a)


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    assert len(a[0]) == k
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            s = a[i][0] * b[0][j]
            for l in range(1, k):
                s = s + a[i][l] * b[l][j]
            row.append(s)
        out.append(tuple(row))
    return tuple(out)


def transpose(a):
    return tuple(tuple(a[i][j] for i in range(len(a)))
                 for j in range(len(a[0])))


def trace(a):
    s = a[0][0]
    for i in range(1, len(a)):
        s = s + a[i][i]
    return s


def bracket(a, b):
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


def mat_vec(a, v):
    return tuple(sum_list([a[i][j] * v[j] for j in range(len(v))])
                 for i in range(len(a)))


def sum_list(xs):
    s = xs[0]
    for x in xs[1:]:
        s = s + x
    return s


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


def mat_inv(a, field):
    n = len(a)
    aug = [list(r) + list(e) for r, e in zip(a, identity(field, n))]
    rows, pivots, _ = rref(aug)
    if pivots != list(range(n)):
        raise ZeroDivisionError("matrix not invertible")
    return tuple(tuple(r[n:]) for r in rows)


def conjugate(g, x, field):
    return mat_mul(mat_mul(g, x), mat_inv(g, field))


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
            vec = [sum_list([blk[i][j] * vec[j] for j in range(k)])
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


def poly_monic(f, field):
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
    return poly_monic(f, field)


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


def poly_eval(f, x, field):
    s = fzero(field)
    for c in reversed(f):
        s = s * x + c
    return s


def poly_eval_mat(f, a, field):
    n = len(a)
    out = mat_scale(f[0], identity(field, n))
    pw = identity(field, n)
    for c in f[1:]:
        pw = mat_mul(pw, a)
        out = mat_add(out, mat_scale(c, pw))
    return out


def _pth_root_poly(f, field):
    """p-th root of f when f(x) = g(x^p); coefficientwise p-th root."""
    p = field.p
    assert all(not c for i, c in enumerate(f) if i % p), \
        "polynomial is not a p-th power"
    out = []
    for i in range(0, len(f), p):
        c = f[i]
        # p-th root in F_p is identity; in F_{p^2} it is the Frobenius
        out.append(c if field.degree == 1 else c.conj())
    return poly_trim(out)


def poly_radical(f, field):
    """Product of the distinct irreducible factors of f (monic)."""
    f = poly_monic(f, field)
    if poly_deg(f) <= 0:
        return [fone(field)]
    df = poly_deriv(f, field)
    if poly_deg(df) < 0:
        return poly_radical(_pth_root_poly(f, field), field)
    g = poly_gcd(f, df, field)
    h, r = poly_divmod(f, g, field)
    assert poly_deg(r) < 0
    # strip every factor of h out of g, then recurse on what is left
    g1 = g
    while True:
        d = poly_gcd(g1, h, field)
        if poly_deg(d) <= 0:
            break
        g1, r = poly_divmod(g1, d, field)
        assert poly_deg(r) < 0
    rest = poly_radical(g1, field) if poly_deg(g1) > 0 else [fone(field)]
    out = poly_mul(h, rest, field)
    # the recursion can reintroduce shared factors; remove duplicates
    return _dedupe_radical(out, field)


def _dedupe_radical(f, field):
    df = poly_deriv(f, field)
    if poly_deg(df) < 0:
        return poly_radical(f, field)
    g = poly_gcd(f, df, field)
    if poly_deg(g) <= 0:
        return poly_monic(f, field)
    q, _ = poly_divmod(f, g, field)
    return _dedupe_radical(q, field)


def poly_roots(f, field):
    """All roots of f in the (small) finite field, by scanning."""
    return [x for x in field.elements() if not poly_eval(f, x, field)]


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


def squarefree_decomposition(f, field):
    """List of (monic squarefree g, multiplicity m) with f = prod g^m."""
    f = poly_monic(f, field)
    out = []
    if poly_deg(f) <= 0:
        return out
    df = poly_deriv(f, field)
    if poly_deg(df) < 0:
        # f = g(x^p): recurse on the p-th root with multiplicities scaled
        for g, m in squarefree_decomposition(_pth_root_poly(f, field), field):
            out.append((g, m * field.p))
        return out
    a = poly_gcd(f, df, field)
    b, _ = poly_divmod(f, a, field)     # product of distinct factors
    m = 1
    while poly_deg(b) > 0:
        c = poly_gcd(a, b, field)
        piece, _ = poly_divmod(b, c, field)  # factors with multiplicity == m
        if poly_deg(piece) > 0:
            out.append((piece, m))
        b = c
        a, _ = poly_divmod(a, c, field)
        m += 1
    if poly_deg(a) > 0:
        # leftover is a p-th power
        for g, mm in squarefree_decomposition(a, field):
            out.append((g, mm + 0))
    return _merge_sqfree(out, field)


def _merge_sqfree(pairs, field):
    # combine repeated squarefree parts (can arise from the p-power branch)
    out = []
    for g, m in pairs:
        for i, (h, mm) in enumerate(out):
            if poly_trim(g) == poly_trim(h):
                out[i] = (h, mm + m)
                break
        else:
            out.append((g, m))
    return out


def factor_squarefree(f, field, rng):
    """Irreducible factors of a squarefree monic f (Cantor-Zassenhaus)."""
    q = field.q
    x = [fzero(field), fone(field)]
    out = []
    # distinct-degree splitting
    rem = poly_monic(f, field)
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
    # equal-degree splitting
    factors = []
    for g, d in out:
        factors.extend(_cz_split(g, d, field, rng))
    return factors


def _cz_split(f, d, field, rng):
    n = poly_deg(f)
    if n == d:
        return [f]
    q = field.q
    while True:
        h = [field.random(rng) for _ in range(n)]
        h = poly_trim(h)
        if poly_deg(h) < 1:
            continue
        g = poly_gcd(h, f, field)
        if 0 < poly_deg(g) < n:
            return _cz_split(g, d, field, rng) + \
                _cz_split(poly_divmod(f, g, field)[0], d, field, rng)
        e = (q ** d - 1) // 2
        hp = poly_powmod(h, e, f, field)
        g = poly_gcd(poly_add(hp, [-fone(field)], field), f, field)
        if 0 < poly_deg(g) < n:
            return _cz_split(g, d, field, rng) + \
                _cz_split(poly_divmod(f, g, field)[0], d, field, rng)


def factor_poly(f, field, rng=None):
    """Monic irreducible factorization: list of (factor, multiplicity)."""
    import random as _random
    if rng is None:
        rng = _random.Random(12345)
    out = []
    for g, m in squarefree_decomposition(f, field):
        for h in factor_squarefree(g, field, rng):
            out.append((h, m))
    return out
