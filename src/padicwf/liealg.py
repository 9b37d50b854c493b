"""Classical matrix Lie algebras over residue fields and the local-field model.

A Factor is one classical group given by a Gram matrix: gl(n), unitary
(conj-sesquilinear gram), orthogonal or symplectic (bilinear gram).  The Lie
algebra condition is sigma(X)^T G + G X = 0 where sigma is entrywise conj
for unitary factors and the identity otherwise.

Over finite fields this module provides Jordan types and decompositions,
centralizers, constructive Jacobson-Morozov sl2-triples, cocharacter
gradings, and the Levi data of a semisimple part needed for induction of
nilpotent orbits.  Over the local-field model it provides the goodness test
(all nonzero root values of fixed valuation).
"""

from fractions import Fraction

from . import linalg as la
from .ffield import PrimeField, QuadField
from .localfield import LocalField, PrecisionError


class Factor:
    """One classical matrix group factor.

    kind: 'gl' | 'u' | 'so' | 'sp'; field: finite field or LocalField;
    gram: Gram matrix over field (None for 'gl').
    """

    def __init__(self, kind, n, field, gram=None):
        self.kind = kind
        self.n = n
        self.field = field
        self.gram = gram
        if kind != "gl":
            assert gram is not None and len(gram) == n
        self._basis = None

    @classmethod
    def gl(cls, n, field):
        return cls("gl", n, field)

    @classmethod
    def u(cls, n, field, gram):
        return cls("u", n, field, gram)

    @classmethod
    def so(cls, n, field, gram):
        return cls("so", n, field, gram)

    @classmethod
    def sp(cls, n, field, gram=None):
        if gram is None:
            # standard antidiagonal alternating form
            z, o = la.fzero(field), la.fone(field)
            gram = [[z] * n for _ in range(n)]
            for i in range(n // 2):
                gram[i][n - 1 - i] = o
                gram[n - 1 - i][i] = -o
            gram = la.mat(gram)
        return cls("sp", n, field, gram)

    def is_local(self):
        return isinstance(self.field, LocalField)

    def geom_type(self):
        """Absolute classical type tag for orbit combinatorics."""
        if self.kind in ("gl", "u"):
            return "A"
        if self.kind == "sp":
            return "C"
        return "B" if self.n % 2 == 1 else "D"

    def entry_conj(self, x):
        return x.conj() if self.kind == "u" else x

    def lie_defect(self, X):
        """sigma(X)^T G + G X; zero iff X is in the Lie algebra."""
        if self.kind == "gl":
            return None
        Xs = la.mat(
            [[self.entry_conj(X[j][i]) for j in range(self.n)]
             for i in range(self.n)])
        return la.mat_add(la.mat_mul(Xs, self.gram),
                          la.mat_mul(self.gram, X))

    def is_lie(self, X):
        d = self.lie_defect(X)
        if d is None:
            return True
        if self.is_local():
            return all(not e.terms for row in d for e in row)
        return all(not e for row in d for e in row)

    # -- finite-field structure ----------------------------------------

    def prime_subfield(self):
        f = self.field
        return f.base if isinstance(f, QuadField) else f

    def coord_basis(self):
        """Basis of the entry field over the prime subfield."""
        f = self.field
        if isinstance(f, QuadField):
            return [f.one, f.gen]
        return [f.one]

    def flatten_entry(self, x):
        f = self.field
        if isinstance(f, QuadField):
            return [f.base(x.v[0]), f.base(x.v[1])]
        return [x]

    def flatten_mat(self, X):
        out = []
        for row in X:
            for e in row:
                out.extend(self.flatten_entry(e))
        return out

    def algebra_basis(self):
        """Basis matrices of the Lie algebra over the prime subfield."""
        assert not self.is_local()
        if self._basis is not None:
            return self._basis
        n, f = self.n, self.field
        kp = self.prime_subfield()
        gens = []
        for i in range(n):
            for j in range(n):
                for b in self.coord_basis():
                    E = [[f.zero] * n for _ in range(n)]
                    E[i][j] = b
                    gens.append(la.mat(E))
        if self.kind == "gl":
            self._basis = gens
            return gens
        cols = [self.flatten_mat(self.lie_defect(E)) for E in gens]
        M = la.transpose(la.mat(cols))
        ker = la.kernel_basis(M, kp)
        basis = []
        k2 = len(self.coord_basis())
        for v in ker:
            X = [[f.zero] * n for _ in range(n)]
            for idx, coef in enumerate(v):
                if not coef:
                    continue
                pos, b = divmod(idx, k2)
                i, j = divmod(pos, n)
                X[i][j] = X[i][j] + self.coord_basis()[b] * coef
            basis.append(la.mat(X))
        self._basis = basis
        return basis

    def dim(self):
        """Dimension over the prime subfield."""
        if self.kind == "gl":
            d = 2 if isinstance(self.field, QuadField) else 1
            return self.n * self.n * d
        return len(self.algebra_basis())

    def from_coords(self, coeffs):
        basis = self.algebra_basis()
        X = la.zero_mat(self.field, self.n)
        for c, B in zip(coeffs, basis):
            if c:
                X = la.mat_add(X, la.mat_scale(c, B))
        return X

    def random_element(self, rng):
        kp = self.prime_subfield()
        return self.from_coords([kp.random(rng)
                                 for _ in self.algebra_basis()])

    def __repr__(self):
        return "%s_%d(%r)" % (self.kind, self.n, self.field)


# -- Jordan structure over finite fields -------------------------------


def is_nilpotent(X, field):
    n = len(X)
    P = X
    for _ in range(n):
        if all(not e for row in P for e in row):
            return True
        P = la.mat_mul(P, X)
    return all(not e for row in P for e in row)


def jordan_type(X, field):
    """Partition of n recording the Jordan block sizes of a nilpotent X."""
    n = len(X)
    ranks = [n]
    P = None
    for k in range(1, n + 1):
        P = X if P is None else la.mat_mul(P, X)
        ranks.append(la.rank(P))
        if ranks[-1] == 0:
            break
    if ranks[-1] != 0:
        raise ValueError("not nilpotent")
    # blocks of size >= k: ranks[k-1] - ranks[k]
    parts = []
    for k in range(1, len(ranks)):
        geq_k = ranks[k - 1] - ranks[k]
        geq_k1 = (ranks[k] - ranks[k + 1]) if k + 1 < len(ranks) else 0
        parts.extend([k] * (geq_k - geq_k1))
    from .orbits import partition
    return partition(parts)


def jordan_decomposition(X, field):
    """(semisimple, nilpotent) parts, by Newton iteration on the radical
    of the characteristic polynomial."""
    n = len(X)
    f = la.charpoly(X, field)
    f1 = la.poly_radical(f, field)
    df1 = la.poly_deriv(f1, field)
    s = X
    for _ in range(max(1, n.bit_length() + 1)):
        val = la.poly_eval_mat(f1, s, field)
        if all(not e for row in val for e in row):
            break
        dinv = la.mat_inv(la.poly_eval_mat(df1, s, field), field)
        s = la.mat_sub(s, la.mat_mul(val, dinv))
    val = la.poly_eval_mat(f1, s, field)
    assert all(not e for row in val for e in row), "Newton did not converge"
    xn = la.mat_sub(X, s)
    assert is_nilpotent(xn, field)
    assert la.bracket(s, xn) == la.zero_mat(field, n)
    return s, xn


def centralizer_dim(X, factor):
    """dim ker(ad X) in the factor's Lie algebra, over the prime field."""
    basis = factor.algebra_basis()
    cols = [factor.flatten_mat(la.bracket(X, B)) for B in basis]
    M = la.transpose(la.mat(cols))
    return len(basis) - la.rank(M)


def centralizer_basis(X, factor):
    basis = factor.algebra_basis()
    cols = [factor.flatten_mat(la.bracket(X, B)) for B in basis]
    M = la.transpose(la.mat(cols))
    ker = la.kernel_basis(M, factor.prime_subfield())
    return [factor.from_coords(v) for v in ker]


class Sl2Triple:
    def __init__(self, c, h, d):
        self.c, self.h, self.d = c, h, d

    def check(self, field):
        n = len(self.c)
        two = la.fone(field) + la.fone(field)
        ok = (la.bracket(self.h, self.c) == la.mat_scale(two, self.c)
              and la.bracket(self.h, self.d) ==
              la.mat_scale(-two, self.d)
              and la.bracket(self.c, self.d) == self.h)
        return ok


def sl2_complete(c, factor):
    """Complete a nonzero nilpotent c to an sl2-triple (c, h, d).

    Constructive Jacobson-Morozov: solve ad(c)^2 d0 = -2c, set h = [c,d0],
    then correct d0 by an element of ker(ad c) so that [h,d] = -2d.
    Raises ValueError("characteristic too small") if the linear systems
    are singular.
    """
    field = factor.field
    n = factor.n
    if all(not e for row in c for e in row):
        raise ValueError("zero element has no sl2-triple")
    if not is_nilpotent(c, field):
        raise ValueError("not nilpotent")
    basis = factor.algebra_basis()
    two = la.fone(field) + la.fone(field)
    # ad(c)^2 b for each basis element
    cols = [factor.flatten_mat(la.bracket(c, la.bracket(c, B)))
            for B in basis]
    M = la.transpose(la.mat(cols))
    rhs = factor.flatten_mat(la.mat_scale(-two, c))
    sol = la.solve(M, rhs, factor.prime_subfield())
    if sol is None:
        raise ValueError("characteristic too small")
    d0 = factor.from_coords(sol)
    h = la.bracket(c, d0)
    defect = la.mat_add(la.bracket(h, d0), la.mat_scale(two, d0))
    if all(not e for row in defect for e in row):
        trip = Sl2Triple(c, h, d0)
    else:
        zc = centralizer_basis(c, factor)
        cols = [factor.flatten_mat(
            la.mat_add(la.bracket(h, Z), la.mat_scale(two, Z)))
            for Z in zc]
        M2 = la.transpose(la.mat(cols))
        sol2 = la.solve(M2, factor.flatten_mat(defect),
                        factor.prime_subfield())
        if sol2 is None:
            raise ValueError("characteristic too small")
        u = la.zero_mat(field, n)
        for coef, Z in zip(sol2, zc):
            if coef:
                u = la.mat_add(u, la.mat_scale(coef, Z))
        trip = Sl2Triple(c, h, la.mat_sub(d0, u))
    if not trip.check(field):
        raise ValueError("characteristic too small")
    return trip


# -- cocharacter gradings ----------------------------------------------


def grading_basis(factor, weights, i):
    """Basis of the weight-i eigenspace of the cocharacter grading."""
    # the grading is entrywise: split each basis vector by weights
    out = []
    for B in factor.algebra_basis():
        X = [[factor.field.zero] * factor.n for _ in range(factor.n)]
        nonzero = False
        for a in range(factor.n):
            for b in range(factor.n):
                if weights[a] - weights[b] == i and B[a][b]:
                    X[a][b] = B[a][b]
                    nonzero = True
        if nonzero:
            out.append(la.mat(X))
    # reduce to an independent set
    return _independent_subset(out, factor)


def _independent_subset(mats, factor):
    picked = []
    rows = []
    for X in mats:
        cand = rows + [factor.flatten_mat(X)]
        if la.rank(la.mat(cand)) > len(rows):
            rows = cand
            picked.append(X)
    return picked


def grading_project(X, weights, i, field):
    n = len(X)
    out = [[field.zero] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            if weights[a] - weights[b] == i:
                out[a][b] = X[a][b]
    return la.mat(out)


# -- Levi data of a semisimple part, for orbit induction ---------------


def primary_parts(X, field, rng=None):
    """Decompose by irreducible factors of the characteristic polynomial.

    Returns a list of (poly, mult, partition) where partition is the
    Jordan type of the nilpotent part on that primary component (a
    partition of mult).
    """
    from .orbits import partition
    n = len(X)
    f = la.charpoly(X, field)
    out = []
    for p, m in la.factor_poly(f, field, rng):
        d = la.poly_deg(p)
        dims = [0]
        P = la.identity(field, n)
        pm = la.poly_eval_mat(p, X, field)
        for j in range(1, m + 1):
            P = la.mat_mul(P, pm)
            dims.append(n - la.rank(P))
            if dims[-1] == dims[-2]:
                dims[-1] = dims[-2]
                break
        # parts >= j count = (dims[j] - dims[j-1]) / d
        parts = []
        prev = None
        for j in range(1, len(dims)):
            cnt = (dims[j] - dims[j - 1]) // d
            if prev is not None:
                parts.extend([j - 1] * (prev - cnt))
            prev = cnt
        if prev:
            parts.extend([len(dims) - 1] * prev)
        out.append((p, m, partition(parts)))
    return out


def _dual_poly(p, field, kind):
    """Minimal polynomial of the paired eigenvalues.

    For bilinear types the pairing is lambda -> -lambda; for unitary
    finite factors lambda -> -Frobenius(lambda).
    """
    # q(x) = +- p(-x), made monic
    coeffs = []
    for i, c in enumerate(p):
        cc = c if i % 2 == 0 else -c
        if kind == "u":
            cc = cc.conj()
        coeffs.append(cc)
    return la.poly_monic(coeffs, field)


def levi_factors_for_induction(Xs, factor, rng=None):
    """Levi block data of Z(Xs) with the orbit partitions of the
    nilpotent part, as consumed by orbits.ls_induce.

    Xs must be the full element (its semisimple part defines the Levi,
    its nilpotent part the orbit).  Works entrywise over the factor's
    own field; geometric blocks only.
    """
    field = factor.field
    T = factor.geom_type()
    parts = primary_parts(Xs, field, rng)
    out = []
    if T == "A":
        for p, m, mu in parts:
            for _ in range(la.poly_deg(p)):
                out.append(("A", m, mu))
        return out
    used = set()
    for idx, (p, m, mu) in enumerate(parts):
        if idx in used:
            continue
        used.add(idx)
        pd = _dual_poly(p, field, factor.kind)
        if la.poly_trim(pd) == la.poly_trim(p):
            d = la.poly_deg(p)
            if d == 1 and not p[0]:
                # the zero eigenvalue keeps the form
                out.append((T, m, mu))
            else:
                assert d % 2 == 0
                for _ in range(d // 2):
                    out.append(("A", m, mu))
        else:
            # find the partner
            partner = None
            for jdx in range(idx + 1, len(parts)):
                if jdx not in used and \
                        la.poly_trim(parts[jdx][0]) == la.poly_trim(pd):
                    partner = jdx
                    break
            assert partner is not None, "pairing partner missing"
            used.add(partner)
            assert parts[partner][1] == m and parts[partner][2] == mu
            for _ in range(la.poly_deg(p)):
                out.append(("A", m, mu))
    return out


def induced_label(X, factor, rng=None):
    """N(X): the induced nilpotent orbit label of X in its factor."""
    from .orbits import ls_induce
    s, n_part = jordan_decomposition(X, factor.field)
    levi = levi_factors_for_induction(X, factor, rng)
    return ls_induce(levi, factor.geom_type(), factor.n)


# -- goodness over the local field -------------------------------------


def ad_matrix_gl(X):
    """Matrix of ad(X) on gl_n in the basis E_11, E_12, ..., E_nn."""
    n = len(X)
    field = X[0][0].field
    zero = field.zero()
    size = n * n
    rows = [[zero] * size for _ in range(size)]
    # [X, E_kl] = sum_i X_ik E_il - sum_j X_lj E_kj
    for k in range(n):
        for l in range(n):
            col = k * n + l
            for i in range(n):
                if X[i][k].terms:
                    rows[i * n + l][col] = rows[i * n + l][col] + X[i][k]
            for j in range(n):
                if X[l][j].terms:
                    rows[k * n + j][col] = rows[k * n + j][col] - X[l][j]
    return la.mat(rows)


def root_value_data(gamma):
    """Valuations of the nonzero eigenvalues of ad(gamma) on gl_n.

    Returns (zero_multiplicity, list of (coeff index, valuation) Newton
    polygon data, degree of the nonzero part).  Exact-zero low-order
    coefficients are required; a zero-to-precision coefficient raises
    PrecisionError.
    """
    n = len(gamma)
    field = gamma[0][0].field
    diag = all(not gamma[i][j].terms
               for i in range(n) for j in range(n) if i != j)
    if diag:
        vals = []
        zeros = 0
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                d = gamma[i][i] - gamma[j][j]
                if d.is_zero_weak():
                    if d.prec is not None:
                        raise PrecisionError(
                            "root value (%d,%d) zero only to precision"
                            % (i, j))
                    zeros += 1
                else:
                    vals.append(d.val())
        return zeros + n, vals
    ad = ad_matrix_gl(gamma)
    f = la.charpoly(ad, field)
    k = 0
    while k < len(f) - 1 and f[k].is_zero_weak():
        if f[k].prec is not None:
            raise PrecisionError("ad charpoly coefficient %d uncertain" % k)
        k += 1
    h = f[k:]
    deg = len(h) - 1
    if deg == 0:
        return k, []
    # if the Newton polygon of h is a single segment of slope -v, every
    # nonzero root value has valuation v; otherwise report a break
    v0 = h[0].val()
    slope = Fraction(v0, deg)
    for i in range(1, deg):
        if h[i].terms and h[i].val() < v0 - slope * i:
            return k, ["mixed"]
    return k, [slope] * deg


def is_good_depth(gamma, r):
    """True iff every nonzero root value of gamma has valuation exactly r."""
    r = Fraction(r)
    _, vals = root_value_data(gamma)
    if "mixed" in vals:
        return False
    return all(v == r for v in vals)
