"""Classical matrix Lie algebras over residue fields and the local-field model.

A Factor is one classical group given by a Gram matrix: gl(n), unitary
(conj-sesquilinear gram), orthogonal or symplectic (bilinear gram).  The Lie
algebra condition is sigma(X)^T G + G X = 0 where sigma is entrywise conj
for unitary factors and the identity otherwise.

Over finite fields this module provides Jordan types, centralizers,
sl2-triples, cocharacter gradings, and the Levi data of a semisimple
part needed for induction of nilpotent orbits.  One constructive
Jacobson-Morozov routine, `jacobson_morozov`, finds every sl2-triple:
`sl2_complete` runs it over a factor's Lie algebra basis, and
`mpquotient.lift_triple` over the residue units of a graded Moy-Prasad
piece cut down by Lie-algebra rows that mpquotient writes in closed form
from the model's monomial Gram matrix.  It and `centralizer_basis` take
and return ffield matrices but work on sparse integer codes over the
prime field, an F_{p^2} entry written as the 2 x 2 block of its regular
representation, and reduce every linear system with `linalg.rref` over
`ffield.ext_field(p, 1)`, whose ops are mod p and build no table;
reduced row echelon forms are unique, so the triples are those of the
same solve on ffield matrices.  Over the local-field model this
module provides the goodness test (all nonzero root values of fixed
valuation) and the Lie-algebra membership test `Factor.is_lie`.
"""

from fractions import Fraction

from . import linalg as la
from .ffield import ext_field
from .localfield import LocalField, PrecisionError
from .orbits import ls_induce, partition


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

    def algebra_basis(self):
        """Basis matrices of the Lie algebra over the prime subfield."""
        assert not self.is_local()
        if self._basis is None:
            n, f = self.n, self.field
            gens = la.unit_mats(f, n, [(i, j, b) for i in range(n)
                                       for j in range(n) for b in f.basis])
            if self.kind != "gl":
                ker = la.kernel_basis(
                    _linear_rows([self.lie_defect(E) for E in gens], f, n),
                    f.base_or_self())
                gens = [la.mat_comb(v, gens, f, n) for v in ker]
            self._basis = gens
        return self._basis

    def dim(self):
        """Dimension over the prime subfield."""
        if self.kind == "gl":
            return self.n * self.n * self.field.degree
        return len(self.algebra_basis())

    def __repr__(self):
        return "%s_%d(%r)" % (self.kind, self.n, self.field)


# -- Jordan structure over finite fields -------------------------------


def is_nilpotent(X):
    """Whether X^n = 0, read as X^(2^k) = 0 for the least 2^k >= n: k
    squarings, 3 products for n = 7."""
    n = len(X)
    P, k = X, 1
    while True:
        if all(not e for row in P for e in row):
            return True
        if k >= n:
            return False
        P = la.mat_mul(P, P)
        k *= 2


def _block_sizes(A, d, full):
    """Partition of the Jordan block sizes of A on its generalized kernel,
    of dimension `full`, each block of size k spanning d*k dimensions.

    Read from the kernel dimensions of successive powers: there are
    (dim ker A^k - dim ker A^(k-1)) / d blocks of size at least k.
    Raises ValueError("not nilpotent") if the kernels stop short of full.
    """
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


def jordan_type(X):
    """Partition of n recording the Jordan block sizes of a nilpotent X."""
    return _block_sizes(X, 1, len(X))


def _flat(X, field):
    """Entries of X over the prime subfield, row by row."""
    return [a for row in X for e in row for a in field.coords(e)]


def _linear_rows(images, field, n):
    """Matrix over the prime subfield of x -> sum_k x_k images[k], for
    n x n images: one row per entry coordinate, one column per image."""
    flats = [_flat(X, field) for X in images]
    return [[f[i] for f in flats] for i in range(n * n * len(field.basis))]


# -- sparse codes over the prime field ---------------------------------
#
# The Jacobson-Morozov solve and the centralizer work on codes: a matrix
# over the residue field held as {(row, col): x}, its nonzero entries
# over the prime field F_p as integers 0 < x < p.  Over F_{p^2} an entry
# becomes the 2 x 2 block of its regular representation (`field.block`),
# a ring homomorphism, so brackets of codes are the codes of brackets;
# the entry's coordinates over F_p are the first column of its block.


def _codes(X, field):
    """The codes of the matrix X over `field`."""
    d, z = field.degree, field.zero.v
    out = {}
    for i, row in enumerate(X):
        for j, e in enumerate(row):
            if e.v != z:
                for r, brow in enumerate(field.block(e.v)):
                    for s, x in enumerate(brow):
                        if x:
                            out[d * i + r, d * j + s] = x
    return out


def _from_codes(S, field, n):
    """The n x n matrix over `field` with the codes S."""
    d = field.degree
    X = [[field.zero] * n for _ in range(n)]
    for i, j in {(r // d, s // d) for r, s in S}:
        X[i][j] = field.from_coords([S.get((d * i + t, d * j), 0)
                                     for t in range(d)])
    return la.mat(X)


def _reduce(S, p):
    return {key: x % p for key, x in S.items() if x % p}


def _comb(coeffs, mats, p):
    """sum_k coeffs[k] mats[k] on codes mod p."""
    out = {}
    for cf, M in zip(coeffs, mats):
        if cf:
            for key, x in M.items():
                out[key] = out.get(key, 0) + cf * x
    return _reduce(out, p)


def _ad(a, p):
    """The map X -> [a, X] on codes mod p.  An entry x of X at (i, j)
    meets only column i and row j of a."""
    rows, cols = {}, {}
    for (i, j), x in a.items():
        rows.setdefault(i, []).append((j, x))
        cols.setdefault(j, []).append((i, x))

    def ad(X):
        out = {}
        for (i, j), x in X.items():
            for k, y in cols.get(i, ()):
                out[k, j] = out.get((k, j), 0) + y * x
            for k, y in rows.get(j, ()):
                out[i, k] = out.get((i, k), 0) - x * y
        return _reduce(out, p)
    return ad


def _system(images, d, target):
    """Rows over F_p of sum_k x_k images[k] = target on codes, with the
    right-hand side: one row per coordinate cell (a code at a column
    divisible by the degree d) that some image or the target reaches.
    With no such cell, one zero row keeps the number of unknowns."""
    cells = {}
    for k, M in enumerate(images):
        for (r, s), x in M.items():
            if not s % d:
                cells.setdefault((r, s), {})[k] = x
    for (r, s), x in target.items():
        if not s % d:
            cells.setdefault((r, s), {})[None] = x
    if not cells:
        return [[0] * len(images)], [0]
    return ([[cell.get(k, 0) for k in range(len(images))]
             for cell in cells.values()],
            [cell.get(None, 0) for cell in cells.values()])


def centralizer_basis(X, factor):
    field, p = factor.field, factor.field.p
    fp = ext_field(p, 1)
    ad = _ad(_codes(X, field), p)
    bs = [_codes(B, field) for B in factor.algebra_basis()]
    rows, _ = _system([ad(B) for B in bs], field.degree, {})
    return [_from_codes(_comb(v, bs, p), field, factor.n)
            for v in la.kernel_basis(rows, fp, fp.ops)]


class Sl2Triple:
    def __init__(self, c, h, d):
        self.c, self.h, self.d = c, h, d

    def check(self, field):
        two = la.fone(field) + la.fone(field)
        ok = (la.bracket(self.h, self.c) == la.mat_scale(two, self.c)
              and la.bracket(self.h, self.d) ==
              la.mat_scale(-two, self.d)
              and la.bracket(self.c, self.d) == self.h)
        return ok


def jacobson_morozov(c, basis, field, rows=()):
    """Constructive Jacobson-Morozov over a finite field.

    Completes a nonzero nilpotent c to a triple (c, h, d) with d in the
    span of the matrices `basis` over the prime subfield, cut down by
    the linear `rows` (right-hand side zero) on the coordinates of that
    span.  Solves ad(c)^2 d0 = -2c, sets h = [c, d0], then corrects d0 by
    an element of ker(ad c) in the same span so that [h, d] = -2d.
    Raises ValueError("characteristic too small") if a linear system is
    singular; the triple itself is left to the caller to check.

    Every step runs on the codes of c and the basis over F_p; the
    systems keep the basis order as their column order, so their
    reduced row echelon forms, and with them d0, h and d, are those of
    the same solve on the matrices themselves.
    """
    n, d, p = len(c), field.degree, field.p
    fp = ext_field(p, 1)
    lie_rows = [[x.v for x in row] for row in rows]
    bs = [_codes(B, field) for B in basis]
    cs = _codes(c, field)
    ad_c = _ad(cs, p)
    ad1 = [ad_c(B) for B in bs]
    a, rhs = _system([ad_c(A) for A in ad1], d, _comb((-2,), (cs,), p))
    sol = la.solve(a + lie_rows, rhs + [0] * len(lie_rows), fp, fp.ops)
    if sol is None:
        raise ValueError("characteristic too small")
    d0 = _comb(sol, bs, p)
    h = ad_c(d0)
    ad_h = _ad(h, p)
    defect = _comb((1, 2), (ad_h(d0), d0), p)
    if defect:
        kern, _ = _system(ad1, d, {})
        zc = [_comb(v, bs, p)
              for v in la.kernel_basis(kern + lie_rows, fp, fp.ops)]
        a, rhs = _system([_comb((1, 2), (ad_h(Z), Z), p) for Z in zc], d,
                         defect)
        sol2 = la.solve(a, rhs, fp, fp.ops)
        if sol2 is None:
            raise ValueError("characteristic too small")
        d0 = _comb((1,) + tuple(-y for y in sol2), [d0] + zc, p)
    return Sl2Triple(c, _from_codes(h, field, n), _from_codes(d0, field, n))


def sl2_complete(c, factor):
    """Complete a nonzero nilpotent c to an sl2-triple (c, h, d) with d in
    the factor's Lie algebra, by `jacobson_morozov` over its basis.
    Raises ValueError("characteristic too small") if the linear systems
    are singular or the triple fails its check.
    """
    field = factor.field
    if all(not e for row in c for e in row):
        raise ValueError("zero element has no sl2-triple")
    if not is_nilpotent(c):
        raise ValueError("not nilpotent")
    trip = jacobson_morozov(c, factor.algebra_basis(), field)
    if not trip.check(field):
        raise ValueError("characteristic too small")
    return trip


# -- Levi data of a semisimple part, for orbit induction ---------------


def _diagonal_blocks(X):
    """Index lists of the diagonal blocks of X's block-triangular form.

    They are the strongly connected components of the graph with an
    edge i -> j wherever X[i][j] != 0: listing the components in a
    topological order of that graph makes X block upper triangular.
    Reachability sets are bit masks closed by Warshall's loop.
    """
    n = len(X)
    reach = [sum(1 << j for j in range(n) if X[i][j]) | 1 << i
             for i in range(n)]
    for k in range(n):
        for i in range(n):
            if reach[i] >> k & 1:
                reach[i] |= reach[k]
    blocks = []
    for i in range(n):
        if not any(i in block for block in blocks):
            blocks.append([j for j in range(n)
                           if reach[i] >> j & 1 and reach[j] >> i & 1])
    return blocks


def primary_parts(X, field):
    """Decompose by irreducible factors of the characteristic polynomial.

    Returns a list of (poly, mult, partition) where partition is the
    Jordan type of the nilpotent part on that primary component (a
    partition of mult).

    The characteristic polynomial of a block-triangular matrix is the
    product of those of its diagonal blocks, so each diagonal block's
    is factored (`_diagonal_blocks`; a 1x1 block is a linear factor)
    and the multiplicities of equal factors are summed.  The Jordan type
    is still read on the whole X: blocks of one eigenvalue can be
    coupled off the diagonal, as [[a, 1], [0, a]] has two 1x1 blocks and
    Jordan type (2).
    """
    parts = []
    for block in _diagonal_blocks(X):
        sub = [[X[i][j] for j in block] for i in block]
        for p, m in la.factor_poly(la.charpoly(sub, field), field):
            for part in parts:
                if part[0] == p:
                    part[1] += m
                    break
            else:
                parts.append([p, m])
    out = []
    for p, m in parts:
        d = la.poly_deg(p)
        pX = la.poly_eval_mat(p, X, field)
        out.append((p, m, _block_sizes(pX, d, d * m)))
    return out


def _dual_poly(p, kind):
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
    return la.poly_monic(coeffs)


def levi_factors_for_induction(Xs, factor):
    """Levi block data of Z(Xs) with the orbit partitions of the
    nilpotent part, as consumed by orbits.ls_induce.

    Xs must be the full element (its semisimple part defines the Levi,
    its nilpotent part the orbit).  Works entrywise over the factor's
    own field; geometric blocks only.
    """
    field = factor.field
    T = factor.geom_type()
    parts = primary_parts(Xs, field)
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
        pd = _dual_poly(p, factor.kind)
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


def induced_label(X, factor):
    """N(X): the induced nilpotent orbit label of X in its factor."""
    return ls_induce(levi_factors_for_induction(X, factor),
                     factor.geom_type(), factor.n)


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

    Returns (zero_multiplicity, vals): the multiplicity of the
    eigenvalue 0, and the valuation of each nonzero eigenvalue, or
    ["mixed"] when the Newton polygon of the characteristic polynomial
    has more than one slope.  Exact-zero low-order coefficients are
    required; a zero-to-precision coefficient raises PrecisionError.
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
