"""Graded quotients of parahoric lattices over the residue field.

At a point w of the apartment and a level r, the quotient
g(F)_{w >= r} / g(F)_{w > r} is a finite-dimensional space over the
residue field: each matrix position contributes the residue coefficient
at its threshold valuation r + w_j - w_i.  Collecting these residues in
an n x n "club" matrix makes the graded bracket ordinary matrix
commutator, so Jordan types, sl2-triples and orbit induction can all be
read off with the finite-field linear algebra of liealg.

The level-0 piece is the reductive quotient; its block decomposition
(heart_structure) drives the induced-label computation for elements
with a semisimple part.
"""

from fractions import Fraction
from math import lcm

from . import building as bd
from . import liealg as lie
from . import linalg as la
from . import orbits as ob


class GradedQuotient:
    """One graded piece g(F)_{w = r} with its ambient grading data."""

    def __init__(self, model, w, r):
        self.model = model
        self.w = tuple(Fraction(wi) for wi in w)
        self.r = Fraction(r)
        self.order = lcm(self.r.denominator, model.field.e)
        self._heart = None

    def residue_field(self):
        return self.model.field.residue

    def heart(self):
        """Block decomposition of the level-0 reductive quotient."""
        if self._heart is None:
            self._heart = bd.heart_structure(self.model, self.w)
        return self._heart

    def dim(self, level=None):
        return bd.grade_dim(self.model, self.w,
                            self.r if level is None else level)

    def threshold(self, i, j, level=None):
        r = self.r if level is None else Fraction(level)
        return r + self.w[j] - self.w[i]

    def project(self, gamma):
        """Residue image of gamma in this graded piece."""
        model, kres = self.model, self.residue_field()
        n = model.n
        C = [[kres.zero] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                e = gamma[i][j]
                thr = self.threshold(i, j)
                if not bd._entry_geq(e, thr, False):
                    raise ValueError("not in lattice")
                pc = model.position_class(i, j)
                if pc is None:
                    if e.terms:
                        raise ValueError("not in lattice")
                    continue
                cls, s = pc
                cf = e.residue_at(thr)
                if cf and not cls.allows(thr - s):
                    raise ValueError(
                        "entry valuation off the coupling grid")
                C[i][j] = cf
        return QuotientElement(self, la.mat(C))

    def key(self):
        return (self.model.name, self.w, self.r)

    def __repr__(self):
        return "GradedQuotient(%s, w=%s, r=%s)" % (
            self.model.name, list(self.w), self.r)


class QuotientElement:
    """A coset in one graded piece, held as its residue (club) matrix."""

    def __init__(self, quot, mat):
        self.quot = quot
        self.mat = la.mat(mat)

    def club(self):
        """Submatrix on the indices carrying the geometric label."""
        idx = self.quot.model.club_indices
        return la.mat([[self.mat[i][j] for j in idx] for i in idx])

    def is_zero(self):
        return all(not e for row in self.mat for e in row)

    def is_nilpotent(self):
        return lie.is_nilpotent(self.club(), self.quot.residue_field())

    def key(self):
        return self.quot.key() + (self.mat,)

    def __eq__(self, other):
        return isinstance(other, QuotientElement) and \
            self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return "QuotientElement(%s, r=%s)" % (
            self.quot.model.name, self.quot.r)


def project(model, gamma, w, r):
    return GradedQuotient(model, w, r).project(gamma)


def monomial_lift(c):
    """Exact local lift of a coset: one monomial per nonzero residue."""
    quot = c.quot
    E = quot.model.field
    n = quot.model.n
    out = [[E.zero()] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            cf = c.mat[i][j]
            if cf:
                out[i][j] = E.scalar({quot.threshold(i, j): cf})
    return la.mat(out)


# -- labels --------------------------------------------------------------


def minimal_orbit_ur(c):
    """Geometric label of the minimal orbit through a nilpotent coset;
    ValueError("not nilpotent") for any other coset."""
    return lie.jordan_type(c.club(), c.quot.residue_field())


def _block_shim(tag, m, kres):
    """A factor carrying the right eigenvalue pairing for induction."""
    kp = kres.base_or_self()
    if tag == "A":
        return lie.Factor.gl(m, kres)
    if tag == "C":
        return lie.Factor.sp(m, kp)
    # orthogonal: only the kind matters downstream, any gram will do
    return lie.Factor.so(m, kp, la.identity(kp, m))


def n_label(c):
    """Induced nilpotent label N(c) of a coset in the ambient group.

    Nilpotent cosets are labeled by their club Jordan type; otherwise
    the element must respect the reductive-quotient blocks and each
    block contributes its Lusztig-Spaltenstein induced label.
    """
    quot = c.quot
    kres = quot.residue_field()
    club_set = set(quot.model.club_indices)
    if lie.is_nilpotent(c.club(), kres):
        return minimal_orbit_ur(c)
    blocks = quot.heart()
    covered = set()
    labels = []
    for idx, tag, m, dim in blocks:
        covered.update(idx)
        if not club_set.intersection(idx):
            continue
        assert club_set.issuperset(idx), "block straddles the club indices"
        sub = la.mat([[c.mat[i][j] for j in idx] for i in idx])
        if tag == "T" or dim == 0:
            if any(e for row in sub for e in row):
                raise ValueError("nonzero coset entry in a torus block")
            labels.append((1,) * m)
            continue
        labels.append(lie.induced_label(sub, _block_shim(tag, m, kres)))
    for i in range(quot.model.n):
        for j in range(quot.model.n):
            if c.mat[i][j] and not any(i in idx and j in idx
                                       for idx, _, _, _ in blocks):
                raise ValueError(
                    "element does not respect the reductive-quotient "
                    "blocks")
    return ob.embed_orbit(labels, "A")


# -- graded sl2 lifting --------------------------------------------------


def _grade_unit_lifts(quot, level):
    """Monomial matrices spanning the masked level piece (before the
    Lie-algebra constraint)."""
    model = quot.model
    E = model.field
    kres = quot.residue_field()
    out = []
    for i in range(model.n):
        for j in range(model.n):
            pc = model.position_class(i, j)
            if pc is None:
                continue
            cls, s = pc
            thr = quot.threshold(i, j, level)
            if not cls.allows(thr - s):
                continue
            for b in kres.basis:
                M = [[E.zero()] * model.n for _ in range(model.n)]
                M[i][j] = E.scalar({thr: b})
                out.append(la.mat(M))
    return out


def _coeff_at(e, v):
    for vv, cf in e.terms:
        if vv == v:
            return cf
    return None


def _local_system(images, targets, kres):
    """Rows of the linear system sum_k x_k images[k] = each target,
    flattened over the prime residue field; returns (rows, rhs list)."""
    keys = set()
    for M in list(images) + list(targets):
        for i, row in enumerate(M):
            for j, e in enumerate(row):
                for v, _ in e.terms:
                    keys.add((i, j, v))
    keys = sorted(keys)
    nco = len(kres.basis)
    rows, rhs = [], [[] for _ in targets]
    z = kres.zero
    for (i, j, v) in keys:
        cells = []
        for M in images:
            cf = _coeff_at(M[i][j], v)
            cells.append(kres.coords(cf if cf is not None else z))
        tcells = []
        for T in targets:
            cf = _coeff_at(T[i][j], v)
            tcells.append(kres.coords(cf if cf is not None else z))
        for ci in range(nco):
            rows.append([cell[ci] for cell in cells])
            for ti, tc in enumerate(tcells):
                rhs[ti].append(tc[ci])
    return rows, rhs


def _local_factor(model):
    if model.kind == "u":
        return lie.Factor.u(model.n, model.field, model.gram)
    return lie.Factor.gl(model.n, model.field)


def _combine(basis, coeffs, E, n):
    X = la.zero_mat(E, n)
    for cf, B in zip(coeffs, basis):
        if cf:
            X = la.mat_add(X, la.mat_scale(E.from_residue(cf), B))
    return X


def lift_triple(c):
    """Lift a nilpotent coset to an exact sl2-triple over the field.

    The lift is graded: c at level r, the semisimple member at level 0,
    the opposite nilpotent at level -r, all with monomial entries, so
    the bracket identities hold exactly.
    """
    quot = c.quot
    model = quot.model
    E = model.field
    kres = quot.residue_field()
    kp = kres.base_or_self()
    n = model.n
    if c.is_zero():
        raise ValueError("zero element has no sl2-triple")
    if not c.is_nilpotent():
        raise ValueError("not nilpotent")
    chat = monomial_lift(c)
    factor = _local_factor(model)
    basis = _grade_unit_lifts(quot, -quot.r)
    zero = la.zero_mat(E, n)
    defects = [factor.lie_defect(B) or zero for B in basis]
    ad1 = [la.bracket(chat, B) for B in basis]
    ad2 = [la.bracket(chat, A) for A in ad1]
    two = E.from_int(2)
    target = la.mat_scale(E.from_int(-2), chat)
    rows_a, rhs_a = _local_system(ad2, [target], kres)
    rows_d, rhs_d = _local_system(defects, [zero], kres)
    sol = la.solve(rows_a + rows_d, rhs_a[0] + rhs_d[0], kp)
    if sol is None:
        raise ValueError("characteristic too small")
    d0 = _combine(basis, sol, E, n)
    h = la.bracket(chat, d0)
    defect = la.mat_add(la.bracket(h, d0), la.mat_scale(two, d0))
    d = d0
    if any(e.terms for row in defect for e in row):
        rows_k, _ = _local_system(ad1, [zero], kres)
        kern = la.kernel_basis(la.mat(rows_k + rows_d), kp)
        Zs = [_combine(basis, v, E, n) for v in kern]
        imgs = [la.mat_add(la.bracket(h, Z), la.mat_scale(two, Z))
                for Z in Zs]
        rows_c, rhs_c = _local_system(imgs, [defect], kres)
        sol2 = la.solve(rows_c, rhs_c[0], kp)
        if sol2 is None:
            raise ValueError("characteristic too small")
        u = _combine(Zs, sol2, E, n)
        d = la.mat_sub(d0, u)
    trip = lie.Sl2Triple(chat, h, d)
    if not trip.check(E):
        raise ValueError("characteristic too small")
    return trip


# -- base-point shifts ---------------------------------------------------


def _weight_direction(model, lam):
    """Cocharacter as a weight-vector direction on the matrix indices."""
    if model.d and len(lam) == model.d:
        return tuple(sum((cc * Fraction(l) for cc, l in zip(coeffs, lam)),
                         Fraction(0))
                     for coeffs, const in model.weight_funcs)
    assert len(lam) == model.n
    return tuple(Fraction(l) for l in lam)


def shift_check(c, lam, ell, t):
    """Whether the label of c survives the move w -> w + t*lam,
    r -> r + ell*t.  Requires c supported in the lam-weight-ell piece,
    where the thresholds (hence the coset itself) transport unchanged."""
    quot = c.quot
    model = quot.model
    ell, t = Fraction(ell), Fraction(t)
    Lam = _weight_direction(model, lam)
    for i in range(model.n):
        for j in range(model.n):
            if c.mat[i][j] and Lam[i] - Lam[j] != ell:
                raise ValueError("coset not in the requested weight piece")
    if t == 0:
        return True
    chat = monomial_lift(c)
    w2 = tuple(wi + t * li for wi, li in zip(quot.w, Lam))
    c2 = project(model, chat, w2, quot.r + ell * t)
    return n_label(c) == n_label(c2)
