"""Graded quotients of parahoric lattices over the residue field.

At a point w of the apartment and a level r, the quotient
g(F)_{w >= r} / g(F)_{w > r} is a finite-dimensional space over the
residue field: each matrix position contributes the residue coefficient
at its threshold valuation r + w_j - w_i.  Collecting these residues in
an n x n "club" matrix makes the graded bracket ordinary matrix
commutator, so Jordan types, sl2-triples and orbit induction can all be
read off with the finite-field linear algebra of liealg.  In particular
lift_triple solves for its triple on the residue matrix and lifts the
result monomially to levels r, 0 and -r only at the end; the exact
bracket identities over the field certify the lift.  The Lie-algebra
condition on the residue units of a level piece is written in closed
form from the monomial Gram matrix, two monomials per unit, so no
product over the field comes before that certificate.

The level-0 piece is the reductive quotient; its block decomposition
(heart_structure) drives the induced-label computation for elements
with a semisimple part.
"""

from fractions import Fraction

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
        return lie.is_nilpotent(self.club())

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


def monomial_lift(quot, mat, level):
    """Exact local lift of a residue matrix to a level of the grading of
    quot: one monomial per nonzero residue, at its threshold valuation."""
    E = quot.model.field
    return la.mat([[E.scalar({quot.threshold(i, j, level): cf}) if cf
                    else E.zero() for j, cf in enumerate(row)]
                   for i, row in enumerate(mat)])


# -- labels --------------------------------------------------------------


def minimal_orbit_ur(c):
    """Geometric label of the minimal orbit through a nilpotent coset;
    ValueError("not nilpotent") for any other coset."""
    return lie.jordan_type(c.club())


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
    if lie.is_nilpotent(c.club()):
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


def _grade_units(quot, level):
    """Residue units b E_ij spanning the masked level piece (before the
    Lie-algebra constraint), as (i, j, b): one per matrix position on the
    coupling grid and element b of the residue basis."""
    model = quot.model
    out = []
    for i in range(model.n):
        for j in range(model.n):
            pc = model.position_class(i, j)
            if pc is None:
                continue
            cls, s = pc
            if cls.allows(quot.threshold(i, j, level) - s):
                out.extend((i, j, b) for b in quot.residue_field().basis)
    return out


def _lie_relations(quot, level, units):
    """Rows over the prime residue field of the Lie-algebra condition on
    sum_k x_k X_k, X_k the monomial lift to `level` of units[k] = (i, j, b).

    With gram[i][sigma(i)] = u_i t^{g_i}, the defect conj(X)^T G + G X of
    X = b t^th E_ij has two monomials: eps conj(b) u_i t^(th + g_i) at
    (j, sigma(i)) and u_sigma(i) b t^(th + g_sigma(i)) at (sigma(i), j),
    where eps = -1 when conj negates t^th (ramified field, 2 th odd).
    One row per residue coordinate of each (position, valuation) cell;
    no rows for a model without a form.
    """
    if quot.model.form is None:
        return []
    sigma, gv, gu = quot.model.form
    kres = quot.residue_field()
    ram = quot.model.field.kind == "ram"
    cells = {}
    for k, (i, j, b) in enumerate(units):
        th = quot.threshold(i, j, level)
        cb = -b if ram and (2 * th) % 2 else b.conj()
        si = sigma[i]
        for cell, cf in (((j, si, th + gv[i]), cb * gu[i]),
                         ((si, j, th + gv[si]), gu[si] * b)):
            col = cells.setdefault(cell, [kres.zero] * len(units))
            col[k] = col[k] + cf
    rows = []
    for cell in cells.values():
        coords = [kres.coords(cf) for cf in cell]
        rows.extend([co[a] for co in coords]
                    for a in range(len(kres.basis)))
    return rows


def lift_triple(c):
    """Lift a nilpotent coset to an exact sl2-triple over the field.

    The graded bracket is the residue-matrix commutator, so the triple is
    solved on the coset's residue matrix by `liealg.jacobson_morozov`,
    with d ranging over the residue units of the level -r piece cut down
    by the Lie-algebra rows, which are read off the monomial form in
    closed form.  The lift is graded: c at level r, h at level 0, d at
    level -r, all with monomial entries.  The exact check of the bracket
    identities over the field makes the lift's only products there.
    """
    quot = c.quot
    r = quot.r
    if c.is_zero():
        raise ValueError("zero element has no sl2-triple")
    if not c.is_nilpotent():
        raise ValueError("not nilpotent")
    units = _grade_units(quot, -r)
    kres = quot.residue_field()
    basis = la.unit_mats(kres, quot.model.n, units)
    res = lie.jacobson_morozov(c.mat, basis, kres,
                               _lie_relations(quot, -r, units))
    trip = lie.Sl2Triple(monomial_lift(quot, res.c, r),
                         monomial_lift(quot, res.h, 0),
                         monomial_lift(quot, res.d, -r))
    if not trip.check(quot.model.field):
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
    chat = monomial_lift(quot, c.mat, quot.r)
    w2 = tuple(wi + t * li for wi, li in zip(quot.w, Lam))
    c2 = project(model, chat, w2, quot.r + ell * t)
    return n_label(c) == n_label(c2)
