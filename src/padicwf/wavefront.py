"""Inductive wave-front computation for elements with unramified
semisimple part.

The pipeline works on spectral data: finite sets of (apartment point,
matrix) entries representing, per orbit representative, the cosets met
by the adjoint orbit of the input at a given depth.  A descent step
adds the next good piece to every entry; at integer depth the induced
nilpotent label of each entry is read off its graded quotient, and the
wave-front set is the maximal antichain of these labels.  Non-integral
top depth is only supported through the shipped example classes, where
the decisive membership question reduces to an exact point count on a
flag variety.
"""

from fractions import Fraction

from . import building as bd
from . import liealg as lie
from . import linalg as la
from . import mpquotient as mpq
from . import orbits as ob


def zmat(field, n):
    return [[field.zero() for _ in range(n)] for _ in range(n)]


def check_char(model, override=False):
    """The characteristic bound p > 6N - 1 for the model's residue
    cardinality p and absolute rank N; raises ValueError unless
    overridden."""
    q, rank = model.field.q, model.rank
    if q <= 6 * rank - 1 and not override:
        raise ValueError(
            "residue characteristic %d violates the bound p > %d "
            "(absolute rank %d); pass override to proceed"
            % (q, 6 * rank - 1, rank))


class Entry:
    """One orbit representative in a spectral datum: a named apartment
    point together with an exact matrix for the coset."""

    def __init__(self, name, model, point, cmat):
        self.name = name
        self.model = model
        self.point = tuple(Fraction(x) for x in point)
        self.cmat = la.mat(cmat)

    def with_added(self, piece):
        return Entry(self.name, self.model, self.point,
                     la.mat_add(self.cmat, piece))

    def coset(self, depth):
        """The point field holds the full apartment weight vector."""
        return mpq.project(self.model, self.cmat, self.point, depth)


class SpectralDatum:
    """The entries of the coset set at one depth, one per recorded
    orbit representative (orbit saturation is implicit)."""

    def __init__(self, depth, entries):
        self.depth = Fraction(depth)
        self.entries = list(entries)


class PieceError(ValueError):
    """A chain piece that fails a check, with the piece's name."""

    def __init__(self, piece, message):
        super().__init__(message)
        self.piece = piece


class GoodChain:
    """A sum of commuting good pieces of strictly decreasing integer
    depth, each an exact matrix.  Construction checks the goodness of
    every piece and pairwise commutation."""

    def __init__(self, pieces):
        self.pieces = [(name, la.mat(g), Fraction(r))
                       for name, g, r in pieces]
        depths = [r for _, _, r in self.pieces]
        assert depths == sorted(depths, reverse=True), \
            "pieces must be listed by strictly decreasing depth"
        assert len(set(depths)) == len(depths)
        for name, g, r in self.pieces:
            if not lie.is_good_depth(g, r):
                raise PieceError(name, "piece %r is not good at depth %s"
                                 % (name, r))
        for i, (a, ga, _) in enumerate(self.pieces):
            for b, gb, _ in self.pieces[i + 1:]:
                if any(e.terms for e in
                       la.bracket(la.sparse(ga), la.sparse(gb)).values()):
                    raise ValueError("pieces %r and %r do not commute"
                                     % (a, b))


class WFResult:
    """A maximal antichain of orbit labels with provenance."""

    def __init__(self, labels, provenance, is_upper_bound=False,
                 notes=()):
        self.labels = tuple(sorted(labels, reverse=True))
        self.provenance = provenance
        self.is_upper_bound = is_upper_bound
        self.notes = tuple(notes)

    def __repr__(self):
        kind = "bound" if self.is_upper_bound else "exact"
        return "WFResult(%s: %s)" % (
            kind, ", ".join(ob.fmt_partition(l) for l in self.labels))


def descend(datum, piece):
    """Add the next good piece to every entry: the coset set of the sum
    at this depth, per orbit representative."""
    return SpectralDatum(datum.depth,
                         [e.with_added(piece) for e in datum.entries])


def wf_upper_bound(datum, notes=()):
    """Maximal antichain of the induced labels; an exact answer at
    integer depth, an upper bound otherwise."""
    bound = datum.depth.denominator != 1
    contribs = [(e, mpq.n_label(e.coset(datum.depth)))
                for e in datum.entries]
    labels = ob.max_antichain([lab for _, lab in contribs])
    prov = {}
    for e, lab in contribs:
        prov.setdefault(ob.partition(lab), []).append(e.name)
    return WFResult(labels, prov, is_upper_bound=bound, notes=notes)


def compute_wf(chain, seed, mode="exact"):
    """Run the descent over the chain starting from the innermost
    spectral datum.  Each piece at the seed's depth is added by the
    descent step; deeper transfers between levels require explicit
    facet data and are refused here with a ValueError, as is a chain
    with no piece at the seed's depth."""
    assert mode in ("exact", "bound")
    datum = seed
    applied = False
    for name, g, r in chain.pieces:
        if r > datum.depth:
            continue  # consumed by the black-box seed datum
        if r != datum.depth:
            raise ValueError("piece %r at depth %s lies below the seed "
                             "depth %s: the level transfer needs explicit "
                             "facet data" % (name, r, datum.depth))
        datum = descend(datum, g)
        applied = True
    if not applied:
        raise ValueError("no piece at the seed depth %s: %s" % (
            datum.depth, ", ".join("piece %r at depth %s" % (name, r)
                                   for name, _, r in chain.pieces)))
    notes = []
    if mode == "bound":
        notes.append("upper bound per the replacement heuristic; "
                     "equality is conjectural, not assumed")
    res = wf_upper_bound(datum, notes=notes)
    if mode == "bound" and not res.is_upper_bound:
        res = WFResult(res.labels, res.provenance, is_upper_bound=True,
                       notes=res.notes)
    return res


# -- built-in example data -----------------------------------------------


def u6_gamma_deep(model):
    """Depth -1 diagonal piece: varpi^{-1} diag(0,0,l3,l4,l5,l6) with
    distinct trace-zero residue units."""
    E = model.field
    g = zmat(E, 6)
    s = E.from_residue(E.residue.gen)
    for i in range(2, 6):
        g[i][i] = E.parse("t^-1") * s * E.from_int(i + 1)
    return g


def u6_gamma_zero(model):
    """Depth 0 diagonal piece supported on the first two coordinates."""
    E = model.field
    g = zmat(E, 6)
    s = E.from_residue(E.residue.gen)
    for i in range(2):
        g[i][i] = s * E.from_int(i + 1)
    return g


def u6_chain_regular(model):
    """Regular nilpotent of the rank-1 block {0,1} at valuation -1."""
    E = model.field
    k = E.residue
    g = zmat(E, 6)
    tinv = E.parse("t^-1")
    b = k((5, 2))
    m = [[k.gen, b], [-b.conj(), -k.gen]]
    for i in range(2):
        for j in range(2):
            g[i][j] = tinv * E.from_residue(m[i][j])
    return g


def u6_seed():
    """The inner coset set at depth -1 for the depth-0 piece inside its
    centralizer (a rank-1 unitary group times a torus): the two vertex
    classes and the alcove of its building, with the regular nilpotent
    appearing at the second vertex.  The chain pieces are written in
    u6's diagonal basis, so at the alcove (hyperbolic basis) only the
    depth -1 piece lies in the Lie algebra; the alcove's label is
    dominated, so the answer does not depend on it."""
    m = bd.u6_model(23)
    mh = bd.u6_hyp_model(23)
    z6 = zmat(m.field, 6)
    return SpectralDatum(-1, [
        Entry("y", m, bd.U6_Y, z6),
        Entry("alcove", mh, bd.U6_ALCOVE, zmat(mh.field, 6)),
        Entry("z", m, bd.U6_Z, u6_chain_regular(m)),
    ])


def u6_chain():
    m = bd.u6_model(23)
    return GoodChain([
        ("gamma0", u6_gamma_zero(m), 0),
        ("gamma-1", u6_gamma_deep(m), -1),
    ])


def u6_example(mode="exact"):
    """The two-step unitary reproduction: labels [4,1,1] and [3,3]."""
    return compute_wf(u6_chain(), u6_seed(), mode)


def toral_gamma(model):
    """A depth-0 diagonal regular element with distinct trace-zero
    residue units: its centralizer is an anisotropic torus."""
    E = model.field
    g = zmat(E, 6)
    s = E.from_residue(E.residue.gen)
    for i in range(6):
        g[i][i] = s * E.from_int(i + 1)
    return g


def toral_example():
    """Single good element with anisotropic centralizer: the building of
    the centralizer is one point, so one facet carries the answer."""
    m = bd.u6_model(23)
    chain = GoodChain([("gamma", toral_gamma(m), 0)])
    seed = SpectralDatum(0, [Entry("y", m, bd.U6_Y, zmat(m.field, 6))])
    return compute_wf(chain, seed, "exact")


def u7_gamma_zero(model):
    """Depth 0 anisotropic corner piece of the rank-3 ramified group."""
    E = model.field
    g = zmat(E, 7)
    g[0][6] = E.from_int(5) * E.uniformizer()
    g[6][0] = E.parse("w^-1")
    return g


def u7_chain_y(model):
    """Length-5 nilpotent chain in the depth-0 quotient at the first
    special vertex."""
    E = model.field
    g = zmat(E, 7)
    g[2][1] = E.one()
    g[3][2] = E.one()
    g[4][3] = E.from_int(-1)
    g[5][4] = E.from_int(-1)
    return g


def u7_chain_z(model):
    """Length-4 nilpotent chain in the depth-0 quotient at the second
    special vertex."""
    E = model.field
    g = zmat(E, 7)
    for i, j in ((2, 1), (4, 2), (5, 4)):
        g[i][j] = E.uniformizer()
    return g


U7_Y = (Fraction(0), Fraction(0))
U7_Z = (Fraction(3, 4), Fraction(1, 4))

PATH_DISCREPANCY_NOTE = (
    "path check: the descent path from the z-chain has 12 edges with "
    "breakpoints 1/20, 1/12, 1/8, 3/20, 1/6, 1/4, certified by "
    "intersecting the walk line x(s) = (3/4 - 3s, 1/4 - s), r = 2s "
    "exactly with the critical hyperplanes; a prior hand count of "
    "10 edges leaves out the plane r = x0 + x1, crossed at s = 1/6, "
    "and lists an empty parameter interval (1/12 < s < 1/18)")


def u7_example(variant="plain"):
    """Half-integral-depth reproduction.  The deciding question is
    whether the shorter chain at the second vertex is met by the
    depth-1/2 part; it reduces to rational points on a flag subvariety,
    with corner coefficient 3 for the plain variant and 1 for the
    primed one."""
    assert variant in ("plain", "prime")
    from . import springerlab as sl
    m = bd.u7_model(23)
    coeff = 3 if variant == "plain" else 1
    g0 = u7_gamma_zero(m)
    entries = [Entry("y", m, m.point(U7_Y),
                     la.mat_add(g0, u7_chain_y(m)))]
    count = sl.curve_count(coeff, 23)
    notes = ["curve count at the second vertex: %d (coefficient %d)"
             % (count, coeff), PATH_DISCREPANCY_NOTE]
    if count > 0:
        entries.append(Entry("z", m, m.point(U7_Z),
                             la.mat_add(g0, u7_chain_z(m))))
    datum = SpectralDatum(0, entries)
    res = wf_upper_bound(datum, notes=notes)
    # the top depth 1/2 is not an integer: only an upper bound is
    # certified by the generic argument
    return WFResult(res.labels, res.provenance, is_upper_bound=True,
                    notes=res.notes)
