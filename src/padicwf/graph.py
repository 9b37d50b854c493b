"""The descent graph on (facet, coset) pairs.

Vertices pair an augmented facet with a coset of the corresponding
lattice quotient.  Two edge rules drive the descent: from a horizontal
facet, walk in the cocharacter direction read off a lifted sl2-triple
with slope 2 (the coset transports unchanged); from a non-horizontal
facet, step down to a facet below and fan out over the finite fiber
of cosets refining the old one.  Every edge strictly increases the
(depth, dimension) order, so the graph is acyclic.

Fibers are enumerated exactly over the residue field up to FIBER_CAP
cosets; larger fibers raise FiberTooLarge so callers can fall back to
targeted membership tests.
"""

from fractions import Fraction
from itertools import product
from operator import mul

from . import building as bd
from . import linalg as la
from . import mpquotient as mpq
from . import orbits as ob

ZERO = Fraction(0)


class FiberTooLarge(ValueError):
    def __init__(self, dim):
        super().__init__("fiber too large (dimension %d)" % dim)
        self.dim = dim


# largest number of fiber cosets materialized
FIBER_CAP = 2000


def facet_center(facet):
    """Deterministic interior point: barycenter of the closure vertices,
    computed once per facet and kept with it."""
    if facet._center is None:
        vs = facet.vertices()
        c = tuple(sum(col) / len(vs) for col in zip(*vs))
        facet._center = c[:-1], c[-1]
    return facet._center


def facet_quotient(facet):
    """The graded quotient at the facet's center, built once per facet
    and kept with it."""
    if facet._quot is None:
        x, r = facet_center(facet)
        facet._quot = mpq.GradedQuotient(facet.model,
                                         facet.model.point(x), r)
    return facet._quot


def in_closure(inner, outer):
    """Whether the facet `inner` lies in the closure of `outer`."""
    return not (inner.pos & ~outer.pos or inner.neg & ~outer.neg)


class GraphVertex:
    """A facet together with a lattice coset, held as an exact matrix."""

    def __init__(self, model, facet, cmat):
        self.model = model
        self.facet = facet
        self.cmat = la.mat(cmat)
        self._coset = None
        self._label = None

    def quot(self):
        """The graded quotient at the facet's center, kept with the
        facet."""
        return facet_quotient(self.facet)

    def in_lattice(self):
        """Whether the matrix lies in the lattice at the facet's center."""
        q = self.quot()
        return bd.mp_member(self.model, self.cmat, q.w, q.r)

    def coset(self):
        """Canonical coset representative: residues at the center."""
        if self._coset is None:
            self._coset = self.quot().project(self.cmat)
        return self._coset

    def is_nilpotent(self):
        return self.coset().is_nilpotent()

    def label(self):
        if self._label is None:
            self._label = mpq.n_label(self.coset())
        return self._label

    def key(self):
        return (self.facet.pos, self.facet.neg, self.coset().mat)

    def __eq__(self, other):
        return isinstance(other, GraphVertex) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return "GraphVertex(dep=%s, dim=%d)" % (
            self.facet.depth(), self.facet.dim())


# -- rule 2: the cocharacter walk ----------------------------------------


def _walk_direction(v):
    """Chart direction and weight vector of the sl2 cocharacter of the
    coset, read from the diagonal of the lifted h."""
    model = v.model
    trip = mpq.lift_triple(v.coset())
    E = model.field
    kres = E.residue
    n = model.n
    for i in range(n):
        for j in range(n):
            if i != j and trip.h[i][j].terms:
                raise ValueError("sl2 cocharacter is not chart-aligned")
    p = E.q
    weights = []
    for i in range(n):
        cf = trip.h[i][i].residue_at(0) if trip.h[i][i].terms else kres.zero
        val = kres.coords(cf)[0].v
        weights.append(Fraction(val if val <= p // 2 else val - p))
    rows = [list(coeffs) for coeffs, const in model.weight_funcs]
    lam = bd.qsolve_unique(rows, weights)
    if lam is None:
        raise ValueError("cocharacter not in the apartment chart")
    return lam, tuple(weights)


def _walk_step(model, window, x, r, lam, slope):
    """Largest safe parameter: half the first plane or wall crossing."""
    # along (x, r) + t (lam, slope) a plane's form reads v0 / W + t dv / L
    h = bd._homogeneous(x + (r,))
    ld = bd._homogeneous(lam + (slope,))
    ts = []
    for form in bd.critical_hyperplanes(model, window):
        v0 = sum(map(mul, form, h))
        dv = sum(map(mul, form, ld[:-1]))
        if v0 * dv < 0:
            ts.append(Fraction(-v0 * ld[-1], dv * h[-1]))
    walls = []
    for k, (a, b) in enumerate(window.xranges):
        if lam[k] > 0:
            walls.append((b - x[k]) / lam[k])
        elif lam[k] < 0:
            walls.append((a - x[k]) / lam[k])
    if slope > 0:
        walls.append((window.rmax - r) / slope)
    elif slope < 0:
        walls.append((window.rmin - r) / slope)
    # a wall at distance 0: the walk starts on it, heading outward
    if 0 in walls or not ts + walls:
        raise ValueError("no room to walk inside the window from x=%s, "
                         "r=%s" % (tuple(str(xi) for xi in x), r))
    return min(ts + walls) / 2


def _walk_target(v):
    """The facet the cocharacter walk (slope 2) from v's facet enters."""
    model, window = v.model, v.facet.window
    if not v.is_nilpotent():
        raise ValueError("walk requires a nilpotent coset")
    lam, _ = _walk_direction(v)
    x, r = facet_center(v.facet)
    eps = _walk_step(model, window, x, r, lam, 2)
    x2 = tuple(xi + eps * l for xi, l in zip(x, lam))
    f2 = bd.facet_of(model, window, x2, r + 2 * eps)
    if f2 == v.facet:
        raise ValueError("scenario A: the walk stays inside the facet")
    return f2


def out_edge_rule2(v):
    """The unique out-neighbor along the cocharacter walk (slope 2)."""
    f2 = _walk_target(v)
    assert not f2.is_horizontal()
    assert in_closure(v.facet, f2)
    assert bd.precede(v.facet, f2)
    return GraphVertex(v.model, f2, v.cmat)


# -- rule 1: descend to a facet below ------------------------------------


def fiber_basis(v, below):
    """Matrices spanning g_{>facet} / g_{>below}, over the prime residue
    field: the level-dep(below) units whose thresholds lie strictly above
    the facet's, intersected with the Lie algebra."""
    model = v.model
    kres = model.field.residue
    kp = kres.base_or_self()
    quot, upper = facet_quotient(below), v.quot()
    units = mpq._grade_units(quot, quot.r)
    keep = [k for k, (i, j, _) in enumerate(units)
            if quot.threshold(i, j) > upper.threshold(i, j)]
    rows = [[row[k] for k in keep]
            for row in mpq._lie_relations(quot, quot.r, units)]
    kern = la.kernel_basis(rows, kp) if rows else \
        la.identity(kp, len(keep))
    basis = la.unit_mats(kres, model.n, [units[k] for k in keep])
    return [mpq.monomial_lift(quot, la.mat_comb(vco, basis, kres, model.n),
                              quot.r) for vco in kern]


def out_edges_rule1(v, below):
    """All out-neighbors over one facet below: the coset fans out over
    the finite fiber.  Raises FiberTooLarge above FIBER_CAP cosets."""
    basis = fiber_basis(v, below)
    kp = v.model.field.residue.base_or_self()
    if kp.p ** len(basis) > FIBER_CAP:
        raise FiberTooLarge(len(basis))
    scalars = [kp(a) for a in range(kp.p)]
    out = []
    for coeffs in product(scalars, repeat=len(basis)):
        m = la.mat(v.cmat)
        for cf, B in zip(coeffs, basis):
            if cf:
                m = la.mat_add(m, la.mat_scale(
                    v.model.field.from_residue(cf), B))
        out.append(GraphVertex(v.model, below, m))
    return out


# -- paths and reachability ----------------------------------------------


class PathEdge:
    def __init__(self, src, dst, rule):
        self.src = src
        self.dst = dst
        self.rule = rule

    def __repr__(self):
        return "PathEdge(rule %d: dep %s -> %s)" % (
            self.rule, self.src.facet.depth(), self.dst.facet.depth())


def path_trace(v, to_depth):
    """Alternate rule-2 walks with forced rule-1 self-steps (the coset
    itself always survives to the facet below) until the depth target."""
    to_depth = Fraction(to_depth)
    if not v.is_nilpotent():
        raise ValueError("dead end: coset is not nilpotent")
    edges = []
    label = v.label()
    while v.facet.depth() < to_depth:
        u = out_edge_rule2(v)
        edges.append(PathEdge(v, u, 2))
        below = bd.facets_below(u.facet)
        nxt = GraphVertex(v.model, below[0], u.cmat)
        assert bd.precede(u.facet, nxt.facet)
        nxt_label = nxt.label()
        assert ob.dominance_leq(label, nxt_label)
        label = nxt_label
        edges.append(PathEdge(u, nxt, 1))
        v = nxt
    return edges


def facets_above(facet, faces):
    """Facets among `faces` other than this one with it in their
    closure."""
    return [f for f in faces
            if in_closure(facet, f) and f != facet]


def closure_horizontals(facet, faces):
    """Horizontal facets among `faces` in the closure of a facet."""
    return [f for f in faces if in_closure(f, facet) and f.is_horizontal()]


class Reach:
    """The backward closure into one target vertex.  Both edge rules
    keep the matrix, so every vertex reached holds the target's and is
    known by its facet, a face of the window's arrangement.  Each facet
    is tested for the lattice once and walked at most once."""

    def __init__(self, target):
        self.target = target
        faces = bd.Arrangement(target.model, target.facet.window).faces
        self.horizontal = [f for f in faces if f.is_horizontal()]
        self.sloped = {}  # depth -> the sloped facets at that depth
        for f in faces:
            if not f.is_horizontal():
                self.sloped.setdefault(f.depth(), []).append(f)
        # facet masks -> its vertex, or None off the facet's lattice;
        # and -> the facet its walk enters, or None where the walk raises
        self.vertices, self.walks = {}, {}

    def vertex(self, f):
        """The vertex holding the target's matrix over the facet f, or
        None if the matrix is not in f's lattice."""
        k = (f.pos, f.neg)
        if k not in self.vertices:
            u = GraphVertex(self.target.model, f, self.target.cmat)
            self.vertices[k] = u if u.in_lattice() else None
        return self.vertices[k]

    def predecessors(self, v):
        """In-neighbors of a vertex of this reach."""
        if v.facet.is_horizontal():
            # rule 1: the facets below a sloped facet are the horizontal
            # facets in its closure at its depth
            above = facets_above(v.facet,
                                 self.sloped.get(v.facet.depth(), ()))
            return [u for u in map(self.vertex, above) if u is not None]
        # rule 2: horizontal facets whose walk enters v's facet; the walk
        # keeps the matrix, so it lands on v's coset
        out = []
        for f in closure_horizontals(v.facet, self.horizontal):
            u, k = self.vertex(f), (f.pos, f.neg)
            if u is not None and k not in self.walks:
                try:
                    self.walks[k] = _walk_target(u)
                except ValueError:
                    self.walks[k] = None
            if u is not None and self.walks[k] == v.facet:
                assert bd.precede(f, v.facet)
                out.append(u)
        return out


def reachable(target):
    """All vertices with a directed path into the target vertex, by
    backward closure over predecessor queries.  The set has at most one
    vertex per face of the window's arrangement, whose size
    building.ARRANGEMENT_BUDGET bounds."""
    reach = Reach(target)
    seen = {target.key(): target}
    frontier = [target]
    while frontier:
        for u in reach.predecessors(frontier.pop()):
            k = u.key()
            if k not in seen:
                seen[k] = u
                frontier.append(u)
    return set(seen.values())
