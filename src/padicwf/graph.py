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
    """Deterministic interior point: barycenter of the closure vertices."""
    vs = facet.vertices()
    c = tuple(sum(col) / len(vs) for col in zip(*vs))
    return c[:-1], c[-1]


def facet_quotient(model, facet):
    """The graded quotient at the facet's center."""
    x, r = facet_center(facet)
    return mpq.GradedQuotient(model, model.point(x), r)


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
        return facet_quotient(self.model, self.facet)

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
    quot, upper = facet_quotient(model, below), v.quot()
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


def predecessors(v, faces):
    """In-neighbors of a vertex among the facets `faces` of its
    window's arrangement."""
    model = v.model
    out = []
    if v.facet.is_horizontal():
        # rule-1 predecessors: non-horizontal facets this one is below;
        # the facets below f are the horizontal facets in its closure at
        # its depth, so v.facet is one of them when the depths agree
        for f in facets_above(v.facet, faces):
            if f.is_horizontal() or f.depth() != v.facet.depth():
                continue
            cand = GraphVertex(model, f, v.cmat)
            if cand.in_lattice():
                out.append(cand)
    else:
        # rule-2 predecessors: horizontal facets walking into this one
        for f in closure_horizontals(v.facet, faces):
            cand = GraphVertex(model, f, v.cmat)
            if not cand.in_lattice():
                continue
            try:
                target = _walk_target(cand)
            except ValueError:
                continue
            # the walk keeps the matrix, so landing in v's facet lands on
            # v's coset; only then are the target's vertices needed
            if target == v.facet:
                assert bd.precede(f, v.facet)
                out.append(cand)
    return out


# Largest backward reachable set `reachable` builds.  The sl2 scenario
# has 8 vertices.  The u7h scenario's set, in 3-D, is finite: with the
# limit lifted it closes at 1,248 vertices after 9.4-12.5 s of
# predecessor queries (in process, one CPU of a 2-CPU Xeon machine).
REACH_LIMIT = 100


def reachable(targets):
    """All vertices with a directed path into the target set, a
    non-empty list of vertices in one window, by backward closure over
    predecessor queries.  Raises ValueError once the set would exceed
    REACH_LIMIT vertices."""
    faces = bd.Arrangement(targets[0].model, targets[0].facet.window).faces
    seen = {t.key(): t for t in targets}
    frontier = list(targets)
    while frontier:
        v = frontier.pop()
        for u in predecessors(v, faces):
            k = u.key()
            if k not in seen:
                if len(seen) >= REACH_LIMIT:
                    raise ValueError("backward reachable set exceeds %d "
                                     "vertices" % REACH_LIMIT)
                seen[k] = u
                frontier.append(u)
    return set(seen.values())
