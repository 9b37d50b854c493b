"""Augmented apartments: critical hyperplanes, facets, depth, membership.

The apartment of the diagonal split torus is modeled by an affine map
x -> w(x) from free coordinates to a full weight vector (one weight per
matrix index).  The parahoric lattice at the point w contains a Lie
algebra element at level r iff every matrix entry satisfies

    val(X_ij) >= r + w_j - w_i.

The form couples matrix positions into classes sharing one free scalar
parameter; each class records its member positions (with valuation
shifts coming from the Gram matrix), the set of valuations its parameter
can take, and the residue dimension per valuation.  All the geometry of
the augmented apartment A x R -- critical hyperplanes, facets, depth,
facets below -- is derived from these thresholds by exact arithmetic.
A critical hyperplane is held as an integer form, dotted with the
homogeneous integer coordinates of a point; a facet is held as the bit
masks of the planes it lies above and below, and its sign vector is
derived from them where an order or an output needs it.  Vertices are
held in homogeneous integer coordinates from the cut to the facet's
depth, kind and centre (`cell_vertices` gives them so too): a Fraction
appears only for an output coordinate, or where `AugFacet.vertices`
hands points out.
"""

from fractions import Fraction
from functools import lru_cache
from math import ceil, floor, gcd, lcm
from operator import mul

from . import linalg as la
from .localfield import LocalField, _fr

ZERO = Fraction(0)


# -- exact rational linear algebra -------------------------------------


def qsolve_unique(rows, rhs):
    """Unique solution of a square-or-over system over Q, else None."""
    n = len(rows[0]) if rows else 0
    red, pivots, _ = la.rref([list(row) + [b] for row, b in zip(rows, rhs)],
                             la.Q_OPS)
    if pivots != list(range(n)):
        return None  # underdetermined or inconsistent
    return tuple(Fraction(red[i][n]) for i in range(n))


def qrank(rows):
    """Rank over Q of a matrix of integers or Fractions."""
    return la.rank(rows, la.Q_OPS)


# -- entry coupling classes --------------------------------------------


class EntryClass:
    """Matrix positions sharing one free scalar parameter.

    members: tuple of (i, j, shift): position (i,j) carries the
    parameter at valuation v + shift when the parameter has valuation v.
    offset/step: the parameter's valuation set is offset + step*Z.
    pdim: residue dimension contributed per allowed valuation.
    """

    def __init__(self, members, offset, step, pdim):
        self.members = tuple((i, j, Fraction(s)) for i, j, s in members)
        self.offset = Fraction(offset)
        self.step = Fraction(step)
        self.pdim = pdim

    def allows(self, v):
        return (Fraction(v) - self.offset) % self.step == 0

    def positions(self):
        return [(i, j) for i, j, _ in self.members]

    def thresholds(self, w, r):
        """Lower bounds on the parameter valuation at (w, r)."""
        return [Fraction(r) + w[j] - w[i] - s for i, j, s in self.members]

    def __repr__(self):
        return "EntryClass(%s)" % (self.positions(),)


def _monomial_gram(gram):
    """(sigma, valuations, units) of a monomial Gram matrix: row i has the
    one entry gram[i][sigma[i]] = units[i] * t^valuations[i]."""
    n = len(gram)
    sigma, vals, units = [None] * n, [None] * n, [None] * n
    for i in range(n):
        nz = [j for j in range(n) if gram[i][j].terms]
        assert len(nz) == 1, "gram must be monomial"
        j = nz[0]
        e = gram[i][j]
        assert len(e.terms) == 1, "gram entries must be monomials"
        sigma[i], vals[i], units[i] = j, e.val(), e.leading()
    return sigma, vals, units


def coupling_classes(kind, n, field, gram=None):
    """Coupling classes of a classical factor over a local field.

    kind 'gl': free positions.  kind 'u': the form pairs position (i,j)
    with (sigma(j), sigma(i)); self-paired positions keep only the
    +1 or -1 eigenspace of the twisted conjugation, which restricts the
    valuation set.
    """
    if kind == "gl":
        step = Fraction(1, field.e)
        return [EntryClass([(i, j, 0)], 0, step, 1)
                for i in range(n) for j in range(n)]
    assert kind == "u" and gram is not None
    sigma, dvals, _ = _monomial_gram(gram)
    step = Fraction(1, field.e)
    two_dim = field.kind == "unram"  # entries are 2-dim over k per level
    classes = []
    seen = set()
    for a in range(n):
        for b in range(n):
            if (a, b) in seen:
                continue
            pa, pb = sigma[b], sigma[a]  # partner position
            if (pa, pb) == (a, b):
                # X_ab = -conj(X_ab) * unit: one eigenspace survives
                if field.kind == "unram":
                    # conj-antifixed line at every integer valuation
                    classes.append(EntryClass([(a, b, 0)], 0, 1, 1))
                else:
                    # ramified: -conj fixes w^odd coefficients
                    classes.append(EntryClass([(a, b, 0)],
                                              Fraction(1, 2), 1, 1))
                seen.add((a, b))
            else:
                shift = dvals[sigma[b]] - dvals[sigma[a]]
                classes.append(EntryClass(
                    [(a, b, 0), (pa, pb, shift)], 0,
                    1 if two_dim else step, 2 if two_dim else 1))
                seen.add((a, b))
                seen.add((pa, pb))
    return classes


# -- apartment models --------------------------------------------------


class Model:
    """A classical factor with its coupling classes and apartment chart.

    weight_funcs: per matrix index an affine function of the d free
    apartment coordinates, given as (coefficient tuple, constant).
    Models without a chart (d = 0) are evaluated at explicit weight
    vectors only.  form: (sigma, valuations, units) of the monomial Gram
    matrix, as read by _monomial_gram; None without one.  rank: the
    absolute rank N of the ambient group, n unless given.  The chart's
    plane families (`_plane_families`), the rank memo of its windows
    (`_ranker`), its recent heart blocks (`heart_blocks`) and the labels
    of its recent cosets (`mpquotient.n_label`) are kept with the model.
    """

    def __init__(self, name, n, field, classes, weight_funcs=None,
                 gram=None, kind=None, rank=None):
        self.name = name
        self.n = n
        self.rank = n if rank is None else rank
        self.field = field
        self.classes = classes
        self.weight_funcs = weight_funcs
        self.gram = gram
        self.form = None if gram is None else _monomial_gram(gram)
        self.kind = kind
        self.d = len(weight_funcs[0][0]) if weight_funcs else 0
        self.club_indices = tuple(range(n))
        self._pos_map = None
        self._families = None
        self._ranks = ({}, {})
        self._hearts = {}
        self._labels = {}

    def position_class(self, i, j):
        """(class, shift) of the coupling class carrying position (i,j)."""
        if self._pos_map is None:
            self._pos_map = {}
            for cls in self.classes:
                for a, b, s in cls.members:
                    self._pos_map[(a, b)] = (cls, s)
        return self._pos_map.get((i, j))

    def point(self, x):
        """Weight vector of the apartment point with coordinates x."""
        assert len(x) == self.d
        return tuple(sum((c * Fraction(xi) for c, xi in zip(coeffs, x)),
                         Fraction(const))
                     for coeffs, const in self.weight_funcs)

    def weight_diff(self, i, j):
        """Affine function w_i - w_j as (coeffs, const)."""
        (ci, ki), (cj, kj) = self.weight_funcs[i], self.weight_funcs[j]
        return tuple(a - b for a, b in zip(ci, cj)), ki - kj

    def __repr__(self):
        return "Model(%s)" % self.name


@lru_cache(maxsize=None)
def gl_split_model(n, q):
    """gl_n over k((t)) with the full diagonal torus chart."""
    L = LocalField(q)
    wf = [(tuple(Fraction(1 if k == i else 0) for k in range(n)), ZERO)
          for i in range(n)]
    return Model("gl%d" % n, n, L, coupling_classes("gl", n, L),
                 weight_funcs=wf, kind="gl")


@lru_cache(maxsize=None)
def sl2_model(q):
    """sl_2 over k((t)): one apartment coordinate, weights (x, -x)."""
    L = LocalField(q)
    wf = [((Fraction(1),), ZERO), ((Fraction(-1),), ZERO)]
    return Model("sl2", 2, L, coupling_classes("gl", 2, L),
                 weight_funcs=wf, kind="gl", rank=1)


@lru_cache(maxsize=None)
def sl3_model(q):
    L = LocalField(q)
    wf = [((Fraction(1), ZERO), ZERO), ((ZERO, Fraction(1)), ZERO),
          ((Fraction(-1), Fraction(-1)), ZERO)]
    return Model("sl3", 3, L, coupling_classes("gl", 3, L),
                 weight_funcs=wf, kind="gl", rank=2)


@lru_cache(maxsize=None)
def u6_model(q=23):
    """U_6 for the diagonal hermitian form (1,1,1,1,1,varpi), unramified
    quadratic entries.  No chart: evaluated at explicit weight vectors."""
    E = LocalField(q).unramified_quadratic()
    n = 6
    g = [[E.zero()] * n for _ in range(n)]
    for i in range(5):
        g[i][i] = E.one()
    g[5][5] = E.uniformizer()  # val 1
    classes = coupling_classes("u", n, E, g)
    return Model("u6", n, E, classes, gram=g, kind="u")


U6_Y = (ZERO, ZERO, ZERO, ZERO, ZERO, Fraction(1, 2))
U6_Z = (Fraction(1, 2), Fraction(1, 2), ZERO, ZERO, ZERO, Fraction(1, 2))


@lru_cache(maxsize=None)
def u6_hyp_model(q=23):
    """U_6 with the first two coordinates rewritten in a hyperbolic
    basis: form x1*conj(y2) + x2*conj(y1) + x3*conj(y3) + ... +
    varpi x6*conj(y6).  The alcove of the split U_2-plane lives on the
    chart points (x, -x, 0, 0, 0, 1/2)."""
    E = LocalField(q).unramified_quadratic()
    n = 6
    g = [[E.zero()] * n for _ in range(n)]
    g[0][1] = E.one()
    g[1][0] = E.one()
    for i in range(2, 5):
        g[i][i] = E.one()
    g[5][5] = E.uniformizer()
    classes = coupling_classes("u", n, E, g)
    return Model("u6hyp", n, E, classes, gram=g, kind="u")


U6_ALCOVE = (Fraction(1, 4), Fraction(-1, 4), ZERO, ZERO, ZERO,
             Fraction(1, 2))


@lru_cache(maxsize=None)
def u7_model(q=23):
    """U_7 for the antidiagonal hermitian form, ramified quadratic
    entries; chart (x1, x2) -> (-1/4, x1, x2, 0, -x2, -x1, 1/4).  The
    frozen first/last coordinates place the rank-2 anisotropic torus
    directions so that the torus Lie algebra sits at depth 0 with
    equality."""
    E = LocalField(q).ramified_quadratic()
    n = 7
    g = [[E.zero()] * n for _ in range(n)]
    for i in range(n):
        g[i][n - 1 - i] = E.one()
    classes = coupling_classes("u", n, E, g)
    q14 = Fraction(1, 4)
    wf = [
        ((ZERO, ZERO), -q14),
        ((Fraction(1), ZERO), ZERO),
        ((ZERO, Fraction(1)), ZERO),
        ((ZERO, ZERO), ZERO),
        ((ZERO, Fraction(-1)), ZERO),
        ((Fraction(-1), ZERO), ZERO),
        ((ZERO, ZERO), q14),
    ]
    return Model("u7", n, E, classes, weight_funcs=wf, gram=g, kind="u")


@lru_cache(maxsize=None)
def u7_h_model(q=23):
    """The centralizer U_5 x T inside the u7 model: inner-block classes
    plus the torus class on indices (0, 6); same chart."""
    g = u7_model(q)
    inner = set(range(1, 6))
    classes = [c for c in g.classes
               if all(i in inner and j in inner for i, j in c.positions())]
    classes.append(EntryClass([(0, 0, 0), (6, 6, 0)], 0,
                              Fraction(1, 2), 1))
    m = Model("u7h", g.n, g.field, classes,
              weight_funcs=g.weight_funcs, gram=g.gram, kind="u")
    m.club_indices = tuple(range(1, 6))
    return m


# -- windows and critical hyperplanes ----------------------------------


class Window:
    """Bounded box in A x R: per-coordinate ranges and an r range.  Two
    windows with the same `key` are equal: a shared facet carries the
    first window object met with its key."""

    def __init__(self, xranges, rmin, rmax):
        self.xranges = tuple((Fraction(a), Fraction(b))
                             for a, b in xranges)
        self.rmin, self.rmax = Fraction(rmin), Fraction(rmax)
        for k, (a, b) in enumerate(self.xranges):
            if a > b:
                raise ValueError("empty window: axis %d range [%s, %s] "
                                 "has its lower end above its upper end"
                                 % (k, a, b))
        if self.rmin > self.rmax:
            raise ValueError("empty window: r range [%s, %s] has rmin "
                             "above rmax" % (self.rmin, self.rmax))

    def contains(self, x, r):
        return all(a <= Fraction(xi) <= b
                   for (a, b), xi in zip(self.xranges, x)) and \
            self.rmin <= Fraction(r) <= self.rmax

    def box_constraints(self):
        """Closed box as (integer coeffs over (x, r), bound) inequality
        pairs."""
        d = len(self.xranges)
        out = []
        for k, (a, b) in enumerate(self.xranges):
            e = tuple(int(i == k) for i in range(d + 1))
            out.append((e, b))
            out.append((tuple(-c for c in e), -a))
        er = tuple(int(i == d) for i in range(d + 1))
        out.append((er, self.rmax))
        out.append((tuple(-c for c in er), -self.rmin))
        return out

    def key(self):
        return (self.xranges, self.rmin, self.rmax)

    def __eq__(self, other):
        return isinstance(other, Window) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())


def _frange(coeffs, const, window):
    """Range of an affine function over the window box."""
    lo = hi = const
    for c, (a, b) in zip(coeffs, window.xranges):
        if c > 0:
            lo, hi = lo + c * a, hi + c * b
        elif c < 0:
            lo, hi = lo + c * b, hi + c * a
    return lo, hi


# The most recent (model, window) pairs, oldest first.  Each entry holds
# the window's plane list, its rank memo, its facet table (pos, neg) ->
# AugFacet, and the model, so that the id in the key is not reused while
# the entry lives.  A query reads one window many times; a stream of
# queries on new windows must not keep them all.
_PLANE_CACHE = {}
_PLANE_CACHE_SIZE = 16


def critical_hyperplanes(model, window):
    """All critical hyperplanes of the model meeting the window.

    One plane per (class member, allowed parameter valuation) whose
    graph {r = v + shift + w_i(x) - w_j(x)} meets the window; planes
    with constant f are the horizontal (torus-jump) planes.  A plane
    {r = f(x)} is held as its integer form: the integers (A, -B) that
    `_integral` gives for (-coeffs, 1).(x, r) = const, so that
    A.(x, r) - B has the sign of r - f(x) at every point.  The list is
    sorted by the planes' (coeffs, const).
    """
    return _window_planes(model, window)[0]


def _plane_families(model):
    """The model's critical planes by chart direction, computed once per
    model: (coeffs, D, normal, g, progressions), sorted by coeffs.  The
    planes {r = c + coeffs.x} of the direction are those with c = N / D
    for N = N0 + k step, (N0, step) one of the progressions and k any
    integer; `normal` is the integer normal (-coeffs D, D), g its gcd,
    and (normal, -N) / gcd(g, N) is the plane's form."""
    if model._families is None:
        consts = {}
        for cls in model.classes:
            for i, j, s in cls.members:
                coeffs, const = model.weight_diff(i, j)
                consts.setdefault(coeffs, []).append(
                    (cls.offset + s + const, cls.step))
        families = []
        for coeffs in sorted(consts):
            D = lcm(*(c.denominator for c in coeffs),
                    *(x.denominator for pair in consts[coeffs]
                      for x in pair))
            normal = tuple(-in_units(c, D) for c in coeffs) + (D,)
            progs = sorted({(in_units(c0, D) % in_units(step, D),
                             in_units(step, D))
                            for c0, step in consts[coeffs]})
            families.append((coeffs, D, normal, gcd(*normal), progs))
        model._families = tuple(families)
    return model._families


def _window_planes(model, window):
    """The `_PLANE_CACHE` entry of the window: its critical hyperplanes,
    the `_ranker` over the rows of its box constraints and then of the
    planes' normals, the rows every cell of the window cuts with (mask
    bit k: row k), its facet table and the model."""
    ck = (model.name, id(model), window.key())
    if ck in _PLANE_CACHE:
        return _PLANE_CACHE[ck]
    if model.weight_funcs is None:
        raise ValueError("model %s has no apartment chart" % model.name)
    forms = []
    for coeffs, D, normal, g, progs in _plane_families(model):
        # the plane {r = c + coeffs.x} meets the window iff c lies in
        # [rmin - hi, rmax - lo], (lo, hi) the range of coeffs.x
        lo, hi = _frange(coeffs, 0, window)
        nlo = ceil((window.rmin - hi) * D)
        nhi = floor((window.rmax - lo) * D)
        consts = set()
        for n0, step in progs:
            consts.update(range(n0 - (n0 - nlo) // step * step, nhi + 1,
                                step))
        for n in sorted(consts):
            e = gcd(g, n)
            forms.append(tuple(a // e for a in normal) + (-n // e,))
    rank = _ranker([a for a, _ in window.box_constraints()] +
                   [c[:-1] for c in forms], model._ranks)
    if len(_PLANE_CACHE) >= _PLANE_CACHE_SIZE:
        del _PLANE_CACHE[next(iter(_PLANE_CACHE))]
    entry = _PLANE_CACHE[ck] = forms, rank, {}, model
    return entry


def _shared_facet(entry, window, pos, neg, verts=None):
    """The facet (pos, neg) of the window in its `_PLANE_CACHE` entry,
    made on first request (with `verts`, when given), so that its cell,
    vertices, depth and dimension are computed once while the entry
    lives."""
    forms, _, facets, model = entry
    f = facets.get((pos, neg))
    if f is None:
        f = facets[pos, neg] = AugFacet(model, window, forms, pos, neg,
                                        verts)
    return f


def share_facet(facet):
    """The facet of the window's `_PLANE_CACHE` entry with the masks of
    `facet`, say an arrangement's face: `facet` itself where the entry
    holds none yet, so that what is kept on it lives with the entry."""
    facets = _window_planes(facet.model, facet.window)[2]
    return facets.setdefault((facet.pos, facet.neg), facet)


class AugFacet:
    """An augmented facet: the masks `pos` and `neg` of the critical
    hyperplanes it lies above and below (bit k: the k-th plane of
    `critical_hyperplanes`, whose integer forms it is handed as
    `forms`); it lies on the others.

    A facet keeps what is computed on it, each once: its cell,
    vertices, depth, dimension and kind here, and, filled by `graph` on
    first use, its centre, the graded quotient there and a coset table
    (a coset's residue matrix -> its walk's outcome; labels are kept by
    the model, `mpquotient.n_label`).  A shared facet (`facet_of`,
    `facets_below`, `share_facet`) lives, and keeps all of these, while
    its window's `_PLANE_CACHE` entry does.

    verts, when given, are the vertices of the facet's closure in the
    window, in primitive homogeneous integer coordinates (X, W), W > 0;
    otherwise they are read off its closed cell, which is computed once,
    on first use.  The vertices are held so: depth, horizontality and
    dimension are read off them in integers, each once, and Fraction
    points are made only on request (`vertices`).  dim, when given, is
    the dimension of the facet's affine hull; otherwise it is one less
    than the rank of the homogeneous vertices."""

    def __init__(self, model, window, forms, pos, neg, verts=None,
                 dim=None):
        self.model = model
        self.window = window
        self.forms = forms
        self.pos, self.neg = pos, neg
        self._verts = verts
        self._cell = None
        self._dim = dim
        self._depth = self._horizontal = None
        self._center = None  # kept by graph.facet_center
        self._quot = None  # kept by graph.facet_quotient
        self._cosets = None  # kept by graph.GraphVertex.kept

    def __eq__(self, other):
        return isinstance(other, AugFacet) and self.pos == other.pos \
            and self.neg == other.neg \
            and self.window.key() == other.window.key()

    def __hash__(self):
        return hash((self.pos, self.neg, self.window.key()))

    @property
    def signs(self):
        """The sign vector: per plane, 1 above it, -1 below, 0 on it."""
        return tuple((self.pos >> k & 1) - (self.neg >> k & 1)
                     for k in range(len(self.forms)))

    def cell(self):
        """The closure of the facet: the window box cut by every plane on
        the side of its sign, as homogeneous vertices with their masks
        (bit k: plane k), as `cell_vertices` gives it."""
        if self._cell is None:
            rank = _window_planes(self.model, self.window)[1]
            self._cell = cell_vertices(self.window,
                                       list(zip(self.forms, self.signs)),
                                       rank)
        return self._cell

    def homogeneous(self):
        """The vertices of the closure as homogeneous integer points."""
        if self._verts is None:
            self._verts = [h for h, _ in self.cell()]
        return self._verts

    def vertices(self):
        """The vertices of the closure as Fraction points, made anew on
        each call."""
        return [_point(h) for h in self.homogeneous()]

    def depth(self):
        if self._depth is None:
            top = _top(self.homogeneous())
            self._depth = Fraction(top[-2], top[-1])
        return self._depth

    def is_horizontal(self):
        if self._horizontal is None:
            dep = self.depth()
            self._horizontal = _at_level(self.homogeneous(), dep.numerator,
                                         dep.denominator)
        return self._horizontal

    def dim(self):
        if self._dim is None:
            self._dim = qrank(self.homogeneous()) - 1
        return self._dim

    def __repr__(self):
        return "AugFacet(dep=%s, dim=%d%s)" % (
            self.depth(), self.dim(),
            ", horizontal" if self.is_horizontal() else "")


def facet_of(model, window, x, r):
    """The augmented facet containing the point (x, r), shared with
    every other call that meets it while its window's entry lives."""
    x = tuple(Fraction(xi) for xi in x)
    r = Fraction(r)
    if not window.contains(x, r):
        raise ValueError("outside window")
    h = _homogeneous(x + (r,))
    entry = _window_planes(model, window)
    forms = entry[0]
    pos = neg = 0
    for k, form in enumerate(forms):
        v = sum(map(mul, form, h))
        if v > 0:
            pos |= 1 << k
        elif v < 0:
            neg |= 1 << k
    return _shared_facet(entry, window, pos, neg)


# -- the exact cut -----------------------------------------------------
#
# A polytope is held as its vertices, each in primitive homogeneous
# integer coordinates (X, W) with W > 0, standing for X / W, and with
# the bit mask of the constraints tight at it: bits 0 .. 2d+1 for the
# faces of the window box, then one bit per cut.  Cutting and locating
# need no Fraction arithmetic.


def _box_vertices(window):
    """Corners of the window box with their tight box constraints (a
    degenerate range gives one corner value, tight both ways)."""
    verts = [((), 0)]
    ranges = window.xranges + ((window.rmin, window.rmax),)
    for k, (a, b) in enumerate(ranges):
        verts = [(y + (c,), m | (c == b) << 2 * k | (c == a) << 2 * k + 1)
                 for y, m in verts for c in sorted({a, b})]
    return [(_homogeneous(y), m) for y, m in verts]


# Most direction sets one rank memo keeps; the oldest goes first.
RANK_MEMO_SIZE = 4096


def _ranker(rows, memo=None):
    """Rank over Q of the rows a bit mask picks.  The mask is read as the
    set of the distinct directions of its rows (primitive, first nonzero
    entry positive), and the rank of each direction set is kept in
    `memo`: (direction -> bit, direction set -> rank), a model's own
    (`Model._ranks`), shared by all its windows, or a new one."""
    dirs, ranks = memo if memo is not None else ({}, {})
    bits = []
    for row in rows:
        if not any(row):
            bits.append(0)
            continue
        d = _primitive(row)
        if next(x for x in d if x) < 0:
            d = tuple(-x for x in d)
        bits.append(1 << dirs.setdefault(d, len(dirs)))

    def rank(mask):
        key = 0
        while mask:
            low = mask & -mask
            key |= bits[low.bit_length() - 1]
            mask ^= low
        r = ranks.get(key)
        if r is None:
            if len(ranks) >= RANK_MEMO_SIZE:
                del ranks[next(iter(ranks))]
            r = ranks[key] = qrank([d for d, b in dirs.items()
                                    if key >> b & 1])
        return r
    return rank


def _cut(verts, plane, bit, rank):
    """One plane against a polytope's vertices.

    plane: integer (A, -B) for {a.y = b}, dotted with homogeneous
    vertices.  Returns the plane's value at each vertex, the vertices
    with `bit` added to the masks of those on the plane, and the points
    where the plane crosses an edge, tight on `bit` and on what is tight
    along the edge.  Two vertices span an edge when the constraints
    tight at both have rank dim - 1.
    """
    vals = [sum(map(mul, plane, h)) for h, _ in verts]
    if 0 in vals:
        verts = [(h, m | bit) if v == 0 else (h, m)
                 for (h, m), v in zip(verts, vals)]
    cut = []
    if vals and max(vals) > 0 > min(vals):
        edge_rank = len(plane) - 2
        for (hi, mi), si in zip(verts, vals):
            if si <= 0:
                continue
            for (hj, mj), sj in zip(verts, vals):
                if sj >= 0 or rank(mi & mj) != edge_rank:
                    continue
                # si * hj - sj * hi lies on the plane, with weight > 0
                cut.append((_primitive([si * q - sj * p
                                        for p, q in zip(hi, hj)]),
                            mi & mj | bit))
    return vals, verts, cut


def _side(verts, vals, s):
    """The vertices where the plane's value has sign s or is 0."""
    return [hm for hm, v in zip(verts, vals) if v == 0 or v * s > 0]


def _zero_sets(masks):
    """The zero sets of the faces of a closed cell, from the plane masks
    of its vertices: every intersection of some of them."""
    gens = set(masks)
    zsets = set(gens)
    new = zsets
    while new:
        new = {z & g for z in new for g in gens} - zsets
        zsets |= new
    return zsets


def cell_vertices(window, cuts, rank=None):
    """Vertices of the window box cut by each constraint (c, s), keeping
    the side where a.y - b has sign s or is 0 (for s = 0, the plane
    a.y = b); c is the integer form of a.y = b that `_integral` gives.
    The equalities cut first, so the inequalities cut a polytope of the
    lowest dimension.  rank, when given, is a `_ranker` over the box
    rows and then the cuts' normals, such as the window's own in
    `_window_planes`; otherwise one is built.

    Returns (homogeneous point, mask) pairs, where mask bit k is set
    when cut k is tight at the point; empty when the cell is.
    """
    nbox = 2 * len(window.xranges) + 2
    if rank is None:
        rank = _ranker([a for a, _ in window.box_constraints()] +
                       [c[:-1] for c, _ in cuts])
    verts = _box_vertices(window)
    for k in sorted(range(len(cuts)), key=lambda k: cuts[k][1] != 0):
        c, s = cuts[k]
        vals, verts, cut = _cut(verts, c, 1 << nbox + k, rank)
        verts = _side(verts, vals, s) + cut
    return [(h, m >> nbox) for h, m in verts]


# -- the arrangement engine --------------------------------------------

# Work (cells split plus faces made) one Arrangement may do before it
# gives up.  The sl3 unit window takes 1250 and the u7h window of
# `graph reach` 15244; the u7 unit window (113 planes in 3-D) would take
# 39944, about twice the budget, and stops.
ARRANGEMENT_BUDGET = 20000


class Arrangement:
    """Every augmented facet of a window, built by inserting the
    critical hyperplanes one at a time (Edelsbrunner, O'Rourke and
    Seidel, SIAM J. Comput. 1986).

    A cell is the masks of the planes inserted so far that it lies above
    and below, and its vertices with their tight masks.  A new plane
    splits only the cells it crosses (`_cut`).  The faces of a closed
    cell are cut out by its zero sets (`_zero_sets`); a face's masks
    are the cell's without the planes containing it.  `faces` lists
    each facet once, as an AugFacet with its vertices and dimension
    filled in: a vertex's mask records every constraint through it, so
    the constraints tight at all of a face's vertices cut out its
    affine hull, and the dimension is d + 1 minus their rank.
    """

    def __init__(self, model, window):
        forms, self._rank = _window_planes(model, window)[:2]
        if len(window.xranges) != model.d:
            raise ValueError("window has %d axis ranges; model %s has %d "
                             "chart coordinates" % (len(window.xranges),
                                                    model.name, model.d))
        self.model, self.window = model, window
        self._nbox = 2 * len(window.xranges) + 2
        self.work = 0
        cells = [(0, 0, _box_vertices(window))]
        for k, c in enumerate(forms):
            cells = self._insert(cells, 1 << (self._nbox + k), c)
        self.faces = self._faces(cells, forms)

    def _spend(self):
        self.work += 1
        if self.work > ARRANGEMENT_BUDGET:
            raise ValueError("arrangement budget exceeded (%d cells split "
                             "and faces made); shrink the window"
                             % ARRANGEMENT_BUDGET)

    def _insert(self, cells, bit, plane):
        """Cut every cell the plane crosses; record it on the vertices it
        passes through."""
        out = []
        for pos, neg, verts in cells:
            vals, verts, cut = _cut(verts, plane, bit, self._rank)
            up, down = max(vals) > 0, min(vals) < 0
            if not (up and down):
                out.append((pos | bit if up else pos,
                            neg | bit if down else neg, verts))
                continue
            self._spend()
            out.append((pos | bit, neg, _side(verts, vals, 1) + cut))
            out.append((pos, neg | bit, _side(verts, vals, -1) + cut))
        return out

    def _faces(self, cells, forms):
        """One AugFacet per distinct face of the closed cells."""
        nbox = self._nbox
        box = (1 << nbox) - 1
        full = len(self.window.xranges) + 1
        faces = {}
        for pos, neg, verts in cells:
            for z in _zero_sets(m & ~box for _, m in verts):
                key = (pos & ~z, neg & ~z)
                if key in faces:
                    continue
                self._spend()
                fv = []
                tight = -1
                for h, m in verts:
                    if m & z == z:
                        fv.append(h)
                        tight &= m
                faces[key] = AugFacet(self.model, self.window, forms,
                                      key[0] >> nbox, key[1] >> nbox, fv,
                                      full - self._rank(tight))
        return list(faces.values())


def _homogeneous(y):
    """Primitive integer coordinates (X, W), W > 0, of a rational point:
    W is the lcm of the reduced denominators, so every prime of W misses
    the numerator X_k of a coordinate whose denominator carries all of
    its power."""
    w = lcm(*(c.denominator for c in y))
    return tuple(c.numerator * (w // c.denominator) for c in y) + (w,)


def _point(h):
    """The rational point X / W of homogeneous coordinates (X, W)."""
    return tuple(Fraction(x, h[-1]) for x in h[:-1])


def _top(hs):
    """The homogeneous point of largest last coordinate (the level r)."""
    top = hs[0]
    for h in hs:
        if h[-2] * top[-1] > top[-2] * h[-1]:
            top = h
    return top


def _barycentre(hs):
    """The barycentre of the homogeneous points hs, one reduced integer
    pair (numerator, denominator > 0) per coordinate: the points are
    summed at their common weight L, so each coordinate is an integer
    sum over len(hs) * L."""
    L = lcm(*(h[-1] for h in hs))
    scale = [L // h[-1] for h in hs]
    D = len(hs) * L
    out = []
    for col in list(zip(*hs))[:-1]:
        s = sum(map(mul, col, scale))
        g = gcd(s, D)
        out.append((s // g, D // g))
    return out


def _at_level(hs, num, den):
    """Whether every homogeneous point of hs lies at the level num/den."""
    return all(h[-2] * den == num * h[-1] for h in hs)


def _primitive(h):
    g = gcd(*h)
    return tuple(x // g for x in h)


def _integral(a, b):
    """The constraint a.y = b as integers (A, -B) with A.y = B a multiple
    of it, to be dotted with homogeneous coordinates (y W, W)."""
    w = lcm(*(c.denominator for c in a + (b,)))
    return tuple(int(c * w) for c in a + (-b,))


def precede(f1, f2):
    """The strict order on facets: smaller depth first, and at equal
    depth the larger-dimensional facet precedes (descent moves from a
    facet to the smaller facets below it at the same depth)."""
    d1, d2 = f1.depth(), f2.depth()
    if d1 != d2:
        return d1 < d2
    return f1.dim() > f2.dim()


def facets_below(facet):
    """Horizontal facets in the closure of a facet at its depth, by
    dimension and then sign vector: the faces of its closed cell whose
    vertices all lie at its depth, each off the planes of its zero set,
    as shared facets of its window."""
    if facet.is_horizontal():
        raise ValueError("facet is horizontal")
    dep = facet.depth()
    verts = facet.cell()
    entry = _window_planes(facet.model, facet.window)
    out = []
    for z in _zero_sets(m for _, m in verts):
        fv = [h for h, m in verts if m & z == z]
        if _at_level(fv, dep.numerator, dep.denominator):
            out.append(_shared_facet(entry, facet.window, facet.pos & ~z,
                                     facet.neg & ~z, fv))
    if not out:
        raise ValueError("no horizontal facet below the facet at depth %s: "
                         "its top lies on the window's boundary" % dep)
    return sorted(out, key=lambda f: (f.dim(), f.signs))


# -- Moy-Prasad membership and depth -----------------------------------


# Thresholds in integer units.  At a point w and a level r, let D be
# lcm(2, denominators of r and w).  Every threshold r + w_j - w_i is then
# an integer T over D, and so is every valuation of the local fields
# (denominator 1 or 2) and every class offset, step and shift.  An entry
# compares with T by integer cross-multiplication, and its residue at T
# is the coefficient of the term whose valuation is T / D.


def in_units(x, D):
    """The integer x * D of a Fraction or int x whose denominator divides
    D."""
    q, rem = divmod(D, x.denominator)
    assert not rem, "%s is not a multiple of 1/%d" % (x, D)
    return x.numerator * q


def grading_units(w, r):
    """(D, W, R) for the Fractions w and r: the denominator D and the
    numerators W = w * D and R = r * D."""
    D = lcm(2, r.denominator, *(wi.denominator for wi in w))
    return D, tuple(in_units(wi, D) for wi in w), in_units(r, D)


def entry_geq_units(e, T, D, strict=False):
    """Whether val(e) >= T / D (> if strict); zero passes."""
    if not e.terms:
        return True
    v = e.terms[0][0]
    a, b = v.numerator * D, T * v.denominator
    return a > b if strict else a >= b


def residue_units(e, T, D):
    """`e.residue_at(T / D)`, without a Fraction."""
    for v, c in e.terms:
        if v.numerator * D == T * v.denominator:
            return c
    return e.field.residue.zero


def mp_member(model, gamma, w, r, strict=False):
    """gamma in g(F)_{w >= r} (or > r): entrywise valuation thresholds."""
    D, W, R = grading_units(tuple(map(_fr, w)), _fr(r))
    for i in range(model.n):
        for j in range(model.n):
            if not entry_geq_units(gamma[i][j], R + W[j] - W[i], D,
                                   strict):
                return False
    return True


def dep_element(model, gamma, window):
    """Depth of gamma: max r with mp_member over the windowed apartment."""
    assert model.weight_funcs is not None
    cuts = []
    for i in range(model.n):
        for j in range(model.n):
            e = gamma[i][j]
            if not e:
                continue
            # r <= v + (w_i - w_j)(x): (-coeffs_ij, 1).(x,r) <= v + const
            coeffs, const = model.weight_diff(i, j)
            cuts.append((_integral(tuple(-c for c in coeffs) +
                                   (Fraction(1),), e.val() + const), -1))
    verts = cell_vertices(window, cuts)
    if not verts:
        raise ValueError("no admissible point in window")
    top = _top([h for h, _ in verts])
    return Fraction(top[-2], top[-1])


# -- graded pieces -----------------------------------------------------


def class_threshold(cls, w, r):
    """Binding lower bound for the class parameter at (w, r), and
    whether the bound sits on the parameter's valuation grid."""
    thrs = cls.thresholds(w, r)
    m = max(thrs)
    return m, cls.allows(m)


def grade_dim(model, w, r):
    """Residue dimension of the graded piece g(F)_{w = r}."""
    w = tuple(Fraction(wi) for wi in w)
    total = 0
    for cls in model.classes:
        m, on_grid = class_threshold(cls, w, Fraction(r))
        if on_grid:
            total += cls.pdim
    return total


# Most points whose heart blocks one model keeps; the oldest goes first.
HEART_MEMO_SIZE = 256
# Most cosets whose labels (`mpquotient.n_label`) one model keeps; the
# oldest goes first.
LABEL_MEMO_SIZE = 1024


def heart_blocks(model, w):
    """Blocks of matrix indices joined by grade-0 classes, with the
    residue dimension carried by each block, as a sorted tuple of
    (indices, dimension) pairs.  A class is active when its binding
    level-0 threshold (`class_threshold`) sits on its valuation grid,
    tested in integer units (`grading_units`).  The blocks depend on
    the model and w alone: the model keeps those of its most recent
    HEART_MEMO_SIZE points."""
    w = tuple(map(_fr, w))
    memo = model._hearts
    if w in memo:
        return memo[w]
    D, W, _ = grading_units(w, ZERO)
    parent = list(range(model.n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    active = []
    for cls in model.classes:
        m = max(W[j] - W[i] - in_units(s, D) for i, j, s in cls.members)
        if (m - in_units(cls.offset, D)) % in_units(cls.step, D):
            continue
        active.append(cls)
        idx = sorted({k for pos in cls.positions() for k in pos})
        for k in idx[1:]:
            parent[find(idx[0])] = find(k)
    blocks = {}
    for i in range(model.n):
        blocks.setdefault(find(i), []).append(i)
    out = []
    for members in blocks.values():
        mset = set(members)
        dim = sum(c.pdim for c in active
                  if all(i in mset and j in mset
                         for i, j in c.positions()))
        out.append((tuple(members), dim))
    if len(memo) >= HEART_MEMO_SIZE:
        del memo[next(iter(memo))]
    memo[w] = tuple(sorted(out))
    return memo[w]


def classify_block(members, dim):
    """Type tag of a reductive-quotient factor from (size, dimension)."""
    m = len(members)
    if dim == m * m:
        return "A", m
    if dim == m:
        return "T", m  # product of rank-one tori
    if dim == m * (m + 1) // 2:
        return "C", m
    if dim == m * (m - 1) // 2:
        return "B" if m % 2 else "D", m
    raise ValueError("block (%d indices, dim %d) matches no classical "
                     "factor" % (m, dim))


def heart_structure(model, w):
    """Factor decomposition of the reductive quotient at w:
    list of (indices, type tag, size, dimension)."""
    out = []
    for members, dim in heart_blocks(model, w):
        tag, m = classify_block(members, dim)
        out.append((members, tag, m, dim))
    return out
