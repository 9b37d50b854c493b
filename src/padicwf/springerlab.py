"""Exact harmonic analysis on small Lie algebras over finite fields.

Everything here is finite and exact: functions on a graded piece are
integer vectors in the basis of p-th roots of unity, Fourier transforms
are axis-wise character sums, and the test functions are orbit sums of
Slodowy-slice indicators built by exhaustive group enumeration.  The
flag-variety point counts parameterize complete isotropic flags
directly, one projective choice at a time.
"""

import random
from itertools import product

from . import ffield as ff
from . import liealg as lie
from . import linalg as la
from . import orbits as ob


class _Numpy:
    """numpy, imported on first use.  The command line imports this
    module for every command, but only the matrix-space code (`lab spr`)
    uses numpy; loading it up front doubled the start-up time and added
    some 15 MB."""

    def __getattr__(self, name):
        global np
        import numpy
        np = numpy
        return getattr(numpy, name)


np = _Numpy()


# -- exact cyclotomic integers -------------------------------------------


def _canon(p, vec):
    last = vec[p - 1]
    return tuple(v - last for v in vec)


class Cyc:
    """An element of Z[zeta_p], stored as the coefficient vector of
    (1, zeta, ..., zeta^{p-1}) reduced so the last coefficient is 0."""

    __slots__ = ("p", "vec")

    def __init__(self, p, vec=None):
        self.p = p
        if vec is None:
            vec = (0,) * p
        assert len(vec) == p
        self.vec = _canon(p, tuple(vec))

    @classmethod
    def from_int(cls, p, n):
        return cls(p, (n,) + (0,) * (p - 1))

    def shift(self, j):
        """Multiply by zeta^j."""
        j %= self.p
        v = self.vec
        return Cyc(self.p, v[-j:] + v[:-j] if j else v)

    def __add__(self, other):
        assert self.p == other.p
        return Cyc(self.p, tuple(a + b for a, b in zip(self.vec, other.vec)))

    def __sub__(self, other):
        assert self.p == other.p
        return Cyc(self.p, tuple(a - b for a, b in zip(self.vec, other.vec)))

    def __neg__(self):
        return Cyc(self.p, tuple(-a for a in self.vec))

    def __mul__(self, other):
        if isinstance(other, int):
            return Cyc(self.p, tuple(a * other for a in self.vec))
        assert self.p == other.p
        out = [0] * self.p
        for i, a in enumerate(self.vec):
            if a:
                for j, b in enumerate(other.vec):
                    out[(i + j) % self.p] += a * b
        return Cyc(self.p, tuple(out))

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, int):
            other = Cyc.from_int(self.p, other)
        return self.p == other.p and self.vec == other.vec

    def __hash__(self):
        return hash((self.p, self.vec))

    def __bool__(self):
        return any(self.vec)

    def __repr__(self):
        return "Cyc(%d, %s)" % (self.p, list(self.vec))


def zeta(p, j=1):
    return Cyc.from_int(p, 1).shift(j)


# -- matrices over F_p, in bulk ------------------------------------------


class MatContext:
    """gl_n over the prime field F_p, with exhaustive enumerations."""

    def __init__(self, n, p, cap=10 ** 6):
        self.n = n
        self.p = p
        self.dim = n * n
        self.cap = cap
        self.field = ff.prime_field(p)
        self._group = None
        self._nilmask = None

    def size(self):
        return self.p ** self.dim

    def all_matrices(self):
        if self.size() > self.cap:
            raise ValueError("group too large (%d matrices)" % self.size())
        n, p = self.n, self.p
        idx = np.arange(self.size())
        digits = []
        for k in range(self.dim):
            digits.append(idx % p)
            idx = idx // p
        return np.stack(digits[::-1], axis=1).reshape(-1, n, n)

    def encode(self, mats):
        """Row-major base-p index of a (..., n, n) integer array."""
        flat = np.asarray(mats).reshape(mats.shape[:-2] + (self.dim,))
        powers = self.p ** np.arange(self.dim - 1, -1, -1, dtype=np.int64)
        return (flat % self.p) @ powers

    def det_mod(self, mats):
        """Determinants mod p of a stack of k x k matrices, k <= 3."""
        m = np.asarray(mats) % self.p
        k = m.shape[-1]
        if k == 1:
            return m[..., 0, 0]
        if k == 2:
            return (m[..., 0, 0] * m[..., 1, 1]
                    - m[..., 0, 1] * m[..., 1, 0]) % self.p
        if k == 3:
            d = (m[..., 0, 0] * (m[..., 1, 1] * m[..., 2, 2]
                                 - m[..., 1, 2] * m[..., 2, 1])
                 - m[..., 0, 1] * (m[..., 1, 0] * m[..., 2, 2]
                                   - m[..., 1, 2] * m[..., 2, 0])
                 + m[..., 0, 2] * (m[..., 1, 0] * m[..., 2, 1]
                                   - m[..., 1, 1] * m[..., 2, 0]))
            return d % self.p
        raise ValueError("determinant formula only for n <= 3")

    def inv_mod(self, mats):
        """Inverses mod p of a stack of invertible matrices: the adjugate,
        from the determinants of the minors, over the determinant."""
        n, p = self.n, self.p
        m = np.asarray(mats) % p
        det = self.det_mod(m)
        assert np.all(det), "matrix not invertible"
        recip = np.array([0] + [pow(a, p - 2, p) for a in range(1, p)])
        adj = np.empty_like(m)
        for i in range(n):
            for j in range(n):
                minor = np.delete(np.delete(m, j, axis=-2), i, axis=-1)
                adj[..., i, j] = (-1) ** (i + j) * self.det_mod(minor)
        return adj * recip[det][..., None, None] % p

    def group(self):
        """All of GL_n(F_p) with precomputed inverses."""
        if self._group is None:
            mats = self.all_matrices()
            keep = mats[self.det_mod(mats) != 0]
            self._group = (keep, self.inv_mod(keep))
        return self._group

    def nilpotent_mask(self):
        """Boolean mask over all matrix indices: is the matrix nilpotent."""
        if self._nilmask is None:
            mats = self.all_matrices()
            power = mats
            for _ in range(self.n - 1):
                power = np.matmul(power, mats) % self.p
            self._nilmask = ~power.any(axis=(1, 2))
        return self._nilmask

    def to_ff(self, m):
        k = self.field
        return [[k(int(x)) for x in row] for row in np.asarray(m) % self.p]

    def from_ff(self, m):
        return np.array([[e.v % self.p for e in row] for row in m],
                        dtype=np.int64)

    def nullspace(self, rows):
        """Basis of the kernel of an integer matrix mod p, as int lists."""
        return self.from_ff(la.kernel_basis(self.to_ff(rows),
                                            self.field)).tolist()

    def jordan_type(self, m):
        return lie.jordan_type(self.to_ff(m), self.field)

    def is_nilpotent(self, m):
        power = np.asarray(m) % self.p
        for _ in range(self.n - 1):
            power = (power @ m) % self.p
        return not power.any()

    def jordan_decomposition(self, m, rng=None):
        s, n = lie.jordan_decomposition(self.to_ff(m), self.field)
        return self.from_ff(s), self.from_ff(n)

    def centralizer_in_algebra(self, d):
        """Basis (as flat vectors) of {m : [m, d] = 0} in gl_n."""
        n, p = self.n, self.p
        rows = []
        for i in range(n):
            for j in range(n):
                e = np.zeros((n, n), dtype=np.int64)
                e[i][j] = 1
                rows.append(((e @ d - d @ e) % p).reshape(-1))
        return self.nullspace(np.array(rows).T)


def sl2_reps(ctx):
    """One graded sl2-triple per nilpotent class of gl_n: for each
    partition, the block sum of the standard chain triples."""
    n, p = ctx.n, ctx.p
    out = []
    for lam in ob.partitions_of(n):
        c = np.zeros((n, n), dtype=np.int64)
        h = np.zeros((n, n), dtype=np.int64)
        d = np.zeros((n, n), dtype=np.int64)
        pos = 0
        for m in lam:
            for i in range(m):
                h[pos + i][pos + i] = (m - 1 - 2 * i) % p
                if i + 1 < m:
                    c[pos + i][pos + i + 1] = 1
                    d[pos + i + 1][pos + i] = ((i + 1) * (m - 1 - i)) % p
            pos += m
        out.append((lam, c, h, d))
    return out


def good_reps(ctx):
    """The triples whose sl2 representation theory is valid in this
    characteristic: a chain of length m needs p >= 2m - 1."""
    return [t for t in sl2_reps(ctx) if 2 * max(t[0]) - 1 <= ctx.p]


# -- exact function tables and Fourier transforms ------------------------


class FnOnPiece:
    """A function on F_p^dim valued in Z[zeta_p]: an integer array of
    shape (p^dim, p) holding the cyclotomic coordinates per point."""

    def __init__(self, p, dim, vals):
        self.p = p
        self.dim = dim
        self.vals = np.asarray(vals, dtype=np.int64)
        assert self.vals.shape == (p ** dim, p)

    @classmethod
    def from_ints(cls, p, dim, table):
        vals = np.zeros((p ** dim, p), dtype=np.int64)
        vals[:, 0] = np.asarray(table, dtype=np.int64).reshape(-1)
        return cls(p, dim, vals)

    @classmethod
    def delta(cls, p, dim, at=0):
        vals = np.zeros((p ** dim, p), dtype=np.int64)
        vals[at, 0] = 1
        return cls(p, dim, vals)

    @classmethod
    def constant(cls, p, dim, value=1):
        vals = np.zeros((p ** dim, p), dtype=np.int64)
        vals[:, 0] = value
        return cls(p, dim, vals)

    def value(self, idx):
        return Cyc(self.p, tuple(int(x) for x in self.vals[idx]))

    def canonical(self):
        return self.vals - self.vals[:, -1:]

    def same(self, other):
        return (self.p == other.p and self.dim == other.dim
                and np.array_equal(self.canonical(), other.canonical()))

    def support(self):
        return np.nonzero(self.canonical().any(axis=1))[0]

    def negate_argument(self):
        p, dim = self.p, self.dim
        shaped = self.vals.reshape((p,) * dim + (p,))
        for a in range(dim):
            shaped = np.flip(np.roll(shaped, -1, axis=a), axis=a)
        return FnOnPiece(p, dim, shaped.reshape(p ** dim, p))


def trace_pairing(n):
    """The trace form on gl_n in row-major coordinates: coordinate (i,j)
    pairs with (j,i), coefficient 1."""
    return [(j * n + i, 1) for i in range(n) for j in range(n)]


def fourier(f, pairing=None, cap=10 ** 8):
    """Exact Fourier transform: fhat(y) = sum_x zeta^{B(x,y)} f(x),
    computed one axis at a time."""
    p, dim = f.p, f.dim
    if p ** dim > cap:
        raise ValueError("piece too large (%d points)" % p ** dim)
    if pairing is None:
        pairing = [(a, 1) for a in range(dim)]
    shaped = f.vals.reshape((p,) * dim + (p,))
    for a in range(dim):
        _, coeff = pairing[a]
        out = np.zeros_like(shaped)
        for x in range(p):
            sl = np.take(shaped, x, axis=a)
            for y in range(p):
                rolled = np.roll(sl, (coeff * x * y) % p, axis=-1)
                idx = [slice(None)] * (dim + 1)
                idx[a] = y
                out[tuple(idx)] += rolled
        shaped = out
    # move each result axis to the partner coordinate of the dual space
    perm = [0] * (dim + 1)
    for a, (b, _) in enumerate(pairing):
        perm[b] = a
    perm[dim] = dim
    shaped = np.transpose(shaped, axes=perm)
    return FnOnPiece(p, dim, shaped.reshape(p ** dim, p))


# -- Slodowy-slice test functions ----------------------------------------


def slice_points(ctx, c, d):
    """All points of c + Z(d) as an (m, n, n) array."""
    basis = ctx.centralizer_in_algebra(d)
    pts = []
    for coeffs in product(range(ctx.p), repeat=len(basis)):
        m = np.array(c, dtype=np.int64)
        for t, b in zip(coeffs, basis):
            if t:
                m = m + t * np.array(b).reshape(ctx.n, ctx.n)
        pts.append(m % ctx.p)
    return np.stack(pts)

def test_fn(ctx, c, h, d):
    """The orbit sum of the Slodowy-slice indicator: counts, for each x,
    the group elements g with Ad(g)x inside c + Z(d)."""
    gs, ginvs = ctx.group()
    if not np.asarray(c).any() and not np.asarray(d).any():
        return FnOnPiece.from_ints(
            ctx.p, ctx.dim, np.full(ctx.size(), len(gs), dtype=np.int64))
    pts = slice_points(ctx, c, d)
    table = np.zeros(ctx.size(), dtype=np.int64)
    for g, gi in zip(gs, ginvs):
        moved = np.matmul(np.matmul(g, pts), gi) % ctx.p
        np.add.at(table, ctx.encode(moved), 1)
    return FnOnPiece.from_ints(ctx.p, ctx.dim, table)


def inner(f, g):
    """<f, g> = sum_x f(x) g(x), exact."""
    p = f.p
    out = [0] * p
    fa, ga = f.vals, g.vals
    for i in range(p):
        for j in range(p):
            s = int(np.dot(fa[:, i], ga[:, j]))
            out[(i + j) % p] += s
    return Cyc(p, tuple(out))


def conil_support_ok(ctx, f, pairing=None):
    """Whether the transform of f is supported on the nilpotent cone."""
    fhat = fourier(f, pairing or trace_pairing(ctx.n))
    mask = ctx.nilpotent_mask()
    return not np.any(fhat.canonical()[~mask].any(axis=1))


# -- the parabolic identity ----------------------------------------------


def _blocks(comp):
    edges = [0]
    for m in comp:
        edges.append(edges[-1] + m)
    return edges


def _block_of(comp, i):
    edges = _blocks(comp)
    for b in range(len(comp)):
        if edges[b] <= i < edges[b + 1]:
            return b
    raise IndexError(i)


def nilradical_positions(comp, n, lower=False):
    out = []
    for i in range(n):
        for j in range(n):
            bi, bj = _block_of(comp, i), _block_of(comp, j)
            if (bi > bj) if lower else (bi < bj):
                out.append((i, j))
    return out


def split_for_parabolic(ctx, x, comp, lower=False, rng=None):
    """Jordan decomposition of x, checked against the standard parabolic
    of the given composition: the semisimple part must be scalar on each
    Levi block, with distinct scalars across blocks."""
    xs, xn = ctx.jordan_decomposition(x, rng)
    edges = _blocks(comp)
    scalars = []
    for b in range(len(comp)):
        lo, hi = edges[b], edges[b + 1]
        a = int(xs[lo][lo])
        block = np.zeros((ctx.n, ctx.n), dtype=np.int64)
        for i in range(lo, hi):
            block[i][i] = a
        if not np.array_equal(xs[lo:hi, :], block[lo:hi, :]):
            raise ValueError("x not split for P")
        if np.any(xs[lo:hi, :lo]) or np.any(xs[lo:hi, hi:]):
            raise ValueError("x not split for P")
        scalars.append(a)
    if len(set(scalars)) != len(scalars):
        raise ValueError("x not split for P")
    return xs, xn


def verify_spr(ctx, x, comp, lower=False, xis=None, rng=None):
    """The parabolic identity: |U_P| <I_x, xi> = <I_{x_n + u_P}, xi> for
    every xi in a spanning family of conilpotent invariant functions."""
    x = np.asarray(x, dtype=np.int64) % ctx.p
    xs, xn = split_for_parabolic(ctx, x, comp, lower, rng)
    if xis is None:
        xis = [test_fn(ctx, c, h, d) for _, c, h, d in good_reps(ctx)]
    positions = nilradical_positions(comp, ctx.n, lower)
    u_size = ctx.p ** len(positions)
    xi_at = lambda xi, m: int(xi.vals[int(ctx.encode(m[None])[0]), 0])
    for xi in xis:
        lhs = u_size * xi_at(xi, x)
        rhs = 0
        for coeffs in product(range(ctx.p), repeat=len(positions)):
            u = xn.copy()
            for t, (i, j) in zip(coeffs, positions):
                u[i][j] = (u[i][j] + t) % ctx.p
            rhs += xi_at(xi, u)
        if lhs != rhs:
            return False
    return True


# -- support triples and witnesses ---------------------------------------


def _membership_checker(ctx, c, d):
    """Vectorized test for y in c + Z(d): returns a function on (m,n,n)
    arrays of candidates."""
    basis = ctx.centralizer_in_algebra(d)
    ann = ctx.nullspace(basis) if basis else \
        np.eye(ctx.dim, dtype=np.int64).tolist()
    R = np.array(ann, dtype=np.int64)
    cflat = np.asarray(c).reshape(-1)

    def check(ys):
        diff = (ys.reshape(ys.shape[0], -1) - cflat) % ctx.p
        return ~((diff @ R.T) % ctx.p).any(axis=1)
    return check


def support_test(ctx, c, x, budget=20000, rng=None):
    """Whether c supports x: c must lie in the induced orbit of x, and x
    must meet the Slodowy slice of a completion of c under the group."""
    c = np.asarray(c, dtype=np.int64) % ctx.p
    x = np.asarray(x, dtype=np.int64) % ctx.p
    factor = lie.Factor.gl(ctx.n, ctx.field)
    target = lie.induced_label(ctx.to_ff(x), factor, rng)
    if not ctx.is_nilpotent(c) or ctx.jordan_type(c) != target:
        return "not"
    trip = lie.sl2_complete(ctx.to_ff(c), factor)
    d = ctx.from_ff(trip.d)
    check = _membership_checker(ctx, c, d)
    gs, ginvs = ctx.group()
    if len(gs) <= budget:
        moved = np.matmul(np.matmul(gs, x), ginvs) % ctx.p
        return "supports" if check(moved).any() else "not"
    rng = rng or random.Random(0)
    picks = np.array([rng.randrange(len(gs)) for _ in range(budget)])
    moved = np.matmul(np.matmul(gs[picks], x), ginvs[picks]) % ctx.p
    return "supports" if check(moved).any() else "unknown"


def good1_check(ctx, x, lam, ell, c, budget=20000, rng=None):
    """Certify that the orbit of x meets c + (weights below ell), by
    exhibiting a conjugating witness."""
    x = np.asarray(x, dtype=np.int64) % ctx.p
    c = np.asarray(c, dtype=np.int64) % ctx.p
    high = np.array([[1 if lam[i] - lam[j] >= ell else 0
                      for j in range(ctx.n)] for i in range(ctx.n)],
                    dtype=bool)
    if np.any(c[~high]):
        raise ValueError("c is not concentrated in weight %s" % ell)
    gs, ginvs = ctx.group()
    exhaustive = len(gs) <= budget
    if not exhaustive:
        rng = rng or random.Random(0)
        picks = np.array([rng.randrange(len(gs)) for _ in range(budget)])
        gs, ginvs = gs[picks], ginvs[picks]
    moved = np.matmul(np.matmul(gs, x), ginvs) % ctx.p
    diff = (moved - c) % ctx.p
    hits = ~diff[:, high].any(axis=1)
    if hits.any():
        return True
    if exhaustive:
        return False
    raise ValueError("witness not found in budget")


# -- small finite fields for point counts --------------------------------


def _find_irreducible(p, d):
    """A monic degree-d polynomial over F_p with no roots (d <= 3)."""
    assert d in (2, 3)
    for tail in product(range(p), repeat=d):
        coeffs = list(tail) + [1]
        if not coeffs[0]:
            continue
        if all(sum(co * pow(a, k, p) for k, co in enumerate(coeffs)) % p
               for a in range(p)):
            return coeffs
    raise ValueError("no irreducible polynomial found")


class ExtField:
    """F_{p^d} with elements encoded as integers (base-p coefficient
    vectors) and precomputed operation tables.  ops is the arithmetic
    the linalg kernel eliminates with."""

    zero, one = 0, 1

    def __init__(self, p, d):
        self.p = p
        self.d = d
        self.q = p ** d
        if d == 1:
            self.modulus = None
        else:
            self.modulus = _find_irreducible(p, d)
        self._build_tables()

    def _decode(self, a):
        out = []
        for _ in range(self.d):
            out.append(a % self.p)
            a //= self.p
        return out

    def _encode(self, v):
        out = 0
        for c in reversed(v):
            out = out * self.p + (c % self.p)
        return out

    def _poly_mul(self, u, v):
        p, d = self.p, self.d
        prod = [0] * (2 * d - 1)
        for i, a in enumerate(u):
            if a:
                for j, b in enumerate(v):
                    prod[i + j] += a * b
        for k in range(2 * d - 2, d - 1, -1):
            if prod[k]:
                f = prod[k]
                for j in range(d):
                    prod[k - d + j] -= f * self.modulus[j]
                prod[k] = 0
        return [x % p for x in prod[:d]]

    def _build_tables(self):
        q = self.q
        if self.d == 1:
            self.mul = [[(a * b) % self.p for b in range(q)]
                        for a in range(q)]
            self.add = [[(a + b) % self.p for b in range(q)]
                        for a in range(q)]
            self.neg = [(-a) % self.p for a in range(q)]
        else:
            dec = [self._decode(a) for a in range(q)]
            self.add = [[self._encode([x + y for x, y in zip(dec[a], dec[b])])
                         for b in range(q)] for a in range(q)]
            self.neg = [self._encode([-x for x in dec[a]]) for a in range(q)]
            self.mul = [[self._encode(self._poly_mul(dec[a], dec[b]))
                         for b in range(q)] for a in range(q)]
        self.inv = [0] * q
        for a in range(1, q):
            self.inv[a] = next(b for b in range(1, q)
                               if self.mul[a][b] == 1)
        add, neg, mul = self.add, self.neg, self.mul
        self.ops = (lambda a, b: add[a][neg[b]], lambda a, b: mul[a][b],
                    self.inv.__getitem__)
        self.sqrt = [None] * q
        for a in range(q):
            s = self.mul[a][a]
            if self.sqrt[s] is None:
                self.sqrt[s] = a

    def embed(self, a):
        """Lift a residue of the prime field into the extension."""
        return a % self.p


def _vec_add(K, u, v):
    return [K.add[a][b] for a, b in zip(u, v)]

def _vec_scale(K, t, u):
    return [K.mul[t][a] for a in u]

def _mat_vec(K, m, v):
    out = []
    for row in m:
        s = 0
        for a, b in zip(row, v):
            s = K.add[s][K.mul[a][b]]
        out.append(s)
    return out

def _dot(K, u, v):
    s = 0
    for a, b in zip(u, v):
        s = K.add[s][K.mul[a][b]]
    return s


# -- flag-variety point counts -------------------------------------------


class VarietySpec:
    """A pattern condition on Ad(g)X over complete isotropic flags: gram
    is the symmetric form, X the element being moved, and pattern a 5x5
    grid of '*' (free), '0' (must vanish), '!' (must not vanish)."""

    def __init__(self, gram, X, pattern, p):
        self.gram = [list(map(int, row)) for row in gram]
        self.X = [list(map(int, row)) for row in X]
        self.pattern = [list(row) for row in pattern]
        self.p = p
        n = len(self.gram)
        assert all(len(r) == n for r in self.gram)
        assert all(self.pattern[i][j] in "*0!" for i in range(n)
                   for j in range(n))


def curve_spec(coeff, p=23):
    """The flag condition deciding the final descent edge: X persymmetric
    with the given corner coefficient, constraints on the first columns."""
    gram = [[1 if i + j == 4 else 0 for j in range(5)] for i in range(5)]
    X = [[0, coeff, 0, 1, 0],
         [1, 0, 0, 0, 1],
         [0, 1, 0, 0, 0],
         [0, 0, 1, 0, coeff],
         [0, 0, 0, 1, 0]]
    pattern = ["*****",
               "!****",
               "0****",
               "0!***",
               "000!*"]
    return VarietySpec(gram, X, pattern, p)


def projective_vectors(K, dim=5):
    """Pivot-normalized representatives of projective space."""
    for pivot in range(dim):
        for tail in product(range(K.q), repeat=dim - pivot - 1):
            yield [0] * pivot + [1] + list(tail)


def isotropic_points(K, gram):
    out = []
    for v in projective_vectors(K, len(gram)):
        gv = _mat_vec(K, gram, v)
        if _dot(K, v, gv) == 0:
            out.append(v)
    return out


def _flag_pairs(K, gram):
    """All (v0, v1) spanning a complete isotropic flag: v0 isotropic,
    v1 isotropic and orthogonal to v0, taken projectively mod v0."""
    n = len(gram)
    for v0 in isotropic_points(K, gram):
        gv0 = _mat_vec(K, gram, v0)
        comp = la.kernel_basis([gv0], K, K.ops)
        # basis of a complement of v0 inside its perp space
        basis = []
        span = [v0]
        for w in comp:
            cand = span + [w]
            if la.rank(cand, K.ops) == len(cand):
                span = cand
                basis.append(w)
        qgram = [[_dot(K, a, _mat_vec(K, gram, b)) for b in basis]
                 for a in basis]
        for a in projective_vectors(K, len(basis)):
            ga = _mat_vec(K, qgram, a)
            if _dot(K, a, ga):
                continue
            v1 = [0] * n
            for t, w in zip(a, basis):
                v1 = _vec_add(K, v1, _vec_scale(K, t, w))
            yield v0, v1


def _adapted_basis(K, gram, v0, v1):
    """Complete (v0, v1) to a basis with the standard antidiagonal gram
    and determinant 1; entries of Ad(g)X can then be read off through
    the form."""
    gv0 = _mat_vec(K, gram, v0)
    gv1 = _mat_vec(K, gram, v1)
    # v2: perpendicular to the plane, unit length
    perp = la.kernel_basis([gv0, gv1], K, K.ops)
    v2 = None
    for w in perp:
        if la.rank([v0, v1, w], K.ops) == 3:
            v2 = w
            break
    s = _dot(K, v2, _mat_vec(K, gram, v2))
    root = K.sqrt[s]
    assert root, "middle vector has isotropic norm"
    v2 = _vec_scale(K, K.inv[root], v2)
    gv2 = _mat_vec(K, gram, v2)
    # v3: pairs with v1, isotropic
    w0 = la.solve([gv0, gv1, gv2], [0, 1, 0], K, K.ops)
    b = K.mul[K.neg[_dot(K, w0, _mat_vec(K, gram, w0))]][K.inv[K.embed(2)]]
    v3 = _vec_add(K, w0, _vec_scale(K, b, v1))
    gv3 = _mat_vec(K, gram, v3)
    # v4: pairs with v0, isotropic
    u0 = la.solve([gv0, gv1, gv2, gv3], [1, 0, 0, 0], K, K.ops)
    a = K.mul[K.neg[_dot(K, u0, _mat_vec(K, gram, u0))]][
        K.inv[K.embed(2)]]
    v4 = _vec_add(K, u0, _vec_scale(K, a, v0))
    basis = [v0, v1, v2, v3, v4]
    if la.rref(basis, K.ops)[2] != 1:
        basis[2] = _vec_scale(K, K.neg[1], v2)
    return basis


def point_count(spec, degrees=(1,), cap=2 * 10 ** 6):
    """Exact number of complete isotropic flags satisfying the pattern,
    per extension degree."""
    out = {}
    for deg in degrees:
        q = spec.p ** deg
        est = (q ** 3 + q * q + q + 1) * (q + 1)
        if est > cap:
            raise ValueError("enumeration too large (%d flags)" % est)
        K = ExtField(spec.p, deg)
        gram = [[K.embed(x) for x in row] for row in spec.gram]
        X = [[K.embed(x) for x in row] for row in spec.X]
        n = len(gram)
        # constraints sorted so the cheap ones (low basis demand) go first
        cons = [(i, j, spec.pattern[i][j])
                for i in range(n) for j in range(n)
                if spec.pattern[i][j] != "*"]
        cons.sort(key=lambda t: max(t[1], n - 1 - t[0]))
        count = 0
        for v0, v1 in _flag_pairs(K, gram):
            basis = None
            dual = None
            ok = True
            for i, j, kind in cons:
                need = max(j, n - 1 - i)
                if need <= 1:
                    vj = (v0, v1)[j]
                    wi = (v0, v1)[n - 1 - i]
                else:
                    if basis is None:
                        basis = _adapted_basis(K, gram, v0, v1)
                        dual = basis[::-1]
                    vj = basis[j]
                    wi = dual[i]
                val = _dot(K, wi, _mat_vec(K, gram, _mat_vec(K, X, vj)))
                if (kind == "0") != (val == 0):
                    ok = False
                    break
            if ok:
                count += 1
        out[deg] = count
    return out


def curve_count(coeff, p=23, deg=1):
    """Fast count for the curve condition: the flag is forced by its
    first vector (V2 must be the span of v0 and Xv0), so one membership
    test per projective isotropic point suffices."""
    spec = curve_spec(coeff, p)
    K = ExtField(p, deg)
    gram = [[K.embed(x) for x in row] for row in spec.gram]
    X = [[K.embed(x) for x in row] for row in spec.X]
    count = 0
    for v0 in isotropic_points(K, gram):
        w = _mat_vec(K, X, v0)
        if _dot(K, v0, _mat_vec(K, gram, w)):
            continue  # V2 would not be isotropic
        gw = _mat_vec(K, gram, w)
        if _dot(K, w, gw):
            continue
        if la.rank([v0, w], K.ops) < 2:
            continue  # Xv0 proportional to v0: flag degenerates
        if _dot(K, _mat_vec(K, X, w), gw):
            count += 1
    return count


def flag_total(q):
    """Closed form for the number of complete isotropic flags of a
    split 5-dimensional quadratic space."""
    return (q + 1) ** 2 * (q * q + 1)


# -- theta counts over extensions ----------------------------------------


def theta_count(x, p, deg=1):
    """|Theta(x)(k')| for x in gl_2 with regular induced orbit: group
    elements moving x into the regular Slodowy slice, divided by the
    stabilizer of the triple (the scalars)."""
    K = ExtField(p, deg)
    q = K.q
    x = [[K.embed(int(e)) for e in row] for row in x]
    count = 0
    for a, b, c, d in product(range(q), repeat=4):
        det = K.add[K.mul[a][d]][K.neg[K.mul[b][c]]]
        if det == 0:
            continue
        di = K.inv[det]
        # Ad(g)x for g = [[a,b],[c,d]]
        m = [[K.add[K.mul[a][x[0][0]]][K.mul[b][x[1][0]]],
              K.add[K.mul[a][x[0][1]]][K.mul[b][x[1][1]]]],
             [K.add[K.mul[c][x[0][0]]][K.mul[d][x[1][0]]],
              K.add[K.mul[c][x[0][1]]][K.mul[d][x[1][1]]]]]
        y00 = K.mul[di][K.add[K.mul[m[0][0]][d]][K.neg[K.mul[m[0][1]][c]]]]
        y01 = K.mul[di][K.add[K.mul[m[0][1]][a]][K.neg[K.mul[m[0][0]][b]]]]
        y11 = K.mul[di][K.add[K.mul[m[1][1]][a]][K.neg[K.mul[m[1][0]][b]]]]
        # slice through the regular nilpotent: [[t, 1], [u, t]]
        if y01 == 1 and y00 == y11:
            count += 1
    assert count % (q - 1) == 0
    return count // (q - 1)
