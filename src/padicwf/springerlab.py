"""Exact harmonic analysis on small Lie algebras over finite fields.

Everything here is finite and exact: functions on a graded piece are
integer vectors in the basis of p-th roots of unity, Fourier transforms
are axis-wise character sums, and the test functions are orbit sums of
Slodowy-slice indicators built by exhaustive group enumeration, one
orbit at a time.  gl_n(F_p) is worked on as integer arrays of the codes
of ExtField(p, 1); `spr_instances` lists the elements `lab spr` checks,
so the command line builds no lab matrices.  The flag-variety point
counts parameterize complete isotropic flags directly: every flag of a
field is enumerated in bulk as arrays of element codes, and the pattern
conditions that read only the first two flag vectors are tested on all
flags at once.
"""

import random
from itertools import product

from . import ffield as ff
from . import liealg as lie
from . import linalg as la
from . import orbits as ob


class _Numpy:
    """numpy, imported on first use.  The command line imports this
    module for every command, but only the matrix-space code and the
    residue-field scans use numpy; loading it up front doubled the
    start-up time and added some 15 MB."""

    def __getattr__(self, name):
        global np
        import numpy
        np = numpy
        return getattr(numpy, name)


np = _Numpy()

# Largest piece, in points, that `fourier` transforms.
FOURIER_CAP = 10 ** 8
# Largest residue-field enumeration that `curve_count` and `point_count`
# make: quadric prefixes (one row per point of P^3, q^3 + q^2 + q + 1,
# for the solve behind `curve_count`) or flags.
SCAN_CAP = 2 * 10 ** 6


# -- matrices over F_p, in bulk ------------------------------------------


class MatContext:
    """gl_n over K = ExtField(p, 1), as integer arrays of its codes
    0..p-1, with exhaustive enumerations of at most CAP matrices.  Bulk
    products are numpy matmul mod p, four times faster than K's tables;
    entries become `FFElt` only at the calls into `liealg`."""

    CAP = 10 ** 6

    def __init__(self, n, p):
        self.K = ExtField(p, 1)
        self.n = n
        self.p = p
        self.dim = n * n
        self.field = ff.prime_field(p)
        self.factor = lie.Factor.gl(n, self.field)
        self._group = None
        self._nilmask = None

    def size(self):
        return self.p ** self.dim

    def all_matrices(self):
        return self._matrices(0, self.size())

    def _matrices(self, lo, hi):
        """The matrices with row-major base-p indices lo to hi - 1."""
        if self.size() > self.CAP:
            raise ValueError("group too large (%d matrices)" % self.size())
        n, p = self.n, self.p
        idx = np.arange(lo, hi)
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

    def det_mod(self, mats, rows=None, cols=None):
        """Determinants mod p of a stack of k x k matrices, k <= 3, or of
        their minors on the given index lists of rows and columns."""
        m = np.asarray(mats)
        rows = range(m.shape[-2]) if rows is None else rows
        cols = range(m.shape[-1]) if cols is None else cols
        e = lambda a, b: m[..., rows[a], cols[b]]
        k = len(rows)
        if k == 1:
            return e(0, 0) % self.p
        if k == 2:
            return (e(0, 0) * e(1, 1) - e(0, 1) * e(1, 0)) % self.p
        if k == 3:
            d = (e(0, 0) * (e(1, 1) * e(2, 2) - e(1, 2) * e(2, 1))
                 - e(0, 1) * (e(1, 0) * e(2, 2) - e(1, 2) * e(2, 0))
                 + e(0, 2) * (e(1, 0) * e(2, 1) - e(1, 1) * e(2, 0)))
            return d % self.p
        raise ValueError("determinant formula only for n <= 3")

    def inv_mod(self, mats):
        """Inverses mod p of a stack of invertible matrices: the adjugate,
        from the determinants of the minors, over the determinant."""
        n, p = self.n, self.p
        m = np.asarray(mats) % p
        det = self.det_mod(m)
        assert np.all(det), "matrix not invertible"
        adj = np.empty_like(m)
        for i in range(n):
            for j in range(n):
                minor = self.det_mod(m, [r for r in range(n) if r != j],
                                     [c for c in range(n) if c != i])
                adj[..., i, j] = minor if (i + j) % 2 == 0 else -minor
        adj *= np.array(self.K.inv)[det][..., None, None]
        adj %= p
        return adj

    def group(self):
        """All of GL_n(F_p) with precomputed inverses, enumerated one
        first row at a time."""
        if self._group is None:
            rest = self.p ** (self.dim - self.n)
            keep = np.concatenate([
                mats[self.det_mod(mats) != 0]
                for mats in (self._matrices(top * rest, (top + 1) * rest)
                             for top in range(self.p ** self.n))])
            self._group = (keep, self.inv_mod(keep))
        return self._group

    def conjugates(self, x, budget=None, rng=None):
        """Ad(g)x = g x g^-1 for every g in the group, or for `budget`
        draws of g from rng (default random.Random(0)) when the group is
        larger; and whether the whole group was used."""
        gs, ginvs = self.group()
        exhausted = budget is None or len(gs) <= budget
        if not exhausted:
            rng = rng or random.Random(0)
            picks = np.array([rng.randrange(len(gs)) for _ in range(budget)])
            gs, ginvs = gs[picks], ginvs[picks]
        return gs @ x @ ginvs % self.p, exhausted

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
        rows = (np.asarray(rows) % self.p).tolist()
        return [list(v) for v in la.kernel_basis(rows, self.K, self.K.ops)]

    def centralizer(self, d):
        """Basis of the centralizer of d in gl_n, as a (k, n, n) array."""
        return np.array([self.from_ff(z) for z in lie.centralizer_basis(
            self.to_ff(d), self.factor)]).reshape(-1, self.n, self.n)

    def jordan_type(self, m):
        return lie.jordan_type(self.to_ff(m))

    def is_nilpotent(self, m):
        power = np.asarray(m) % self.p
        for _ in range(self.n - 1):
            power = (power @ m) % self.p
        return not power.any()

    def jordan_decomposition(self, m):
        s, n = lie.jordan_decomposition(self.to_ff(m), self.field)
        return self.from_ff(s), self.from_ff(n)


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

    def canonical(self):
        return self.vals - self.vals[:, -1:]

    def same(self, other):
        return (self.p == other.p and self.dim == other.dim
                and np.array_equal(self.canonical(), other.canonical()))

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


def fourier(f, pairing=None):
    """Exact Fourier transform: fhat(y) = sum_x zeta^{B(x,y)} f(x),
    computed one axis at a time."""
    p, dim = f.p, f.dim
    if p ** dim > FOURIER_CAP:
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


def _translates(ctx, base, basis):
    """base + sum_k t_k basis[k] mod p for every coefficient tuple t, in
    lexicographic order of t, as a (p^k, n, n) array."""
    k = len(basis)
    coeffs = np.indices((ctx.p,) * k).reshape(k, ctx.p ** k)
    return (np.asarray(base, dtype=np.int64)
            + np.tensordot(coeffs.T, basis, axes=1)) % ctx.p


def slice_points(ctx, c, d):
    """All points of c + Z(d) as an (m, n, n) array."""
    return _translates(ctx, c, ctx.centralizer(d))


def test_fn(ctx, c, d):
    """The orbit sum of the Slodowy-slice indicator: counts, for each x,
    the pairs (g, s) of a group element and a slice point s in c + Z(d)
    with Ad(g)s = x.  Built one orbit at a time: each slice point s' in
    an orbit O contributes |Z_G(s')| 1_O, which is the histogram of
    Ad(g)s over the whole group for any one s in O."""
    if not np.asarray(c).any() and not np.asarray(d).any():
        return FnOnPiece.constant(ctx.p, ctx.dim, len(ctx.group()[0]))
    pts = slice_points(ctx, c, d)
    codes = ctx.encode(pts)
    table = np.zeros(ctx.size(), dtype=np.int64)
    todo = np.ones(len(pts), dtype=bool)
    while todo.any():
        moved = ctx.encode(ctx.conjugates(pts[np.argmax(todo)])[0])
        hit = np.isin(codes, moved)
        table += np.count_nonzero(hit) * np.bincount(moved,
                                                     minlength=ctx.size())
        todo &= ~hit
    return FnOnPiece.from_ints(ctx.p, ctx.dim, table)


def test_fns(ctx):
    """The test functions of the good triples, the spanning family that
    `verify_spr` checks against."""
    return [test_fn(ctx, c, d) for _, c, _, d in good_reps(ctx)]


def conil_support_ok(ctx, f, pairing=None):
    """Whether the transform of f is supported on the nilpotent cone."""
    fhat = fourier(f, pairing or trace_pairing(ctx.n))
    mask = ctx.nilpotent_mask()
    return not np.any(fhat.canonical()[~mask].any(axis=1))


# -- the parabolic identity ----------------------------------------------


def _block_index(comp):
    """The Levi block of each row: (2, 1) gives [0, 0, 1]."""
    return [b for b, m in enumerate(comp) for _ in range(m)]


def nilradical_positions(comp, n, lower=False):
    blk = _block_index(comp)
    return [(i, j) for i in range(n) for j in range(n)
            if (blk[i] > blk[j] if lower else blk[i] < blk[j])]


def split_for_parabolic(ctx, x, comp):
    """Jordan decomposition of x, checked against the standard parabolic
    of the given composition: the semisimple part must be scalar on each
    Levi block, with distinct scalars across blocks."""
    xs, xn = ctx.jordan_decomposition(x)
    blk = _block_index(comp)
    scalars = [int(xs[i][i]) for i in range(ctx.n)
               if i == 0 or blk[i] != blk[i - 1]]
    if (not np.array_equal(xs, np.diag([scalars[b] for b in blk]))
            or len(set(scalars)) != len(scalars)):
        raise ValueError("x not split for P")
    return xs, xn


def verify_spr(ctx, x, comp, lower=False, xis=None):
    """The parabolic identity: |U_P| <I_x, xi> = <I_{x_n + u_P}, xi> for
    every xi in a spanning family of conilpotent invariant functions."""
    x = np.asarray(x, dtype=np.int64) % ctx.p
    xs, xn = split_for_parabolic(ctx, x, comp)
    if xis is None:
        xis = test_fns(ctx)
    units = np.eye(ctx.dim, dtype=np.int64)[
        [i * ctx.n + j for i, j in nilradical_positions(comp, ctx.n, lower)]]
    at_x = int(ctx.encode(x[None])[0])
    at_u = ctx.encode(_translates(ctx, xn, units.reshape(-1, ctx.n, ctx.n)))
    return all(len(at_u) * xi.vals[at_x, 0] == xi.vals[at_u, 0].sum()
               for xi in xis)


def spr_instances(ctx, samples, seed):
    """The (x, composition, lower) instances that `lab spr` checks.  For
    gl_2: every diag(a, b) with a != b, against the upper and the lower
    Borel.  For gl_3: `samples` split elements of the (2, 1) parabolic,
    [[a, t, 0], [0, a, 0], [0, 0, b]] with a != b, drawn from
    random.Random(seed)."""
    p = ctx.p
    if ctx.n == 2:
        return [(np.diag([a, b]), (1, 1), lower)
                for a in range(p) for b in range(p) if a != b
                for lower in (False, True)]
    rng = random.Random(seed)
    draws = (rng.sample(range(p), 2) + [rng.randrange(p)]
             for _ in range(samples))
    return [(np.array([[a, t, 0], [0, a, 0], [0, 0, b]]), (2, 1), False)
            for a, b, t in draws]


# -- support triples and witnesses ---------------------------------------


def _membership_checker(ctx, c, d):
    """Vectorized test for y in c + Z(d): returns a function on (m,n,n)
    arrays of candidates."""
    R = np.array(ctx.nullspace(ctx.centralizer(d).reshape(-1, ctx.dim)),
                 dtype=np.int64)
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
    target = lie.induced_label(ctx.to_ff(x), ctx.factor)
    if not ctx.is_nilpotent(c) or ctx.jordan_type(c) != target:
        return "not"
    trip = lie.sl2_complete(ctx.to_ff(c), ctx.factor)
    check = _membership_checker(ctx, c, ctx.from_ff(trip.d))
    moved, exhausted = ctx.conjugates(x, budget, rng)
    if check(moved).any():
        return "supports"
    return "not" if exhausted else "unknown"


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
    moved, exhausted = ctx.conjugates(x, budget, rng)
    diff = (moved - c) % ctx.p
    if (~diff[:, high].any(axis=1)).any():
        return True
    if exhausted:
        return False
    raise ValueError("witness not found in budget")


# -- small finite fields for point counts --------------------------------


def _field_order(p, d):
    """q = p^d for the fields `ExtField` builds: p an odd prime (the
    adapted basis divides by 2) and d one of the degrees with a
    root-free irreducible polynomial."""
    ff.check_odd_prime(p)
    if d not in (1, 2, 3):
        raise ValueError("extension degree %d not supported (1, 2 or 3)"
                         % d)
    return p ** d


def _find_irreducible(p, d):
    """A monic degree-d polynomial over F_p with no roots (d <= 3)."""
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
        self.q = _field_order(p, d)
        self.p = p
        self.d = d
        if d == 1:
            self.modulus = None
        else:
            self.modulus = _find_irreducible(p, d)
        self._build_tables()
        self._arrays = None

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

    def arrays(self):
        """The add, mul and neg tables as numpy arrays of the smallest
        unsigned dtype holding every element code; built on first use."""
        if self._arrays is None:
            dtype = np.min_scalar_type(self.q - 1)
            self._arrays = tuple(np.array(t, dtype=dtype)
                                 for t in (self.add, self.mul, self.neg))
        return self._arrays


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


# Vectors in bulk: a (n, N) array of element codes holds N vectors of
# length n, one coordinate per row.

def _mat_vecs(K, m, V):
    add, mul, _ = K.arrays()
    out = []
    for row in m:
        s = np.zeros(V.shape[1], dtype=V.dtype)
        for a, coord in zip(row, V):
            if a:
                s = add[s, mul[a][coord]]
        out.append(s)
    return np.stack(out)

def _dots(K, U, V):
    add, mul, _ = K.arrays()
    s = np.zeros(U.shape[1], dtype=U.dtype)
    for u, v in zip(U, V):
        s = add[s, mul[u, v]]
    return s


# -- flag-variety point counts -------------------------------------------


class VarietySpec:
    """A pattern condition on Ad(g)X over complete isotropic flags: gram
    is the symmetric form, X the element being moved, and pattern a 5x5
    grid of '*' (free), '0' (must vanish), '!' (must not vanish)."""

    def __init__(self, gram, X, pattern, p):
        for name, rows in (("gram", gram), ("X", X), ("pattern", pattern)):
            if not isinstance(rows, list) or not all(
                    isinstance(r, list)
                    or (name == "pattern" and isinstance(r, str))
                    for r in rows):
                raise ValueError("%s must be a list of rows" % name)
        if any(type(x) is not int for rows in (gram, X) for r in rows
               for x in r):
            raise ValueError("gram and X entries must be integers")
        self.gram = [list(row) for row in gram]
        self.X = [list(row) for row in X]
        self.pattern = [list(row) for row in pattern]
        self.p = p
        if not isinstance(p, int):
            raise ValueError("p must be an integer")
        for name in ("gram", "X", "pattern"):
            rows = getattr(self, name)
            if len(rows) != 5 or any(len(r) != 5 for r in rows):
                raise ValueError("%s must be 5x5" % name)
        if any(c not in ("*", "0", "!") for row in self.pattern
               for c in row):
            raise ValueError("pattern entries must be '*', '0' or '!'")


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


def _projective_chunks(K, n):
    """P^{n-1}(F_q) as pivot-normalized vectors in bulk, lexicographic
    within each pivot: one chunk per pivot and leading free coordinate,
    so at most q^(n-2) vectors at a time."""
    q = K.q
    dtype = K.arrays()[0].dtype
    for pivot in range(n):
        free = n - pivot - 1
        if not free:
            chunk = np.zeros((n, 1), dtype=dtype)
            chunk[pivot] = 1
            yield chunk
            continue
        tail = np.indices((q,) * (free - 1), dtype=dtype).reshape(
            free - 1, q ** (free - 1))
        for lead in range(q):
            chunk = np.zeros((n, tail.shape[1]), dtype=dtype)
            chunk[pivot] = 1
            chunk[pivot + 1] = lead
            chunk[pivot + 2:] = tail
            yield chunk


def _isotropic_array(K, gram):
    """The isotropic points of P^{n-1}(F_q) as an (n, N) array of
    pivot-normalized vectors, pivot by pivot and lexicographic within
    each pivot, by solving the quadric along its last coordinate.

    For each pivot, every prefix u (u_pivot = 1, the coordinates after
    it free but the last, u_last = 0) gives v = u + x e_last with
    B(v, v) = a x^2 + b x + c: a = G[last][last], b = (G u)_last +
    (G^T u)_last, c = B(u, u).  The roots x are read from the square-root
    and reciprocal tables (p is odd), so the work is one row per prefix,
    q^(n-2) for the first pivot, rather than one per point of P^{n-1}."""
    add, mul, neg = K.arrays()
    dtype = add.dtype
    inv = np.array(K.inv, dtype=dtype)
    sqrt = np.array([-1 if s is None else s for s in K.sqrt])
    n = len(gram)
    last = n - 1
    a = gram[last][last]
    lin = [[K.add[gram[last][j]][gram[j][last]] for j in range(n)]]
    blocks = []
    for pivot in range(n):
        free = n - pivot - 1
        if not free:
            if gram[pivot][pivot] == 0:
                v = np.zeros((n, 1), dtype=dtype)
                v[pivot] = 1
                blocks.append(v)
            continue
        U = np.zeros((n, K.q ** (free - 1)), dtype=dtype)
        U[pivot] = 1
        U[pivot + 1:last] = np.indices((K.q,) * (free - 1),
                                       dtype=dtype).reshape(free - 1,
                                                            U.shape[1])
        b = _mat_vecs(K, lin, U)[0]
        c = _dots(K, U, _mat_vecs(K, gram, U))
        if a:
            disc = add[mul[b, b], neg[mul[K.mul[K.embed(4)][a], c]]]
            s = sqrt[disc]
            half = inv[K.mul[K.embed(2)][a]]
            # a zero discriminant gives one root, a nonzero square two
            one, two = np.nonzero(s >= 0)[0], np.nonzero(s > 0)[0]
            at = np.concatenate([one, two])
            root = np.concatenate([s[one], neg[s[two]]]).astype(dtype)
            xs = mul[add[neg[b[at]], root], half]
        else:
            one = np.nonzero(b)[0]
            every = np.nonzero((b == 0) & (c == 0))[0]
            at = np.concatenate([one, np.repeat(every, K.q)])
            xs = np.concatenate([mul[neg[c[one]], inv[b[one]]],
                                 np.tile(np.arange(K.q, dtype=dtype),
                                         len(every))])
        V = U[:, at]
        V[last] = xs
        blocks.append(V[:, np.lexsort((xs, at))])
    if not blocks:
        return np.zeros((n, 0), dtype=dtype)
    return np.concatenate(blocks, axis=1)


def isotropic_points(K, gram):
    return _isotropic_array(K, gram).T.tolist()


def _flags(K, gram):
    """All (v0, v1) spanning a complete isotropic flag, as two (n, F)
    arrays of element codes: v0 an isotropic point, v1 an isotropic
    point of a complement of v0 inside its perp space, in the basis
    below.  Ordered by v0, then by v1's coordinates in P^(k-1).

    The complement basis is in closed form.  With pivot pi and
    normalised row r of G v0, the kernel of G v0 has the basis
    w_f = e_f - r_f e_pi for f != pi, or every e_f when G v0 = 0; the
    complement drops w_f* for f* the last free index at which v0 is
    nonzero, the one w_f that lies in the span of v0 and the w_f before
    it.  Isotropy is tested for all v0 at once against one chunk of
    P^(k-1) at a time."""
    add, mul, neg = K.arrays()
    inv = np.array(K.inv, dtype=add.dtype)
    n = len(gram)
    P0 = np.array(isotropic_points(K, gram),
                  dtype=add.dtype).reshape(-1, n).T
    G0 = _mat_vecs(K, gram, P0)
    cols = np.arange(P0.shape[1])
    rowed = G0.any(axis=0)
    pivot = (G0 != 0).argmax(axis=0)
    r = mul[G0, inv[G0[pivot, cols]]]
    free = np.ones(P0.shape, dtype=bool)
    free[pivot[rowed], cols[rowed]] = False
    last = n - 1 - ((P0 != 0) & free)[::-1].argmax(axis=0)
    free[last, cols] = False
    k_of = free.sum(axis=0)
    v0_idx, v1s = [], []
    for k in range(1, n):
        sel = cols[k_of == k]
        if not len(sel):
            continue
        kept = np.nonzero(free[:, sel].T)[1].reshape(-1, k).T
        W = np.zeros((k, n, len(sel)), dtype=add.dtype)
        at = np.arange(len(sel))
        for t in range(k):
            W[t, pivot[sel], at] = neg[r[kept[t], sel]]
            W[t, kept[t], at] = 1
        GW = [_mat_vecs(K, gram, w) for w in W]
        Q = [[_dots(K, ws, gw) for gw in GW] for ws in W]
        for A in _projective_chunks(K, k):
            val = np.zeros((len(sel), A.shape[1]), dtype=add.dtype)
            for s in range(k):
                for t in range(k):
                    val = add[val, mul[Q[s][t][:, None],
                                       mul[A[s], A[t]][None, :]]]
            i, j = np.nonzero(val == 0)
            v1 = np.zeros((n, len(i)), dtype=add.dtype)
            for t in range(k):
                v1 = add[v1, mul[A[t, j], W[t][:, i]]]
            v0_idx.append(sel[i])
            v1s.append(v1)
    if not v0_idx:
        return np.zeros((2, n, 0), dtype=add.dtype)
    v0_idx = np.concatenate(v0_idx)
    order = np.argsort(v0_idx, kind="stable")
    return P0[:, v0_idx[order]], np.concatenate(v1s, axis=1)[:, order]


def _degenerate(K):
    return ValueError("degenerate gram: no basis with the standard "
                      "antidiagonal form extends the flag over F_%d" % K.q)


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
    if not root:
        raise ValueError("middle vector has norm %d, not a nonzero square "
                         "in F_%d" % (s, K.q))
    v2 = _vec_scale(K, K.inv[root], v2)
    gv2 = _mat_vec(K, gram, v2)
    # v3: pairs with v1, isotropic
    w0 = la.solve([gv0, gv1, gv2], [0, 1, 0], K, K.ops)
    if w0 is None:
        raise _degenerate(K)
    b = K.mul[K.neg[_dot(K, w0, _mat_vec(K, gram, w0))]][K.inv[K.embed(2)]]
    v3 = _vec_add(K, w0, _vec_scale(K, b, v1))
    gv3 = _mat_vec(K, gram, v3)
    # v4: pairs with v0, isotropic
    u0 = la.solve([gv0, gv1, gv2, gv3], [1, 0, 0, 0], K, K.ops)
    if u0 is None:
        raise _degenerate(K)
    a = K.mul[K.neg[_dot(K, u0, _mat_vec(K, gram, u0))]][
        K.inv[K.embed(2)]]
    v4 = _vec_add(K, u0, _vec_scale(K, a, v0))
    basis = [v0, v1, v2, v3, v4]
    if la.rref(basis, K.ops)[2] != 1:
        basis[2] = _vec_scale(K, K.neg[1], v2)
    return basis


def point_count(spec, degrees=(1,)):
    """Exact number of complete isotropic flags satisfying the pattern,
    per extension degree."""
    out = {}
    for deg in degrees:
        est = flag_total(_field_order(spec.p, deg))
        if est > SCAN_CAP:
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
        GX = _mat_vecs(K, gram, np.array(X, dtype=K.arrays()[0].dtype))
        flags = _flags(K, gram)
        ok = np.ones(flags[0].shape[1], dtype=bool)
        # the constraints read off v0 and v1 alone, for all flags at once
        while cons and max(cons[0][1], n - 1 - cons[0][0]) <= 1:
            i, j, kind = cons.pop(0)
            val = _dots(K, flags[n - 1 - i], _mat_vecs(K, GX, flags[j]))
            ok &= (val == 0) == (kind == "0")
        if not cons:
            out[deg] = int(np.count_nonzero(ok))
            continue
        GX = GX.tolist()
        count = 0
        for v0, v1 in zip(*(f[:, ok].T.tolist() for f in flags)):
            basis = _adapted_basis(K, gram, v0, v1)
            dual = basis[::-1]
            count += all(
                (kind == "0") == (_dot(K, dual[i],
                                       _mat_vec(K, GX, basis[j])) == 0)
                for i, j, kind in cons)
        out[deg] = count
    return out


def curve_count(coeff, p=23, deg=1):
    """Fast count for the curve condition: the flag is forced by its
    first vector (V2 must be the span of v0 and Xv0), so one membership
    test per projective isotropic point suffices.  The points come from
    solving the quadric over its q^3 + q^2 + q + 1 prefixes, the work
    that SCAN_CAP bounds."""
    return curve_counts((coeff,), p, deg)[0]


def curve_counts(coeffs, p=23, deg=1):
    """`curve_count` for each corner coefficient in turn, all tested
    against one solve of the quadric: the gram of `curve_spec` does not
    depend on the coefficient."""
    q = _field_order(p, deg)
    prefixes = sum(q ** k for k in range(4))
    if prefixes > SCAN_CAP:
        raise ValueError("enumeration too large (%d points)" % prefixes)
    K = ExtField(p, deg)
    gram = [[K.embed(x) for x in row] for row in curve_spec(1, p).gram]
    v0 = _isotropic_array(K, gram)
    out = []
    for coeff in coeffs:
        X = [[K.embed(x) for x in row] for row in curve_spec(coeff, p).X]
        w = _mat_vecs(K, X, v0)
        gw = _mat_vecs(K, gram, w)
        # V2 = <v0, w> must be isotropic.  It must also be a plane, but
        # the last test already fails when w = t v0: then <Xw, Gw> =
        # t^3 <v0, Gv0>, which is 0 since v0 is isotropic.
        ok = (_dots(K, v0, gw) == 0) & (_dots(K, w, gw) == 0)
        ok &= _dots(K, _mat_vecs(K, X, w), gw) != 0
        out.append(int(np.count_nonzero(ok)))
    return out


def flag_total(q):
    """Closed form for the number of complete isotropic flags of a
    split 5-dimensional quadratic space."""
    return (q + 1) ** 2 * (q * q + 1)


# -- theta counts over extensions ----------------------------------------


def theta_count(x, p, deg=1):
    """|Theta(x)(k')| for x in gl_2 with regular induced orbit: group
    elements moving x into the regular Slodowy slice [[t, 1], [u, t]],
    divided by the stabilizer of the triple (the scalars).  All q^4
    matrices g = [[a, b], [c, d]] are tested at once, through
    det(g) Ad(g)x = g x adj(g): g qualifies when det(g) is nonzero,
    entry (0, 1) of g x adj(g) is det(g) and its diagonal is constant."""
    K = ExtField(p, deg)
    add, mul, neg = K.arrays()
    sub = lambda u, v: add[u, neg[v]]
    (x00, x01), (x10, x11) = [[K.embed(int(e)) for e in row] for row in x]
    a, b, c, d = np.indices((K.q,) * 4, dtype=add.dtype).reshape(4, -1)
    det = sub(mul[a, d], mul[b, c])
    m00, m01 = add[mul[a, x00], mul[b, x10]], add[mul[a, x01], mul[b, x11]]
    m10, m11 = add[mul[c, x00], mul[d, x10]], add[mul[c, x01], mul[d, x11]]
    ok = (det != 0) & (sub(mul[m01, a], mul[m00, b]) == det)
    ok &= sub(mul[m00, d], mul[m01, c]) == sub(mul[m11, a], mul[m10, b])
    count = int(np.count_nonzero(ok))
    assert count % (K.q - 1) == 0
    return count // (K.q - 1)
