"""Exact harmonic analysis on small Lie algebras over finite fields.

Everything here is finite and exact: functions on a graded piece are
integer vectors in the basis of p-th roots of unity, Fourier transforms
are axis-wise character sums, and the test functions are orbit sums of
Slodowy-slice indicators built by exhaustive group enumeration, one
orbit at a time.  gl_n(F_p) is worked on as integer arrays of the codes
of `ffield.ext_field(p, 1)`, Jordan decompositions included; `lab spr`
checks the elements that `spr_instances` lists against the context's
own test functions, the good triples', built once per (n, p).  The
flag-variety point counts parameterize complete isotropic flags
directly: every flag of a field is enumerated in bulk as arrays of
element codes, the pattern conditions on the first two flag vectors are
tested on all flags at once, and the flags that pass are completed to
adapted bases all at once, by one elimination on stacks of code arrays
per step.  A flag's basis depends on the form alone, not on X or the
pattern, so each is kept in a table per field and form
(`_basis_table`) and a later count completes only the flags not yet in
it; every flat table index a * q + b is formed by `_at`, in intp, as uint8
codes would wrap past 255 on fields of 17 or more elements.  The u7
curve is counted for every corner coefficient c of a field in one pass
over the isotropic points: its first condition is linear in c, so each
point fixes the one c it can pass at, or passes that condition at every
c.
"""

import functools
import math
import random

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
    """gl_n over K = ff.ext_field(p, 1), as integer arrays of its codes
    0..p-1; the constructor refuses more than CAP matrices.  Bulk
    products are numpy matmul mod p, four times faster than K's tables,
    and so is the Jordan decomposition, a Frobenius power; entries
    become `FFElt` only at the calls into `liealg`.  The group
    (as codes of dtype min_scalar_type(p - 1)), nilpotent mask and test
    functions are built on first use and kept read-only; `mat_context`
    shares one context per (n, p)."""

    CAP = 10 ** 6

    def __init__(self, n, p):
        if p ** (n * n) > self.CAP:
            raise ValueError("group too large (%d matrices)" % p ** (n * n))
        self.K = ff.ext_field(p, 1)
        self.n = n
        self.p = p
        self.dim = n * n
        self.field = ff.prime_field(p)
        self.factor = lie.Factor.gl(n, self.field)
        self._group = None
        self._nilmask = None
        self._test_fns = None

    def size(self):
        return self.p ** self.dim

    def all_matrices(self):
        return self._matrices(0, self.size())

    def _matrices(self, lo, hi):
        """The matrices with row-major base-p indices lo to hi - 1."""
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
        m = np.asarray(mats, dtype=np.int64) % p
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
        first row at a time; read-only arrays of narrow codes."""
        if self._group is None:
            code = np.min_scalar_type(self.p - 1)
            rest = self.p ** (self.dim - self.n)
            keep = np.concatenate([
                mats[self.det_mod(mats) != 0].astype(code)
                for mats in (self._matrices(top * rest, (top + 1) * rest)
                             for top in range(self.p ** self.n))])
            self._group = _frozen(keep, self.inv_mod(keep).astype(code))
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
        # an int64 x keeps both products from overflowing the group's dtype
        return gs @ np.asarray(x, dtype=np.int64) @ ginvs % self.p, exhausted

    def nilpotent_mask(self):
        """Boolean mask over all matrix indices: is the matrix nilpotent."""
        if self._nilmask is None:
            mats = self.all_matrices()
            power = mats
            for _ in range(self.n - 1):
                power = np.matmul(power, mats) % self.p
            self._nilmask = _frozen(~power.any(axis=(1, 2)))
        return self._nilmask

    def test_fns(self):
        """The test functions of the good triples, the spanning family
        that `verify_spr` checks against."""
        if self._test_fns is None:
            fns = tuple(test_fn(self, c, d) for _, c, _, d in good_reps(self))
            _frozen(*(f.vals for f in fns))
            self._test_fns = fns
        return self._test_fns

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
        """The Jordan type of a nilpotent m, read on its codes mod p."""
        S = {key: int(x) for key, x in np.ndenumerate(np.asarray(m) % self.p)
             if x}
        return lie._block_sizes(S, self.n, 1, self.n, self.p)

    def is_nilpotent(self, m):
        power = np.asarray(m) % self.p
        for _ in range(self.n - 1):
            power = (power @ m) % self.p
        return not power.any()

    def jordan_decomposition(self, m):
        """(s, n) for a (..., n, n) stack: s = m^(p^M), M = lcm(1..n), and
        n = m - s.  As s, n commute, m^(p^M) = s^(p^M) + n^(p^M); n^(p^M)
        = 0 as p^M >= n; s^(p^M) = s, its eigenvalues in F_(p^d), d | M."""
        p = self.p
        m = s = np.asarray(m, dtype=np.int64) % p
        for bit in bin(p ** math.lcm(*range(1, self.n + 1)))[3:]:
            s = s @ s % p
            if bit == "1":
                s = s @ m % p
        return s, (m - s) % p


# One context per (n, p) for the process, like `ff.ext_field`.
mat_context = functools.lru_cache(maxsize=None)(MatContext)


def _frozen(*arrays):
    """The arrays, made read-only: later queries share them."""
    for a in arrays:
        a.setflags(write=False)
    return arrays[0] if len(arrays) == 1 else arrays


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


def conil_support_ok(ctx, f):
    """Whether the transform of f under the trace form is supported on
    the nilpotent cone."""
    fhat = fourier(f, trace_pairing(ctx.n))
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


def verify_spr(ctx, x, comp, lower=False):
    """The parabolic identity: |U_P| <I_x, xi> = <I_{x_n + u_P}, xi> for
    every xi in `ctx.test_fns()`, a spanning family of conilpotent
    invariant functions."""
    x = np.asarray(x, dtype=np.int64) % ctx.p
    xs, xn = split_for_parabolic(ctx, x, comp)
    units = np.eye(ctx.dim, dtype=np.int64)[
        [i * ctx.n + j for i, j in nilradical_positions(comp, ctx.n, lower)]]
    at_x = int(ctx.encode(x[None])[0])
    at_u = ctx.encode(_translates(ctx, xn, units.reshape(-1, ctx.n, ctx.n)))
    return all(len(at_u) * xi.vals[at_x, 0] == xi.vals[at_u, 0].sum()
               for xi in ctx.test_fns())


def spr_instances(ctx, samples=None, seed=None):
    """The (x, composition, lower) instances that `lab spr` checks.  For
    gl_2: every diag(a, b) with a != b, against the upper and the lower
    Borel; nothing is drawn, so samples and seed are for gl_3 only.  For
    gl_3: `samples` split elements of the (2, 1) parabolic,
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
    check = _membership_checker(
        ctx, c, ctx.from_ff(la.dense(trip.d, ctx.field.zero, ctx.n)))
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


# Vectors in bulk: a (n, N) array of element codes holds N vectors of
# length n, one coordinate per row.  Sums and products read the q x q
# tables flat, at a * q + b: a two-index lookup costs several times more.

def _at(table, u, v):
    return table.ravel()[np.multiply(u, len(table), dtype=np.intp) + v]

def _mat_vecs(K, m, V):
    # a zero entry adds nothing and a unit entry needs no product
    add, mul, _ = K.arrays()
    out = []
    for row in m:
        s = None
        for a, coord in zip(row, V):
            if a:
                term = coord if a == K.one else mul[a][coord]
                s = term if s is None else _at(add, s, term)
        out.append(np.zeros(V.shape[1], dtype=V.dtype) if s is None else s)
    return np.stack(out)

def _dots(K, U, V):
    add, mul, _ = K.arrays()
    s = _at(mul, U[0], V[0])
    for u, v in zip(U[1:], V[1:]):
        s = _at(add, s, _at(mul, u, v))
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
        if type(p) is not int:
            raise ValueError("p must be an integer")
        for name in ("gram", "X", "pattern"):
            rows = getattr(self, name)
            if len(rows) != 5 or any(len(r) != 5 for r in rows):
                raise ValueError("%s must be 5x5" % name)
        if any(c not in ("*", "0", "!") for row in self.pattern
               for c in row):
            raise ValueError("pattern entries must be '*', '0' or '!'")
        ff.check_odd_prime(p)
        if any((gram[i][j] - gram[j][i]) % p for i in range(5)
               for j in range(i)):
            raise ValueError("gram must be symmetric")


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


def _per_form(build):
    """Memoize build(K, gram), keyed by K and the gram's codes as a tuple
    of tuples, for the 16 most recently used keys.  The entries are
    read-only arrays, but for `_basis_table`'s: each flag's row there is
    written once, from a pure function of that flag.  Callers check
    SCAN_CAP before the lookup."""
    cached = functools.lru_cache(maxsize=16)(build)

    @functools.wraps(build)
    def lookup(K, gram):
        return cached(K, tuple(map(tuple, gram)))
    lookup.cache_clear = cached.cache_clear
    return lookup


# (form, prefix) rows per step of `_quadric_points`, or one prefix for
# every form when there are more forms, isotropic points per step of
# `_curve_table`, and basis entries (n^2 a flag) per step of the adapted
# bases in `point_count`: their temporaries stay a few MB.
CURVE_CHUNK = 1 << 16


def _quadric_points(K, Q):
    """The isotropic points of F quadratic forms on F_q^k, solved all at
    once.  Q is a k x k grid of (F,) code arrays, form f's gram holding
    Q[s][t][f].  Returns a (k, N) array of pivot-normalized vectors and
    the (N,) index of each one's form: pivot by pivot, lexicographic
    within each pivot, the forms interleaved.

    For each pivot, every prefix u (u_pivot = 1, the coordinates after
    it free but the last, u_last = 0) gives v = u + x e_last with
    B(v, v) = sum_{i<=j} S_ij v_i v_j = a x^2 + b x + c, S_ii = G_ii and
    S_ij = G_ij + G_ji.  The roots x come from the square-root and
    reciprocal tables (p is odd): one row per form and prefix, q^(k-2)
    prefixes for the first pivot, not one per point of P^(k-1)."""
    add, mul, neg = K.arrays()
    dtype = add.dtype
    inv = np.array(K.inv, dtype=dtype)
    sqrt = np.array([-1 if s is None else s for s in K.sqrt],
                    dtype=np.min_scalar_type(-K.q))
    k = len(Q)
    last = k - 1
    S = [[Q[i][i] if i == j else add[Q[i][j], Q[j][i]] for j in range(k)]
         for i in range(k)]
    a = S[last][last]
    four_a = mul[K.embed(4), a][:, None]
    half = inv[mul[K.embed(2), a]]
    flat = np.nonzero(a == 0)[0]
    step = max(1, CURVE_CHUNK // len(a))
    blocks = []
    for pivot in range(last):
        rows = K.q ** (last - pivot - 1)
        for lo in range(0, rows, step):
            idx = np.arange(lo, min(lo + step, rows))
            U = np.zeros((k, len(idx)), dtype=dtype)
            U[pivot] = 1
            for j in range(last - 1, pivot, -1):
                idx, U[j] = divmod(idx, K.q)

            def poly(terms):
                # the sum of S u_i u_j over the terms (S, i, j), as codes
                out = None
                for coeff, i, j in terms:
                    if coeff.any():
                        mono = U[j] if i == pivot else mul[U[i], U[j]]
                        term = (coeff[:, None] if j == pivot
                                else mul[coeff[:, None], mono])
                        out = term if out is None else add[out, term]
                return np.zeros((len(a), 1), dtype) if out is None else out
            b = poly((S[j][last], pivot, j) for j in range(pivot, last))
            c = poly((S[i][j], i, j) for i in range(pivot, last)
                     for j in range(i, last))
            s = np.where(a[:, None] != 0,
                         sqrt[add[mul[b, b], neg[mul[four_a, c]]]], -1)
            b, c, s = (np.broadcast_to(t, (len(a), len(U[0])))
                       for t in (b, c, s))
            bl, cl = b[flat], c[flat]
            # a zero discriminant gives one root, a nonzero square two;
            # where a = 0, b != 0 gives one root and b = c = 0 every x
            (f1, r1), (f2, r2) = np.nonzero(s >= 0), np.nonzero(s > 0)
            f3, r3 = np.nonzero(bl)
            f4, r4 = np.nonzero((bl == 0) & (cl == 0))
            f = np.concatenate([f1, f2, flat[f3], np.repeat(flat[f4], K.q)])
            r = np.concatenate([r1, r2, r3, np.repeat(r4, K.q)])
            x = np.concatenate([
                mul[add[neg[b[f1, r1]], s[f1, r1]], half[f1]],
                mul[add[neg[b[f2, r2]], neg[s[f2, r2]]], half[f2]],
                mul[neg[cl[f3, r3]], inv[bl[f3, r3]]],
                np.tile(np.arange(K.q, dtype=dtype), len(f4))])
            order = np.lexsort((x, r))
            V = U[:, r[order]]
            V[last] = x[order]
            blocks.append((V, f[order]))
    # the last pivot: e_last is isotropic where a = 0
    blocks.append((np.repeat(np.eye(k, dtype=dtype)[:, last:], len(flat),
                             axis=1), flat))
    points, owners = zip(*blocks)
    return np.concatenate(points, axis=1), np.concatenate(owners)


def _rref_codes(K, A):
    """`linalg.rref`, its pivot rule included, on an (N, rows, cols)
    stack of code arrays: the reduced stack, the (N, rows) pivot columns
    (-1 past the rank) and the determinants of the minors on the pivot
    columns, 0 below full row rank: for square matrices, the
    determinants."""
    add, mul, neg = K.arrays()
    inv, submul = np.array(K.inv), neg[mul]
    A = np.array(A, dtype=np.intp)
    N, rows, cols = A.shape
    at, rank = np.arange(N), np.zeros(N, dtype=np.intp)
    det, flips = np.ones(N, dtype=np.intp), np.zeros(N, dtype=bool)
    for c in range(cols):
        if (rank == rows).all():
            break
        cand = (A[:, :, c] != 0) & (np.arange(rows) >= rank[:, None])
        has = cand.any(axis=1)
        # where column c has no pivot, row r stays as it is
        r = np.minimum(rank, rows - 1)
        piv = np.where(has, cand.argmax(axis=1), r)
        top = A[at, piv]
        A[at, piv] = A[at, r]
        flips ^= piv != r
        lead = np.where(has, top[:, c], 1)
        det = _at(mul, det, lead)
        top = _at(mul, top, inv[lead][:, None])
        f = np.where(has[:, None], A[:, :, c], 0)
        f[at, r] = 0
        A = _at(add, A, _at(submul, f[:, :, None], top[:, None, :]))
        A[at, r] = top
        rank += has
    nonzero = A != 0
    pivots = np.where(nonzero.any(axis=2), nonzero.argmax(axis=2), -1)
    det = np.where(rank < rows, 0, np.where(flips, neg[det], det))
    return A, pivots, det


@_per_form
def _isotropic_array(K, gram):
    """`_quadric_points` on one form: the isotropic points of P^{n-1}(F_q)
    as a read-only (n, N) array, in the solver's order."""
    Q = [[np.array([x]) for x in row] for row in gram]
    return _frozen(_quadric_points(K, Q)[0])


def isotropic_points(K, gram):
    return _isotropic_array(K, gram).T.tolist()


@_per_form
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
    it.  The complements of one dimension k have their isotropic points
    solved all at once, one form per v0 (`_quadric_points`)."""
    add, mul, neg = K.arrays()
    n = len(gram)
    P0 = np.array(isotropic_points(K, gram),
                  dtype=add.dtype).reshape(-1, n).T
    G0 = _mat_vecs(K, gram, P0)
    cols = np.arange(P0.shape[1])
    rowed = G0.any(axis=0)
    pivot = (G0 != 0).argmax(axis=0)
    r = mul[G0, np.array(K.inv)[G0[pivot, cols]]]
    free = np.ones(P0.shape, dtype=bool)
    free[pivot[rowed], cols[rowed]] = False
    last = n - 1 - ((P0 != 0) & free)[::-1].argmax(axis=0)
    free[last, cols] = False
    k_of = free.sum(axis=0)
    v0_idx, v1s = [cols[:0]], [P0[:, :0]]
    for k in set(k_of.tolist()) - {0}:
        sel = cols[k_of == k]
        kept = np.nonzero(free[:, sel].T)[1].reshape(-1, k).T
        W = np.zeros((k, n, len(sel)), dtype=add.dtype)
        at = np.arange(len(sel))
        for t in range(k):
            W[t, pivot[sel], at] = neg[r[kept[t], sel]]
            W[t, kept[t], at] = 1
        GW = [_mat_vecs(K, gram, w) for w in W]
        Q = [[_dots(K, ws, gw) for gw in GW] for ws in W]
        A, f = _quadric_points(K, Q)
        v1 = np.zeros((n, len(f)), dtype=add.dtype)
        for t in range(k):
            v1 = add[v1, mul[A[t], W[t][:, f]]]
        v0_idx.append(sel[f])
        v1s.append(v1)
    v0_idx = np.concatenate(v0_idx)
    order = np.argsort(v0_idx, kind="stable")
    return _frozen(P0[:, v0_idx[order]],
                   np.concatenate(v1s, axis=1)[:, order])


def _degenerate(K):
    return ValueError("degenerate gram: no basis with the standard "
                      "antidiagonal form extends the flag over F_%d" % K.q)


# The state of a flag in `_basis_table`: not yet completed, completed, a
# middle vector whose norm is not a nonzero square, a system with no
# solution.
_UNKNOWN, _OK, _NORM, _DEGENERATE = range(4)


def _adapted_bases(K, gram, V0, V1):
    """The flags (v0, v1), two (n, N) code arrays, completed to bases with
    the standard antidiagonal gram and determinant 1, as an (n, n, N)
    array (`_complete_flags`).  Raises the first flag's error."""
    bases, state, norm = _complete_flags(K, gram, V0, V1)
    _raise_first_error(K, state, norm)
    return bases.transpose(1, 2, 0)


def _raise_first_error(K, state, norm):
    """The error of the first flag whose state is one: a middle vector
    whose norm is not a nonzero square, else a system with no
    solution."""
    bad = state > _OK
    if bad.any():
        first = np.argmax(bad)
        if state[first] == _NORM:
            raise ValueError("middle vector has norm %d, not a nonzero "
                             "square in F_%d" % (norm[first], K.q))
        raise _degenerate(K)


def _complete_flags(K, gram, V0, V1):
    """The adapted bases of the flags (v0, v1), two (n, N) code arrays,
    as an (N, n, n) array, by one `_rref_codes` per step, with each
    flag's state and the norm of its middle vector.  v2 is the first
    kernel vector of (G v0, G v1) of rank 3 with v0, v1, scaled to norm
    1; v3 and v4 solve linear systems, made isotropic; v2 flips where
    the determinant is not 1.  Each flag's row depends on that flag
    alone; the rows of flags with an error are not bases."""
    add, mul, neg = K.arrays()
    inv = np.array(K.inv)
    sqrt = np.array([-1 if s is None else s for s in K.sqrt])
    n, N = V0.shape
    G = lambda V: _mat_vecs(K, gram, V)
    G0, G1 = G(V0), G(V1)
    # the kernel of (G v0, G v1) and the span of v0, v1, reduced together
    R, P, _ = _rref_codes(K, np.stack([np.hstack([G0, V0]).T,
                                       np.hstack([G1, V1]).T], axis=1))
    (R, span), (P, span_piv) = np.split(R, 2), np.split(P, 2)
    # W[f, c]: the kernel vector of free column c, e_c less the pivots'
    pivot = P[:, :, None] == np.arange(n)
    W = np.where(pivot.any(axis=1)[:, None], neg[np.einsum(
        "frc,frj->fcj", R, pivot)], np.eye(n, dtype=np.intp))
    # of rank 3 with v0 and v1: not 0 once its part on the span is taken
    part = [_at(mul, W[np.arange(N), :, span_piv[:, r]][:, :, None],
                span[:, r][:, None]) for r in range(2)]
    rank3 = _at(add, W, neg[_at(add, *part)]).any(axis=2)
    pick = (~pivot.any(axis=1) & rank3).argmax(axis=1)
    V2 = W[np.arange(N), pick].T
    norm = _dots(K, V2, G(V2))
    root = sqrt[norm]
    V2 = _at(mul, V2, inv[np.maximum(root, 0)])
    G2 = G(V2)

    def solve(rows, rhs):
        # the solution of rows x = rhs that is 0 at the free columns,
        # where there is none, the minor on the pivot columns and the
        # first free column
        R, P, minor = _rref_codes(K, np.stack([
            np.vstack([g, np.full(N, b)]) for g, b in zip(rows, rhs)],
            axis=1).T)
        pivot = P[:, :, None] == np.arange(n)
        x = np.einsum("fr,frj->jf", R[:, :, n], pivot)
        return (x, (P == n).any(axis=1), minor,
                (~pivot.any(axis=1)).argmax(axis=1))

    def isotropic(U, V):
        # U + t V with t = -B(U, U) / 2, isotropic where B(U, V) = 1
        t = _at(mul, neg[_dots(K, U, G(U))], inv[K.embed(2)])
        return _at(add, U, _at(mul, t, V))

    W0, bad3 = solve([G0, G1, G2], [0, 1, 0])[:2]
    V3 = isotropic(W0, V1)
    U0, bad4, minor, c = solve([G0, G1, G2, G(V3)], [1, 0, 0, 0])
    basis = np.stack([V0, V1, V2, V3, isotropic(U0, V0)])
    # A completed flag has B G B^T = J, and det J = 1, so det B is
    # 1 / det M, M the rows G v0, ..., G v4.  The v4 solve reduced the
    # first four to their minor on the pivot columns and one free column
    # c, with kernel vector v0 / v0[c] (v0 is B-orthogonal to v0, ..., v3):
    # det M = minor (-1)^(n-1-c) B(v4, v0) / v0[c], and B(v4, v0) = 1.
    flip = V0[c, np.arange(N)] != np.where((n - 1 - c) % 2, neg[minor],
                                           minor)
    basis[2][:, flip] = neg[V2[:, flip]]
    state = np.select([root <= 0, bad3 | bad4], [_NORM, _DEGENERATE], _OK)
    return basis.transpose(2, 0, 1), state, norm


def _flag_count(K, gram):
    """The number of flags `_flags` yields, from the isotropic points.
    With Z isotropic vectors in F_q^n, 0 included, the complement of a
    first vector in the radical of the form has Z / q of them; that of
    any other has (Z - (q - 1) q^(n-2)) / q, since F_q^n is a hyperbolic
    plane through the first vector plus the complement."""
    q, n = K.q, len(gram)
    P0 = _isotropic_array(K, gram)
    radical = int(np.count_nonzero(~_mat_vecs(K, gram, P0).any(axis=0)))
    Z = (q - 1) * P0.shape[1] + 1
    points = lambda vecs: (vecs - 1) // (q - 1)
    other = points((Z - (q - 1) * q ** (n - 2)) // q) if n > 1 else 0
    return radical * points(Z // q) + (P0.shape[1] - radical) * other


def point_count(spec, degrees=(1,)):
    """Exact number of complete isotropic flags satisfying the pattern,
    per extension degree.  SCAN_CAP bounds the split form's flags, then
    the spec's own, before they are enumerated or looked up."""
    out = {}
    for deg in degrees:
        est = flag_total(ff.field_order(spec.p, deg))
        if est > SCAN_CAP:
            raise ValueError("enumeration too large (%d flags)" % est)
        K = ff.ext_field(spec.p, deg)
        gram = [[K.embed(x) for x in row] for row in spec.gram]
        X = [[K.embed(x) for x in row] for row in spec.X]
        est = _flag_count(K, gram)
        if est > SCAN_CAP:
            raise ValueError("enumeration too large (%d flags)" % est)
        n = len(gram)
        # constraints sorted so the cheap ones (low basis demand) go first
        cons = [(i, j, spec.pattern[i][j])
                for i in range(n) for j in range(n)
                if spec.pattern[i][j] != "*"]
        cons.sort(key=lambda t: max(t[1], n - 1 - t[0]))
        early = sum(max(j, n - 1 - i) <= 1 for i, j, _ in cons)
        GX = _mat_vecs(K, gram, np.array(X, dtype=K.arrays()[0].dtype))
        flags = _flags(K, gram)
        # the constraints read off v0 and v1 alone, for all flags at once
        ok = _pattern_holds(K, GX, flags, cons[:early])
        if early == len(cons):
            out[deg] = int(np.count_nonzero(ok))
            continue
        # the others on the adapted bases of the flags that passed, read
        # off the form's table once they are in it
        sel = np.nonzero(ok)[0]
        bases, state, norm = table = _basis_table(K, gram)
        step = CURVE_CHUNK // (n * n)
        _complete_selected(K, gram, flags, table, sel, step)
        _raise_first_error(K, state[sel], norm[sel])
        out[deg] = sum(
            int(np.count_nonzero(_pattern_holds(
                K, GX, bases[sel[lo:lo + step]].transpose(1, 2, 0),
                cons[early:])))
            for lo in range(0, len(sel), step))
    return out


@_per_form
def _basis_table(K, gram):
    """The adapted bases of the flags of `_flags(K, gram)`, by index, as
    `point_count` completes them: an (F, n, n) array of codes, each
    flag's state (`_UNKNOWN` until completed) and the norm of its middle
    vector.  Zeros until written, so its pages are mapped only where
    flags reach it."""
    F, n = _flags(K, gram)[0].shape[1], len(gram)
    code = K.arrays()[0].dtype
    return (np.zeros((F, n, n), dtype=code), np.zeros(F, dtype=np.uint8),
            np.zeros(F, dtype=code))


def _complete_selected(K, gram, flags, table, sel, step):
    """Complete the flags of index array sel whose state is unknown, in
    order and `step` at a time, up to the first flag with an error: the
    flags before it are then all in the table."""
    bases, state, norm = table
    todo = sel[:np.argmax(np.append(state[sel] > _OK, True))]
    todo = todo[state[todo] == _UNKNOWN]
    for lo in range(0, len(todo), step):
        at = todo[lo:lo + step]
        bases[at], state[at], norm[at] = _complete_flags(
            K, gram, *(f[:, at] for f in flags))
        if (state[at] > _OK).any():
            break


def _pattern_holds(K, GX, vecs, cons):
    """Per flag, whether B(v_(n-1-i), X v_j) vanishes or not as each
    constraint (i, j, kind) asks; vecs holds the flags' v_0, v_1, ...
    as (n, N) code arrays, and GX is the n x n gram times X."""
    n = len(GX)
    ok = np.ones(vecs[0].shape[1], dtype=bool)
    images = {}
    for i, j, kind in cons:
        if j not in images:
            images[j] = _mat_vecs(K, GX, vecs[j])
        ok &= (_dots(K, vecs[n - 1 - i], images[j]) == 0) == (kind == "0")
    return ok


def curve_count(coeff, p=23, deg=1):
    """The number of F_q-points of the curve condition of
    `curve_spec(coeff, p)`: the flag is forced by its first vector (V2
    must be the span of v0 and Xv0), so it counts the isotropic points
    v0 of P^4 that pass three tests.  Read off the table that one pass
    over the isotropic points fills for every corner coefficient of the
    field (`_curve_table`); the quadric is solved over its
    q^3 + q^2 + q + 1 prefixes, the work that SCAN_CAP bounds."""
    return curve_counts((coeff,), p, deg)[0]


def curve_counts(coeffs, p=23, deg=1):
    """`curve_count` for each corner coefficient, looked up in one
    table: the gram of `curve_spec` does not depend on the
    coefficient."""
    q = ff.field_order(p, deg)
    prefixes = sum(q ** k for k in range(4))
    if prefixes > SCAN_CAP:
        raise ValueError("enumeration too large (%d points)" % prefixes)
    K = ff.ext_field(p, deg)
    gram = [[K.embed(x) for x in row] for row in curve_spec(1, p).gram]
    table = _curve_table(K, gram)
    return [int(table[K.embed(coeff)]) for coeff in coeffs]


@_per_form
def _curve_table(K, gram):
    """The curve count at every corner coefficient, as a read-only array
    indexed by element code, from one pass over the isotropic points.

    X(c) = X0 + c E, with E the two corner entries.  A point v passes at
    c when w = X(c) v has B(v, w) = 0 and B(w, w) = 0 (V2 = <v, w> is
    isotropic) and B(X(c) w, w) != 0.  It must also be a plane, but the
    last test already fails when w = t v: then B(Xw, w) = t^3 B(v, v),
    which is 0 since v is isotropic.  The first test reads
    a0 + c a1 = 0, with a0 = B(v, X0 v) and a1 = B(v, E v): where
    a1 != 0 it holds at c = -a0/a1 alone, where a0 = a1 = 0 at every c,
    and elsewhere at none.  The other two tests run on these (v, c)
    pairs, all at once, and the passing pairs are counted per c."""
    add, mul, neg = K.arrays()
    inv = np.array(K.inv, dtype=add.dtype)
    X0 = curve_spec(0, K.p).X
    E = [[K.embed(x - y) for x, y in zip(r, r0)]
         for r, r0 in zip(curve_spec(1, K.p).X, X0)]
    X0 = [[K.embed(x) for x in row] for row in X0]
    every_c = np.arange(K.q, dtype=add.dtype)
    counts = np.zeros(K.q, dtype=np.int64)
    V = _isotropic_array(K, gram)
    for lo in range(0, V.shape[1], CURVE_CHUNK):
        v = V[:, lo:lo + CURVE_CHUNK]
        x0v, ev = _mat_vecs(K, X0, v), _mat_vecs(K, E, v)
        a0 = _dots(K, v, _mat_vecs(K, gram, x0v))
        a1 = _dots(K, v, _mat_vecs(K, gram, ev))
        one = np.nonzero(a1)[0]
        every = np.nonzero((a0 == 0) & (a1 == 0))[0]
        at = np.concatenate([one, np.repeat(every, K.q)])
        c = np.concatenate([mul[neg[a0[one]], inv[a1[one]]],
                            np.tile(every_c, len(every))])
        w = add[x0v[:, at], mul[c, ev[:, at]]]
        gw = _mat_vecs(K, gram, w)
        keep = _dots(K, w, gw) == 0
        w, gw, c = w[:, keep], gw[:, keep], c[keep]
        xw = add[_mat_vecs(K, X0, w), mul[c, _mat_vecs(K, E, w)]]
        counts += np.bincount(c[_dots(K, xw, gw) != 0], minlength=K.q)
    return _frozen(counts)


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
    K = ff.ext_field(p, deg)
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
