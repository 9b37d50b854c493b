"""Finite fields of odd characteristic, in three kinds:

  * PrimeField(p)  -- the field Z/p for an odd prime p
  * QuadField(p)   -- F_{p^2} realized as F_p[s]/(s^2 - n), n the least
                      quadratic non-residue mod p
  * ExtField(p, d) -- F_{p^d}, d <= 3, on the integer codes 0..q-1

PrimeField and QuadField elements are small immutable wrappers; all
arithmetic is exact.  QuadField elements carry the Frobenius a -> a^p as
.conj().  Fields are cached so two fields with the same parameters are the
same object, which makes element compatibility checks cheap.
These two fix how their elements are written over the prime field: `basis`
is (1,) or (1, s), and `coords(a)` gives the prime-field coordinates of a in
that basis.  `block(v)` is the matrix over the prime field, as integers, of
multiplication by the element of value v in that basis (its regular
representation); its first column is the coordinates, and `from_coords`
reads an element back from them.  Other modules flatten residues only
through these.  An ExtField code's base-p digits, least significant first,
are its element's coefficients modulo `modulus`: `liealg` solves over
ext_field(p, 1) and `springerlab` enumerates on the codes.
"""

from functools import cached_property, lru_cache
from itertools import product


def is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def check_odd_prime(p):
    """Raise ValueError unless p is an odd prime."""
    if p == 2 or not is_prime(p):
        raise ValueError("p = %d is not an odd prime" % p)


def least_nonresidue(p):
    """Smallest quadratic non-residue mod the odd prime p."""
    for n in range(2, p):
        if pow(n, (p - 1) // 2, p) == p - 1:
            return n
    raise ValueError("no non-residue found (p must be an odd prime)")


class FFElt:
    """Element of a PrimeField or QuadField.  Immutable."""

    __slots__ = ("field", "v")

    def __init__(self, field, v):
        self.field = field
        self.v = v

    def _check(self, other):
        if not isinstance(other, FFElt):
            if isinstance(other, int):
                return self.field(other)
            return NotImplemented
        if other.field is not self.field:
            # allow mixing a prime field element into its quadratic extension
            f, g = self.field, other.field
            if isinstance(f, QuadField) and f.base is g.base_or_self():
                return f.embed(other)
            if isinstance(g, QuadField) and g.base is f.base_or_self():
                return other  # caller promotes self into g
            return NotImplemented
        return other

    def __add__(self, other):
        o = self._check(other)
        if o is NotImplemented:
            return NotImplemented
        if o.field is not self.field:
            return o.field.embed(self) + o
        return FFElt(self.field, self.field._add(self.v, o.v))

    __radd__ = __add__

    def __neg__(self):
        return FFElt(self.field, self.field._neg(self.v))

    def __sub__(self, other):
        o = self._check(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = self._check(other)
        if o is NotImplemented:
            return NotImplemented
        if o.field is not self.field:
            return o.field.embed(self) * o
        return FFElt(self.field, self.field._mul(self.v, o.v))

    __rmul__ = __mul__

    def inv(self):
        if not self:
            raise ZeroDivisionError("inverse of zero in finite field")
        return FFElt(self.field, self.field._inv(self.v))

    def __truediv__(self, other):
        o = self._check(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other):
        return self.inv() * other

    def __pow__(self, k):
        if k < 0:
            return self.inv() ** (-k)
        r = self.field.one
        b = self
        while k:
            if k & 1:
                r = r * b
            b = b * b
            k >>= 1
        return r

    def conj(self):
        """Frobenius over the prime field (identity on PrimeField)."""
        return FFElt(self.field, self.field._conj(self.v))

    def trace(self):
        """Trace to the prime field (identity map there)."""
        return self.field.trace(self)

    def norm(self):
        return self.field.norm(self)

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.field(other)
        if not isinstance(other, FFElt):
            return NotImplemented
        if other.field is not self.field:
            o = self._check(other)
            if o is NotImplemented:
                return NotImplemented
            if o.field is not self.field:
                # other lives in the quadratic extension; embed self there
                return o.field.embed(self).v == o.v
            other = o
        return self.v == other.v

    def __hash__(self):
        return hash((id(self.field), self.v))

    def __bool__(self):
        return self.v != self.field.zero.v

    def __repr__(self):
        return self.field.fmt(self.v)


class PrimeField:
    """The prime field Z/p, p an odd prime."""

    def __init__(self, p):
        check_odd_prime(p)
        self.p = p
        self.q = p
        self.degree = 1
        self.zero = FFElt(self, 0)
        self.one = FFElt(self, 1)
        self.basis = (self.one,)

    def base_or_self(self):
        return self

    def __call__(self, v):
        if isinstance(v, FFElt):
            assert v.field is self
            return v
        return FFElt(self, int(v) % self.p)

    # raw value arithmetic
    def _add(self, u, v):
        return (u + v) % self.p

    def _neg(self, u):
        return (-u) % self.p

    def _mul(self, u, v):
        return (u * v) % self.p

    def _inv(self, u):
        return pow(u, self.p - 2, self.p)

    def _conj(self, u):
        return u

    def coords(self, a):
        return [a]

    def block(self, v):
        return ((v,),)

    def from_coords(self, xs):
        return FFElt(self, xs[0] % self.p)

    def trace(self, a):
        return a

    def norm(self, a):
        return a

    def elements(self):
        for v in range(self.p):
            yield FFElt(self, v)

    def random(self, rng):
        return FFElt(self, rng.randrange(self.p))

    def fmt(self, v):
        return str(v)

    def __repr__(self):
        return "F_%d" % self.p


class QuadField:
    """F_{p^2} = F_p[s]/(s^2 - n) with n the least non-residue mod p.

    Elements are pairs (a, b) standing for a + b*s.  conj is the Frobenius
    a + b*s -> a - b*s.
    """

    def __init__(self, p):
        self.base = prime_field(p)
        self.p = p
        self.q = p * p
        self.degree = 2
        self.n = least_nonresidue(p)
        self.zero = FFElt(self, (0, 0))
        self.one = FFElt(self, (1, 0))
        self.gen = FFElt(self, (0, 1))  # the square root of n
        self.basis = (self.one, self.gen)

    def base_or_self(self):
        return self.base

    def __call__(self, v):
        if isinstance(v, FFElt):
            if v.field is self:
                return v
            assert v.field is self.base
            return FFElt(self, (v.v, 0))
        if isinstance(v, tuple):
            return FFElt(self, (int(v[0]) % self.p, int(v[1]) % self.p))
        return FFElt(self, (int(v) % self.p, 0))

    def embed(self, a):
        """Embed a base field element."""
        assert a.field is self.base
        return FFElt(self, (a.v, 0))

    def _add(self, u, v):
        return ((u[0] + v[0]) % self.p, (u[1] + v[1]) % self.p)

    def _neg(self, u):
        return ((-u[0]) % self.p, (-u[1]) % self.p)

    def _mul(self, u, v):
        a, b = u
        c, d = v
        return ((a * c + self.n * b * d) % self.p, (a * d + b * c) % self.p)

    def _inv(self, u):
        a, b = u
        d = (a * a - self.n * b * b) % self.p
        di = pow(d, self.p - 2, self.p)
        return ((a * di) % self.p, (-b * di) % self.p)

    def _conj(self, u):
        return (u[0], (-u[1]) % self.p)

    def coords(self, a):
        """Coordinates of a over the base field in the basis (1, s)."""
        return [FFElt(self.base, a.v[0]), FFElt(self.base, a.v[1])]

    def block(self, v):
        """Multiplication by a + b*s on the basis (1, s)."""
        a, b = v
        return ((a, (self.n * b) % self.p), (b, a))

    def from_coords(self, xs):
        return FFElt(self, (xs[0] % self.p, xs[1] % self.p))

    def trace(self, a):
        """Trace to the base field."""
        return FFElt(self.base, (2 * a.v[0]) % self.p)

    def norm(self, a):
        v = a.v
        return FFElt(self.base, (v[0] * v[0] - self.n * v[1] * v[1]) % self.p)

    def elements(self):
        for a in range(self.p):
            for b in range(self.p):
                yield FFElt(self, (a, b))

    def random(self, rng):
        return FFElt(self, (rng.randrange(self.p), rng.randrange(self.p)))

    def fmt(self, v):
        a, b = v
        if b == 0:
            return str(a)
        if a == 0:
            return "%d*s" % b
        return "(%d+%d*s)" % (a, b)

    def __repr__(self):
        return "F_%d^2" % self.p


@lru_cache(maxsize=None)
def prime_field(p):
    return PrimeField(p)


@lru_cache(maxsize=None)
def quad_field(p):
    return QuadField(p)


# -- integer-coded fields ------------------------------------------------


def field_order(p, d):
    """q = p^d for the fields `ExtField` builds: p an odd prime (the
    adapted basis of `springerlab` divides by 2) and d one of the degrees
    with a root-free irreducible polynomial."""
    check_odd_prime(p)
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
    """F_{p^d} on the integer codes 0..q-1 of its elements.  The add,
    mul, neg, inv and sqrt tables are built on first read, so a prime
    field that serves only `ops` builds no q x q table."""

    zero, one = 0, 1

    def __init__(self, p, d):
        self.q = field_order(p, d)
        self.p, self.d = p, d
        self.modulus = _find_irreducible(p, d) if d > 1 else None
        self._arrays = None

    def __getattr__(self, name):
        if name not in ("add", "mul", "neg", "inv", "sqrt"):
            raise AttributeError(name)
        self._build_tables()
        return getattr(self, name)

    @cached_property
    def ops(self):
        """(sub, mul, inv) for `linalg`: mod p if d = 1, else tables."""
        p = self.p
        if self.d == 1:
            return (lambda a, b: (a - b) % p, lambda a, b: a * b % p,
                    lambda a: pow(a, p - 2, p))
        add, neg, mul = self.add, self.neg, self.mul
        return (lambda a, b: add[a][neg[b]], lambda a, b: mul[a][b],
                self.inv.__getitem__)

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
        dec = [self._decode(a) for a in range(self.q)]
        self.add = [[self._encode([x + y for x, y in zip(u, v)])
                     for v in dec] for u in dec]
        self.neg = [self._encode([-x for x in u]) for u in dec]
        self.mul = [[self._encode(self._poly_mul(u, v)) for v in dec]
                    for u in dec]
        # reciprocals off the multiplication rows; least square roots
        self.inv = [0] + [row.index(1) for row in self.mul[1:]]
        self.sqrt = [None] * self.q
        for a in range(self.q - 1, -1, -1):
            self.sqrt[self.mul[a][a]] = a

    def embed(self, a):
        """Lift a residue of the prime field into the extension."""
        return a % self.p

    def arrays(self):
        """The add, mul and neg tables as numpy arrays of the smallest
        unsigned dtype holding every element code; built, and numpy
        imported, on first use."""
        if self._arrays is None:
            import numpy as np
            dtype = np.min_scalar_type(self.q - 1)
            self._arrays = tuple(np.array(t, dtype=dtype)
                                 for t in (self.add, self.mul, self.neg))
        return self._arrays


ext_field = lru_cache(maxsize=None)(ExtField)
