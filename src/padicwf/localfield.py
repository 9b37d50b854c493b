"""Finite Laurent sums over a local field and its quadratic extensions.

The base field is F = k((t)) with k = F_q, q an odd prime.  On top of it:

  * unramified_quadratic(): E = k'((t)) with k' = F_{q^2}; conj acts on
    coefficients by the Frobenius of k'/k.
  * ramified_quadratic():   E = k((w)) with val(w) = 1/2 (so w^2 = t up to
    our normalization w^2 = t); conj sends w -> -w, i.e. negates the
    coefficient of every half-integral valuation.

Valuations are Fractions with denominator dividing the ramification index.
A scalar is an exact finite sum of c_v * t^v: every element the pipeline
builds (chain pieces, seed cosets, monomial lifts, sl2-triples) is one,
so every question about it (valuation, residue, zero test) has an exact
answer.  Sums and products of finite sums are finite sums; of the
inverses only that of a monomial is one (c t^v inverts to c^-1 t^-v),
and `inv` refuses any other scalar with a ValueError.  `parse` likewise
refuses an O(...) term, as it names no exact scalar.
"""

import re
from fractions import Fraction

from .ffield import FFElt, prime_field, quad_field


def _fr(x):
    return x if isinstance(x, Fraction) else Fraction(x)


class LocalField:
    """k((t)) or a quadratic extension of it.

    kind is one of 'base', 'unram', 'ram'.  residue is the residue field
    (PrimeField for 'base'/'ram', QuadField for 'unram').  e is the
    ramification index over the base, so valuations live in (1/e)Z.
    """

    def __init__(self, q, kind="base"):
        self.q = q
        self.kind = kind
        if kind == "unram":
            self.residue = quad_field(q)
            self.e = 1
        elif kind == "ram":
            self.residue = prime_field(q)
            self.e = 2
        else:
            assert kind == "base"
            self.residue = prime_field(q)
            self.e = 1
        self.uname = "w" if kind == "ram" else "t"

    def unramified_quadratic(self):
        assert self.kind == "base"
        return LocalField(self.q, "unram")

    def ramified_quadratic(self):
        assert self.kind == "base"
        return LocalField(self.q, "ram")

    # -- constructors ---------------------------------------------------

    def scalar(self, terms):
        """terms: dict {valuation: residue field element or int}."""
        items = []
        for v, c in terms.items():
            v = _fr(v)
            assert (v * self.e).denominator == 1, "valuation not in (1/e)Z"
            c = self.residue(c)
            if c:
                items.append((v, c))
        items.sort(key=lambda p: p[0])
        return LocalScalar(self, tuple(items))

    def zero(self):
        return self.scalar({})

    def one(self):
        return self.scalar({0: 1})

    def from_int(self, n):
        return self.scalar({0: self.residue(n)})

    def uniformizer(self):
        return self.scalar({Fraction(1, self.e): 1})

    def from_residue(self, c):
        return self.scalar({0: c})

    def __eq__(self, other):
        return (isinstance(other, LocalField) and other.q == self.q
                and other.kind == self.kind)

    def __hash__(self):
        return hash((self.q, self.kind))

    def __repr__(self):
        names = {"base": "F_%d((t))", "unram": "F_%d^2((t))",
                 "ram": "F_%d((w))"}
        return names[self.kind] % self.q

    # -- parsing --------------------------------------------------------

    def parse(self, text):
        """Parse e.g. "3*t^-1 + 5" or "w^-2 + (1+2*s)*w".

        The uniformizer letter is t for unramified fields and w for the
        ramified quadratic extension (val w = 1/2).  Coefficients are
        integers, or (a+b*s) with s the square root of the least
        non-residue when the residue field is quadratic.  An O(...)
        term names no exact scalar and raises ValueError.
        """
        text = text.strip()
        if not text or text == "0":
            return self.zero()
        parts = _split_terms(text)
        terms = {}
        u = self.uname
        for part in parts:
            sign, body = part
            if body.startswith("O("):
                raise ValueError("%s: only exact scalars are read, not a "
                                 "sum known to a precision" % body)
            coeff, exp = self._parse_term(body, u)
            v = Fraction(exp, self.e)
            c = terms.get(v, self.residue.zero) + coeff * sign
            terms[v] = c
        return self.scalar({v: c for v, c in terms.items() if c})

    def _parse_term(self, body, u):
        m = re.fullmatch(
            r"(?:(\(.*?\)|\d+)\s*\*\s*)?%s(?:\^(-?\d+))?" % u, body)
        if m:
            cstr = m.group(1)
            coeff = self._parse_coeff(cstr) if cstr else self.residue.one
            exp = int(m.group(2)) if m.group(2) else 1
            return coeff, exp
        return self._parse_coeff(body), 0

    def _parse_coeff(self, cstr):
        cstr = cstr.strip()
        if cstr.startswith("(") and cstr.endswith(")"):
            cstr = cstr[1:-1].strip()
        m = re.fullmatch(r"(-?\d+)", cstr)
        if m:
            return self.residue(int(m.group(1)))
        m = re.fullmatch(r"(?:(-?\d+)\s*\+\s*)?(-?\d+)?\s*\*?\s*s", cstr)
        if m and self.residue.degree == 2:
            a = int(m.group(1)) if m.group(1) else 0
            b = int(m.group(2)) if m.group(2) is not None else 1
            return self.residue((a, b))
        raise ValueError("cannot parse coefficient %r" % cstr)


def _split_terms(text):
    """Split a sum into (sign, term) pairs at top-level +/-."""
    parts = []
    depth = 0
    cur = ""
    sign = 1
    prev = ""
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        splittable = depth == 0 and ch in "+-" and prev not in ("^", "*")
        if splittable and cur.strip():
            parts.append((sign, cur.strip()))
            sign = 1 if ch == "+" else -1
            cur = ""
        elif splittable:
            if ch == "-":
                sign = -sign
        else:
            cur += ch
        if not ch.isspace():
            prev = ch
    if cur.strip():
        parts.append((sign, cur.strip()))
    return parts


class LocalScalar:
    """A finite Laurent sum.  Immutable.

    terms: sorted tuple of (Fraction valuation, nonzero residue coeff),
    with distinct valuations, so a scalar has one `terms`, which `==`
    compares, and the zero scalar alone has none.

    A product of two monomials is their one product term, a sum with
    zero is the other operand and a sum of two monomials is their two
    terms in order, or one summed term, or zero if they cancel; every
    other sum and product is accumulated term by term.
    """

    __slots__ = ("field", "terms")

    def __init__(self, field, terms):
        self.field = field
        self.terms = terms

    # -- queries --------------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def val(self):
        """Valuation as a Fraction; None for zero."""
        return self.terms[0][0] if self.terms else None

    def residue_at(self, v):
        """Coefficient of t^v (an element of the residue field)."""
        v = _fr(v)
        for w, c in self.terms:
            if w == v:
                return c
        return self.field.residue.zero

    def leading(self):
        if not self.terms:
            raise ZeroDivisionError("leading term of zero")
        return self.terms[0][1]

    # -- arithmetic -----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, LocalScalar):
            assert other.field == self.field
            return other
        if isinstance(other, int):
            return self.field.from_int(other)
        if isinstance(other, FFElt):
            return self.field.from_residue(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o.terms:
            return self
        if not self.terms:
            return o
        if len(self.terms) == len(o.terms) == 1:
            # two monomials: both terms in order, or their sum
            (v, c), (w, d) = terms = self.terms + o.terms
            if v != w:
                return LocalScalar(self.field,
                                   terms if v < w else terms[::-1])
            c = c + d
            return LocalScalar(self.field, ((v, c),) if c else ())
        acc = {}
        for v, c in self.terms + o.terms:
            acc[v] = acc.get(v, self.field.residue.zero) + c
        return LocalScalar(self.field,
                           tuple(sorted((v, c) for v, c in acc.items() if c)))

    __radd__ = __add__

    def __neg__(self):
        return LocalScalar(self.field, tuple((v, -c) for v, c in self.terms))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self.terms or not o.terms:
            return LocalScalar(self.field, ())
        if len(self.terms) == len(o.terms) == 1:
            # two monomials: one nonzero term, residues form a field
            (v1, c1), = self.terms
            (v2, c2), = o.terms
            return LocalScalar(self.field, ((v1 + v2, c1 * c2),))
        acc = {}
        zero = self.field.residue.zero
        for v1, c1 in self.terms:
            for v2, c2 in o.terms:
                acc[v1 + v2] = acc.get(v1 + v2, zero) + c1 * c2
        return LocalScalar(self.field,
                           tuple(sorted((v, c) for v, c in acc.items() if c)))

    __rmul__ = __mul__

    def inv(self):
        """The inverse c^-1 t^-v of a monomial c t^v.  No other nonzero
        finite sum has a finite inverse, so any other scalar raises
        ValueError (ZeroDivisionError for zero)."""
        if not self.terms:
            raise ZeroDivisionError("inverse of zero")
        if len(self.terms) > 1:
            raise ValueError("%r is not a monomial: its inverse is no "
                             "finite Laurent sum" % self)
        (v, c), = self.terms
        return LocalScalar(self.field, ((-v, c.inv()),))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other):
        return self.inv() * other

    def __pow__(self, k):
        if k < 0:
            return self.inv() ** (-k)
        r = self.field.one()
        b = self
        while k:
            if k & 1:
                r = r * b
            b = b * b
            k >>= 1
        return r

    def conj(self):
        """The nontrivial automorphism of E/F (identity on the base)."""
        f = self.field
        if f.kind == "unram":
            terms = tuple((v, c.conj()) for v, c in self.terms)
        elif f.kind == "ram":
            terms = tuple((v, -c if (v * 2) % 2 == 1 else c)
                          for v, c in self.terms)
        else:
            terms = self.terms
        return LocalScalar(f, terms)

    def shift(self, v):
        """Multiply by t^v (v any fraction in (1/e)Z)."""
        v = _fr(v)
        assert (v * self.field.e).denominator == 1
        return LocalScalar(self.field,
                           tuple((w + v, c) for w, c in self.terms))

    # -- comparison / display ------------------------------------------

    def __eq__(self, other):
        """Equal terms: each scalar has one `terms`."""
        if type(other) is LocalScalar and other.field is self.field:
            return self.terms == other.terms
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.terms == o.terms

    def __repr__(self):
        f = self.field
        u = f.uname
        bits = []
        for v, c in self.terms:
            k = int(v * f.e)
            if k == 0:
                bits.append(repr(c))
            else:
                cs = repr(c)
                if not cs.lstrip("-").isdigit():
                    cs = "(%s)" % cs
                head = "" if c == f.residue.one else "%s*" % cs
                tail = u if k == 1 else "%s^%d" % (u, k)
                bits.append(head + tail)
        return " + ".join(bits) if bits else "0"
