"""Truncated Laurent series model of a local field and its quadratic extensions.

The base field is F = k((t)) with k = F_q, q an odd prime.  On top of it:

  * unramified_quadratic(): E = k'((t)) with k' = F_{q^2}; conj acts on
    coefficients by the Frobenius of k'/k.
  * ramified_quadratic():   E = k((w)) with val(w) = 1/2 (so w^2 = t up to
    our normalization w^2 = t); conj sends w -> -w, i.e. negates the
    coefficient of every half-integral valuation.

Valuations are Fractions with denominator dividing the ramification index.
A scalar is a finite sum of c_v * t^v plus an O(t^prec) tail; prec = None
means the element is known exactly.  Arithmetic propagates precision the
usual way and raises PrecisionError when a question (valuation, residue)
cannot be answered at the available precision.  The inverse of an exact
scalar is a series, kept to the relative precision
LocalField.DEFAULT_PREC = 40, the same for every field.
"""

import re
from fractions import Fraction

from .ffield import FFElt, prime_field, quad_field


class PrecisionError(ArithmeticError):
    pass


def _fr(x):
    return x if isinstance(x, Fraction) else Fraction(x)


class LocalField:
    """k((t)) or a quadratic extension of it.

    kind is one of 'base', 'unram', 'ram'.  residue is the residue field
    (PrimeField for 'base'/'ram', QuadField for 'unram').  e is the
    ramification index over the base, so valuations live in (1/e)Z.
    """

    DEFAULT_PREC = Fraction(40)

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

    def scalar(self, terms, prec=None):
        """terms: dict {valuation: residue field element or int}."""
        items = []
        for v, c in terms.items():
            v = _fr(v)
            assert (v * self.e).denominator == 1, "valuation not in (1/e)Z"
            c = self.residue(c)
            if c:
                items.append((v, c))
        items.sort(key=lambda p: p[0])
        if prec is not None:
            prec = _fr(prec)
            items = [p for p in items if p[0] < prec]
        return LocalScalar(self, tuple(items), prec)

    def zero(self, prec=None):
        return self.scalar({}, prec)

    def one(self):
        return self.scalar({0: 1})

    def from_int(self, n):
        return self.scalar({0: self.residue(n)})

    def uniformizer(self):
        return self.scalar({Fraction(1, self.e): 1})

    def from_residue(self, c, v=0):
        return self.scalar({_fr(v): c})

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
        """Parse e.g. "3*t^-1 + 5 + O(t^4)" or "w^-2 + (1+2*s)*w".

        The uniformizer letter is t for unramified fields and w for the
        ramified quadratic extension (val w = 1/2).  Coefficients are
        integers, or (a+b*s) with s the square root of the least
        non-residue when the residue field is quadratic.
        """
        text = text.strip()
        if not text or text == "0":
            return self.zero()
        parts = _split_terms(text)
        terms = {}
        prec = None
        u = self.uname
        for part in parts:
            sign, body = part
            m = re.fullmatch(r"O\(\s*%s(?:\^(-?\d+))?\s*\)" % u, body)
            if m:
                k = int(m.group(1)) if m.group(1) else 1
                p = Fraction(k, self.e)
                prec = p if prec is None else min(prec, p)
                continue
            coeff, exp = self._parse_term(body, u)
            v = Fraction(exp, self.e)
            c = terms.get(v, self.residue.zero) + coeff * sign
            terms[v] = c
        return self.scalar({v: c for v, c in terms.items() if c}, prec)

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
    """A truncated Laurent series.  Immutable.

    terms: sorted tuple of (Fraction valuation, nonzero residue coeff),
    with distinct valuations, so an exact scalar has one `terms`; prec:
    Fraction or None (exact).  All term valuations are < prec.

    When both operands are exact, `==` compares `terms`, a product of two
    monomials is their one product term, a sum with the exact zero is
    the other operand and a sum of two monomials is their two terms in
    order, or one summed term, or the exact zero if they cancel; every
    other case takes the general route below.
    """

    __slots__ = ("field", "terms", "prec")

    def __init__(self, field, terms, prec):
        self.field = field
        self.terms = terms
        self.prec = prec

    # -- queries --------------------------------------------------------

    def is_zero_weak(self):
        """No visible terms (zero or indistinguishable from it)."""
        return not self.terms

    def __bool__(self):
        """False only for the exact zero: an O(t^k) zero is truthy, as
        its value is not known."""
        return bool(self.terms) or self.prec is not None

    def val(self):
        """Valuation as a Fraction; None for exact zero."""
        if self.terms:
            return self.terms[0][0]
        if self.prec is None:
            return None
        raise PrecisionError(
            "valuation indeterminate: zero up to O(t^%s)" % self.prec)

    def val_lower_bound(self):
        if self.terms:
            return self.terms[0][0]
        return self.prec  # None means +infinity

    def residue_at(self, v):
        """Coefficient of t^v (an element of the residue field)."""
        v = _fr(v)
        if self.prec is not None and v >= self.prec:
            raise PrecisionError("coefficient at %s not determined" % v)
        for w, c in self.terms:
            if w == v:
                return c
        return self.field.residue.zero

    def leading(self):
        v = self.val()
        if v is None:
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
        if self.prec is None and o.prec is None:
            if not o.terms:
                return self
            if not self.terms:
                return o
            if len(self.terms) == len(o.terms) == 1:
                # two exact monomials: both terms in order, or their sum
                (v, c), (w, d) = terms = self.terms + o.terms
                if v != w:
                    return LocalScalar(self.field, terms if v < w
                                       else terms[::-1], None)
                c = c + d
                return LocalScalar(self.field, ((v, c),) if c else (), None)
        prec = _min_prec(self.prec, o.prec)
        acc = {}
        for v, c in self.terms + o.terms:
            acc[v] = acc.get(v, self.field.residue.zero) + c
        items = sorted((v, c) for v, c in acc.items() if c)
        if prec is not None:
            items = [p for p in items if p[0] < prec]
        return LocalScalar(self.field, tuple(items), prec)

    __radd__ = __add__

    def __neg__(self):
        return LocalScalar(self.field, tuple((v, -c) for v, c in self.terms),
                           self.prec)

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
        if (self.prec is None and not self.terms) or \
           (o.prec is None and not o.terms):
            return LocalScalar(self.field, (), None)  # exact zero
        if self.prec is None and o.prec is None and \
                len(self.terms) == len(o.terms) == 1:
            # two exact monomials: one nonzero term, residues form a field
            (v1, c1), = self.terms
            (v2, c2), = o.terms
            return LocalScalar(self.field, ((v1 + v2, c1 * c2),), None)
        # precision of the product
        prec = None
        va, vb = self.val_lower_bound(), o.val_lower_bound()
        if self.prec is not None and vb is not None:
            prec = self.prec + vb
        if o.prec is not None and va is not None:
            p2 = o.prec + va
            prec = p2 if prec is None else min(prec, p2)
        acc = {}
        zero = self.field.residue.zero
        for v1, c1 in self.terms:
            for v2, c2 in o.terms:
                v = v1 + v2
                if prec is not None and v >= prec:
                    continue
                acc[v] = acc.get(v, zero) + c1 * c2
        items = sorted((v, c) for v, c in acc.items() if c)
        return LocalScalar(self.field, tuple(items), prec)

    __rmul__ = __mul__

    def inv(self):
        v = self.val()
        if v is None:
            raise ZeroDivisionError("inverse of zero")
        # relative precision available
        if self.prec is not None:
            rel = self.prec - v
        else:
            rel = self.field.DEFAULT_PREC
        lead = self.terms[0][1]
        # self = lead * t^v * (1 + u), val(u) > 0
        linv = self.field.from_residue(lead.inv(), -v)
        u_terms = tuple((w - v, lead.inv() * c) for w, c in self.terms[1:])
        u = LocalScalar(self.field, u_terms, rel)
        # geometric series 1 - u + u^2 - ...  (val u > 0, so it terminates
        # once powers fall below the precision window)
        acc = self.field.one().truncate(rel)
        pw = u
        k = 1
        while pw.terms:
            acc = acc + (pw if k % 2 == 0 else -pw)
            pw = (pw * u).truncate(rel)
            k += 1
        res = (linv * acc)
        if self.prec is None:
            res = res.truncate(rel - v)
        return res

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
        return LocalScalar(f, terms, self.prec)

    def truncate(self, prec):
        prec = _fr(prec)
        if self.prec is not None:
            prec = min(prec, self.prec)
        return LocalScalar(self.field,
                           tuple(p for p in self.terms if p[0] < prec), prec)

    def shift(self, v):
        """Multiply by t^v (v any fraction in (1/e)Z)."""
        v = _fr(v)
        assert (v * self.field.e).denominator == 1
        return LocalScalar(
            self.field, tuple((w + v, c) for w, c in self.terms),
            None if self.prec is None else self.prec + v)

    # -- comparison / display ------------------------------------------

    def __eq__(self, other):
        """Weak equality: no visible difference on the joint window.  Two
        exact scalars of one field are equal when their canonical terms
        are."""
        if type(other) is LocalScalar and other.field is self.field \
                and self.prec is None and other.prec is None:
            return self.terms == other.terms
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.prec is None and o.prec is None:
            return self.terms == o.terms
        return not (self - o).terms

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
        if self.prec is not None:
            k = self.prec * f.e
            kk = int(k) if k.denominator == 1 else k
            bits.append("O(%s^%s)" % (u, kk))
        return " + ".join(bits) if bits else "0"


def _min_prec(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)
