"""Exact scalar arithmetic for involutive fields.

Two domains are supported: Gaussian rationals (conjugation negates the
imaginary part) and odd prime fields (identity involution).  Values are
immutable and kept in canonical form, so equality is structural and
instances are safe to share between threads.

Mixing values from different domains is a hard error, never a coercion;
plain Python ints (and Fractions, for Gaussian rationals) embed into a
domain and are accepted for convenience.
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction
from functools import lru_cache

from .errors import DivisionByZero, DomainMismatch

_FRACTION_RE = re.compile(r"[+-]?\d+(?:/\d+)?\Z")
_INT_RE = re.compile(r"[+-]?\d+\Z")


class GaussianRational:
    """Element of Q(i), stored as (re_num + im_num*i) / den.

    Invariant: den > 0 and gcd(re_num, im_num, den) == 1, so equal values
    have identical representations.  A single shared denominator keeps
    arithmetic in plain integers with one gcd per operation.
    """

    __slots__ = ("re_num", "im_num", "den")

    def __init__(self, re=0, im=0):
        re = Fraction(re)
        im = Fraction(im)
        den = re.denominator * im.denominator // math.gcd(re.denominator, im.denominator)
        self.re_num = re.numerator * (den // re.denominator)
        self.im_num = im.numerator * (den // im.denominator)
        self.den = den

    @classmethod
    def _raw(cls, re_num, im_num, den):
        if den < 0:
            re_num, im_num, den = -re_num, -im_num, -den
        g = math.gcd(re_num, im_num, den)
        if g > 1:
            re_num //= g
            im_num //= g
            den //= g
        z = cls.__new__(cls)
        z.re_num = re_num
        z.im_num = im_num
        z.den = den
        return z

    @property
    def re(self) -> Fraction:
        return Fraction(self.re_num, self.den)

    @property
    def im(self) -> Fraction:
        return Fraction(self.im_num, self.den)

    def conj(self):
        return GaussianRational._raw(self.re_num, -self.im_num, self.den)

    def inv(self):
        """Multiplicative inverse: conj(z) / (z * conj(z))."""
        norm = self.re_num * self.re_num + self.im_num * self.im_num
        if norm == 0:
            raise DivisionByZero("inverse of zero")
        return GaussianRational._raw(self.re_num * self.den, -self.im_num * self.den, norm)

    def is_zero(self) -> bool:
        return self.re_num == 0 and self.im_num == 0

    def _coerced(self, other):
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussianRational(other)
        if isinstance(other, PrimeFieldElement):
            raise DomainMismatch("cannot mix Gaussian rationals with prime field elements")
        return None

    def __add__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return GaussianRational._raw(
            self.re_num * other.den + other.re_num * self.den,
            self.im_num * other.den + other.im_num * self.den,
            self.den * other.den,
        )

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return GaussianRational._raw(
            self.re_num * other.den - other.re_num * self.den,
            self.im_num * other.den - other.im_num * self.den,
            self.den * other.den,
        )

    def __rsub__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return GaussianRational._raw(
            self.re_num * other.re_num - self.im_num * other.im_num,
            self.re_num * other.im_num + self.im_num * other.re_num,
            self.den * other.den,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return other * self.inv()

    def __neg__(self):
        return GaussianRational._raw(-self.re_num, -self.im_num, self.den)

    def __eq__(self, other):
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return (
            self.re_num == other.re_num
            and self.im_num == other.im_num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.re_num, self.im_num, self.den))

    def __bool__(self):
        return not self.is_zero()

    def __str__(self):
        return GAUSSIAN_RATIONAL.format_scalar(self)

    def __repr__(self):
        return f"GaussianRational({self})"


@lru_cache(maxsize=None)
def _check_odd_prime(p):
    if not isinstance(p, int) or p < 3 or p % 2 == 0:
        raise ValueError(f"modulus must be an odd prime, got {p!r}")
    if p > 2**31:
        raise ValueError(f"modulus too large (limit 2**31): {p}")
    d = 3
    while d * d <= p:
        if p % d == 0:
            raise ValueError(f"modulus must be prime, got {p} = {d} * {p // d}")
        d += 2
    return True


class PrimeFieldElement:
    """Element of F_p for an odd prime p; the involution is the identity."""

    __slots__ = ("value", "modulus")

    def __init__(self, value, modulus):
        _check_odd_prime(modulus)
        self.value = value % modulus
        self.modulus = modulus

    def conj(self):
        return self

    def inv(self):
        if self.value == 0:
            raise DivisionByZero(f"inverse of zero in F_{self.modulus}")
        return PrimeFieldElement(pow(self.value, -1, self.modulus), self.modulus)

    def is_zero(self) -> bool:
        return self.value == 0

    def _coerced(self, other):
        if isinstance(other, PrimeFieldElement):
            if other.modulus != self.modulus:
                raise DomainMismatch(
                    f"cannot mix F_{self.modulus} with F_{other.modulus}"
                )
            return other
        if isinstance(other, int):
            return PrimeFieldElement(other, self.modulus)
        if isinstance(other, (GaussianRational, Fraction)):
            raise DomainMismatch("cannot mix prime field elements with rationals")
        return None

    def __add__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return PrimeFieldElement(self.value + other.value, self.modulus)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return PrimeFieldElement(self.value - other.value, self.modulus)

    def __rsub__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return PrimeFieldElement(self.value * other.value, self.modulus)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return other * self.inv()

    def __neg__(self):
        return PrimeFieldElement(-self.value, self.modulus)

    def __eq__(self, other):
        if not isinstance(other, PrimeFieldElement):
            return NotImplemented
        return self.value == other.value and self.modulus == other.modulus

    def __hash__(self):
        return hash((self.value, self.modulus))

    def __bool__(self):
        return self.value != 0

    def __str__(self):
        return str(self.value)

    def __repr__(self):
        return f"PrimeFieldElement({self.value}, {self.modulus})"


def _parse_fraction(text):
    if not _FRACTION_RE.match(text):
        raise ValueError(f"not a rational literal: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


class ScalarDomain:
    """A scalar field together with its involution and string grammar.

    The law checker reads two facts in place of tests of the type:
    whether every matrix over the domain has a Moore-Penrose inverse, and
    a basis of the domain over the scalars its involution fixes."""

    name = "abstract"
    mp_always_exists = False
    real_units = ()

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def coerce(self, value):
        raise NotImplementedError

    def is_element(self, value) -> bool:
        raise NotImplementedError

    def parse(self, text):
        raise NotImplementedError

    def format_scalar(self, value) -> str:
        raise NotImplementedError

    def sample(self, rng):
        """Random small element, deterministic under the given rng."""
        raise NotImplementedError

    def sample_coefficient(self, rng):
        """Random combination coefficient: numerator in [-5, 5], denominator in {1, 2, 3}."""
        raise NotImplementedError

    def row_reduce(self, rows):
        """Reduced row echelon form of equal-length rows of elements.

        Pivots are chosen first-nonzero, scanning columns left to right and
        rows top to bottom.  Returns (reduced rows as lists, pivot columns
        as a tuple).  The RREF of a matrix is unique, so every exact kernel
        returns the same rows."""
        raise NotImplementedError

    def matmul(self, a, b, n, k, m):
        """Entries of the n x m product of the n x k and k x m matrices whose
        row-major entries are a and b.  Each is the exact sum of products,
        so every kernel returns the entries the textbook loop gives."""
        raise NotImplementedError

    def __repr__(self):
        return f"<ScalarDomain {self.name}>"


class GaussianRationalDomain(ScalarDomain):
    name = "gaussian_rational"
    mp_always_exists = True  # Q(i) is formally real: x* x = 0 forces x = 0
    real_units = (GaussianRational(1), GaussianRational(0, 1))

    def zero(self):
        return GaussianRational(0)

    def one(self):
        return GaussianRational(1)

    def coerce(self, value):
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussianRational(value)
        if isinstance(value, str):
            return self.parse(value)
        raise DomainMismatch(f"cannot interpret {value!r} as a Gaussian rational")

    def is_element(self, value):
        return isinstance(value, GaussianRational)

    def parse(self, text):
        """Parse `[-]a/b` or `[-]a/b[+|-]c/d i` with `/1` omissible; `i` alone means 1i."""
        s = text.strip()
        if not s:
            raise ValueError("empty scalar string")
        if not s.endswith("i"):
            return GaussianRational(_parse_fraction(s))
        body = s[:-1]
        split = None
        for k in range(len(body) - 1, 0, -1):
            if body[k] in "+-" and body[k - 1] not in "+-":
                split = k
                break
        if split is None:
            re_part, im_part = "", body
        else:
            re_part, im_part = body[:split], body[split:]
        if im_part in ("", "+"):
            im = Fraction(1)
        elif im_part == "-":
            im = Fraction(-1)
        else:
            im = _parse_fraction(im_part)
        re = _parse_fraction(re_part) if re_part else Fraction(0)
        return GaussianRational(re, im)

    def format_scalar(self, value):
        re, im = value.re, value.im
        if im == 0:
            return _format_fraction(re)
        if re == 0:
            return _format_fraction(im) + "i"
        sign = "+" if im > 0 else "-"
        return _format_fraction(re) + sign + _format_fraction(abs(im)) + "i"

    def sample(self, rng):
        return GaussianRational(_sample_fraction(rng), _sample_fraction(rng))

    def sample_coefficient(self, rng):
        return GaussianRational(_sample_fraction(rng))

    def row_reduce(self, rows):
        """Fraction-free Gauss-Jordan over the Gaussian integers (Bareiss).

        Each row is scaled to Gaussian integers.  For a new pivot q in row r,
        with previous pivot p (1 at the start), every other row x becomes
        (q x - f y) / p, where y is row r and f is x's entry in the pivot
        column.  Every entry then stays a minor of the scaled input, so the
        division is exact and the numbers stay as small as those minors
        (Bareiss, Math. Comp. 1968).  The update must reach every row but r,
        also rows with f = 0, or later divisions are no longer exact.  Last,
        each pivot row is divided by its pivot."""
        re_rows, im_rows = [], []
        for row in rows:
            re_row, im_row, _ = _gaussian_integers(row)
            re_rows.append(re_row)
            im_rows.append(im_row)
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        pivots = []
        pr, pi, norm = 1, 0, 1  # previous pivot and its norm
        for c in range(ncols):
            r = len(pivots)
            k = next((k for k in range(r, nrows) if re_rows[k][c] or im_rows[k][c]), None)
            if k is None:
                continue
            re_rows[r], re_rows[k] = re_rows[k], re_rows[r]
            im_rows[r], im_rows[k] = im_rows[k], im_rows[r]
            yr, yi = re_rows[r], im_rows[r]
            qr, qi = yr[c], yi[c]
            for i in range(nrows):
                if i == r:
                    continue
                xr, xi = re_rows[i], im_rows[i]
                fr, fi = xr[c], xi[c]
                start = pivots[i] if i < r else c
                for j in range(start, ncols):
                    ar = qr * xr[j] - qi * xi[j] - fr * yr[j] + fi * yi[j]
                    ai = qr * xi[j] + qi * xr[j] - fr * yi[j] - fi * yr[j]
                    xr[j] = (ar * pr + ai * pi) // norm
                    xi[j] = (ai * pr - ar * pi) // norm
            pivots.append(c)
            pr, pi, norm = qr, qi, qr * qr + qi * qi
            if len(pivots) == nrows:
                break
        raw = GaussianRational._raw
        zero = raw(0, 0, 1)
        out = []
        for t, (xr, xi) in enumerate(zip(re_rows, im_rows)):
            if t >= len(pivots):
                out.append([zero] * ncols)
                continue
            dr, di = xr[pivots[t]], xi[pivots[t]]
            dn = dr * dr + di * di
            out.append([raw(a * dr + b * di, b * dr - a * di, dn) if a or b else zero
                        for a, b in zip(xr, xi)])
        return out, tuple(pivots)

    def matmul(self, a, b, n, k, m):
        """Dot products of Gaussian integers.

        Each row of a and each column of b is scaled to Gaussian integers by
        the lcm of its denominators.  Entry (i, j) accumulates the integer
        real and imaginary parts over the nonzero entries of row i, and one
        `GaussianRational._raw` over the product of the two denominators
        puts it in canonical form."""
        raw = GaussianRational._raw
        cols = [_gaussian_integers(b[j::m]) for j in range(m)]
        out = []
        for i in range(n):
            xr, xi, x_den = _gaussian_integers(a[i * k : (i + 1) * k])
            nonzero = [(t, xr[t], xi[t]) for t in range(k) if xr[t] or xi[t]]
            for yr, yi, y_den in cols:
                re = im = 0
                for t, ar, ai in nonzero:
                    br, bi = yr[t], yi[t]
                    re += ar * br - ai * bi
                    im += ar * bi + ai * br
                out.append(raw(re, im, x_den * y_den))
        return out

    def __eq__(self, other):
        return isinstance(other, GaussianRationalDomain)

    def __hash__(self):
        return hash(self.name)


class PrimeFieldDomain(ScalarDomain):
    def __init__(self, p):
        _check_odd_prime(p)
        self.p = p
        self.name = f"prime_field({p})"
        self.real_units = (self.one(),)  # the involution is the identity

    def zero(self):
        return PrimeFieldElement(0, self.p)

    def one(self):
        return PrimeFieldElement(1, self.p)

    def coerce(self, value):
        if isinstance(value, PrimeFieldElement):
            if value.modulus != self.p:
                raise DomainMismatch(f"element of F_{value.modulus} is not in F_{self.p}")
            return value
        if isinstance(value, int):
            return PrimeFieldElement(value, self.p)
        if isinstance(value, str):
            return self.parse(value)
        raise DomainMismatch(f"cannot interpret {value!r} as an element of F_{self.p}")

    def is_element(self, value):
        return isinstance(value, PrimeFieldElement) and value.modulus == self.p

    def parse(self, text):
        s = text.strip()
        if not _INT_RE.match(s):
            raise ValueError(f"not a prime field literal: {text!r}")
        return PrimeFieldElement(int(s), self.p)

    def format_scalar(self, value):
        return str(value.value)

    def sample(self, rng):
        return PrimeFieldElement(rng.randrange(self.p), self.p)

    def sample_coefficient(self, rng):
        num = rng.randint(-5, 5)
        den = rng.choice([d for d in (1, 2, 3) if d % self.p != 0])
        return PrimeFieldElement(num, self.p) / PrimeFieldElement(den, self.p)

    def row_reduce(self, rows):
        """Gauss-Jordan on plain ints mod p, one modular inverse per pivot;
        elements are built only for the result, one per distinct value."""
        p = self.p
        m = [[z.value for z in row] for row in rows]
        ncols = len(m[0]) if m else 0
        pivots = []
        for c in range(ncols):
            r = len(pivots)
            k = next((k for k in range(r, len(m)) if m[k][c]), None)
            if k is None:
                continue
            m[r], m[k] = m[k], m[r]
            inv = pow(m[r][c], -1, p)
            y = m[r] = [v * inv % p for v in m[r]]
            for i, x in enumerate(m):
                f = x[c]
                if f and i != r:
                    m[i] = [(a - f * b) % p for a, b in zip(x, y)]
            pivots.append(c)
            if len(pivots) == len(m):
                break
        element = {v: PrimeFieldElement(v, p) for v in {v for row in m for v in row}}
        return [[element[v] for v in row] for row in m], tuple(pivots)

    def matmul(self, a, b, n, k, m):
        """Dot products of plain ints, reduced mod p once per entry;
        elements are built one per distinct value."""
        p = self.p
        cols = [[z.value for z in b[j::m]] for j in range(m)]
        values = []
        for i in range(n):
            row = [z.value for z in a[i * k : (i + 1) * k]]
            values.extend(sum(map(operator.mul, row, col)) % p for col in cols)
        element = {v: PrimeFieldElement(v, p) for v in set(values)}
        return [element[v] for v in values]

    def __eq__(self, other):
        return isinstance(other, PrimeFieldDomain) and other.p == self.p

    def __hash__(self):
        return hash((self.name, self.p))


def _gaussian_integers(values):
    """(real parts, imaginary parts, lcm of the denominators) of Gaussian
    rationals scaled by that lcm; the parts are plain ints."""
    den = math.lcm(*(z.den for z in values))
    return ([z.re_num * (den // z.den) for z in values],
            [z.im_num * (den // z.den) for z in values], den)


def _format_fraction(f: Fraction) -> str:
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def _sample_fraction(rng) -> Fraction:
    return Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3)))


GAUSSIAN_RATIONAL = GaussianRationalDomain()


@lru_cache(maxsize=None)
def prime_field(p) -> PrimeFieldDomain:
    return PrimeFieldDomain(p)
