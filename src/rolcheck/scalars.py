"""Exact scalar arithmetic for involutive fields.

Two domains are supported: Gaussian rationals (conjugation negates the
imaginary part) and odd prime fields (identity involution).  Values are
immutable and kept in canonical form, so equality is structural and
instances are safe to share between threads.

Mixing values from different domains is a hard error, never a coercion;
plain Python ints (and Fractions, for Gaussian rationals) embed into a
domain and are accepted for convenience.

Each domain also has an integer form for a whole matrix, which
`matrices.Matrix` stores in place of its scalars, and the operations on
it that matrix arithmetic runs on.  Over Q(i) the form is (re, im, d):
the real and imaginary numerators of every entry, row-major, over one
common denominator d, with d > 0 and gcd(d, all numerators) = 1.  That
condition makes d the lcm of the entries' own denominators, so the form
is unique and equal matrices have equal forms.  Putting a form right
costs one gcd over the whole matrix, not one per entry.  Over F_p the form is
the entry values, ints in [0, p).  Scalars are built from a form only
when an entry is read.

F_p's products and row reductions, the weight certificate and the residue
ranks run on two kernels over ints mod p, `matmul_mod` and
`row_reduce_mod`.  Where every number they form fits in one byte, they run
on packed bytes, so that CPython's big-int and bytes operations do the
per-entry work in C: a product when k (p - 1)**2 < 256 for inner size k,
a row reduction when p * p <= 256.  Every wider modulus, the Q(i) residue
prime among them, runs the loops.  Both paths return the same ints.
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction
from functools import lru_cache

from .errors import DivisionByZero, DomainMismatch

# [0-9], not \d: \d also matches the digits of other scripts, which int()
# and Fraction() accept.
_FRACTION_RE = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?\Z")
_INT_RE = re.compile(r"[+-]?[0-9]+\Z")

# Q(i) residues live in F_P.  Since P = 1 (mod 4), -1 has a square root _I
# mod P, and re + im i -> re + _I im is a ring map from Z[i] onto F_P.
# P < 2**15 keeps every product of two residues within one CPython digit.
_P = 32749
_I = 15645  # _I * _I = -1 (mod _P)


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

    The law checker reads three facts in place of tests of the type:
    whether every matrix over the domain has a Moore-Penrose inverse, a
    basis of the domain over the scalars its involution fixes, and whether
    `residues` gives the element values themselves, so that the rank of an
    image is the matrix's rank and not only a lower bound.

    Matrices hold the domain's form (module docstring) and compute on it
    with the form operations: to_form(entries) and form_entries(form),
    which converts back to canonical elements, identity_form(n),
    form_add(x, y), form_neg(x), form_scale(x, coeff) by an element,
    form_star(x, rows, cols), the conjugate transpose, form_select(forms,
    index), the entries at `index` of the forms laid end to end,
    form_is_zero(x), row_reduce and matmul.  A random matrix is drawn
    straight as a form, by sample_form(rng, count)."""

    name = "abstract"
    mp_always_exists = False
    real_units = ()
    residues_are_values = False

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

    def json_tag(self):
        """The domain's tag in matrix JSON, a fresh value per call."""
        raise NotImplementedError

    def sample_form(self, rng, count):
        """The form of `count` random small entries, row-major,
        deterministic under the given rng."""
        raise NotImplementedError

    def sample(self, rng):
        """Random small element: the one entry of a `sample_form` draw, so
        an element and a matrix entry are drawn by the same rng calls."""
        return self.form_entries(self.sample_form(rng, 1))[0]

    def sample_coefficient(self, rng):
        """Random combination coefficient: numerator in [-5, 5], denominator in {1, 2, 3}."""
        raise NotImplementedError

    def row_reduce(self, x, rows, cols):
        """Reduced row echelon form of the rows x cols matrix x.

        Pivots are chosen first-nonzero, scanning columns left to right and
        rows top to bottom.  Returns (form, pivot columns as a tuple).  The
        RREF of a matrix is unique, so every exact kernel returns the same
        form."""
        raise NotImplementedError

    def matmul(self, x, y, n, k, m):
        """The n x m product of the n x k matrix x and the k x m matrix y.
        Each entry is the exact sum of products, so every kernel returns
        the form of the entries the textbook loop gives."""
        raise NotImplementedError

    def residues(self, forms):
        """(images, q): each matrix form as its row-major ints mod the prime
        q.  A matrix is scaled by a nonzero element, then sent through a ring
        map to F_q, so the rank of an image never exceeds the matrix's."""
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

    def json_tag(self):
        return "gaussian_rational"

    def sample_form(self, rng, count):
        """Real, then imaginary part of each entry, each a numerator in
        [-5, 5] over a denominator in {1, 2, 3}, put over 6."""
        re, im = [], []
        for _ in range(count):
            re.append(_sample_sixths(rng))
            im.append(_sample_sixths(rng))
        return _canonical(re, im, 6)

    def sample_coefficient(self, rng):
        return GaussianRational._raw(_sample_sixths(rng), 0, 6)

    def to_form(self, entries):
        d = math.lcm(*(z.den for z in entries))
        return _canonical([z.re_num * (d // z.den) for z in entries],
                          [z.im_num * (d // z.den) for z in entries], d)

    def form_entries(self, form):
        re, im, d = form
        raw = GaussianRational._raw
        return tuple(raw(a, b, d) for a, b in zip(re, im))

    def identity_form(self, n):
        return _identity(n), (0,) * (n * n), 1

    def form_add(self, x, y):
        xr, xi, xd = x
        yr, yi, yd = y
        d = math.lcm(xd, yd)
        sx, sy = d // xd, d // yd
        return _canonical([a * sx + b * sy for a, b in zip(xr, yr)],
                          [a * sx + b * sy for a, b in zip(xi, yi)], d)

    def form_neg(self, x):
        re, im, d = x
        return tuple(-a for a in re), tuple(-b for b in im), d

    def form_scale(self, x, coeff):
        re, im, d = x
        cr, ci = coeff.re_num, coeff.im_num
        return _canonical([a * cr - b * ci for a, b in zip(re, im)],
                          [a * ci + b * cr for a, b in zip(re, im)], d * coeff.den)

    def form_star(self, x, rows, cols):
        re, im, d = x
        return _transpose(re, rows, cols), tuple(-b for b in _transpose(im, rows, cols)), d

    def form_select(self, forms, index):
        d = math.lcm(*(f[2] for f in forms))
        re, im = [], []
        for xr, xi, xd in forms:
            s = d // xd
            re += [a * s for a in xr]
            im += [b * s for b in xi]
        return _canonical([re[t] for t in index], [im[t] for t in index], d)

    def form_is_zero(self, x):
        return not any(x[0]) and not any(x[1])

    def row_reduce(self, x, rows, cols):
        """Fraction-free Gauss-Jordan over the Gaussian integers (Bareiss).

        It runs on the numerators: the common denominator scales every row
        alike, which leaves the RREF as it is.  For a new pivot q in row r,
        with previous pivot p (1 at the start), every other row x becomes
        (q x - f y) / p, where y is row r and f is x's entry in the pivot
        column.  Every entry then stays a minor of the numerators, so the
        division is exact and the numbers stay as small as those minors
        (Bareiss, Math. Comp. 1968).  The update must reach every row but r,
        also rows with f = 0, or later divisions are no longer exact.  It
        turns each earlier pivot p into q p / p = q, so at the end every
        pivot equals the last one, and the RREF is the rows over it."""
        re, im, _ = x
        re_rows = [list(re[i * cols : (i + 1) * cols]) for i in range(rows)]
        im_rows = [list(im[i * cols : (i + 1) * cols]) for i in range(rows)]
        pivots = []
        pr, pi, norm = 1, 0, 1  # previous pivot and its norm
        for c in range(cols):
            r = len(pivots)
            k = next((k for k in range(r, rows) if re_rows[k][c] or im_rows[k][c]), None)
            if k is None:
                continue
            re_rows[r], re_rows[k] = re_rows[k], re_rows[r]
            im_rows[r], im_rows[k] = im_rows[k], im_rows[r]
            yr, yi = re_rows[r], im_rows[r]
            qr, qi = yr[c], yi[c]
            for i in range(rows):
                if i == r:
                    continue
                xr, xi = re_rows[i], im_rows[i]
                fr, fi = xr[c], xi[c]
                start = pivots[i] if i < r else c
                for j in range(start, cols):
                    ar = qr * xr[j] - qi * xi[j] - fr * yr[j] + fi * yi[j]
                    ai = qr * xi[j] + qi * xr[j] - fr * yi[j] - fi * yr[j]
                    xr[j] = (ar * pr + ai * pi) // norm
                    xi[j] = (ai * pr - ar * pi) // norm
            pivots.append(c)
            pr, pi, norm = qr, qi, qr * qr + qi * qi
            if len(pivots) == rows:
                break
        # Rows below the rank are zero.  Dividing by the last pivot p is
        # multiplying by conj(p) over the denominator |p|^2.
        out_re, out_im = [], []
        for xr, xi in zip(re_rows, im_rows):
            out_re += [a * pr + b * pi for a, b in zip(xr, xi)]
            out_im += [b * pr - a * pi for a, b in zip(xr, xi)]
        return _canonical(out_re, out_im, norm), tuple(pivots)

    def matmul(self, x, y, n, k, m):
        """Dot products of the numerators, over the product of the two
        denominators.  With s = re + im, the imaginary part of each entry is
        (sum of s s') - (sum of re re') - (sum of im im'), so an entry takes
        three integer dot products, not four."""
        xr, xi, xd = x
        yr, yi, yd = y
        mul, add = operator.mul, operator.add
        cols = [(yr[j::m], yi[j::m], list(map(add, yr[j::m], yi[j::m]))) for j in range(m)]
        re, im = [], []
        for i in range(n):
            ar, ai = xr[i * k : (i + 1) * k], xi[i * k : (i + 1) * k]
            asum = list(map(add, ar, ai))
            for br, bi, bsum in cols:
                rr = sum(map(mul, ar, br))
                ii = sum(map(mul, ai, bi))
                re.append(rr - ii)
                im.append(sum(map(mul, asum, bsum)) - rr - ii)
        return _canonical(re, im, xd * yd)

    def residues(self, forms):
        """The numerators, that is the matrix scaled by its denominator, sent
        to F_P by re + im i -> re + _I im."""
        return [[(a + _I * b) % _P for a, b in zip(re, im)] for re, im, _ in forms], _P

    def __eq__(self, other):
        return isinstance(other, GaussianRationalDomain)

    def __hash__(self):
        return hash(self.name)


@lru_cache(maxsize=None)
def _mod_table(p):
    """The 256-byte table that `bytes.translate` uses to send each byte v
    to v % p."""
    return bytes(v % p for v in range(256))


def row_reduce_mod(rows, p):
    """Gauss-Jordan mod the prime p on equal-length rows of ints in [0, p),
    with first-nonzero pivots and one modular inverse per pivot.  Returns
    (reduced rows as lists, pivot columns as a tuple); the rows passed in
    are not changed.  F_p's `row_reduce` and the weight certificate in
    peirce both run on it.

    When p * p <= 256, that is p <= 13, `_row_reduce_bytes` holds each
    row as a byte string, which read as a little-endian int is the sum of
    its entries times 256**j.  The pivot row y becomes y * inv, at most
    (p - 1)**2 in each byte.  Another row x with entry f in the pivot
    column becomes x + f (P - y), with P = p in every byte: mod p that is
    x - f y, and as y <= p - 1 each byte of P - y lies in [1, p], so none
    borrows, and each byte of the sum is at most p - 1 + (p - 1) p =
    p * p - 1, so none carries.  A table (`_mod_table`) then reduces every
    byte.  Every wider modulus runs `_row_reduce_loop`.  Both give the
    same rows and pivots."""
    if p * p <= 256:
        return _row_reduce_bytes(rows, p)
    return _row_reduce_loop(rows, p)


def _row_reduce_loop(rows, p):
    """`row_reduce_mod` entry by entry, for any prime."""
    m = list(rows)
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
    return m, tuple(pivots)


def _row_reduce_bytes(rows, p):
    """`row_reduce_mod` on rows held as byte strings, for p * p <= 256."""
    m = [bytes(row) for row in rows]
    ncols = len(m[0]) if m else 0
    table = _mod_table(p)
    full = int.from_bytes(bytes((p,)) * ncols, "little")
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        k = next((k for k in range(r, len(m)) if m[k][c]), None)
        if k is None:
            continue
        m[r], m[k] = m[k], m[r]
        scaled = int.from_bytes(m[r], "little") * pow(m[r][c], -1, p)
        y = m[r] = scaled.to_bytes(ncols, "little").translate(table)
        negated = full - int.from_bytes(y, "little")
        for i, x in enumerate(m):
            f = x[c]
            if f and i != r:
                m[i] = (int.from_bytes(x, "little") + f * negated).to_bytes(
                    ncols, "little").translate(table)
        pivots.append(c)
        if len(pivots) == len(m):
            break
    return [list(row) for row in m], tuple(pivots)


def columns(b, m):
    """The m columns of the matrix whose row-major entries are b, as the
    right operand of `matmul_columns_mod`."""
    return [b[j::m] for j in range(m)]


def matmul_columns_mod(a, cols, n, k, p):
    """Row-major ints in [0, p) of the product of the n x k matrix of ints
    whose row-major entries are a and the k-row matrix whose `columns` are
    cols: dot products of plain ints, reduced mod p once per entry.  A
    caller that multiplies by one matrix many times slices it once."""
    return [sum(map(operator.mul, a[i * k : (i + 1) * k], col)) % p
            for i in range(n) for col in cols]


def matmul_mod(a, b, n, k, m, p):
    """Row-major ints in [0, p) of the n x m product of the n x k and k x m
    matrices of ints whose row-major entries are a and b.  F_p's `matmul`
    and the weight certificate in peirce both run on it.

    When n, k, m > 0 and k (p - 1)**2 < 256, `_matmul_bytes` forms every
    entry in one integer product (Kronecker substitution).  With w = 2k - 1
    bytes per entry, row i of a is laid out in order from byte i m w, and
    column j of b reversed from byte j w.  In the product of the two, as
    little-endian ints, a[i, t] b[t', j] lands in byte (i m + j) w + d with
    d = k - 1 + t - t' in [0, w); as j < m, each byte has one (i, j, d),
    so byte (k - 1) + (i m + j) w, where t = t', is the sum over t of
    a[i, t] b[t, j].  No byte holds more than k products of two ints in
    [0, p), at most k (p - 1)**2 < 256, so none carries into the next; one
    strided slice reads the n m entries, and `_mod_table` reduces them.
    Otherwise the product is `matmul_columns_mod` on the columns of b."""
    if n and k and m and k * (p - 1) ** 2 < 256:
        return _matmul_bytes(a, b, n, k, m, p)
    return matmul_columns_mod(a, columns(b, m), n, k, p)


def _matmul_bytes(a, b, n, k, m, p):
    """`matmul_mod` on packed bytes, for n, k, m > 0 and k (p - 1)**2 < 256."""
    w = 2 * k - 1
    rows = bytes(a)
    x = bytes(m * w - k).join([rows[i : i + k] for i in range(0, n * k, k)])
    flipped = bytes(b[::-1])  # column m - 1 - j of b, reversed, is flipped[j::m]
    y = bytes(k - 1).join([flipped[j::m] for j in range(m - 1, -1, -1)])
    product = int.from_bytes(x, "little") * int.from_bytes(y, "little")
    return list(product.to_bytes(n * m * w, "little")[k - 1 :: w].translate(_mod_table(p)))


class PrimeFieldDomain(ScalarDomain):
    residues_are_values = True  # residues returns the forms, the values

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

    def json_tag(self):
        return {"prime_field": self.p}

    def sample_form(self, rng, count):
        p = self.p
        return tuple(rng.randrange(p) for _ in range(count))

    def sample_coefficient(self, rng):
        num = rng.randint(-5, 5)
        den = rng.choice([d for d in (1, 2, 3) if d % self.p != 0])
        return PrimeFieldElement(num, self.p) / PrimeFieldElement(den, self.p)

    def to_form(self, entries):
        return tuple(z.value for z in entries)

    def form_entries(self, form):
        p = self.p
        return tuple(PrimeFieldElement(v, p) for v in form)

    def identity_form(self, n):
        return _identity(n)

    def form_add(self, x, y):
        p = self.p
        return tuple((a + b) % p for a, b in zip(x, y))

    def form_neg(self, x):
        p = self.p
        return tuple(-a % p for a in x)

    def form_scale(self, x, coeff):
        p, c = self.p, coeff.value
        return tuple(c * a % p for a in x)

    def form_star(self, x, rows, cols):
        return _transpose(x, rows, cols)

    def form_select(self, forms, index):
        values = [v for f in forms for v in f]
        return tuple(values[t] for t in index)

    def form_is_zero(self, x):
        return not any(x)

    def row_reduce(self, x, rows, cols):
        """`row_reduce_mod` on the values."""
        m, pivots = row_reduce_mod([x[i * cols : (i + 1) * cols] for i in range(rows)], self.p)
        return tuple(v for row in m for v in row), pivots

    def matmul(self, x, y, n, k, m):
        """`matmul_mod` on the values."""
        return tuple(matmul_mod(x, y, n, k, m, self.p))

    def residues(self, forms):
        """The forms themselves, the element values: the map is the identity."""
        return list(forms), self.p

    def __eq__(self, other):
        return isinstance(other, PrimeFieldDomain) and other.p == self.p

    def __hash__(self):
        return hash((self.name, self.p))


def _identity(n):
    """The row-major ints of the n x n identity."""
    values = [0] * (n * n)
    values[:: n + 1] = [1] * n
    return tuple(values)


def _transpose(values, rows, cols):
    return tuple(values[i * cols + j] for j in range(cols) for i in range(rows))


def _canonical(re, im, d):
    """The Q(i) form of the entries (re + im i) / d, for d > 0: one gcd,
    which stops early once it reaches 1, divides out every common factor."""
    g = math.gcd(d, *re, *im)
    if g == 1:
        return tuple(re), tuple(im), d
    return tuple(a // g for a in re), tuple(b // g for b in im), d // g


def _format_fraction(f: Fraction) -> str:
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def _sample_sixths(rng) -> int:
    """Sixths in a random small fraction: a numerator in [-5, 5], then a
    denominator in {1, 2, 3}."""
    return rng.randint(-5, 5) * (6 // rng.choice((1, 2, 3)))


GAUSSIAN_RATIONAL = GaussianRationalDomain()


@lru_cache(maxsize=None)
def prime_field(p) -> PrimeFieldDomain:
    return PrimeFieldDomain(p)
