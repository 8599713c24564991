"""Dense exact matrices over an involutive scalar domain.

Matrices are immutable, row-major, and sized for desk-scale work (the
harness caps instances at 8x8).  The involution `star` is the conjugate
transpose; over prime fields it degenerates to the plain transpose.
Zero-dimension matrices (n x 0, 0 x m) are first class: they arise as
the factors of a rank-0 matrix and their products are zero matrices of
the appropriate shape.

A matrix stores its domain's integer form (`scalars` module docstring),
not scalar objects: over Q(i), the Gaussian-integer numerators of its
entries over one denominator, over F_p, the entry values.  The form is
unique, so `==` compares forms.  `entries` is a view built from the form,
once, on first read; it holds the same canonical scalars the textbook
loops give.  Every other operation runs on the form through the domain's
form operations, and a result built that way skips the element checks
the constructor makes on entries from outside.

Ranks, factorizations, kernels and inverses all go through `rref`, which
hands the elimination to the domain's exact kernel
(`ScalarDomain.row_reduce`): fraction-free Gauss-Jordan on the numerators
for Q(i), Gauss-Jordan on ints mod p for F_p.  The RREF is unique, so the
kernel choice never changes a result.  Products (`@`) go to the domain's
`ScalarDomain.matmul` in the same way: integer dot products of the
numerators for Q(i), plain int dot products reduced once per entry for
F_p.

`Pending` records `@`, `+` and `-` of matrices without forming them, so
that `==`, `is_zero()` and `is_hermitian()` can first refute an identity
on a probe vector.  The probe runs mod a prime q, on each leaf's image
through its domain's ring map to F_q, with `scalars.matmul_columns_mod`
matrix-vector products, one path for both domains; an identity the probe
cannot refute is formed and compared exactly.  The laws' statement
evaluators and the Penrose equations (3) and (4) of their memberships
run on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import add, matmul, sub

from .errors import DimensionMismatch, DomainMismatch, Singular
from .scalars import GAUSSIAN_RATIONAL, ScalarDomain, columns, matmul_columns_mod, prime_field


class Matrix:
    # _factors is None, except on a matrix harness.random_matrix_of_rank
    # returns: there it is the RankFactorization(u, v, r) the matrix was
    # drawn as, u v, with rank r proved.  geninv's MacDuffee formula uses it
    # in place of the RREF factorization; no operation passes it on, and it
    # takes no part in == or in the JSON form.
    __slots__ = ("rows", "cols", "domain", "form", "_entries", "_factors")

    def __init__(self, rows, cols, domain, entries):
        entries = tuple(entries)
        if rows < 0 or cols < 0 or len(entries) != rows * cols:
            raise DimensionMismatch(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}"
            )
        for e in entries:
            if not domain.is_element(e):
                raise DomainMismatch(f"entry {e!r} does not belong to {domain.name}")
        self.rows = rows
        self.cols = cols
        self.domain = domain
        self.form = domain.to_form(entries)
        self._entries = entries
        self._factors = None

    @classmethod
    def _of(cls, rows, cols, domain, form):
        """A matrix with the given form, which the domain's form operations
        made; its entries are built when first read."""
        m = cls.__new__(cls)
        m.rows = rows
        m.cols = cols
        m.domain = domain
        m.form = form
        m._entries = None
        m._factors = None
        return m

    @property
    def entries(self):
        if self._entries is None:
            self._entries = self.domain.form_entries(self.form)
        return self._entries

    @property
    def shape(self):
        return (self.rows, self.cols)

    def _same_domain(self, other):
        if self.domain != other.domain:
            raise DomainMismatch(f"{self.domain.name} vs {other.domain.name}")

    def _same_shape(self, other, op):
        """Whether other is a Matrix, raising if it is but its domain or
        shape differs."""
        if not isinstance(other, Matrix):
            return False
        self._same_domain(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch(f"{self.shape} {op} {other.shape}")
        return True

    @classmethod
    def from_rows(cls, rows, domain):
        """Build from a list of row lists; entries are coerced into the domain."""
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        flat = []
        for row in rows:
            if len(row) != ncols:
                raise DimensionMismatch("ragged rows")
            flat.extend(domain.coerce(v) for v in row)
        return cls(nrows, ncols, domain, flat)

    @classmethod
    def zeros(cls, rows, cols, domain):
        z = domain.zero()
        return cls(rows, cols, domain, [z] * (rows * cols))

    @classmethod
    def identity(cls, n, domain):
        return cls._of(n, n, domain, domain.identity_form(n))

    def __getitem__(self, key):
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(key)
        return self.entries[i * self.cols + j]

    def row(self, i):
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def __add__(self, other):
        if not self._same_shape(other, "+"):
            return NotImplemented
        return Matrix._of(self.rows, self.cols, self.domain,
                          self.domain.form_add(self.form, other.form))

    def __sub__(self, other):
        if not self._same_shape(other, "-"):
            return NotImplemented
        domain = self.domain
        return Matrix._of(self.rows, self.cols, domain,
                          domain.form_add(self.form, domain.form_neg(other.form)))

    def __neg__(self):
        return Matrix._of(self.rows, self.cols, self.domain, self.domain.form_neg(self.form))

    def __matmul__(self, other):
        """Matrix product by the domain's exact kernel, `ScalarDomain.matmul`:
        integer dot products of the numerators for Q(i), plain ints reduced
        mod p for F_p."""
        if not isinstance(other, Matrix):
            return NotImplemented
        self._same_domain(other)
        if self.cols != other.rows:
            raise DimensionMismatch(f"{self.shape} @ {other.shape}")
        n, k, m = self.rows, self.cols, other.cols
        return Matrix._of(n, m, self.domain, self.domain.matmul(self.form, other.form, n, k, m))

    def scale(self, coeff):
        domain = self.domain
        return Matrix._of(self.rows, self.cols, domain,
                          domain.form_scale(self.form, domain.coerce(coeff)))

    def star(self):
        """Conjugate transpose: the ring involution, star(A*B) = star(B)*star(A)."""
        return Matrix._of(self.cols, self.rows, self.domain,
                          self.domain.form_star(self.form, self.rows, self.cols))

    def is_zero(self):
        return self.domain.form_is_zero(self.form)

    def is_hermitian(self):
        return (self.rows == self.cols
                and self.domain.form_star(self.form, self.rows, self.cols) == self.form)

    def is_identity(self):
        return self.rows == self.cols and self.form == self.domain.identity_form(self.rows)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.domain == other.domain
                and self.rows == other.rows
                and self.cols == other.cols
                and self.form == other.form)

    def __str__(self):
        fmt = self.domain.format_scalar
        return "[" + "; ".join(" ".join(fmt(v) for v in self.row(i))
                               for i in range(self.rows)) + "]"

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols} over {self.domain.name}: {self})"


@lru_cache(maxsize=32)
def _probe(n: int, q: int) -> tuple:
    """(1, 2, ..., n) mod q, the probe of every Pending with n columns and
    images mod q."""
    return tuple(i % q for i in range(1, n + 1))


class _NoImage(Exception):
    """A leaf's entries lie outside the domain's ring map (`form_image`)."""


def _refuted(left, right) -> bool:
    """Whether the images left() and right() differ, which refutes
    left = right exactly.  Images that agree, or a leaf with no image,
    decide nothing, and the answer is False."""
    try:
        return left() != right()
    except _NoImage:
        return False


class Pending:
    """A matrix expression whose n x n products are formed only when needed.

    A node is a leaf holding a formed Matrix, or (op, left, right) for
    `@`, `+` or `-` of two nodes of one domain, whose shapes it checks as
    Matrix does; `@` associates as written, so a node records the order in
    which its products would be formed.  `value()` forms the node's matrix
    in that order.

    `==`, `is_zero()` and `is_hermitian()` first compare images of the
    probe v = (1, 2, ..., n)^T, ints mod q, through the domain's ring map
    to F_q (`ScalarDomain.form_image`): the values over F_p, and the
    numerators times d^-1 mod P over Q(i).  `image()` is the image of
    M v, taken right to left, (x @ y) v = x (y v) and (x +- y) v = x v +-
    y v, with `scalars.matmul_columns_mod` on each leaf's image rows, so
    no n x n product is formed.  `image(star=True)` is the image of M* v,
    taken the same way through M* = y* x*, with each leaf's star imaged
    through the map after the involution (`form_image` with conjugate).
    A ring map sends equal matrices to equal images and a hermitian M to
    equal images of M v and M* v, so images that differ refute the
    comparison exactly.  Images that agree prove nothing, and a leaf
    whose denominator is 0 mod q has no image: then the matrices are
    formed and compared exactly.  The formed value, the images and each
    leaf's image rows are kept once computed."""

    __slots__ = ("rows", "cols", "domain", "_op", "_left", "_right", "_value", "_images",
                 "_leaf_rows")

    shape = Matrix.shape
    _same_domain = Matrix._same_domain

    def __init__(self, value: Matrix):
        self.rows, self.cols, self.domain = value.rows, value.cols, value.domain
        self._op = self._left = self._right = None
        self._value = value
        self._images = [None, None]
        self._leaf_rows = [None, None]

    def _node(self, op, other, rows, cols):
        node = Pending.__new__(Pending)
        node.rows, node.cols, node.domain = rows, cols, self.domain
        node._op, node._left, node._right = op, self, other
        node._value = None
        node._images = [None, None]
        return node

    def __matmul__(self, other):
        if not isinstance(other, Pending):
            return NotImplemented
        self._same_domain(other)
        if self.cols != other.rows:
            raise DimensionMismatch(f"{self.shape} @ {other.shape}")
        return self._node(matmul, other, self.rows, other.cols)

    def _sum(self, op, other, sign):
        if not isinstance(other, Pending):
            return NotImplemented
        self._same_domain(other)
        if self.shape != other.shape:
            raise DimensionMismatch(f"{self.shape} {sign} {other.shape}")
        return self._node(op, other, self.rows, self.cols)

    def __add__(self, other):
        return self._sum(add, other, "+")

    def __sub__(self, other):
        return self._sum(sub, other, "-")

    def value(self) -> Matrix:
        if self._value is None:
            self._value = self._op(self._left.value(), self._right.value())
        return self._value

    def _rows_of(self, star):
        """The rows of this leaf's image, or with star of its star's image
        (the columns of its conjugate image), through the domain's ring
        map to F_q; kept."""
        rows = self._leaf_rows[star]
        if rows is None:
            image = self.domain.form_image(self._value.form, star)
            if image is None:
                raise _NoImage
            m, n = self.rows, self.cols
            rows = columns(image, n) if star else [image[i * n : (i + 1) * n] for i in range(m)]
            self._leaf_rows[star] = rows
        return rows

    def _combine(self, x, y):
        q = self.domain.image_prime
        return [v % q for v in map(self._op, x, y)]

    def _times(self, v, star):
        """The image of this node's matrix, or with star of its star, times
        the column v: (x @ y) v = x (y v) and (x @ y)* v = y* (x* v)."""
        if self._op is None:
            return matmul_columns_mod(v, self._rows_of(star), 1, len(v), self.domain.image_prime)
        if self._op is matmul:
            first, last = (self._left, self._right) if star else (self._right, self._left)
            return last._times(first._times(v, star), star)
        return self._combine(self._left._times(v, star), self._right._times(v, star))

    def image(self, star=False) -> list:
        """The image of M v, or with star of M* v, for the probe v of M's
        columns (M*'s); kept.  It raises _NoImage where a leaf has none."""
        image = self._images[star]
        if image is None:
            if self._op is None:
                n = self.rows if star else self.cols
                image = self._times(_probe(n, self.domain.image_prime), star)
            elif self._op is matmul:
                first, last = (self._left, self._right) if star else (self._right, self._left)
                image = last._times(first.image(star), star)
            else:
                image = self._combine(self._left.image(star), self._right.image(star))
            self._images[star] = image
        return image

    def is_zero(self):
        return not _refuted(self.image, lambda: [0] * self.rows) and self.value().is_zero()

    def is_hermitian(self):
        return (self.rows == self.cols and not _refuted(self.image, lambda: self.image(True))
                and self.value().is_hermitian())

    def __eq__(self, other):
        """Equality, as Matrix.__eq__: False across domains and shapes."""
        if isinstance(other, Matrix):
            other = Pending(other)
        elif not isinstance(other, Pending):
            return NotImplemented
        if self.domain != other.domain or self.shape != other.shape:
            return False
        return not _refuted(self.image, other.image) and self.value() == other.value()


def _select(matrices, rows, cols, index) -> Matrix:
    """The rows x cols matrix of the entries at `index` of the matrices'
    entries laid end to end."""
    domain = matrices[0].domain
    return Matrix._of(rows, cols, domain, domain.form_select([m.form for m in matrices], index))


def rref(a: Matrix):
    """Reduced row echelon form with first-nonzero pivoting.

    Returns the RREF and the tuple of pivot columns.  The elimination is
    the domain's exact kernel, `a.domain.row_reduce`: fraction-free
    Gauss-Jordan on Gaussian integers over Q(i), plain ints mod p over
    F_p.  The RREF is unique and the pivot scan is fixed, so the result
    is the one any exact Gauss-Jordan gives.
    """
    form, pivots = a.domain.row_reduce(a.form, a.rows, a.cols)
    return Matrix._of(a.rows, a.cols, a.domain, form), pivots


def rank(a: Matrix) -> int:
    return len(rref(a)[1])


@dataclass(frozen=True)
class RankFactorization:
    """A = f * g with f of full column rank and g of full row rank."""

    f: Matrix
    g: Matrix
    rank: int


def rank_factorization(a: Matrix) -> RankFactorization:
    """Full-rank factorization via RREF: g = nonzero rows of RREF(a),
    f = columns of a at the pivot positions.  rank 0 yields empty factors."""
    reduced, pivots = rref(a)
    k = len(pivots)
    f = _select((a,), a.rows, k, [i * a.cols + c for i in range(a.rows) for c in pivots])
    g = _select((reduced,), k, a.cols, range(k * a.cols))
    return RankFactorization(f, g, k)


def nullspace_basis(a: Matrix):
    """Independent column vectors spanning ker(a); count = cols - rank."""
    reduced, pivots = rref(a)
    pivot_set = set(pivots)
    zero, one = a.domain.zero(), a.domain.one()
    basis = []
    for free in range(a.cols):
        if free in pivot_set:
            continue
        v = [zero] * a.cols
        v[free] = one
        for t, pc in enumerate(pivots):
            v[pc] = -reduced.entries[t * a.cols + free]
        basis.append(Matrix(a.cols, 1, a.domain, v))
    return basis


def inverse(a: Matrix) -> Matrix:
    """Exact inverse of a square matrix; raises Singular on rank deficiency.

    The 0x0 matrix is its own inverse (empty product convention)."""
    if a.rows != a.cols:
        raise DimensionMismatch(f"inverse of non-square {a.shape}")
    n = a.rows
    # Row i of [a | e] is row i of a, then row i of e, whose entries follow a's.
    aug = _select((a, Matrix.identity(n, a.domain)), n, 2 * n,
                  [t for i in range(n) for t in (*range(i * n, (i + 1) * n),
                                                 *range((n + i) * n, (n + i + 1) * n))])
    reduced, pivots = rref(aug)
    if pivots != tuple(range(n)):
        raise Singular(f"matrix of rank {len([p for p in pivots if p < n])} < {n}")
    return _select((reduced,), n, n, [i * 2 * n + n + j for i in range(n) for j in range(n)])


def random_matrix(domain: ScalarDomain, rows, cols, rng) -> Matrix:
    """Dense matrix of small random entries, deterministic under rng: the
    domain's `sample_form`, which draws each entry as `sample` does."""
    return Matrix._of(rows, cols, domain, domain.sample_form(rng, rows * cols))


# --- JSON interchange -------------------------------------------------------
#
# {"domain": "gaussian_rational" | {"prime_field": p},
#  "rows": n, "cols": m, "entries": [["<scalar>", ...], ...]}


def domain_from_json(obj) -> ScalarDomain:
    if obj == "gaussian_rational":
        return GAUSSIAN_RATIONAL
    if isinstance(obj, dict) and set(obj) == {"prime_field"}:
        if type(obj["prime_field"]) is not int:  # bool is an int subclass
            raise ValueError(f"prime_field must be an integer, got {obj['prime_field']!r}")
        return prime_field(obj["prime_field"])
    raise ValueError(f"unknown domain tag: {obj!r}")


def matrix_to_json(a: Matrix) -> dict:
    fmt = a.domain.format_scalar
    return {
        "domain": a.domain.json_tag(),
        "rows": a.rows,
        "cols": a.cols,
        "entries": [[fmt(v) for v in a.row(i)] for i in range(a.rows)],
    }


def matrix_from_json(obj) -> Matrix:
    if not isinstance(obj, dict):
        raise ValueError("matrix JSON must be an object")
    try:
        domain = domain_from_json(obj["domain"])
        rows = obj["rows"]
        cols = obj["cols"]
        raw = obj["entries"]
    except KeyError as exc:
        raise ValueError(f"matrix JSON missing key {exc}") from exc
    if type(rows) is not int or type(cols) is not int:  # bool is an int subclass
        raise ValueError("rows/cols must be integers")
    if not isinstance(raw, list) or not all(isinstance(r, list) for r in raw):
        raise ValueError("entries must be a list of row lists")
    if len(raw) != rows or any(len(r) != cols for r in raw):
        raise ValueError("entries do not match the declared shape")
    if not all(isinstance(s, str) for r in raw for s in r):
        raise ValueError("entries must be strings")
    flat = [domain.parse(s) for r in raw for s in r]
    return Matrix(rows, cols, domain, flat)
