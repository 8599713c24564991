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
that `==` and `is_zero()` can first refute an identity on its own probe
vector with matrix-vector products, which Matrix forms and checks; the
laws' statement evaluators run on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import add, matmul, sub

from .errors import DimensionMismatch, DomainMismatch, Singular
from .scalars import GAUSSIAN_RATIONAL, ScalarDomain, prime_field


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
def _probe(n: int, domain: ScalarDomain) -> Matrix:
    """(1, 2, ..., n)^T in the domain, the probe of every Pending with n
    columns there; matrices are immutable, so the nodes share it."""
    return Matrix(n, 1, domain, [domain.coerce(i) for i in range(1, n + 1)])


class Pending:
    """A matrix expression whose n x n products are formed only when needed.

    A node is a leaf holding a formed Matrix, or (op, left, right) for
    `@`, `+` or `-` of two nodes; `@` associates as written, so a node
    records the order in which its products would be formed.  `value()`
    forms the node's matrix in that order.  `apply(v)` multiplies the node
    into the column vector v right to left, with matrix-vector products
    only: (x @ y) v = x (y v) and (x +- y) v = x v +- y v.

    A node's probe is (1, 2, ..., n)^T for its n columns, one object per n
    and domain; an `@` node takes its columns and probe from its right
    operand, a `+` or `-` node from its left.  `==` and `is_zero()` first
    compare the images of the probe.  Images that differ prove the
    matrices differ, in any domain and for any probe (X v != Y v implies
    X != Y), so the answer is False with no product formed.  Images that
    agree prove nothing: then the matrices are formed and compared
    exactly.  Both the formed value and the image of the probe are kept
    once computed.  A node checks no shape or domain itself: the Matrix
    operations that form its images and values raise DimensionMismatch
    or DomainMismatch."""

    __slots__ = ("cols", "probe", "_op", "_left", "_right", "_value", "_image")

    def __init__(self, value: Matrix):
        self.cols = value.cols
        self.probe = _probe(value.cols, value.domain)
        self._op = self._left = self._right = self._image = None
        self._value = value

    def _node(self, op, other, like):
        """The node (op, self, other), with the columns and probe of `like`."""
        node = Pending.__new__(Pending)
        node.cols = like.cols
        node.probe = like.probe
        node._op = op
        node._left = self
        node._right = other
        node._value = node._image = None
        return node

    def __matmul__(self, other):
        if not isinstance(other, Pending):
            return NotImplemented
        return self._node(matmul, other, other)

    def __add__(self, other):
        if not isinstance(other, Pending):
            return NotImplemented
        return self._node(add, other, self)

    def __sub__(self, other):
        if not isinstance(other, Pending):
            return NotImplemented
        return self._node(sub, other, self)

    def value(self) -> Matrix:
        if self._value is None:
            self._value = self._op(self._left.value(), self._right.value())
        return self._value

    def apply(self, v: Matrix) -> Matrix:
        """This node's matrix times v; the image of the probe is kept."""
        if v is self.probe and self._image is not None:
            return self._image
        if self._value is not None:
            image = self._value @ v
        elif self._op is matmul:
            image = self._left.apply(self._right.apply(v))
        else:
            image = self._op(self._left.apply(v), self._right.apply(v))
        if v is self.probe:
            self._image = image
        return image

    def is_zero(self):
        return self.apply(self.probe).is_zero() and self.value().is_zero()

    def __eq__(self, other):
        if isinstance(other, Matrix):
            other = Pending(other)
        elif not isinstance(other, Pending):
            return NotImplemented
        v = self.probe
        if self.cols == other.cols and self.apply(v) != other.apply(v):
            return False
        return self.value() == other.value()


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
