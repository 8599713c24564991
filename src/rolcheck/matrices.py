"""Dense exact matrices over an involutive scalar domain.

Matrices are immutable, row-major, and sized for desk-scale work (the
harness caps instances at 8x8).  The involution `star` is the conjugate
transpose; over prime fields it degenerates to the plain transpose.
Zero-dimension matrices (n x 0, 0 x m) are first class: they arise as
the factors of a rank-0 matrix and their products are zero matrices of
the appropriate shape.

Ranks, factorizations, kernels and inverses all go through `rref`, which
hands the elimination to the domain's exact kernel
(`ScalarDomain.row_reduce`): fraction-free Gauss-Jordan on Gaussian
integers for Q(i), Gauss-Jordan on ints mod p for F_p.  The RREF is
unique, so the kernel choice never changes a result.  Products (`@`) go
to the domain's `ScalarDomain.matmul` in the same way: integer dot
products of rows and columns scaled to Gaussian integers for Q(i), plain
int dot products reduced once per entry for F_p.  Both build scalars only
for the result, in canonical form, so they equal the textbook loop.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionMismatch, DomainMismatch, Singular
from .scalars import GAUSSIAN_RATIONAL, ScalarDomain, prime_field


class Matrix:
    __slots__ = ("rows", "cols", "domain", "entries")

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
        self.entries = entries

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
        z, o = domain.zero(), domain.one()
        return cls(n, n, domain, [o if i == j else z for i in range(n) for j in range(n)])

    def __getitem__(self, key):
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(key)
        return self.entries[i * self.cols + j]

    def row(self, i):
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def _same_domain(self, other):
        if self.domain != other.domain:
            raise DomainMismatch(f"{self.domain.name} vs {other.domain.name}")

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        self._same_domain(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch(f"{self.shape} + {other.shape}")
        return Matrix(self.rows, self.cols, self.domain,
                      [x + y for x, y in zip(self.entries, other.entries)])

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        self._same_domain(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch(f"{self.shape} - {other.shape}")
        return Matrix(self.rows, self.cols, self.domain,
                      [x - y for x, y in zip(self.entries, other.entries)])

    def __neg__(self):
        return Matrix(self.rows, self.cols, self.domain, [-x for x in self.entries])

    def __matmul__(self, other):
        """Matrix product by the domain's exact kernel, `ScalarDomain.matmul`:
        integer dot products over Gaussian integers for Q(i), plain ints
        reduced mod p for F_p."""
        if not isinstance(other, Matrix):
            return NotImplemented
        self._same_domain(other)
        if self.cols != other.rows:
            raise DimensionMismatch(f"{self.shape} @ {other.shape}")
        n, k, m = self.rows, self.cols, other.cols
        return Matrix(n, m, self.domain, self.domain.matmul(self.entries, other.entries, n, k, m))

    def scale(self, coeff):
        coeff = self.domain.coerce(coeff)
        return Matrix(self.rows, self.cols, self.domain, [coeff * x for x in self.entries])

    def star(self):
        """Conjugate transpose: the ring involution, star(A*B) = star(B)*star(A)."""
        return Matrix(self.cols, self.rows, self.domain,
                      [self.entries[i * self.cols + j].conj()
                       for j in range(self.cols) for i in range(self.rows)])

    def is_zero(self):
        return all(x.is_zero() for x in self.entries)

    def is_hermitian(self):
        if self.rows != self.cols:
            return False
        for i in range(self.rows):
            for j in range(i, self.cols):
                if self.entries[i * self.cols + j] != self.entries[j * self.cols + i].conj():
                    return False
        return True

    def is_identity(self):
        if self.rows != self.cols:
            return False
        o, z = self.domain.one(), self.domain.zero()
        return all(self.entries[i * self.cols + j] == (o if i == j else z)
                   for i in range(self.rows) for j in range(self.cols))

    @property
    def shape(self):
        return (self.rows, self.cols)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.domain == other.domain
                and self.rows == other.rows
                and self.cols == other.cols
                and self.entries == other.entries)

    def __str__(self):
        fmt = self.domain.format_scalar
        return "[" + "; ".join(" ".join(fmt(v) for v in self.row(i))
                               for i in range(self.rows)) + "]"

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols} over {self.domain.name}: {self})"


def rref(a: Matrix):
    """Reduced row echelon form with first-nonzero pivoting.

    Returns the RREF and the tuple of pivot columns.  The elimination is
    the domain's exact kernel, `a.domain.row_reduce`: fraction-free
    Gauss-Jordan on Gaussian integers over Q(i), plain ints mod p over
    F_p.  The RREF is unique and the pivot scan is fixed, so the result
    is the one any exact Gauss-Jordan gives.
    """
    reduced, pivots = a.domain.row_reduce([a.row(i) for i in range(a.rows)])
    return Matrix(a.rows, a.cols, a.domain, [v for row in reduced for v in row]), pivots


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
    f_entries = [a.entries[i * a.cols + c] for i in range(a.rows) for c in pivots]
    g_entries = [reduced.entries[r * a.cols + j] for r in range(k) for j in range(a.cols)]
    f = Matrix(a.rows, k, a.domain, f_entries)
    g = Matrix(k, a.cols, a.domain, g_entries)
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
    ident = Matrix.identity(n, a.domain)
    aug_entries = []
    for i in range(n):
        aug_entries.extend(a.row(i))
        aug_entries.extend(ident.row(i))
    aug = Matrix(n, 2 * n, a.domain, aug_entries)
    reduced, pivots = rref(aug)
    if pivots != tuple(range(n)):
        raise Singular(f"matrix of rank {len([p for p in pivots if p < n])} < {n}")
    out = []
    for i in range(n):
        out.extend(reduced.entries[i * 2 * n + n : (i + 1) * 2 * n])
    return Matrix(n, n, a.domain, out)


def random_matrix(domain: ScalarDomain, rows, cols, rng) -> Matrix:
    """Dense matrix of small random entries, deterministic under rng."""
    return Matrix(rows, cols, domain, [domain.sample(rng) for _ in range(rows * cols)])


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
