"""Matrix polynomials in free matrix parameters, decided exactly.

A WordMatrix is a sum of words

    C0 X1 C1 X2 ... Xk Ck

with constant Matrix coefficients Ci and letters Xi, each a parameter
(Y, Z, ...) or its star.  It has the Matrix operations the Penrose
equations use (@, +, -, star, ==, is_hermitian), and a Matrix operand
on either side of + and @ is taken as a constant word.  So code written
for matrices runs on it unchanged: the product of parametrized
K-inverses, fed to is_k_inverse, decides the membership for every value
of the parameters at once.

Equality is identity of polynomials, decided by is_zero, which requires
every word to have degree at most one in each parameter.  Then:

* Over Q(i) the entries of P and of P* are independent variables: the
  substitution P -> lam P scales a word by lam or conj(lam), and these
  separate.  So the words fall into groups by the set of letters they
  contain, and the polynomial vanishes iff every group does.
* Over F_p the involution is the identity and P* = P^T is linear in P,
  so P and P* share a group.  A polynomial of degree below p in each
  variable vanishes on all of F_p^N only if it is zero, so identity
  and vanishing at every point agree.

The domain's real_units tell the cases apart: (1, i) over Q(i), (1,)
over F_p.

An entry of a word is a sum of products of coefficient entries with one
variable per letter, so a group is a tensor  sum_t C0_t (x) C1_t (x) ...
over the output row and column and the row and column index of each
parameter.  is_zero decides it by exact rank reduction: it row-reduces
the factors on an index pair that every word of the group shares, each
independent factor carries the rest of its words along, and those rests
must vanish in turn (Martindale, J. Algebra 1969, for the reduction of a
generalized polynomial identity to its coefficients).  Only words that
pair indices differently, P beside P^T over F_p, are expanded entry by
entry.
"""

from __future__ import annotations

from itertools import product as index_tuples

from .errors import DimensionMismatch, DomainMismatch
from .matrices import Matrix, rref


def _times(x: Matrix, y: Matrix) -> Matrix:
    # A parameter's coefficients start out as identities.
    if x.is_identity():
        return y
    if y.is_identity():
        return x
    return x @ y


class WordMatrix:
    """A rows x cols matrix polynomial: words (coefficients, letters),
    where a letter is (parameter name, starred) and a word with k letters
    has k + 1 coefficients."""

    __slots__ = ("rows", "cols", "domain", "words")
    __hash__ = None

    def __init__(self, rows, cols, domain, words):
        self.rows = rows
        self.cols = cols
        self.domain = domain
        self.words = tuple(words)

    @classmethod
    def parameter(cls, name, rows, cols, domain) -> WordMatrix:
        """The free rows x cols parameter `name`."""
        word = ((Matrix.identity(rows, domain), Matrix.identity(cols, domain)), ((name, False),))
        return cls(rows, cols, domain, [word])

    @property
    def shape(self):
        return (self.rows, self.cols)

    @classmethod
    def _collect(cls, rows, cols, domain, words):
        """Sum the constant words into one, listed first."""
        constant = None
        rest = []
        for coeffs, letters in words:
            if letters:
                rest.append((coeffs, letters))
            else:
                constant = coeffs[0] if constant is None else constant + coeffs[0]
        if constant is not None:
            rest.insert(0, ((constant,), ()))
        return cls(rows, cols, domain, rest)

    def _words_of(self, other):
        """The words of a WordMatrix or Matrix operand; None for other types."""
        if isinstance(other, WordMatrix):
            words = other.words
        elif isinstance(other, Matrix):
            words = (((other,), ()),)
        else:
            return None
        if other.domain != self.domain:
            raise DomainMismatch(f"{self.domain.name} vs {other.domain.name}")
        return words

    def __add__(self, other):
        words = self._words_of(other)
        if words is None:
            return NotImplemented
        if self.shape != other.shape:
            raise DimensionMismatch(f"{self.shape} + {other.shape}")
        return WordMatrix._collect(self.rows, self.cols, self.domain, self.words + words)

    __radd__ = __add__

    def __neg__(self):
        return WordMatrix(self.rows, self.cols, self.domain,
                          [((-coeffs[0],) + coeffs[1:], letters)
                           for coeffs, letters in self.words])

    def __sub__(self, other):
        if self._words_of(other) is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        if self._words_of(other) is None:
            return NotImplemented
        return (-self) + other

    def __matmul__(self, other):
        words = self._words_of(other)
        if words is None:
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionMismatch(f"{self.shape} @ {other.shape}")
        return WordMatrix._collect(self.rows, other.cols, self.domain, [
            (left[:-1] + (_times(left[-1], right[0]),) + right[1:], left_letters + right_letters)
            for left, left_letters in self.words
            for right, right_letters in words
        ])

    def __rmatmul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return WordMatrix(other.rows, other.cols, other.domain, [((other,), ())]) @ self

    def star(self) -> WordMatrix:
        """(C0 X1 ... Ck)* = Ck* Xk* ... C0*, with P** = P."""
        return WordMatrix(self.cols, self.rows, self.domain, [
            (tuple(c.star() for c in reversed(coeffs)),
             tuple((name, not starred) for name, starred in reversed(letters)))
            for coeffs, letters in self.words
        ])

    def __eq__(self, other):
        if not isinstance(other, (WordMatrix, Matrix)):
            return NotImplemented
        if self.shape != other.shape or self.domain != other.domain:
            return False
        return (self - other).is_zero()

    def is_hermitian(self) -> bool:
        return self.rows == self.cols and (self - self.star()).is_zero()

    def is_zero(self) -> bool:
        """True iff the polynomial is zero, that is, zero at every value
        of its parameters.  Raises ValueError for a word of degree above
        one in some parameter."""
        one = self.domain.one()
        merge_star = len(self.domain.real_units) == 1  # P* = P^T is linear in P
        groups = {}
        for coeffs, letters in self.words:
            names = [name for name, _ in letters]
            if len(set(names)) != len(names):
                raise ValueError(f"a word has letters {names}: only words of degree at most "
                                 f"one in each parameter are decided")
            key = frozenset(names if merge_star else letters)
            groups.setdefault(key, []).append((one, _factors(coeffs, letters)))
        return all(_vanishes(terms) for terms in groups.values())


def _factors(coeffs, letters):
    """A word's coefficients as (slot, slot, matrix) factors of its tensor.

    The slots are the output row "u" and column "v" and each parameter's
    (name, "row") and (name, "col").  The letter P[i, j] is p_ij, and
    P*[i, j] is conj(p_ji) (p_ji over F_p), so P* enters at P's column
    and leaves at its row.  Coefficient m joins the slot the word leaves
    before it to the slot it enters after it."""
    slots = ["u"]
    for name, starred in letters:
        row, col = (name, "row"), (name, "col")
        slots += [col, row] if starred else [row, col]
    slots.append("v")
    return tuple((slots[2 * m], slots[2 * m + 1], c) for m, c in enumerate(coeffs))


def _transpose(m: Matrix) -> Matrix:
    return Matrix(m.cols, m.rows, m.domain,
                  [m.entries[i * m.cols + j] for j in range(m.cols) for i in range(m.rows)])


def _on_pair(factors, first, second):
    """The factor on slots {first, second} as a [first, second] matrix,
    and the other factors; None when the word has no such factor."""
    for k, (a, b, m) in enumerate(factors):
        if (a, b) == (first, second) or (b, a) == (first, second):
            oriented = m if a == first else _transpose(m)
            return oriented, factors[:k] + factors[k + 1:]
    return None


def _vanishes(terms) -> bool:
    """True iff sum_t coef_t * (tensor product of the factors of t) is zero.

    Every term's factors pair up the same slots.  A single term with no
    zero factor is nonzero.  Otherwise take a slot pair on which every
    term has a factor: with those factors f_t = sum_k R[k, t] f_(p_k),
    for independent f_(p_k) read off the RREF of the matrix whose
    columns are the f_t, the sum is sum_k f_(p_k) (x) sum_t R[k, t]
    coef_t rest_t, which is zero iff each inner sum is."""
    terms = [(coef, factors) for coef, factors in terms
             if not coef.is_zero() and not any(m.is_zero() for _, _, m in factors)]
    if len(terms) <= 1:
        return not terms
    if not terms[0][1]:
        total = terms[0][0]
        for coef, _ in terms[1:]:
            total = total + coef
        return total.is_zero()
    for first, second, _ in terms[0][1]:
        split = [_on_pair(factors, first, second) for _, factors in terms]
        if all(s is not None for s in split):
            break
    else:
        return _expanded_is_zero(terms)
    size = len(split[0][0].entries)
    columns = Matrix(size, len(terms), split[0][0].domain,
                     [m.entries[i] for i in range(size) for m, _ in split])
    reduced, pivots = rref(columns)
    for k in range(len(pivots)):
        inner = [(coef * reduced[k, t], rest)
                 for t, ((coef, _), (_, rest)) in enumerate(zip(terms, split))
                 if not reduced[k, t].is_zero()]
        if not _vanishes(inner):
            return False
    return True


def _expanded_is_zero(terms) -> bool:
    """Entry-by-entry check of sum_t coef_t prod_f f[i_a, i_b] over every
    assignment of indices to the slots."""
    order, dims = [], {}
    for a, b, m in terms[0][1]:
        order += [a, b]
        dims[a], dims[b] = m.rows, m.cols
    position = {slot: k for k, slot in enumerate(order)}
    located = [(coef, [(position[a], position[b], m) for a, b, m in factors])
               for coef, factors in terms]
    for index in index_tuples(*(range(dims[slot]) for slot in order)):
        total = None
        for coef, factors in located:
            value = coef
            for a, b, m in factors:
                value = value * m.entries[index[a] * m.cols + index[b]]
            total = value if total is None else total + value
        if not total.is_zero():
            return False
    return True


def basis_points(rows, cols, domain) -> list:
    """Zero, then u E_ij for each basis matrix E_ij and each u in
    domain.real_units: {1, i} over Q(i) and {1} over F_p.

    A polynomial of degree at most one in each parameter that is_zero
    finds nonzero is nonzero when each parameter takes one of these
    values.  For fixed positions ij of Y and kl of Z, Y = lam E_ij and
    Z = mu E_kl turn it into a polynomial in lam, conj(lam), mu and
    conj(mu) whose coefficients are those of its groups at ij and kl,
    and the values 0, 1, i (0, 1 over F_p) determine such a polynomial."""
    zero = domain.zero()
    points = [Matrix.zeros(rows, cols, domain)]
    for i in range(rows):
        for j in range(cols):
            for unit in domain.real_units:
                points.append(Matrix(rows, cols, domain,
                                     [unit if (r, c) == (i, j) else zero
                                      for r in range(rows) for c in range(cols)]))
    return points
