"""The generic product loop that Matrix.__matmul__ ran before its domain
kernels, kept verbatim as the independent reference for
tests/test_matmul_kernels.py.  It works on scalar objects through their
public operations only, so it shares no code with the kernels."""

from rolcheck.errors import DimensionMismatch
from rolcheck.matrices import Matrix


def matmul(self: Matrix, other: Matrix) -> Matrix:
    if not isinstance(other, Matrix):
        return NotImplemented
    self._same_domain(other)
    if self.cols != other.rows:
        raise DimensionMismatch(f"{self.shape} @ {other.shape}")
    zero = self.domain.zero()
    n, k, m = self.rows, self.cols, other.cols
    a, b = self.entries, other.entries
    out = []
    for i in range(n):
        row = a[i * k : (i + 1) * k]
        for j in range(m):
            acc = zero
            for t in range(k):
                acc = acc + row[t] * b[t * m + j]
            out.append(acc)
    return Matrix(n, m, self.domain, out)
