"""Exact dense linear algebra over the rationals.

Everything in this module works with ``fractions.Fraction`` and never
rounds: ranks, kernels, particular solutions, determinants, and
Gram-Schmidt orthogonalization.  Bases are kept orthogonal but *not*
orthonormal, since normalization would require square roots and leave
the rationals; coordinate maps divide by the squared lengths instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

Rat = int | Fraction
Vec = tuple[Fraction, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def frac(x: Rat) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}: {x!r}")


def vec(values: Iterable[Rat]) -> Vec:
    return tuple(frac(v) for v in values)


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    if len(u) != len(v):
        raise ValueError(f"dot of vectors with lengths {len(u)} and {len(v)}")
    return sum((a * b for a, b in zip(u, v)), _ZERO)


@dataclass(frozen=True)
class RationalMatrix:
    """Immutable dense matrix of exact rationals, stored row-major."""

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix dimensions")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"entry count {len(self.entries)} does not match shape "
                f"{self.rows}x{self.cols}"
            )

    @staticmethod
    def from_rows(rows: Sequence[Sequence[Rat]], cols: int | None = None) -> "RationalMatrix":
        rows = list(rows)
        if rows:
            width = len(rows[0])
        elif cols is not None:
            width = cols
        else:
            width = 0
        flat: list[Fraction] = []
        for r in rows:
            if len(r) != width:
                raise ValueError("ragged rows")
            flat.extend(frac(x) for x in r)
        return RationalMatrix(len(rows), width, tuple(flat))

    @staticmethod
    def identity(n: int) -> "RationalMatrix":
        return RationalMatrix(
            n, n, tuple(_ONE if i == j else _ZERO for i in range(n) for j in range(n))
        )

    def row(self, i: int) -> Vec:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def row_list(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def matvec(self, x: Sequence[Fraction]) -> Vec:
        """M x, skipping zero coefficients (constraint matrices are sparse)."""
        if len(x) != self.cols:
            raise ValueError("matvec dimension mismatch")
        out = []
        for i in range(self.rows):
            acc = _ZERO
            for a, b in zip(self.row(i), x):
                if a:
                    acc += a * b
            out.append(acc)
        return tuple(out)

    def stack(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.cols:
            raise ValueError("stack requires equal column counts")
        return RationalMatrix(self.rows + other.rows, self.cols, self.entries + other.entries)


def integer_rows(rows: Iterable[Sequence[Rat]]) -> list[list[int]]:
    """Each row scaled by the lcm of its own denominators (row scaling keeps
    the row space, hence rank, kernel and sign pattern)."""
    out: list[list[int]] = []
    for row in rows:
        scale = lcm(*(e.denominator for e in row)) if row else 1
        out.append([e.numerator * (scale // e.denominator) for e in row])
    return out


def bareiss(a: list[list[int]], ncols: int, reduced: bool = False) -> int:
    """Fraction-free elimination of the integer rows ``a`` in place; returns the rank.

    The first rank rows end in echelon form.  With ``reduced`` each is also
    cleared above its pivot (fraction-free Gauss-Jordan), which makes it a
    positive or negative multiple of the matching row of the reduced
    echelon form.  Every division by the previous pivot is exact.
    """
    nrows = len(a)
    prev = 1
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        ar = a[r]
        p = ar[c]
        for i in range(0 if reduced else r + 1, nrows):
            if i == r:
                continue
            f = a[i][c]
            ai = a[i]
            for j in range(0 if i < r else c, ncols):
                ai[j] = (ai[j] * p - f * ar[j]) // prev
        prev = p
        r += 1
        if r == nrows:
            break
    return r


def rank(m: RationalMatrix) -> int:
    """Exact rank via fraction-free (Bareiss) elimination on integers."""
    return bareiss(integer_rows(m.row(i) for i in range(m.rows)), m.cols)


def det(m: RationalMatrix) -> Fraction:
    """Exact determinant via Bareiss elimination (row-scaled to integers)."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    n = m.rows
    if n == 0:
        return _ONE
    a: list[list[int]] = []
    scale = _ONE
    for i in range(n):
        row = m.row(i)
        s = lcm(*(e.denominator for e in row))
        scale *= s
        a.append([int(e * s) for e in row])
    sign = 1
    prev = 1
    for c in range(n - 1):
        pivot = next((i for i in range(c, n) if a[i][c] != 0), None)
        if pivot is None:
            return _ZERO
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            sign = -sign
        p = a[c][c]
        for i in range(c + 1, n):
            f = a[i][c]
            ai, ac = a[i], a[c]
            for j in range(c, n):
                ai[j] = (ai[j] * p - f * ac[j]) // prev
        prev = p
    return Fraction(sign * a[n - 1][n - 1], 1) / scale


def _rref(rows: list[list[Fraction]]) -> list[int]:
    """In-place reduced row echelon form; returns the pivot columns."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        prow = rows[r]
        inv = _ONE / prow[c]
        if inv != 1:
            for j in range(c, ncols):
                if prow[j]:
                    prow[j] *= inv
        for i in range(nrows):
            if i == r:
                continue
            f = rows[i][c]
            if f:
                irow = rows[i]
                for j in range(c, ncols):
                    if prow[j]:
                        irow[j] -= f * prow[j]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of Q^ambient given by a basis of independent vectors."""

    ambient: int
    basis: tuple[Vec, ...]

    def __post_init__(self) -> None:
        for b in self.basis:
            if len(b) != self.ambient:
                raise ValueError("basis vector length differs from ambient dimension")
        if self.basis and rank(RationalMatrix.from_rows(self.basis)) != len(self.basis):
            raise ValueError("basis vectors are linearly dependent")

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, v: Sequence[Rat]) -> bool:
        w = vec(v)
        if len(w) != self.ambient:
            raise ValueError("vector length differs from ambient dimension")
        if all(x == 0 for x in w):
            return True
        if not self.basis:
            return False
        stacked = RationalMatrix.from_rows(list(self.basis) + [w])
        return rank(stacked) == self.dim

    def is_subspace_of(self, other: "Subspace") -> bool:
        if self.ambient != other.ambient:
            raise ValueError("ambient dimensions differ")
        return all(other.contains(b) for b in self.basis)

    def spans_same(self, other: "Subspace") -> bool:
        return self.is_subspace_of(other) and other.is_subspace_of(self)


def subspace_from_span(vectors: Sequence[Sequence[Rat]], ambient: int) -> Subspace:
    """Subspace spanned by ``vectors``, with a canonical row-reduced basis."""
    rows = [list(vec(v)) for v in vectors if any(frac(x) != 0 for x in v)]
    for r in rows:
        if len(r) != ambient:
            raise ValueError("vector length differs from ambient dimension")
    if not rows:
        return Subspace(ambient, ())
    pivots = _rref(rows)
    return Subspace(ambient, tuple(tuple(rows[i]) for i in range(len(pivots))))


def kernel_basis(m: RationalMatrix) -> Subspace:
    """Canonical basis of the right kernel {x : Mx = 0}.

    One basis vector per free column f of the reduced echelon form, with
    entry 1 at f and the negated pivot-column coefficients elsewhere.
    """
    rows = m.row_list()
    pivots = _rref(rows) if rows else []
    free = [c for c in range(m.cols) if c not in pivots]
    basis: list[Vec] = []
    for f in free:
        v = [_ZERO] * m.cols
        v[f] = _ONE
        for r, p in enumerate(pivots):
            v[p] = -rows[r][f]
        basis.append(tuple(v))
    return Subspace(m.cols, tuple(basis))


def solve_particular(m: RationalMatrix, b: Sequence[Rat]) -> Vec | None:
    """One exact solution of Mx = b with free variables set to zero.

    Returns None when the system is inconsistent.  The full solution set
    is the returned vector plus ``kernel_basis(m)``.
    """
    rhs = vec(b)
    if len(rhs) != m.rows:
        raise ValueError("right-hand side length differs from row count")
    rows = [list(m.row(i)) + [rhs[i]] for i in range(m.rows)]
    pivots = _rref(rows) if rows else []
    if m.cols in pivots:
        return None
    x = [_ZERO] * m.cols
    for r, p in enumerate(pivots):
        x[p] = rows[r][m.cols]
    return tuple(x)


def orthogonalize(s: Subspace) -> Subspace:
    """Gram-Schmidt without normalization: same span, pairwise-orthogonal."""
    out: list[Vec] = []
    for b in s.basis:
        g = list(b)
        for prev in out:
            c = dot(b, prev) / dot(prev, prev)
            if c:
                for j in range(len(g)):
                    g[j] -= c * prev[j]
        out.append(tuple(g))
    return Subspace(s.ambient, tuple(out))


def coords_in_basis(v: Sequence[Rat], basis: Sequence[Sequence[Rat]]) -> Vec:
    """Coordinates <v,b_i>/<b_i,b_i> against a pairwise-orthogonal basis."""
    w = vec(v)
    out = []
    for b in basis:
        bb = vec(b)
        out.append(dot(w, bb) / dot(bb, bb))
    return tuple(out)


def combine(coords: Sequence[Rat], basis: Sequence[Sequence[Rat]], ambient: int) -> Vec:
    """Linear combination sum_i coords[i] * basis[i]."""
    out = [_ZERO] * ambient
    for c, b in zip(coords, basis, strict=True):
        cf = frac(c)
        if cf:
            for j, x in enumerate(b):
                if x:
                    out[j] += cf * x
    return tuple(out)
