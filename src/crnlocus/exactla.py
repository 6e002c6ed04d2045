"""Exact linear algebra over the rationals.

Nothing in this module rounds.  Every elimination -- ranks, determinants,
kernels, spanned subspaces and particular solutions -- scales each row
to integers and runs through one fraction-free routine, ``bareiss``,
which leaves alone the rows it does not need to touch; canonical bases
are read off its reduced rows, as ``Subspace``s in reduced echelon form.
Gram-Schmidt keeps bases orthogonal but *not* orthonormal, since
normalization would require square roots and leave the rationals;
coordinate maps divide by the squared lengths instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm, log, prod
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


def _log(v) -> float:
    """Natural log; of a rational as log(numerator) - log(denominator),
    which is finite where the float of the rational would overflow."""
    if isinstance(v, (int, Fraction)):
        return log(v.numerator) - log(v.denominator)
    return log(v)


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
            flat.extend(map(frac, r))
        return RationalMatrix(len(rows), width, tuple(flat))

    def row(self, i: int) -> Vec:
        return self.entries[i * self.cols : (i + 1) * self.cols]


def integer_rows(rows: Iterable[Sequence[Rat]]) -> list[list[int]]:
    """Each row scaled by the lcm of its own denominators (row scaling keeps
    the row space, hence rank, kernel and sign pattern)."""
    out: list[list[int]] = []
    for row in rows:
        dens = [e.denominator for e in row]
        scale = lcm(*dens)
        out.append([e.numerator * (scale // d) for e, d in zip(row, dens)])
    return out


def bareiss(a: list[list[int]], ncols: int, reduced: bool = False) -> tuple[list[int], int]:
    """Fraction-free elimination of the integer rows ``a`` in place; returns
    the pivot columns and the sign of the row permutation.

    Pivots are sought in the first ``ncols`` columns, but whole rows are
    updated, so columns past ``ncols`` follow the row operations.  The
    first rank rows end in echelon form; with ``reduced`` each is also
    cleared above its pivot (fraction-free Gauss-Jordan), which makes it
    a positive or negative multiple of the matching row of the reduced
    echelon form.

    A row whose entry in the pivot column is zero is left untouched:
    textbook Bareiss would only rescale it by the ratio of consecutive
    pivots, and those ratios telescope.  Each row keeps the pivot it was
    last scaled to (its level), divides by that level when it is next
    updated, and is brought up to the current level before it pivots.
    Every division is exact, since its result is the entry textbook
    Bareiss reaches, a minor of the input.
    """
    nrows = len(a)
    level = [1] * nrows
    pivots: list[int] = []
    sign = 1
    prev = 1
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot = next((i for i in range(r, nrows) if a[i][c]), None)
        if pivot is None:
            continue
        if pivot != r:
            a[r], a[pivot] = a[pivot], a[r]
            level[r], level[pivot] = level[pivot], level[r]
            sign = -sign
        ar = a[r]
        if level[r] != prev:
            lr = level[r]
            ar[c:] = [x * prev // lr for x in ar[c:]]
        p = ar[c]
        for i in range(0 if reduced else r + 1, nrows):
            ai = a[i]
            f = ai[c]
            if not f or i == r:
                continue
            li = level[i]
            lo = 0 if i < r else c
            ai[lo:] = [(x * p - f * y) // li for x, y in zip(ai[lo:], ar[lo:])]
            level[i] = p
        level[r] = prev = p
        pivots.append(c)
        r += 1
    return pivots, sign


def rank(m: RationalMatrix) -> int:
    """Exact rank via fraction-free (Bareiss) elimination on integers."""
    return len(bareiss(integer_rows(m.row(i) for i in range(m.rows)), m.cols)[0])


def det(m: RationalMatrix) -> Fraction:
    """Exact determinant: the last Bareiss pivot of the row-scaled integer
    matrix, signed by the row permutation and divided by the row scales."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    if m.rows == 0:
        return _ONE
    rows = [m.row(i) for i in range(m.rows)]
    a = integer_rows(rows)
    pivots, sign = bareiss(a, m.cols)
    if len(pivots) < m.rows:
        return _ZERO
    scale = prod(lcm(*(e.denominator for e in row)) for row in rows)
    return Fraction(sign * a[-1][-1], scale)


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of Q^ambient, held as its reduced echelon basis:
    each vector is 1 at its leading column, the leading columns ascend, and
    every other vector is 0 there.  The form proves independence without
    elimination and is unique: Subspaces are equal iff they span one space.
    ``leads`` holds the leading columns, found by the check of the form."""

    ambient: int
    basis: tuple[Vec, ...]
    leads: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        later: set[int] = set()  # leading columns of the vectors after this one
        bound = self.ambient
        for b in reversed(self.basis):
            if len(b) != self.ambient:
                raise ValueError("basis vector length differs from ambient dimension")
            nonzero = [j for j, x in enumerate(b) if x]
            lead = nonzero[0] if nonzero else bound
            if lead >= bound or b[lead] != 1 or later.intersection(nonzero):
                raise ValueError("basis is not in reduced echelon form")
            bound = lead
            later.add(lead)
        object.__setattr__(self, "leads", tuple(sorted(later)))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, v: Sequence[Rat]) -> bool:
        """Whether v is the combination of the basis by v's own entries at
        the leading columns, the only combination that can equal it."""
        w = vec(v)
        if len(w) != self.ambient:
            raise ValueError("vector length differs from ambient dimension")
        return w == combine([w[c] for c in self.leads], self.basis, self.ambient)


def subspace_from_span(vectors: Sequence[Sequence[Rat]], ambient: int) -> Subspace:
    """Subspace spanned by ``vectors``, with a canonical row-reduced basis."""
    rows = [vec(v) for v in vectors]
    if any(len(r) != ambient for r in rows):
        raise ValueError("vector length differs from ambient dimension")
    a = integer_rows(r for r in rows if any(r))
    pivots, _ = bareiss(a, ambient, reduced=True)
    return Subspace(
        ambient,
        tuple(
            tuple(Fraction(x, row[p]) if x else _ZERO for x in row)
            for row, p in zip(a, pivots)
        ),
    )


def kernel_basis(m: RationalMatrix) -> Subspace:
    """The right kernel {x : Mx = 0} as a Subspace, from one elimination.

    The reduced echelon form of M mirrored in rows and columns gives, for
    each free column f, a kernel vector that is 1 at f, 0 at the other
    free columns and nonzero only at later pivot columns: the reduced
    echelon basis.  Mirroring the rows too keeps banded matrices banded.
    """
    n = m.cols
    a = integer_rows(m.row(i)[::-1] for i in reversed(range(m.rows)))
    pivots, _ = bareiss(a, n, reduced=True)
    basis: list[Vec] = []
    for f in sorted(set(range(n)).difference(pivots), reverse=True):  # column n - 1 - f of M
        v = [_ZERO] * n
        v[n - 1 - f] = _ONE
        for row, p in zip(a, pivots):
            if row[f]:
                v[n - 1 - p] = Fraction(-row[f], row[p])
        basis.append(tuple(v))
    return Subspace(n, tuple(basis))


def solve_particular(m: RationalMatrix, b: Sequence[Rat]) -> Vec | None:
    """One exact solution of Mx = b with free variables set to zero.

    Returns None when the system is inconsistent.  The full solution set
    is the returned vector plus ``kernel_basis(m)``.
    """
    rhs = vec(b)
    if len(rhs) != m.rows:
        raise ValueError("right-hand side length differs from row count")
    a = integer_rows(m.row(i) + (rhs[i],) for i in range(m.rows))
    pivots, _ = bareiss(a, m.cols + 1, reduced=True)
    if m.cols in pivots:
        return None
    x = [_ZERO] * m.cols
    for row, p in zip(a, pivots):
        if row[m.cols]:
            x[p] = Fraction(row[m.cols], row[p])
    return tuple(x)


def _support(b: Sequence[Fraction]) -> list[int]:
    return [j for j, x in enumerate(b) if x]


def orthogonalize(vectors: Sequence[Vec]) -> tuple[Vec, ...]:
    """Gram-Schmidt without normalization: same span, pairwise-orthogonal.
    A vector that comes out zero, as for dependent input, raises ValueError.

    Each output vector's support (its nonzero indices) and squared length
    are recorded once; its product with a later input vector is summed,
    and its multiple subtracted, over that support alone.  Vectors with
    disjoint supports, such as those of different D0 vertex blocks, cost
    one empty sum against each other.
    """
    done: list[tuple[list[int], Vec, Fraction]] = []  # support, vector, squared length
    for b in vectors:
        g = list(b)
        for support, prev, norm in done:
            d = sum((b[j] * prev[j] for j in support if b[j]), _ZERO)
            if d:
                c = d / norm
                for j in support:
                    g[j] -= c * prev[j]
        v = tuple(g)
        support = _support(v)
        if not support:
            raise ValueError("vectors are linearly dependent")
        done.append((support, v, sum((v[j] * v[j] for j in support), _ZERO)))
    return tuple(v for _, v, _ in done)


def coords_in_basis(v: Sequence[Rat], basis: Sequence[Sequence[Rat]]) -> Vec:
    """Coordinates <v,b_i>/<b_i,b_i> against a pairwise-orthogonal basis,
    each product summed over the support of b_i alone."""
    w = vec(v)
    out = []
    for b in basis:
        bb = vec(b)
        if len(bb) != len(w):
            raise ValueError(f"dot of vectors with lengths {len(w)} and {len(bb)}")
        support = _support(bb)
        d = sum((w[j] * bb[j] for j in support if w[j]), _ZERO)
        out.append(d / sum((bb[j] * bb[j] for j in support), _ZERO))
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
