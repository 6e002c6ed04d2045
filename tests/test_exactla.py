import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crnlocus import (
    EGraph,
    RationalMatrix,
    Subspace,
    coords_in_basis,
    det,
    kernel_basis,
    orthogonalize,
    rank,
    solve_particular,
    subspace_from_span,
)
from crnlocus.equiv import d0_basis, j0_basis
from crnlocus.exactla import bareiss, combine, dot, integer_rows, vec

from fixture_graphs import (
    g_cyc,
    g_in,
    g_k4,
    g_long_cycle,
    g_three_cycle,
    g_two_classes,
    g_two_vertex,
)
from oracles import (
    cofactor_det,
    d0_constraint_matrix,
    dense_coords_in_basis,
    dense_orthogonalize,
    matvec,
    naive_kernel_subspace,
    naive_rref,
    naive_solve,
    random_engine_matrix,
    random_four_vertex_graph,
    random_rational,
    rank_contains,
    spans_same,
)

rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=4
)


def row_lists(max_dim: int = 8):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(rationals, min_size=c, max_size=c), min_size=r, max_size=r
            )
        )
    )


def matrices(max_dim: int = 8):
    return row_lists(max_dim).map(RationalMatrix.from_rows)


class TestRank:
    def test_identity(self):
        assert rank(RationalMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == 3

    def test_dependent_rows(self):
        assert rank(RationalMatrix.from_rows([[1, 2], [2, 4]])) == 1

    def test_k4_reaction_vectors(self):
        m = RationalMatrix.from_rows(g_k4().reaction_vectors)
        assert (m.rows, m.cols) == (12, 2)
        assert rank(m) == 2

    def test_zero_matrix(self):
        assert rank(RationalMatrix.from_rows([[0, 0], [0, 0]])) == 0


class TestKernel:
    def test_row_1_1(self):
        s = kernel_basis(RationalMatrix.from_rows([[1, 1]]))
        assert s.dim == 1
        assert s.contains([1, -1])

    def test_invertible_has_zero_kernel(self):
        assert kernel_basis(RationalMatrix.from_rows([[1, 2], [3, 4]])).basis == ()

    def test_d0_matrix_of_k4(self):
        assert len(kernel_basis(d0_constraint_matrix(g_k4())).basis) == 4

    def test_canonical_reduced_echelon_form(self):
        s = kernel_basis(RationalMatrix.from_rows([[1, 2, 3]]))
        third = Fraction(1, 3)
        assert s.basis == (vec([1, 0, -third]), vec([0, 1, -2 * third]))


class TestSolve:
    def test_identity_solve(self):
        assert solve_particular(RationalMatrix.from_rows([[1, 0], [0, 1]]), [3, 4]) == vec([3, 4])

    def test_underdetermined_canonical(self):
        m = RationalMatrix.from_rows([[1, 1]])
        x = solve_particular(m, [2])
        assert x == vec([2, 0])
        assert matvec(m, x) == vec([2])

    def test_inconsistent(self):
        m = RationalMatrix.from_rows([[1], [0]])
        assert solve_particular(m, [0, 1]) is None


class TestOrthogonalize:
    def test_hand_example(self):
        o = orthogonalize((vec([1, 1]), vec([1, 0])))
        assert o == (vec([1, 1]), vec([Fraction(1, 2), Fraction(-1, 2)]))

    def test_already_orthogonal_unchanged(self):
        s = (vec([1, 0, 0]), vec([0, 2, 0]))
        assert orthogonalize(s) == s

    def test_dependency_vector_triple_span_preserved(self):
        from fixture_graphs import dependency_vectors

        g = g_k4()
        v = dependency_vectors(g)
        add = lambda a, b: [x + y for x, y in zip(a, b)]
        sub = lambda a, b: [x - y for x, y in zip(a, b)]
        triple = [add(v["v1"], v["v2"]), sub(v["v1"], v["v3"]), add(v["v1"], v["v4"])]
        s = subspace_from_span(triple, 12)
        assert s.dim == 3
        o = orthogonalize(s.basis)
        assert spans_same(subspace_from_span(o, 12), s)
        for i in range(len(o)):
            for j in range(i):
                assert dot(o[i], o[j]) == 0


class TestCoords:
    def test_single_vector(self):
        assert coords_in_basis([2, 2], [vec([1, 1])]) == vec([2])

    def test_orthogonal_component_is_zero(self):
        assert coords_in_basis([1, -1], [vec([1, 1])]) == vec([0])

    def test_reconstruction(self):
        b1, b2 = vec([1, 1, 0]), vec([1, -1, 0])
        v = [3 * a + 5 * b for a, b in zip(b1, b2)]
        assert coords_in_basis(v, [b1, b2]) == vec([3, 5])


class TestDet:
    def test_triangular(self):
        assert det(RationalMatrix.from_rows([[2, 1], [0, 3]])) == 6

    def test_rational_entries(self):
        m = RationalMatrix.from_rows([[Fraction(1, 2), 1], [1, Fraction(1, 2)]])
        assert det(m) == Fraction(-3, 4)

    def test_singular(self):
        assert det(RationalMatrix.from_rows([[1, 2], [2, 4]])) == 0


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rank_nullity(m):
    assert rank(m) + len(kernel_basis(m).basis) == m.cols


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_kernel_vectors_annihilate(m):
    for b in kernel_basis(m).basis:
        assert all(x == 0 for x in matvec(m, b))


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 6).flatmap(
        lambda c: st.lists(st.lists(rationals, min_size=c, max_size=c), max_size=6).map(
            lambda rows: (rows, c)
        )
    ),
    st.integers(0, 2),
    st.integers(0, 2),
)
def test_kernel_is_the_reduced_echelon_form_of_the_naive_kernel(shape, zeros, repeat):
    # 0 x n and m x 0 matrices, zero rows and repeated (dependent) rows
    rows, ncols = shape
    rows = rows + [[Fraction(0)] * ncols] * zeros + rows[:repeat]
    got = kernel_basis(RationalMatrix.from_rows(rows, cols=ncols))
    assert got.basis == naive_kernel_subspace(rows, ncols).basis


@settings(max_examples=60, deadline=None)
@given(row_lists(), st.integers(0, 3))
def test_reduced_bareiss_rows_are_rref_multiples(rows, repeat):
    # Repeated rows make the matrix rank-deficient, so columns get skipped.
    rows = rows + rows[:repeat]
    a = integer_rows(rows)
    pivots, _ = bareiss(a, len(rows[0]), reduced=True)
    rref, want_pivots = naive_rref(rows)
    assert pivots == want_pivots
    for got, want in zip(a, rref):
        lead = next(x for x in want if x)
        scale = Fraction(got[want.index(lead)]) / lead
        assert scale != 0 and all(g == scale * w for g, w in zip(got, want))
    assert not any(any(row) for row in a[len(pivots):])


def _assert_engine_matches_oracles(rows, rhs) -> None:
    m = RationalMatrix.from_rows(rows)
    rref, pivots = naive_rref(rows)
    assert rank(m) == len(pivots)
    assert kernel_basis(m) == naive_kernel_subspace(rows, m.cols)
    assert subspace_from_span(rows, m.cols).basis == tuple(tuple(r) for r in rref)
    assert solve_particular(m, rhs) == naive_solve(rows, rhs, m.cols)
    k = min(m.rows, m.cols, 5)
    square = RationalMatrix.from_rows([r[:k] for r in rows[:k]])
    assert det(square) == cofactor_det([r[:k] for r in rows[:k]])


@settings(max_examples=60, deadline=None)
@given(row_lists(max_dim=6), st.data())
def test_engine_matches_naive_oracles(rows, data):
    rhs = data.draw(st.lists(rationals, min_size=len(rows), max_size=len(rows)))
    _assert_engine_matches_oracles(rows, rhs)


def test_engine_matches_naive_oracles_on_seeded_kinds():
    rng = random.Random(8)
    for kind in ("sparse", "deficient", "negative", "swap"):
        for _ in range(250):
            rows = random_engine_matrix(rng, kind)
            # Half the right-hand sides lie in the column space.
            if rng.random() < 0.5:
                x = [random_rational(rng) for _ in range(len(rows[0]))]
                rhs = matvec(RationalMatrix.from_rows(rows), x)
            else:
                rhs = [random_rational(rng) for _ in range(len(rows))]
            _assert_engine_matches_oracles(rows, rhs)


@settings(max_examples=60, deadline=None)
@given(matrices(max_dim=6), st.data())
def test_solve_substitution_or_certified_inconsistent(m, data):
    b = data.draw(st.lists(rationals, min_size=m.rows, max_size=m.rows))
    x = solve_particular(m, b)
    augmented = RationalMatrix.from_rows(
        [list(m.row(i)) + [b[i]] for i in range(m.rows)]
    )
    if x is None:
        assert rank(augmented) > rank(m)
    else:
        assert matvec(m, x) == vec(b)
        assert rank(augmented) == rank(m)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(rationals, min_size=4, max_size=4), min_size=1, max_size=4))
def test_orthogonalize_preserves_span_and_orthogonality(rows):
    s = subspace_from_span(rows, 4)
    o = orthogonalize(s.basis)
    assert spans_same(subspace_from_span(o, 4), s)
    for i in range(len(o)):
        assert dot(o[i], o[i]) > 0
        for j in range(i):
            assert dot(o[i], o[j]) == 0


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.lists(rationals, min_size=4, max_size=4), min_size=1, max_size=3),
    st.lists(rationals, min_size=4, max_size=4),
)
def test_coords_give_orthogonal_projection(rows, v):
    s = orthogonalize(subspace_from_span(rows, 4).basis)
    if len(s) == 0:
        return
    cs = coords_in_basis(v, s)
    proj = [Fraction(0)] * 4
    for c, b in zip(cs, s):
        for i, x in enumerate(b):
            proj[i] += c * x
    residual = [a - b for a, b in zip(vec(v), proj)]
    for b in s:
        assert dot(residual, b) == 0


def test_span_checks_length_of_zero_vectors():
    with pytest.raises(ValueError):
        subspace_from_span([[0, 0, 0]], 2)
    with pytest.raises(ValueError):
        subspace_from_span([[1, 0, 0]], 2)


def test_subspace_rejects_dependent_basis():
    with pytest.raises(ValueError):
        Subspace(2, (vec([1, 1]), vec([2, 2])))


@pytest.mark.parametrize(
    "basis",
    [
        ((1, 1), (1, 0)),  # independent, but the second vector leads in column 0 too
        ((2, 0),),  # leading entry not 1
        ((0, 1), (1, 0)),  # leading columns out of order
        ((1, 1), (0, 1)),  # nonzero at a later vector's leading column
        ((0, 0),),  # the zero vector
    ],
)
def test_subspace_refuses_bases_not_in_reduced_echelon_form(basis):
    with pytest.raises(ValueError, match="reduced echelon"):
        Subspace(2, tuple(vec(b) for b in basis))


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.lists(rationals, min_size=4, max_size=4), max_size=4),
    st.lists(rationals, min_size=4, max_size=4),
    st.lists(rationals, min_size=4, max_size=4),
    st.booleans(),
)
def test_contains_matches_rank_oracle(rows, v, coeffs, member):
    s = subspace_from_span(rows, 4)
    if member:  # a combination of the basis, so both answers occur
        v = combine(coeffs[: s.dim], s.basis, 4)
    assert s.contains(v) == rank_contains(s, v)
    assert s.contains(v) or not member


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.lists(rationals, min_size=4, max_size=4), min_size=1, max_size=4),
    st.lists(st.fractions(min_value=1, max_value=4, max_denominator=3), min_size=4, max_size=4),
)
def test_spanning_sets_of_one_space_give_equal_subspaces(rows, scales):
    # reversed, rescaled, and with the sum of the rows added: the same span
    other = [[c * x for x in r] for c, r in zip(scales, reversed(rows))]
    other.append([sum(col, Fraction(0)) for col in zip(*rows)])
    assert subspace_from_span(rows, 4) == subspace_from_span(other, 4)


def test_subspace_equality_is_equality_of_spans():
    plane = subspace_from_span([[1, 1, 0], [1, -1, 0]], 3)
    assert plane == subspace_from_span([[0, 2, 0], [3, 0, 0]], 3)
    assert plane != subspace_from_span([[1, 0, 0]], 3)
    assert plane != subspace_from_span([[1, 0, 0], [0, 0, 1]], 3)


def test_orthogonalize_refuses_dependent_vectors():
    with pytest.raises(ValueError, match="dependent"):
        orthogonalize((vec([1, 2, 0]), vec([0, 1, 1]), vec([2, 5, 1])))
    with pytest.raises(ValueError, match="dependent"):
        orthogonalize((vec([0, 0]),))


def test_det_cross_check_random():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 4)
        rows = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
        assert det(RationalMatrix.from_rows(rows)) == cofactor_det(rows)


def _random_half_integer_network(rng: random.Random) -> EGraph:
    """5 to 8 distinct points of ((1/2)Z)^3 with |coordinate| <= 2, joined by
    the bidirected closure of random edges that touch every point."""
    m = rng.randint(5, 8)
    points: set[tuple[Fraction, ...]] = set()
    while len(points) < m:
        points.add(tuple(Fraction(rng.randint(-4, 4), 2) for _ in range(3)))
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    while True:
        chosen = rng.sample(pairs, rng.randint(m - 1, 2 * m))
        if len({v for e in chosen for v in e}) == m:
            edges = sorted(set(chosen) | {(t, s) for s, t in chosen})
            return EGraph(3, sorted(points), edges)


def _oracle_graphs():
    fixtures = [g_cyc(), g_k4(), g_in(), g_two_vertex(), g_three_cycle(), g_two_classes(),
                g_long_cycle(30)]
    rng = random.Random(2026)
    four = [random_four_vertex_graph(rng, n, den) for n in (2, 3) for den in (1, 2)
            for _ in range(55)]
    return fixtures + four + [_random_half_integer_network(rng) for _ in range(40)]


def test_support_gram_schmidt_and_coords_match_dense_oracles():
    """On the D0 and J0 bases of every fixture, of 220 random four-vertex
    graphs and of 40 random 3-D half-integer networks, the support-wise
    Gram-Schmidt and coordinates return exactly the dense results."""
    rng = random.Random(16)
    nonempty = 0
    for g in _oracle_graphs():
        for s in (d0_basis(g), j0_basis(g)):
            o = orthogonalize(s.basis)
            assert o == dense_orthogonalize(s.basis)
            if not s.basis:
                continue
            nonempty += 1
            sparse_v = [random_rational(rng) if rng.random() < 0.3 else 0 for _ in range(s.ambient)]
            for v in ([random_rational(rng) for _ in range(s.ambient)], sparse_v, s.basis[-1]):
                assert coords_in_basis(v, o) == dense_coords_in_basis(v, o)
                assert coords_in_basis(v, s.basis) == dense_coords_in_basis(v, s.basis)
    assert nonempty >= 100  # 117 of the 534 bases are nonempty


def test_coords_keep_the_length_check_and_zero_division():
    with pytest.raises(ValueError, match="lengths 2 and 3"):
        coords_in_basis([1, 2], [vec([1, 0, 0])])
    with pytest.raises(ZeroDivisionError):
        coords_in_basis([1, 2], [vec([0, 0])])
