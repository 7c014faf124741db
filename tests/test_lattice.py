import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgforge import (
    CharacterAction,
    CharacterSolveError,
    LaurentPoly,
    NotInSublatticeError,
    RankMismatchError,
    Sublattice,
    invariant_sublattice,
    parse_poly,
    rewrite_in_sublattice,
    smith_normal_form,
    solve_character,
)
from lgforge.lattice import hermite_column_basis, unimodular_inverse

import oracles


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

def assert_valid_snf(a):
    snf = smith_normal_form(a)
    u, d, v = [list(map(list, m)) for m in (snf.U, snf.D, snf.V)]
    assert oracles.mat_mul(oracles.mat_mul(u, d), v) == [list(r) for r in a]
    assert abs(oracles.mat_det(u)) == 1
    assert abs(oracles.mat_det(v)) == 1
    diag = [d[i][i] for i in range(min(len(d), len(d[0])))]
    for i in range(len(d)):
        for j in range(len(d[0])):
            if i != j:
                assert d[i][j] == 0
    for a_, b_ in zip(diag, diag[1:]):
        assert a_ >= 0 and b_ >= 0
        if a_ == 0:
            assert b_ == 0
        else:
            assert b_ % a_ == 0
    return diag


def test_snf_identity():
    snf = smith_normal_form([[1, 0], [0, 1]])
    assert snf.U == snf.D == snf.V == ((1, 0), (0, 1))


def test_snf_diag_2_3():
    assert assert_valid_snf([[2, 0], [0, 3]]) == [1, 6]


def test_snf_unimodular_input():
    assert assert_valid_snf([[2, 1], [1, 1]]) == [1, 1]


def test_snf_singular():
    assert assert_valid_snf([[2, 4], [1, 2]]) == [1, 0]


def test_snf_zero_matrix():
    assert assert_valid_snf([[0, 0], [0, 0]]) == [0, 0]


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4))
def test_snf_random(seed, n):
    rng = random.Random(seed)
    a = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
    assert_valid_snf(a)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4), st.integers(1, 4), st.integers(0, 4))
def test_snf_rectangular(seed, m, n, rank):
    # an m x k times k x n product has rank at most k, so k < min(m, n)
    # gives rank-deficient inputs
    rng = random.Random(seed)
    k = min(rank, m, n)
    x = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(m)]
    y = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
    a = oracles.mat_mul(x, y) if k else [[0] * n for _ in range(m)]
    diag = assert_valid_snf(a)
    assert sum(1 for v in diag if v) <= k


@pytest.mark.parametrize("a", [[[1, 2], [3]], [[1], [2, 3]]], ids=["short-row", "long-row"])
def test_snf_rejects_ragged_rows(a):
    with pytest.raises(RankMismatchError):
        smith_normal_form(a)


# ---------------------------------------------------------------------------
# unimodular inverses
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4))
def test_unimodular_inverse(seed, n):
    a = oracles.random_unimodular(random.Random(seed), n)
    assert oracles.mat_mul(unimodular_inverse(a), a) == [
        [1 if i == j else 0 for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("a", [[[1, 2], [2, 4]], [[1, 2], [3, 4]], [[2]]],
                         ids=["singular", "det-2", "scalar-2"])
def test_unimodular_inverse_rejects_non_unimodular(a):
    with pytest.raises(ValueError):
        unimodular_inverse(a)


@pytest.mark.parametrize("a", [[[1, 2]], [[1, 2], [3]]], ids=["wide", "ragged"])
def test_unimodular_inverse_rejects_non_square(a):
    with pytest.raises(RankMismatchError):
        unimodular_inverse(a)


# ---------------------------------------------------------------------------
# invariant sublattices
# ---------------------------------------------------------------------------

def test_trivial_action_gives_full_lattice():
    sub = invariant_sublattice(CharacterAction((0, 0), 2))
    assert sub.index == 1
    assert sub.basis == ((1, 0), (0, 1))


def test_diagonal_action():
    sub = invariant_sublattice(CharacterAction((1, 1), 2))
    assert sub.index == 2
    assert abs(oracles.mat_det(sub.basis)) == 2
    # the columns named in the worked example span the same lattice
    assert sub.membership((-1, -1)) is not None
    assert sub.membership((1, -1)) is not None
    for col in sub.columns:
        assert sum(col) % 2 == 0


def test_parity_action_on_first_coordinate():
    sub = invariant_sublattice(CharacterAction((1, 0), 2))
    assert sub.index == 2
    assert sub.columns == ((2, 0), (0, 1))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4), st.integers(1, 6))
def test_invariant_sublattice_properties(seed, n, r):
    rng = random.Random(seed)
    w = tuple(rng.randrange(r) for _ in range(n))
    action = CharacterAction(w, r)
    sub = invariant_sublattice(action)
    assert abs(oracles.mat_det(sub.basis)) == sub.index
    assert sub.basis == hermite_column_basis(sub.columns)
    for col in sub.columns:
        assert action.fixes(col)
    # any random invariant vector is a member
    for _ in range(5):
        e = [rng.randint(-6, 6) for _ in range(n)]
        if action.fixes(e):
            assert sub.membership(e) is not None
        elif sub.membership(e) is not None:
            pytest.fail(f"non-invariant vector {e} accepted")


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------

def test_membership_full_lattice():
    full = Sublattice.full(3)
    assert full.membership((5, -2, 7)) == (5, -2, 7)


def test_membership_solves_integer_system():
    sub = Sublattice.from_columns([(-1, -1), (1, -1)])
    assert sub.membership((2, 0)) == (-1, 1)


def test_membership_parity_obstruction():
    sub = Sublattice.from_columns([(2, 0), (0, 1)])
    assert sub.membership((1, 0)) is None


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4))
def test_membership_on_random_bases(seed, n):
    rng = random.Random(seed)
    basis = [[0]]
    while oracles.mat_det(basis) == 0:
        basis = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
    sub = Sublattice.from_columns([list(col) for col in zip(*basis)])
    assert sub.index == abs(oracles.mat_det(basis))
    coords = [rng.randint(-5, 5) for _ in range(n)]
    e = [sum(b * c for b, c in zip(row, coords)) for row in basis]
    assert sub.membership(e) == tuple(coords)
    for _ in range(6):
        e = [rng.randint(-8, 8) for _ in range(n)]
        exact = oracles.fraction_solve(basis, e)
        integral = all(x.denominator == 1 for x in exact)
        assert sub.membership(e) == (tuple(int(x) for x in exact) if integral else None)


def test_same_lattice():
    sub = Sublattice.from_columns([(2, 0), (0, 1)])
    assert sub.same_lattice(Sublattice.from_columns([(2, 1), (0, 1)]))
    # same index, different lattice
    assert not sub.same_lattice(Sublattice.from_columns([(1, 0), (0, 2)]))
    # different ambient rank
    assert not Sublattice.full(2).same_lattice(Sublattice.full(3))


# ---------------------------------------------------------------------------
# rewriting
# ---------------------------------------------------------------------------

def test_rewrite_quadric_quotient():
    f = parse_poly("1/(z1*z2) + (z1+z2)^2", ["z1", "z2"])
    sub = Sublattice.from_columns([(-1, -1), (1, -1)])
    g = rewrite_in_sublattice(f, sub, varnames=("x", "y"))
    assert g == parse_poly("x + (1+y)^2/(x*y)", ["x", "y"])


def test_rewrite_hirzebruch():
    f = parse_poly("x^2 + x*y + y^2 + 1/(x*y)", ["x", "y"])
    sub = Sublattice.from_columns([(-1, -1), (2, 0)])
    g = rewrite_in_sublattice(f, sub, varnames=("u", "v"))
    assert g == parse_poly("v + 1/u + 1/(u^2*v) + u", ["u", "v"])


def test_rewrite_reports_offending_monomial():
    f = parse_poly("x + y", ["x", "y"])
    sub = Sublattice.from_columns([(1, 1), (1, -1)])
    with pytest.raises(NotInSublatticeError) as err:
        rewrite_in_sublattice(f, sub)
    assert err.value.exponent in ((1, 0), (0, 1))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_rewrite_round_trip(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 3)
    r = rng.randint(1, 4)
    action = CharacterAction(tuple(rng.randrange(r) for _ in range(n)), r)
    sub = invariant_sublattice(action)
    # random polynomial supported on the sublattice
    cols = [list(c) for c in sub.columns]
    terms = {}
    for _ in range(rng.randint(1, 6)):
        coords = [rng.randint(-3, 3) for _ in range(n)]
        e = tuple(sum(cols[j][i] * coords[j] for j in range(n)) for i in range(n))
        terms[e] = terms.get(e, 0) + rng.randint(1, 5)
    f = LaurentPoly(n, terms)
    g = rewrite_in_sublattice(f, sub)
    assert g.monomial_substitute([list(row) for row in sub.basis]) == f


# ---------------------------------------------------------------------------
# Hermite form and deck-character solving
# ---------------------------------------------------------------------------

def test_hermite_basis_is_deterministic_for_equivalent_generators():
    a = hermite_column_basis([(2, 0), (1, 1)])
    b = hermite_column_basis([(1, 1), (-1, 1), (3, 1)])
    assert a == b  # both generate {e1 + e2 even}


def test_solve_character_examples():
    support = [(1, 0), (0, 1), (-1, -1)]
    assert solve_character(support, [1, 1, 0], 2) == (1, 1)
    assert solve_character(support, [0, 0, 0], 2) == (0, 0)
    support2 = [(1, 0), (-1, -1), (-1, 0), (-1, 1)]
    assert solve_character(support2, [1, 1, 1, 1], 2) == (1, 0)


def test_solve_character_inconsistent():
    with pytest.raises(CharacterSolveError):
        solve_character([(1, 0), (-1, 0)], [1, 1], 3)


def test_solve_character_is_lex_minimal():
    rng = random.Random(5)
    for i in range(80):
        n = rng.randint(1, 3)
        r = rng.randint(2, 4)
        w_true = tuple(rng.randrange(r) for _ in range(n))
        support = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(rng.randint(1, 4))]
        if i % 2:  # targets that need not be consistent
            targets = [rng.randrange(r) for _ in support]
        else:
            targets = [sum(a * b for a, b in zip(w_true, e)) % r for e in support]
        brute = min(
            (w for w in _all_vectors(n, r)
             if all(sum(a * b for a, b in zip(w, e)) % r == t
                    for e, t in zip(support, targets))),
            default=None,
        )
        if brute is None:
            with pytest.raises(CharacterSolveError):
                solve_character(support, targets, r)
        else:
            assert solve_character(support, targets, r) == brute


def _all_vectors(n, r):
    import itertools
    return itertools.product(range(r), repeat=n)
