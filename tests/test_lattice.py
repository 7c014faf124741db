import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgforge import (
    CharacterAction,
    CharacterSolveError,
    LaurentPoly,
    NotInSublatticeError,
    Sublattice,
    invariant_sublattice,
    parse_poly,
    rewrite_in_sublattice,
    solve_character,
)
from lgforge.lattice import _hnf_rows, identity

import oracles


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


@settings(max_examples=80)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4), st.integers(1, 6))
def test_invariant_sublattice_properties(seed, n, r):
    rng = random.Random(seed)
    w = tuple(rng.randrange(r) for _ in range(n))
    action = CharacterAction(w, r)
    sub = invariant_sublattice(action)
    assert abs(oracles.mat_det(sub.basis)) == sub.index
    # the basis is canonical: its columns are the lattice's Hermite rows
    assert _hnf_rows(sub.columns) == [list(col) for col in sub.columns]
    for col in sub.columns:
        assert oracles.fixes(action, col)
    # any random invariant vector is a member
    for _ in range(5):
        e = [rng.randint(-6, 6) for _ in range(n)]
        if oracles.fixes(action, e):
            assert sub.membership(e) is not None
        elif sub.membership(e) is not None:
            pytest.fail(f"non-invariant vector {e} accepted")
    # any other basis of the lattice is accepted ...
    other = oracles.mat_mul(sub.basis, oracles.random_unimodular(rng, n))
    rebased = sub.rebased([list(col) for col in zip(*other)])
    assert rebased.basis == tuple(map(tuple, other)) and rebased.index == sub.index
    # ... and a lattice of the same index that is not this one is refused
    for _ in range(5):
        rival = invariant_sublattice(CharacterAction(tuple(rng.randrange(r) for _ in range(n)), r))
        if rival.index == sub.index and any(sub.membership(c) is None for c in rival.columns):
            with pytest.raises(ValueError, match="do not span"):
                sub.rebased(rival.columns)


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------

def test_membership_full_lattice():
    full = Sublattice.from_columns(identity(3))
    assert full.membership((5, -2, 7)) == (5, -2, 7)


def test_membership_solves_integer_system():
    sub = Sublattice.from_columns([(-1, -1), (1, -1)])
    assert sub.membership((2, 0)) == (-1, 1)


def test_membership_parity_obstruction():
    sub = Sublattice.from_columns([(2, 0), (0, 1)])
    assert sub.membership((1, 0)) is None


@settings(max_examples=80)
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


def test_rebased():
    sub = Sublattice.from_columns([(2, 0), (0, 1)])
    assert sub.rebased([(2, 1), (0, 1)]).columns == ((2, 1), (0, 1))
    # same index, different lattice
    with pytest.raises(ValueError, match="do not span"):
        sub.rebased([(1, 0), (0, 2)])
    # inside the lattice, but of index 4
    with pytest.raises(ValueError, match="do not span"):
        sub.rebased([(4, 0), (0, 1)])
    # same index, different ambient rank
    with pytest.raises(ValueError, match="do not span"):
        Sublattice.from_columns(identity(2)).rebased(identity(3))


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


@settings(max_examples=60)
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
    assert oracles.pull_back(g, sub.basis) == f


# ---------------------------------------------------------------------------
# Hermite form and deck-character solving
# ---------------------------------------------------------------------------

def test_hermite_basis_is_deterministic_for_equivalent_generators():
    a = _hnf_rows([(2, 0), (1, 1)])
    b = _hnf_rows([(1, 1), (-1, 1), (3, 1)])
    assert a == b == [[1, 1], [0, 2]]  # both generate {e1 + e2 even}


def _minors(rows, k):
    """Every k x k minor of ``rows``, by oracles.mat_det."""
    return [oracles.mat_det([[rows[i][j] for j in cols] for i in picked])
            for picked in itertools.combinations(range(len(rows)), k)
            for cols in itertools.combinations(range(len(rows[0])), k)]


@settings(max_examples=150)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4), st.integers(0, 6), st.integers(0, 4))
def test_hermite_column_basis_on_random_generators(seed, n, m, rank):
    # m generators in Z^n as the rows of an m x k times k x n product, so
    # k < n gives rank-deficient inputs
    rng = random.Random(seed)
    k = min(rank, n)
    x = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(m)]
    y = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
    gens = oracles.mat_mul(x, y) if k else [[0] * n for _ in range(m)]
    h = _hnf_rows(gens)
    # echelon form: pivots move right, are positive, and reduce what is above them
    pivots = [next(j for j, v in enumerate(row) if v) for row in h]
    assert pivots == sorted(set(pivots))
    for i, (row, p) in enumerate(zip(h, pivots)):
        assert row[p] > 0
        assert all(0 <= above[p] < row[p] for above in h[:i])
    # every generator is an integer combination of the rows
    for g in gens:
        c = oracles.fraction_solve([[row[p] for row in h] for p in pivots], [g[p] for p in pivots])
        assert all(v.denominator == 1 for v in c)
        assert [sum(ci * row[j] for ci, row in zip(c, h)) for j in range(n)] == g
    # the rows span no more than the generators: same rank, same gcd of the
    # top minors (equal to the product of the pivots at full rank)
    r = max((j for j in range(1, min(m, n) + 1) if any(_minors(gens, j))), default=0)
    assert len(h) == r
    if r:
        assert math.gcd(*_minors(gens, r)) == math.gcd(*_minors(h, r))
    if r == n:
        assert math.prod(row[p] for row, p in zip(h, pivots)) == math.gcd(*_minors(gens, n))
    rng.shuffle(gens)
    assert _hnf_rows(gens) == h


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
    infeasible = 0
    for i in range(3000):
        n = rng.randint(1, 4)
        r = rng.randint(1, 7)
        w_true = tuple(rng.randrange(r) for _ in range(n))
        support = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(rng.randint(1, 4))]
        if i % 3:  # targets that need not be consistent
            targets = [rng.randrange(r) for _ in support]
        else:
            targets = [sum(a * b for a, b in zip(w_true, e)) % r for e in support]
        brute = min(
            (w for w in itertools.product(range(r), repeat=n)
             if all(sum(a * b for a, b in zip(w, e)) % r == t
                    for e, t in zip(support, targets))),
            default=None,
        )
        if brute is None:
            infeasible += 1
            with pytest.raises(CharacterSolveError):
                solve_character(support, targets, r)
        else:
            assert solve_character(support, targets, r) == brute
    assert infeasible > 700
