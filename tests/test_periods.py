import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgforge import (
    DescendantConstant,
    LaurentPoly,
    PeriodSequence,
    ReferenceFormatError,
    SequenceRangeError,
    descendant_constant,
    ingest_reference,
    is_weak_lg,
    parse_poly,
    period_sequence,
)

import oracles


def test_p2_sequence():
    f = parse_poly("x + y + 1/(x*y)", ["x", "y"])
    seq = period_sequence(f, 9)
    assert list(seq.coeffs) == [1, 0, 0, 6, 0, 0, 90, 0, 0, 1680]
    assert list(seq.coeffs) == [oracles.p2_constant_term(k) for k in range(10)]


def test_central_binomials():
    f = parse_poly("x + 1/x", ["x"])
    seq = period_sequence(f, 6)
    assert list(seq.coeffs) == [1, 0, 2, 0, 6, 0, 20]
    assert list(seq.coeffs) == [oracles.central_binomial_term(k) for k in range(7)]


def test_zero_potential():
    seq = period_sequence(LaurentPoly.zero(2), 5)
    assert list(seq.coeffs) == [1, 0, 0, 0, 0, 0]


def test_sequence_requires_unit_head():
    with pytest.raises(ValueError):
        PeriodSequence("bad", (Fraction(2),), "computed")


# ---------------------------------------------------------------------------
# descendants
# ---------------------------------------------------------------------------

def test_descendant_p2():
    f = parse_poly("x + y + 1/(x*y)", ["x", "y"])
    d = descendant_constant(period_sequence(f, 3), 3)
    assert d == DescendantConstant(3, Fraction(6))


def test_descendant_quadric():
    f = parse_poly("x + (1+y)^2/(x*y)", ["x", "y"])
    d = descendant_constant(period_sequence(f, 2), 2)
    assert d.value == 4


def test_descendant_normalization():
    f = parse_poly("x + 1/x", ["x"])
    assert descendant_constant(period_sequence(f, 4), 0).value == 1


def test_descendant_out_of_range():
    f = parse_poly("x + 1/x", ["x"])
    with pytest.raises(SequenceRangeError):
        descendant_constant(period_sequence(f, 2), 5)


# ---------------------------------------------------------------------------
# weak LG checks
# ---------------------------------------------------------------------------

def test_weak_lg_self_consistency():
    f = parse_poly("x + y + 1/(x*y)", ["x", "y"])
    report = is_weak_lg(f, period_sequence(f, 9), 9, k_min=1)
    assert report.passed


def test_weak_lg_double_cover_of_line():
    f = parse_poly("x^2 + x^-2", ["x"])
    ref = PeriodSequence(
        "central-binomials",
        tuple(Fraction(comb(k, k // 2)) if k % 2 == 0 else Fraction(0) for k in range(11)),
        "ingested")
    assert is_weak_lg(f, ref, 10).passed


def test_weak_lg_failure_is_reported_not_raised():
    f = parse_poly("x + y + 2/(x*y)", ["x", "y"])
    ref = PeriodSequence(
        "P2", tuple(Fraction(oracles.p2_constant_term(k)) for k in range(10)), "ingested")
    report = is_weak_lg(f, ref, 9)
    assert not report.passed
    first_bad = next(r for r in report.rows if not r.match)
    assert first_bad.k == 3
    assert (first_bad.computed, first_bad.reference) == (12, 6)


def test_weak_lg_requires_coverage():
    f = parse_poly("x + 1/x", ["x"])
    short = period_sequence(f, 3)
    with pytest.raises(SequenceRangeError):
        is_weak_lg(f, short, 8)


@pytest.mark.parametrize("k_min, up_to", [(9, 4), (-3, 4), (0, -1)])
def test_weak_lg_rejects_an_empty_or_negative_range(k_min, up_to):
    f = parse_poly("x + 1/x", ["x"])
    with pytest.raises(ValueError, match="empty or negative"):
        is_weak_lg(f, period_sequence(f, 4), up_to, k_min=k_min)


# ---------------------------------------------------------------------------
# ingestion
# ---------------------------------------------------------------------------

def test_ingest_csv(tmp_path):
    path = tmp_path / "p1xp1.csv"
    path.write_text("k,coeff\n2,4\n4,36\n")
    seq = ingest_reference(path)
    assert list(seq.coeffs) == [1, 0, 4, 0, 36]
    assert seq.source == "ingested"
    assert [oracles.p1xp1_constant_term(k) for k in range(5)] == [1, 0, 4, 0, 36]


def test_ingest_fills_gaps_with_one_shared_zero(tmp_path):
    # a gap costs one list slot, not a Fraction of its own
    path = tmp_path / "sparse.csv"
    path.write_text("k,coeff\n3,6\n100000,1\n")
    seq = ingest_reference(path)
    assert seq.max_power == 100000
    assert seq.coeffs[:4] == (1, 0, 0, 6) and seq.coeffs[-1] == 1
    assert len({id(c) for c in seq.coeffs[1:-1] if c == 0}) == 1


def test_ingest_json(tmp_path):
    path = tmp_path / "p2.json"
    path.write_text('{"name": "P2", "coeffs": [[3, "6"], [6, "90"]]}')
    seq = ingest_reference(path)
    assert seq.name == "P2"
    assert list(seq.coeffs) == [1, 0, 0, 6, 0, 0, 90]


def test_ingest_rational_and_signed(tmp_path):
    path = tmp_path / "ref.csv"
    path.write_text("k,coeff\n1,-3\n2,5/2\n")
    seq = ingest_reference(path)
    assert list(seq.coeffs) == [1, -3, Fraction(5, 2)]


def test_ingest_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ReferenceFormatError):
        ingest_reference(path)


def test_ingest_duplicate_k(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("k,coeff\n2,4\n2,5\n")
    with pytest.raises(ReferenceFormatError):
        ingest_reference(path)


def test_ingest_bad_cell_reports_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("k,coeff\n2,4\n3,abc\n")
    with pytest.raises(ReferenceFormatError) as err:
        ingest_reference(path)
    assert err.value.line == 3


def test_ingest_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("idx,value\n2,4\n")
    with pytest.raises(ReferenceFormatError):
        ingest_reference(path)


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_periods_invariant_under_unimodular_substitution(seed):
    rng = random.Random(seed)
    f = LaurentPoly(2, oracles.random_poly_terms(rng, 2, 4, exp_range=2))
    a = oracles.random_unimodular(rng, 2)
    g = f.monomial_substitute(a)
    assert period_sequence(f, 5).coeffs == period_sequence(g, 5).coeffs


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 5))
def test_periods_of_disjoint_sum_convolve(seed, up_to):
    # c0((f(+)g)^k) = sum_j C(k,j) c0(f^j) c0(g^(k-j)) when f, g use disjoint
    # variables; period_sequence applies that rule itself, so the reference is
    # naive powering of each summand.
    rng = random.Random(seed)
    f1 = oracles.random_poly_terms(rng, 1, 3, exp_range=2)
    g1 = oracles.random_poly_terms(rng, 1, 3, exp_range=2)
    f = LaurentPoly(1, f1).monomial_substitute([[1], [0]])   # embed into rank 2, first coordinate
    g = LaurentPoly(1, g1).monomial_substitute([[0], [1]])
    combined = period_sequence(f + g, up_to)
    pf = [oracles.constant_term_of_power(f1, j, 1) for j in range(up_to + 1)]
    pg = [oracles.constant_term_of_power(g1, j, 1) for j in range(up_to + 1)]
    for k in range(up_to + 1):
        expected = sum(comb(k, j) * pf[j] * pg[k - j] for j in range(k + 1))
        assert combined[k] == expected
        assert combined[k] == oracles.constant_term_of_power((f + g).terms, k, 2)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_nonnegative_integer_coefficients(seed):
    rng = random.Random(seed)
    terms = {e: abs(c) for e, c in oracles.random_poly_terms(rng, 2, 4, exp_range=2).items()}
    f = LaurentPoly(2, terms)
    for c in period_sequence(f, 5).coeffs:
        assert c.denominator == 1 and c >= 0
