from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dessin.laurent import LaurentPolynomial, lp_mul, mul_trunc, sum_polys, unit_pow_trunc

U = LaurentPolynomial.variable("u")
V = LaurentPolynomial.variable("v")
S = LaurentPolynomial.variable("s")
A = LaurentPolynomial.variable("a")
B = LaurentPolynomial.variable("b")


def test_difference_of_squares():
    assert lp_mul(U + V, U - V) == U ** 2 - V ** 2


def test_branch_product():
    # (a+b)^2 (a-b)^2 = a^4 - 2 a^2 b^2 + b^4, which is (u-v)^2 under u=a^2, v=b^2
    prod = lp_mul((A + B) ** 2, (A - B) ** 2)
    assert prod == A ** 4 - 2 * A ** 2 * B ** 2 + B ** 4
    assert ((U - V) ** 2).substitute({"u": A ** 2, "v": B ** 2}) == prod


def test_monomial_product():
    assert lp_mul(S * U * V, S * (U + V)) == S ** 2 * U ** 2 * V + S ** 2 * U * V ** 2


def test_alphabet_merging_and_equality():
    p = LaurentPolynomial(("u", "v"), {(1, 0): Fraction(1)})
    q = LaurentPolynomial(("s", "u", "v"), {(0, 1, 0): Fraction(1)})
    assert p == q  # unused symbols are canonicalized away
    assert p + V - V == q


def test_negative_exponents_and_monomial_inverse():
    m = LaurentPolynomial.monomial(Fraction(3), {"u": 2, "v": -1})
    assert m * m.inverse_monomial() == LaurentPolynomial.constant(1)
    with pytest.raises(ValueError):
        (U + V).inverse_monomial()


def test_pow_negative_only_for_monomials():
    assert (2 * U) ** -2 == LaurentPolynomial.monomial(Fraction(1, 4), {"u": -2})
    with pytest.raises(ValueError):
        (U + V) ** -1


def test_substitution_requires_invertible_for_negative_exponents():
    p = LaurentPolynomial.monomial(1, {"u": -1})
    assert p.substitute({"u": A ** 2}) == LaurentPolynomial.monomial(1, {"a": -2})
    with pytest.raises(ValueError):
        p.substitute({"u": A + B})


def test_substitution_images_must_be_monomials():
    assert (U ** 2 * V).substitute({"u": -2 * A, "v": 3}) == 12 * A ** 2
    for image in (A + B, 0, LaurentPolynomial.zero(), "a"):
        with pytest.raises(ValueError):
            U.substitute({"u": image})


def test_coefficient_extraction():
    p = S ** 2 * U + 3 * S * V - S
    assert p.coefficient_of("s", 1) == 3 * V - 1
    assert p.coefficient_of("s", 2) == U
    assert p.degree("s") == 2 and p.valuation("s") == 1


def test_json_round_trip_fixed_alphabet():
    p = S ** 2 * U * V - Fraction(5, 3) * V ** 2
    blob = p.to_json(("s", "u", "v"))
    assert blob["alphabet"] == ["s", "u", "v"]
    exps = [tuple(t["e"]) for t in blob["terms"]]
    assert exps == sorted(exps)
    assert LaurentPolynomial.from_json(blob) == p


def test_text_rendering():
    assert str(LaurentPolynomial.zero()) == "0"
    assert str(2 * U - V ** 2) == "2*u - v^2"
    assert str(LaurentPolynomial.monomial(Fraction(1, 2), {"s": -1})) == "1/2*s^-1"


def test_sum_polys_matches_pairwise():
    polys = [U ** k - k * V for k in range(6)]
    acc = LaurentPolynomial.zero()
    for p in polys:
        acc = acc + p
    assert sum_polys(polys) == acc


def test_truncated_helpers():
    t = LaurentPolynomial.variable("t")
    recip = unit_pow_trunc(1 - t, Fraction(-1), ["t"], 5)
    assert recip == sum((t ** k for k in range(6)), LaurentPolynomial.zero())
    sq = unit_pow_trunc(1 - 4 * t, Fraction(1, 2), ["t"], 3)
    assert mul_trunc(sq, sq, ["t"], 3) == (1 - 4 * t).truncate(["t"], 3)
    with pytest.raises(ValueError):
        unit_pow_trunc(2 + t, Fraction(1, 2), ["t"], 3)


# -- randomized ring laws -------------------------------------------------------

SYMBOLS = ("w", "x", "y", "z")

coeffs = st.fractions(
    min_value=Fraction(-50),
    max_value=Fraction(50),
    max_denominator=20,
)


@st.composite
def laurent_polys(draw):
    n_terms = draw(st.integers(min_value=0, max_value=5))
    terms = {}
    for _ in range(n_terms):
        exps = tuple(draw(st.integers(min_value=-5, max_value=5)) for _ in SYMBOLS)
        terms[exps] = draw(coeffs)
    return LaurentPolynomial(SYMBOLS, terms)


@settings(max_examples=200, deadline=None)
@given(laurent_polys(), laurent_polys(), laurent_polys())
def test_ring_laws(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r


@settings(max_examples=100, deadline=None)
@given(laurent_polys(), laurent_polys())
def test_substitution_homomorphism(p, q):
    sub = {"w": A ** 2, "x": B ** 2}
    assert (p + q).substitute(sub) == p.substitute(sub) + q.substitute(sub)
    assert (p * q).substitute(sub) == p.substitute(sub) * q.substitute(sub)
