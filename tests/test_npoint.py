from fractions import Fraction

import pytest

from dessin.laurent import LaurentPolynomial
from dessin.npoint import NPointSeries, as_polynomial, as_vector, index_tuples
from dessin.series import SeriesWindowError

S = LaurentPolynomial.variable("s")
U = LaurentPolynomial.variable("u")
V = LaurentPolynomial.variable("v")
A = LaurentPolynomial.variable("a")


def test_index_tuples_enumeration():
    assert list(index_tuples(1, 4)) == [(1,), (2,), (3,)]
    assert list(index_tuples(2, 6)) == [(1, 1), (1, 2), (1, 3), (2, 2)]
    assert list(index_tuples(3, 5)) == []
    # tuples are nondecreasing and within budget
    for key in index_tuples(3, 12):
        assert key == tuple(sorted(key))
        assert sum(a + 1 for a in key) <= 12


def test_symmetric_storage_and_lookup():
    series = NPointSeries(0, 2, 8)
    series.set_coefficient((3, 1), (1, 0, 0, 0, 0))  # degree 4 at |A| = 4
    assert series.coefficient((1, 3)) == S ** 4 * U ** 4
    assert series.coefficient((3, 1)) == S ** 4 * U ** 4
    assert series.vector((3, 1)) == (1, 0, 0, 0, 0)
    assert (1, 3) in series.keys()


def test_window_and_validation():
    series = NPointSeries(0, 2, 6)
    with pytest.raises(SeriesWindowError):
        series.coefficient((3, 3))
    with pytest.raises(ValueError):
        series.coefficient((1,))
    with pytest.raises(ValueError):
        series.coefficient((0, 1))


def test_first_difference_orders_align():
    a = NPointSeries(0, 1, 8)
    b = NPointSeries(0, 1, 6)
    a.set_coefficient((6,), (0,) * 7 + (1,))  # beyond b's window: not compared
    assert a.first_difference(b) is None
    b.set_coefficient((2,), (0, 1, 0, 0))
    assert a.first_difference(b) == ((2,), LaurentPolynomial.zero(), S ** 2 * U ** 2 * V)


def test_json_round_trip():
    series = NPointSeries(1, 2, 9)
    series.set_coefficient((1, 2), (1, 0))  # s^3 u: degree 1 at genus one
    blob = series.to_json()
    assert blob["alphabet"] == ["s", "u", "v"]
    back = NPointSeries.from_json(blob)
    assert back.first_difference(series) is None
    assert (back.genus, back.n, back.order) == (1, 2, 9)


def test_too_small_an_order_is_rejected_when_built():
    with pytest.raises(ValueError, match=r"cannot hold any 3-point tuple \(need >= 6\)"):
        NPointSeries(0, 3, 5)


@pytest.mark.parametrize("n", [0, -1])
def test_fewer_than_one_slot_is_rejected(n):
    with pytest.raises(ValueError, match="needs n >= 1"):
        NPointSeries(0, n, 4)
    blob = dict(NPointSeries(0, 1, 4).to_json(), n=n)
    with pytest.raises(ValueError, match="needs n >= 1"):
        NPointSeries.from_json(blob)


def test_set_coefficient_rejects_ungraded_vectors():
    series = NPointSeries(0, 2, 8)
    series.set_coefficient((1, 2), (0, 1, 1, 0))  # degree 3 at (1, 2)
    # every route writes its own vectors, so a wrong one is an internal fault (exit 3), not bad input
    for bad in [(1, 0, 0), (1, 0, 0, 0, 0), (0, 1.0, 1, 0), (0, True, 1, 0)]:
        with pytest.raises(AssertionError, match="has degree 3"):
            series.set_coefficient((2, 1), bad)
    with pytest.raises(AssertionError, match="expected 2 indices"):
        series.set_coefficient((1, 1, 1), (0, 0, 0, 0))
    assert series.vector((1, 2)) == (0, 1, 1, 0)
    assert series.vector((1, 1)) == (0, 0, 0)  # nothing stored: zeros of the graded length


def test_from_json_rejects_what_no_graded_vector_holds():
    series = NPointSeries(0, 2, 8)
    series.set_coefficient((1, 2), (0, 1, 1, 0))
    good = series.to_json()
    assert NPointSeries.from_json(good).first_difference(series) is None
    for poly in [S ** 4 * U ** 2 * V, (S ** 3 * U ** 2 * V) / 2, S ** 3 * U ** 4 / V, S ** 3 * U ** 2 * V * A, S ** 3 * U ** 2]:
        blob = dict(good, coefficients=[{"indices": [1, 2], "poly": poly.to_json()}])
        with pytest.raises(ValueError, match="expected"):
            NPointSeries.from_json(blob)
    blob = dict(good, coefficients=[{"indices": [1, 1, 1], "poly": (S ** 3 * U * V).to_json()}])
    with pytest.raises(ValueError, match="expected 2 indices"):
        NPointSeries.from_json(blob)


def test_polynomial_and_vector_are_inverse():
    assert as_polynomial(3, (0, 2, 1, 0)) == 2 * S ** 3 * U ** 2 * V + S ** 3 * U * V ** 2
    assert as_polynomial(2, (3,), 4) == LaurentPolynomial.monomial(Fraction(3, 4), {"s": 2})
    series = NPointSeries(0, 2, 8)
    series.set_coefficient((2, 1), as_vector(3, 3, 2 * S ** 3 * U ** 2 * V + S ** 3 * U * V ** 2))
    assert series.vector((1, 2)) == (0, 2, 1, 0)


# the 13 (genus, points, order) targets of the vir-fill benchmark workload
VIR_FILL_TARGETS = ([(g, 1, 20) for g in range(4)] + [(g, 2, 18) for g in range(3)]
                    + [(g, 3, 16) for g in range(3)] + [(g, 4, 16) for g in range(3)])


def to_json_by_polynomials(series):
    """What to_json wrote when each coefficient went through a LaurentPolynomial."""
    return {
        "genus": series.genus, "n": series.n, "order": series.order, "alphabet": ["s", "u", "v"],
        "coefficients": [
            {"indices": list(key), "poly": as_polynomial(sum(key), series.vector(key)).to_json(("s", "u", "v"))}
            for key in series.keys()],
    }


def test_json_is_written_from_the_rows_as_the_polynomial_route_wrote_it(vir, eo):
    outputs = [vir.npoint_series(g, n, order) for g, n, order in VIR_FILL_TARGETS]
    assert sum(len(out.coefficients) for out in outputs) == 590
    x_series = eo.to_x_series(1, 2, 10)
    # no x-picture coefficient is negative, so one series is negated to reach the signed path
    negated = NPointSeries(x_series.genus, x_series.n, x_series.order)
    for key, vec in x_series.coefficients.items():
        negated.set_coefficient(key, tuple(-c if j % 2 else c for j, c in enumerate(vec)))
    assert any(c < 0 for vec in negated.coefficients.values() for c in vec)
    for series in outputs + [x_series, negated]:
        assert series.to_json() == to_json_by_polynomials(series)
