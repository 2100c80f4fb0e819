"""The EO engine's (alpha, beta) forms against the (a, b) recursion they replaced.

``EAReference`` is that recursion: forms keyed (e_a, h_1 <= .. <= h_n) over a
power of two, e_b = -2(2g-2+n) - e_a fixed by homogeneity, with kappa expanded
over (a, b) as 2^5 kappa(z) = (alpha z^2 - beta)(z^2 - 1)^2 / (a^2 b^2).  The
engine keys a form (j, h_1 <= .. <= h_n), j the power of beta, and expands it
in (a, b) only at the edge (``EOForm.ab_terms``); the two must agree key for
key, under both charts.
"""

from bisect import bisect_left, bisect_right
from collections import defaultdict
from fractions import Fraction

import pytest

from dessin.eo import BERGMAN_DOUBLE, BERGMAN_PAIR, NO_PAIR, EOEngine, EOForm, _halved_table, _picks, _products, _summed
from test_eo import DEEP_CASES

GAPS = ((1, -2, 1), (1, 2, 1))  # alpha = (a - b)^2 and beta = (a + b)^2 over (a^2, ab, b^2)
KAPPA_SHIFT = 5  # 2 (alpha - beta)^2 = 2^5 a^2 b^2


class EAReference:
    """w_{g,n} by residue recursion on (e_a, h_1, .., h_n) keys, memoized in ``forms``."""

    def __init__(self, dual: bool):
        alpha, beta = GAPS[::-1] if dual else GAPS
        # the numerator -beta + (alpha + 2 beta) z^2 - (2 alpha + beta) z^4 + alpha z^6 over a^2 b^2
        mixes = {0: (0, -1), 2: (1, 2), 4: (-2, -1), 6: (1, 0)}
        self.kappa = tuple((-i, ez, c) for ez, (p, q) in mixes.items()
                           for i, c in enumerate(p * x + q * y for x, y in zip(alpha, beta)) if c)
        self.forms = {}

    def omega(self, g, n):
        if (g, n) in self.forms:
            return self.forms[g, n]
        parts = []
        if g >= 1 and (g - 1, n + 1) == (0, 2):
            parts.append(({(0, -1): 1}, 2))  # w_{0,2}(z, -z) = 1/(4 z^2)
        elif g >= 1:
            form = self.omega(g - 1, n + 1)
            diagonal = defaultdict(int)
            for exps, c in form.by_first_slot.items():
                for h, rest in _picks(exps[2:]):
                    diagonal[(exps[0], exps[1] + h) + rest] += c
            parts.append((diagonal, form.shift))
        for g1 in range(g + 1):
            for n1 in range(1, n + 1):
                if 2 * g1 - 2 + n1 > 0 and 2 * (g - g1) - 1 + n - n1 > 0:
                    parts.append(_products(self.omega(g1, n1), self.omega(g - g1, n + 1 - n1)))
        outputs = [self.residues(_summed(parts), NO_PAIR)]
        if (g, n) == (0, 3):
            outputs.append(self.residues(({(0, 0): 1}, 0), BERGMAN_DOUBLE))
        elif n > 1 and 2 * g - 3 + n > 0:
            form = self.omega(g, n - 1)
            outputs.append(self.residues((form.by_first_slot, form.shift), BERGMAN_PAIR))
        self.forms[g, n] = form = EOForm(g, n, *_summed(outputs, sign=-1))
        return form

    def residues(self, integrand, signs):
        """kappa(z) F / z contracted against the closed-form residues, kept where z1 leads its orbit."""
        terms, shift = integrand
        kf = defaultdict(int)
        for key, c in terms.items():
            for ka, kz, k in self.kappa:
                kf[(key[0] + ka, 2 * key[1] - 1 + kz) + key[2:]] += c * k
        out = defaultdict(int)
        for key, c in kf.items():
            ea, spect = key[0], key[2:]
            for h1, ws, t in _halved_table(key[1], signs):
                if len(ws) == 1:
                    lo, hi = bisect_left(spect, ws[0]), bisect_right(spect, ws[0])
                    slots, ways = spect[:hi] + ws + spect[hi:], hi - lo + 1
                else:
                    slots, ways = spect + ws, int(ws[:1] <= ws[1:])
                if ways and (not slots or h1 <= slots[0]):
                    out[(ea, h1) + slots] += c * t * ways
        return out, shift + KAPPA_SHIFT


def _fractions(terms, shift):
    return {key: Fraction(c, 1 << shift) for key, c in terms.items()}


@pytest.fixture(scope="module", params=[False, True], ids=["plain", "dual"])
def charts(request):
    return EOEngine(dual=request.param), EAReference(request.param)


@pytest.mark.parametrize("g,n", DEEP_CASES)
def test_forms_expand_to_the_reference(charts, g, n):
    engine, reference = charts
    form, expected = engine.omega(g, n), reference.omega(g, n)
    assert _fractions(*form.ab_terms()) == _fractions(expected.terms, expected.shift)
    # an (a, b) key holds 2 chi + 1 powers of a where a j key holds chi + 1 powers of beta
    assert len(form.terms) < len(expected.terms)

