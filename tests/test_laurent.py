import itertools
import random

import pytest

from clusterkit.laurent import (
    LaurentPoly,
    canonical_string,
    from_json,
    mono,
    poly_product,
    rational_string,
    sorted_terms,
    substitute_one,
    to_json,
)

x1 = LaurentPoly.variable(1)
x2 = LaurentPoly.variable(2)
x3 = LaurentPoly.variable(3)


def test_add_cancels():
    assert (x1 + (-x1)).is_zero()
    assert x1 + x2 == LaurentPoly.from_terms([(mono({1: 1}), 1), (mono({2: 1}), 1)])


def test_mul_basic():
    assert LaurentPoly.variable(1, -1) * x1 == LaurentPoly.one()
    assert (x1 + x2) * (x1 - x2) == x1 * x1 - x2 * x2


def test_cube_matches_brute_force_expansion():
    p = x1 + x2 + x3
    by_mul = p * p * p
    assert by_mul == p ** 3
    # independent oracle: expand by enumerating all factor choices
    acc = {}
    for choice in itertools.product((1, 2, 3), repeat=3):
        key = mono({v: choice.count(v) for v in set(choice)})
        acc[key] = acc.get(key, 0) + 1
    assert by_mul == LaurentPoly(acc)
    assert len(by_mul) == 10
    assert by_mul.coefficient_sum() == 27


def test_substitute_one():
    p = LaurentPoly.monomial({5: 1, 6: 1, 9: 1, 10: 1, 1: -1, 2: -1, 3: -1})
    assert substitute_one(p, {8, 9, 10}) == LaurentPoly.monomial(
        {5: 1, 6: 1, 1: -1, 2: -1, 3: -1})
    assert substitute_one(p, set()) == p


def test_substitute_one_merges():
    p = x1 + LaurentPoly.variable(1, -1) * (x1 * x1)
    assert substitute_one(p, set()) == LaurentPoly({mono({1: 1}): 2})


def test_rename_checks_injectivity():
    p = x1 + x2
    assert p.rename({1: 3, 2: 4}) == x3 + LaurentPoly.variable(4)
    with pytest.raises(ValueError):
        p.rename({1: 2})


def test_rename_checks_injectivity_on_the_variables_of_the_polynomial():
    with pytest.raises(ValueError, match="not injective"):
        (x1 * x2).rename({1: 2})  # x1*x2 must not merge into x2
    assert x1.rename({1: 3, 2: 3}) == x3  # 2 is not a variable of x1
    assert (x1 * x2).rename({1: 2, 2: 1}) == x1 * x2


def test_negative_power_of_monomial():
    m = LaurentPoly.monomial({1: 2, 2: -1})
    assert m ** -1 == LaurentPoly.monomial({1: -2, 2: 1})
    with pytest.raises(ValueError):
        (x1 + x2) ** -1


def test_canonical_string():
    assert canonical_string(LaurentPoly.zero()) == "0"
    p = LaurentPoly.monomial({1: -1, 2: 1}) + LaurentPoly.monomial({1: -1, 5: 1})
    assert rational_string(p) == "(x2 + x5)/(x1)"
    cube = (x1 + x2 + x3) ** 3
    numerator = canonical_string(cube)
    assert numerator.count("+") == 9  # ten terms


def test_rational_string_integer_part():
    p = LaurentPoly.one() + x3
    assert rational_string(p) == "1 + x3"
    q = (LaurentPoly.one() + x3) * LaurentPoly.variable(4, -1)
    assert rational_string(q) == "(1 + x3)/(x4)"


def test_json_round_trip():
    p = (x1 + x2) ** 2 * LaurentPoly.variable(3, -2)
    assert from_json(to_json(p)) == p
    assert to_json(from_json(to_json(p))) == to_json(p)


def test_ring_axioms_random():
    rng = random.Random(99)

    def rand_poly():
        terms = {}
        for _ in range(rng.randint(0, 5)):
            m = mono({v: rng.randint(-2, 2) for v in rng.sample((1, 2, 3), 2)})
            terms[m] = terms.get(m, 0) + rng.randint(-3, 3)
        return LaurentPoly(terms)

    for _ in range(200):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_canonical_form_idempotent():
    rng = random.Random(5)
    for _ in range(50):
        terms = {}
        for _ in range(rng.randint(0, 6)):
            m = mono({v: rng.randint(-2, 2) for v in (1, 2)})
            terms[m] = terms.get(m, 0) + rng.randint(-2, 2)
        p = LaurentPoly(terms)
        rebuilt = LaurentPoly.from_terms(sorted_terms(p))
        assert rebuilt == p
        assert canonical_string(rebuilt) == canonical_string(p)


def test_big_coefficients_are_exact():
    p = (x1 + x2) ** 64
    top = max(p.terms.values())
    assert top == 1832624140942590534  # binomial(64, 32), beyond 2^60
    assert poly_product([p, p]) == (x1 + x2) ** 128
