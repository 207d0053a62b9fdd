import itertools
import random

import pytest

from clusterkit.engine import exact_divide
from clusterkit.laurent import (
    MONO_ONE,
    LaurentPoly,
    affine_sum,
    canonical_string,
    from_json,
    mono,
    mono_mul,
    poly_product,
    rational_string,
    sorted_terms,
    substitute_one,
)
from reference import poly_sum, to_json

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


def _random_poly(rng, nvars=3, size=5, span=2):
    terms = {}
    for _ in range(rng.randint(0, size)):
        m = mono({v: rng.randint(-span, span) for v in rng.sample(range(1, nvars + 1), 2)})
        terms[m] = terms.get(m, 0) + rng.randint(-3, 3)
    return LaurentPoly(terms)


def _generic_product(a, b):
    """Every pair of terms multiplied and accumulated, zeros dropped."""
    acc = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            m = mono_mul(m1, m2)
            acc[m] = acc.get(m, 0) + c1 * c2
    return {m: c for m, c in acc.items() if c}


def test_one_term_products_equal_the_generic_product():
    rng = random.Random(15)
    monomials = [MONO_ONE, mono({1: 1}), mono({2: -3}), mono({1: -1, 3: 2})]
    for m in monomials:
        for c in (1, -1, 7, -7):
            one_term = LaurentPoly({m: c})
            for _ in range(30):
                p = _random_poly(rng)
                want = _generic_product(one_term, p)
                assert (one_term * p).terms == want
                assert (p * one_term).terms == want


def test_no_operation_stores_a_zero_coefficient():
    rng = random.Random(16)
    for _ in range(300):
        a, b = _random_poly(rng), _random_poly(rng)
        unit = LaurentPoly({mono({1: rng.randint(-2, 2)}): rng.choice((1, -1))})
        one_term = unit * LaurentPoly.integer(rng.choice((1, -3)))
        made = [a + b, a - b, -a, a * b, b * a, a * one_term, one_term * b, a ** 2, unit ** -2,
                LaurentPoly.from_terms([*a.terms.items(), *(-b).terms.items()]),
                substitute_one(a, [1]), poly_sum([a, b, -a]), poly_product([a, b, one_term]),
                affine_sum({1: 1}, [mono({1: -1})], {(1,): 2, (0,): -2}),
                exact_divide(a * one_term, one_term)]
        if not b.is_zero():
            made.append(exact_divide(a * b, b))
        for p in made:
            assert all(c != 0 for c in p.terms.values()), p


def test_mono_rejects_a_nonpositive_index_with_the_same_message():
    for exponents, bad in (({0: 1, 3: 2}, 0), ({4: 1, -2: 1, 0: 5}, -2), ({-1: -1}, -1)):
        with pytest.raises(ValueError) as err:
            mono(exponents)
        assert str(err.value) == f"variable index must be positive, got {bad}"
    assert mono({0: 0, 2: 1}) == ((2, 1),)  # a zero exponent names no variable


def test_min_exponents_equals_min_exponent():
    rng = random.Random(17)
    cases = [LaurentPoly.zero(), LaurentPoly.one(), x1 * x2 + x1 ** 2 * x2,
             x1 * x2 ** 2 + x1 ** 3 + x1 * x3 * LaurentPoly.variable(2, -1)]
    for _ in range(300):
        p = _random_poly(rng)
        # x1 (and x2) in every term with a positive exponent must not read as 0
        cases += [p, p * x1 ** 3, p * x1 ** 3 * x2 ** 3]
    for p in cases:
        least = p.min_exponents()
        assert set(least) == set(p.support())
        for v in range(1, 5):
            assert least.get(v, 0) == p.min_exponent(v)
        assert p.denominator_vector(4) == tuple(-p.min_exponent(v) for v in range(1, 5))
