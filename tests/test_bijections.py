"""The paper's sequence-collection bijection, witness by witness: on random
type-A quivers (n 2-7), completed with their 3-cycles, and box-2 monomials,
every globally compatible sequence maps into the collection listing, no two
share an image, each comes back unchanged, and each keeps its weight."""

import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from clusterkit import formulas, geometry, harness
from clusterkit.bijections import gcc_to_gcs, gcs_to_gcc
from clusterkit.quiver import three_cycle_completion


def box_monomial(q, rng: random.Random) -> tuple[int, ...]:
    """A nonzero vector of W with entries 0..2."""
    while True:
        a = tuple(rng.randint(0, 2) for _ in q.vertices)
        if any(a) and geometry.satisfies_property_a(q, a):
            return a


@settings(max_examples=150, derandomize=True, deadline=None)
@given(n=st.integers(2, 7), seed=st.integers(0, 2 ** 32))
def test_gcs_to_gcc_is_a_weight_preserving_bijection_witness_by_witness(n, seed):
    rng = random.Random(seed)
    q = harness.random_type_a_quiver(n, rng)
    q2, added = three_cycle_completion(q)
    a = box_monomial(q, rng) + (0,) * len(added)
    collections = set(formulas.enumerate_gcc(q2, a))
    base = formulas.term_base(q2, a)
    images = set()
    for s in formulas.enumerate_gcs(q2, a):
        g = gcs_to_gcc(q2, a, s)
        assert g in collections, (s, g.chosen)
        assert g not in images, (s, g.chosen)
        images.add(g)
        assert gcc_to_gcs(q2, a, g) == s
        assert formulas.gcs_weight(q2, a, s, base) == formulas.gcc_weight(g, base)
    assert images == collections
