import json
import random

import pytest

from clusterkit.errors import InvalidInput, NotInW
from clusterkit.harness import (
    MODELS,
    crosscheck,
    expand_model,
    list_witnesses,
    random_triangulation,
    random_type_a_quiver,
    report_table,
    witness_count,
)
from clusterkit.laurent import LaurentPoly
from clusterkit.quiver import Quiver, is_type_a


def test_random_quivers_are_type_a():
    rng = random.Random(2024)
    sizes = set()
    for _ in range(60):
        n = rng.randint(1, 8)
        q = random_type_a_quiver(n, rng)
        assert q.n == n
        assert is_type_a(q)
        sizes.add(n)
    assert len(sizes) >= 6


def test_random_triangulation_shape():
    rng = random.Random(7)
    t = random_triangulation(5, rng)
    assert t.size == 8 and t.n == 5
    assert len(t.edges) == 2 * 5 + 3
    assert len(t.triangles()) == 6


def test_expand_rejects_bad_model(three_cycle):
    with pytest.raises(InvalidInput):
        expand_model(three_cycle, (0, 0, 0), "nope")
    with pytest.raises(NotInW):
        expand_model(three_cycle, (1, 1, 1), "gcs")


def test_expand_negative_only(three_cycle):
    value = expand_model(three_cycle, (-2, 0, -1), "matching")
    assert value == LaurentPoly.monomial({1: 2, 3: 1})


def test_single_vertex_quiver_all_models():
    q = Quiver(1, ())
    # one mutation divides the two-term empty exchange by x1
    expected = LaurentPoly.integer(2) * LaurentPoly.variable(1, -1)
    for model in MODELS:
        assert expand_model(q, (1,), model) == expected, model
    assert witness_count(q, (3,), "gcs") == 8
    assert witness_count(q, (3,), "matching") == 8
    report = crosscheck(q)
    assert report.passed and len(report.rows) == 1


def test_witness_listings_have_matching_sizes(seven_table):
    a = (0, 1, 1, 0, 0, 0, 0)
    n = witness_count(seven_table, a, "gcs")
    for model in ("gcs", "gcc"):
        assert len(list_witnesses(seven_table, a, model)) == n
    for model in ("linear-gcc", "matching", "tpath", "broken-line", "gcs-variable"):
        groups = list_witnesses(seven_table, a, model)
        assert len(groups) == 1
        assert len(groups[0]["witnesses"]) == n
    with pytest.raises(InvalidInput):
        list_witnesses(seven_table, a, "mutation")


def test_crosscheck_box_includes_monomials(three_cycle):
    report = crosscheck(three_cycle, models=("mutation", "gcs"), box=2)
    dvectors = {r.dvector for r in report.rows}
    assert (2, 2, 2) in dvectors
    assert report.passed


def test_report_table_contents(seven_table):
    table = report_table(seven_table)
    assert table.splitlines()[0] == "| d-vector | cluster variable |"
    assert "| (1,0,0,0,0,0,0) | (x2 + x5)/(x1) |" in table
    assert table == report_table(seven_table)


def test_witness_counts_match_across_models(seven_mixed):
    a = (2, 2, 0, 0, 2, 0, 0)
    counts = {m: witness_count(seven_mixed, a, m) for m in MODELS}
    assert len(set(counts.values())) == 1
