from itertools import combinations, permutations, product
import random

import pytest

from clusterkit.completion import (
    CompletelyExtendedLinearQuiver,
    LinearQuiver,
    complete_extension,
    delta_of_path,
)
from clusterkit.errors import (
    DisconnectedQuiver,
    FrozenVertex,
    InvalidInput,
    NotLinearSubquiver,
    NotTypeA,
    VertexOutOfRange,
)
from clusterkit.harness import random_type_a_quiver
from clusterkit import geometry, harness, quiver
from clusterkit.quiver import (
    Quiver,
    from_json,
    from_text,
    is_type_a,
    linear_full_subquivers,
    mutate,
    oriented_three_cycles,
    path_order,
    require_type_a,
    three_cycle_completion,
    to_json_dict,
    to_text,
)
from conftest import path_quiver
from reference import exchange_matrix, mutate_sequence


def test_quiver_invariants():
    with pytest.raises(InvalidInput):
        Quiver(2, ((1, 1),))
    with pytest.raises(InvalidInput):
        Quiver(2, ((1, 2), (2, 1)))
    with pytest.raises(VertexOutOfRange):
        Quiver(2, ((1, 3),))


def test_mutate_single_arrow(a2):
    assert mutate(a2, 2).arrows == ((2, 1),)


def test_mutate_three_cycle(three_cycle):
    # paths through vertex 1 create 3->2, all arrows at 1 flip, 2-cycle cancels
    assert mutate(three_cycle, 1).arrows == ((1, 3), (2, 1))


def test_mutate_errors(a2):
    with pytest.raises(VertexOutOfRange):
        mutate(a2, 3)
    frozen = Quiver(2, ((1, 2),), frozenset({2}))
    with pytest.raises(FrozenVertex):
        mutate(frozen, 2)


def test_mutation_involution_random():
    rng = random.Random(0)
    for _ in range(1000):
        q = random_type_a_quiver(rng.randint(1, 8), rng)
        v = rng.randint(1, q.n)
        assert mutate(mutate(q, v), v) == q


def test_type_a_examples(three_cycle, eleven_complete):
    assert is_type_a(three_cycle)
    assert is_type_a(eleven_complete)
    four_cycle = Quiver(4, ((1, 2), (2, 3), (3, 4), (4, 1)))
    assert not is_type_a(four_cycle)
    unoriented_triangle = Quiver(3, ((1, 2), (2, 3), (1, 3)))
    assert not is_type_a(unoriented_triangle)
    with pytest.raises(DisconnectedQuiver):
        is_type_a(Quiver(2, ()))


def test_too_few_arrows_to_connect_is_read_without_the_adjacency():
    """n - 1 distinct arrows are needed to connect n vertices; parallel
    arrows count once."""
    huge = Quiver(2_000_000, ((1, 2),))
    assert not huge.is_connected() and "_adjacency" not in huge.__dict__
    assert not Quiver(3, ((1, 2), (1, 2))).is_connected()
    assert Quiver(3, ((1, 2), (1, 2), (2, 3))).is_connected()


def _path_mutation_class(n: int) -> set[tuple[tuple[int, int], ...]]:
    """Arrows of every quiver reached by mutation from some labelled
    orientation of the n-vertex path: the type-A_n quivers on 1..n."""
    todo = []
    for labels in permutations(range(1, n + 1)):
        for flips in product((False, True), repeat=n - 1):
            todo.append(Quiver(n, tuple((b, a) if flip else (a, b) for (a, b), flip
                                        in zip(zip(labels, labels[1:]), flips))))
    seen = {q.arrows for q in todo}
    while todo:
        q = todo.pop()
        for v in q.vertices:
            m = mutate(q, v)
            if m.arrows not in seen:
                seen.add(m.arrows)
                todo.append(m)
    return seen


def test_type_a_verdict_equals_the_path_mutation_class():
    """Oracle sharing no code with the triangulation: every connected simple
    quiver with n <= 5, plus random multi-quivers with parallel arrows."""
    classes = {n: _path_mutation_class(n) for n in range(1, 6)}
    connected = type_a = 0
    for n in range(1, 6):
        pairs = list(combinations(range(1, n + 1), 2))
        for choice in product((0, 1, 2), repeat=len(pairs)):
            q = Quiver(n, tuple((a, b) if c == 1 else (b, a)
                                for (a, b), c in zip(pairs, choice) if c))
            if not q.is_connected():
                continue
            connected += 1
            type_a += is_type_a(q)
            assert is_type_a(q) == (q.arrows in classes[n]), q
    assert (connected, type_a) == (55895, sum(map(len, classes.values())))
    rng = random.Random(11)
    parallel = 0
    while parallel < 300:
        n = rng.randint(2, 5)
        arrows = [tuple(rng.sample(range(1, n + 1), 2)) for _ in range(rng.randint(n - 1, 2 * n))]
        arrows = [(t, h) for t, h in arrows if (h, t) not in arrows]
        q = Quiver(n, tuple(arrows + arrows[:rng.randint(0, 2)]))
        if q.is_connected():
            parallel += len(set(q.arrows)) < len(q.arrows)
            assert is_type_a(q) == (q.arrows in classes[n]), q


def test_type_a_mutation_invariant():
    rng = random.Random(1)
    for _ in range(500):
        q = random_type_a_quiver(rng.randint(1, 7), rng)
        for _ in range(rng.randint(0, 10)):
            q = mutate(q, rng.randint(1, q.n))
        assert is_type_a(q)


def test_linear_full_subquivers_path(three_cycle):
    assert linear_full_subquivers(path_quiver(3)) == [
        (1,), (1, 2), (1, 2, 3), (2,), (2, 3), (3,)]
    subs = linear_full_subquivers(three_cycle)
    assert subs == [(1,), (1, 2), (1, 3), (2,), (2, 3), (3,)]


def test_linear_full_subquivers_table_example(seven_table):
    subs = set(linear_full_subquivers(seven_table))
    assert (1, 2, 3) in subs
    assert (1, 2, 3, 4) in subs
    assert (1, 2, 5) not in subs  # that set induces a triangle


def test_path_order_and_delta(seven_table):
    assert path_order(seven_table, {1, 2, 3}) == [1, 2, 3]
    assert delta_of_path(seven_table, [1, 2, 3]) == (0, 1)
    assert path_order(seven_table, {1, 2, 5}) is None


def test_celq_structure():
    celq = CompletelyExtendedLinearQuiver(LinearQuiver(4, (0, 0, 1)))
    q = celq.quiver()
    assert q.n == 11
    assert q.frozen == frozenset(range(5, 12))
    # every base edge lies in exactly one triangle
    from clusterkit.quiver import oriented_three_cycles

    cycles = oriented_three_cycles(q)
    assert len(cycles) == 5
    for j, d in enumerate(celq.delta, start=1):
        edge = (j, j + 1) if d == 0 else (j + 1, j)
        containing = [c for c in cycles
                      if edge[0] in c and edge[1] in c and celq.mid(j) in c]
        assert len(containing) == 1


def test_eleven_vertex_completion_matches_fixture(eleven_complete):
    celq = CompletelyExtendedLinearQuiver(LinearQuiver(4, (0, 0, 1)))
    assert set(celq.quiver().arrows) == set(eleven_complete.arrows)


def test_complete_extension_already_complete(eleven_complete):
    comp = complete_extension(eleven_complete, [1, 2, 3, 4])
    assert comp.invented == frozenset()
    assert comp.base_order == (1, 2, 3, 4)
    assert all(v is not None for v in comp.to_ambient.values())


def test_complete_extension_extended_linear():
    # path 1 <- 2 -> 3 with an edge hung on vertex 1 and a triangle on edge 2-3
    ext = Quiver(5, ((1, 4), (2, 1), (2, 3), (3, 5), (5, 2)))
    comp = complete_extension(ext, [1, 2, 3])
    assert comp.celq.delta == (1, 0)
    assert len(comp.invented) == 4
    # the hung vertex 4 receives the outgoing start slot (arrow 1 -> 4)
    assert comp.to_ambient[comp.celq.start0] == 4
    assert comp.to_ambient[comp.celq.mid(2)] == 5
    assert comp.to_ambient[comp.celq.mid(1)] is None


def test_complete_extension_table_example(seven_table):
    comp = complete_extension(seven_table, [1, 2, 3])
    celq = comp.celq
    assert celq.n == 3 and celq.delta == (0, 1)
    assert comp.to_ambient[celq.mid(1)] == 5
    assert comp.to_ambient[celq.mid(2)] == 6
    assert comp.to_ambient[celq.end0] == 4
    assert comp.invented == frozenset({celq.start0, celq.start1, celq.end1})


def test_complete_extension_rejects_non_path(seven_table):
    with pytest.raises(NotLinearSubquiver):
        complete_extension(seven_table, [1, 2, 5])


def test_three_cycle_completion(a2, three_cycle):
    q2, added = three_cycle_completion(a2)
    assert added == [3]
    assert set(q2.arrows) == {(1, 2), (2, 3), (3, 1)}
    assert q2.frozen == frozenset({3})
    same, none_added = three_cycle_completion(three_cycle)
    assert none_added == [] and same == three_cycle


def test_text_and_json_round_trip(seven_mixed):
    assert from_text(to_text(seven_mixed)) == seven_mixed
    import json

    assert from_json(json.dumps(to_json_dict(seven_mixed))) == seven_mixed
    frozen = Quiver(3, ((1, 2), (2, 3), (3, 1)), frozenset({3}))
    assert from_text(to_text(frozen)) == frozen


def test_exchange_matrix(four_with_triangle):
    b = exchange_matrix(four_with_triangle)
    assert b[0][1] == -1 and b[1][0] == 1
    assert b[0][3] == 1 and b[3][0] == -1
    for i in range(4):
        for j in range(4):
            assert b[i][j] == -b[j][i]


def test_mutate_sequence_round_trip(seven_mixed):
    seq = [1, 3, 5, 2]
    q = mutate_sequence(seven_mixed, seq + list(reversed(seq)))
    assert q == seven_mixed


def test_frozen_vertices_participate_in_mutation():
    # 2 -> 1 -> 3 with both ends frozen: mutating at 1 creates an arrow
    # between the frozen vertices and reverses the incident ones
    q = Quiver(3, ((2, 1), (1, 3)), frozenset({2, 3}))
    m = mutate(q, 1)
    assert set(m.arrows) == {(1, 2), (3, 1), (2, 3)}
    assert mutate(m, 1) == q


# -- derived structure is built once per instance and shared read-only ----------


def _counting(monkeypatch, module, name: str) -> list:
    """Replace module.name by a wrapper recording the quiver of each call."""
    seen = []
    original = getattr(module, name)

    def wrapper(q):
        seen.append(q)
        return original(q)

    monkeypatch.setattr(module, name, wrapper)
    return seen


def test_crosscheck_derives_structure_once(monkeypatch):
    # building the triangulation is also the type-A verdict; its faces are
    # found once, by the build's own check, and kept
    cycles = _counting(monkeypatch, quiver, "_scan_three_cycles")
    triangulations = _counting(monkeypatch, geometry, "_build_triangulation")
    faces = _counting(monkeypatch, geometry.Triangulation, "triangles")
    q = random_type_a_quiver(7, random.Random(3))
    report = harness.crosscheck(q, box=1)
    assert report.passed
    for seen in (cycles, triangulations):
        assert sum(1 for x in seen if x is q) == 1
    assert sum(1 for t in faces if t is q._triangulation) == 1
    # the completed quiver shared by gcs and gcc is derived once as well
    completed, _ = three_cycle_completion(q)
    assert sum(1 for x in cycles if x is completed) <= 1


def test_a_fresh_gcs_and_gcc_request_scan_three_cycles_once(monkeypatch):
    """The completion is derived from the quiver: its triangles are the
    quiver's and one per added vertex, and its arrows are not checked again."""
    cycles = _counting(monkeypatch, quiver, "_scan_three_cycles")
    checked = _counting(monkeypatch, Quiver, "__post_init__")
    q = Quiver(5, ((1, 2), (2, 3), (3, 1), (3, 4), (5, 4)))
    assert harness.expand_model(q, (1, 1, 0, 0, 0), "gcs") == harness.expand_model(
        q, (1, 1, 0, 0, 0), "gcc")
    assert harness.witness_count(q, (0, 0, 1, 1, 0), "gcs") == harness.witness_count(
        q, (0, 0, 1, 1, 0), "gcc") == 3
    assert three_cycle_completion(q)[1] == [6, 7]
    assert cycles == [q] and checked == [q]


def test_failed_type_a_build_is_attempted_once(monkeypatch):
    builds = _counting(monkeypatch, geometry, "_build_triangulation")
    four_cycle = Quiver(4, ((1, 2), (2, 3), (3, 4), (4, 1)))
    assert not is_type_a(four_cycle) and not is_type_a(four_cycle)
    for check in (require_type_a, geometry.triangulation_for):
        with pytest.raises(NotTypeA, match="^operation requires a type-A quiver$"):
            check(four_cycle)
    assert builds == [four_cycle]


def test_accessors_match_arrow_scans():
    rng = random.Random(8)
    quivers = [random_type_a_quiver(rng.randint(1, 9), rng) for _ in range(20)]
    quivers.append(Quiver(3, ((1, 2), (1, 2), (2, 3))))  # parallel arrows
    for q in quivers:
        for v in range(0, q.n + 2):
            assert q.arrows_out(v) == [h for t, h in q.arrows if t == v]
            assert q.arrows_in(v) == [t for t, h in q.arrows if h == v]
            assert q.neighbors(v) == ({h for t, h in q.arrows if t == v}
                                      | {t for t, h in q.arrows if h == v})
            assert q.degree(v) == sum(1 for t, h in q.arrows if v in (t, h))
        for t in q.vertices:
            for h in q.vertices:
                assert q.has_arrow(t, h) == ((t, h) in q.arrows)


def test_accessor_results_cannot_corrupt_the_cache(seven_mixed):
    q = seven_mixed
    out, nb = q.arrows_out(5), q.neighbors(5)
    cycles = oriented_three_cycles(q)
    completed, added = three_cycle_completion(q)
    expected = (list(out), set(nb), list(cycles), list(added))
    out.append(99)
    nb.add(99)
    cycles.append((9, 9, 9))
    added.append(99)
    assert (q.arrows_out(5), q.neighbors(5), oriented_three_cycles(q),
            three_cycle_completion(q)[1]) == expected
    assert three_cycle_completion(q)[0] is completed


def test_cached_structure_stays_out_of_equality_and_repr(seven_mixed):
    twin = Quiver(7, tuple(reversed(seven_mixed.arrows)))
    assert is_type_a(seven_mixed)
    assert twin == seven_mixed and hash(twin) == hash(seven_mixed)
    assert repr(twin) == repr(seven_mixed)


def _path_order_by_arrow_scan(q: Quiver, vertices):
    """The arrow-scan `path_order` kept as the reference: it collects the
    induced edges by scanning every arrow of q."""
    vs = set(vertices)
    if not vs or not vs <= set(q.vertices):
        return None
    edges = {(min(t, h), max(t, h)) for t, h in q.arrows if t in vs and h in vs}
    if len(edges) != len(vs) - 1:
        return None
    if len(vs) == 1:
        return [next(iter(vs))]
    adj = {v: [] for v in vs}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    ends = sorted(v for v in vs if len(adj[v]) == 1)
    if len(ends) != 2 or any(len(adj[v]) > 2 for v in vs):
        return None
    order, prev = [ends[0]], None
    while len(order) < len(vs):
        nxt = [u for u in adj[order[-1]] if u != prev]
        if len(nxt) != 1:
            return None
        prev = order[-1]
        order.append(nxt[0])
    return order if order[-1] == ends[1] else None


def test_path_order_matches_the_arrow_scan():
    rng = random.Random(21)
    quivers = [random_type_a_quiver(rng.randint(1, 9), rng) for _ in range(40)]
    while len(quivers) < 120:  # arbitrary quivers, parallel arrows included
        n = rng.randint(2, 7)
        arrows = [tuple(rng.sample(range(1, n + 1), 2)) for _ in range(rng.randint(0, 3 * n))]
        arrows = [(t, h) for t, h in arrows if (h, t) not in arrows]
        quivers.append(Quiver(n, tuple(arrows + arrows[:rng.randint(0, 3)])))
    paths = 0
    for q in quivers:
        subsets = [set(), {0}, {q.n + 1}, {1, q.n + 1}, set(q.vertices)]
        if q.n <= 7:
            subsets += [{v for v in q.vertices if mask >> (v - 1) & 1}
                        for mask in range(1, 2 ** q.n)]
        else:
            subsets += [set(rng.sample(range(1, q.n + 1), rng.randint(1, q.n)))
                        for _ in range(200)]
        for vs in subsets:
            expected = _path_order_by_arrow_scan(q, vs)
            assert path_order(q, vs) == expected, (q, vs)
            paths += expected is not None
    assert paths > 1000
