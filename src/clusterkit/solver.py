"""One solver over binary variables, for every formula with bit witnesses.

A system is a bit count and implications x -> y (x = 1 forces y = 1).  All
enumeration runs on it, not power-set filtering: what each bit's 0 and 1
force is computed once per system, so no branch of the search fails and a
witness costs a few ORs of masks.  Counts and tallies skip the search where
the constraints form fences (paths; `_fences`).  The gcs and gcc formulas
and the per-variable sequences load it.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from itertools import accumulate, chain

from .laurent import bits, field_width, unpack


def _closures(nbits: int, implications) -> tuple[list[int], list[int]]:
    """Per bit, the mask of the bits its 1 forces to 1 and the mask of those
    its 0 forces to 0, the bit included.  They are built one strongly
    connected component of the implication graph at a time (Tarjan 1972, on
    an explicit stack).  Components finish sinks first, so a component's
    forward mask is its bits ORed with the finished masks it points to; in
    the reverse order, its backward mask takes those pointing to it."""
    succ: list[list[int]] = [[] for _ in range(nbits)]
    pred: list[list[int]] = [[] for _ in range(nbits)]
    for x, y in implications:
        succ[x].append(y)
        pred[y].append(x)
    order, low, comp = [-1] * nbits, [0] * nbits, [-1] * nbits
    pending, comps, visited = [], [], 0  # bits of unfinished components; sinks first
    for root in (r for r in range(nbits) if order[r] < 0):
        order[root] = low[root] = visited = visited + 1
        pending.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, rest = work[-1]
            for w in rest:
                if order[w] < 0:  # enter w; v's other successors wait in rest
                    order[w] = low[w] = visited = visited + 1
                    pending.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if comp[w] < 0 and order[w] < low[v]:  # w is pending: v's component
                    low[v] = order[w]
            else:  # v is finished; so is its component if v is the first of it
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == order[v]:  # pending is in visit order
                    k = bisect_left(pending, order[v], key=order.__getitem__)
                    comps.append(pending[k:])
                    del pending[k:]
                    for u in comps[-1]:
                        comp[u] = len(comps) - 1
    masks = []
    for edges, ids in ((succ, range(len(comps))), (pred, range(len(comps) - 1, -1, -1))):
        closed = [0] * len(comps)
        for c in ids:
            for u in comps[c]:
                closed[c] |= 1 << u
                for w in edges[u]:
                    closed[c] |= closed[comp[w]]
        masks.append([closed[c] for c in comp])
    return masks[0], masks[1]


def _closed_masks(nbits: int, implications):
    """All 0-1 assignments closed under the given implications (x=1 forces
    y=1), each as the mask of its set bits, in lexicographic order of the
    bits with 0 < 1.  Depth first on an explicit stack of (set bits, assigned
    bits): the lowest free bit takes 0, with what its 0 forces, while 1, with
    what its 1 forces, waits on the stack.  A free bit is forced by no
    assigned bit, so neither branch can contradict one and none fails."""
    fwd, bwd = _closures(nbits, implications)
    full = (1 << nbits) - 1
    todo = [(0, 0)]
    while todo:
        ones, done = todo.pop()
        while done != full:
            p = (~done & (done + 1)).bit_length() - 1
            todo.append((ones | fwd[p], done | fwd[p]))
            done |= bwd[p]
        yield ones


def _enumerate_closed_assignments(nbits: int, implications):
    """`_closed_masks` as 0-1 tuples, bit 0 first."""
    for ones in _closed_masks(nbits, implications):
        yield tuple(bits(ones, nbits))


def _fences(nbits: int, implications):
    """The implication graph as fences, or None.  Bits that imply each other
    merge into one node; if every node then meets at most two others and lies
    on no cycle, each connected piece is a path from one end, as (node's bits,
    step) per node: step 1 where the node before forces this one, -1 where
    this one forces it, 0 at the first node."""
    pairs = set(implications)
    node, members = list(range(nbits)), [[b] for b in range(nbits)]
    for x, y in pairs:
        a, b = node[x], node[y]
        if a != b and (y, x) in pairs:
            for u in members[b]:
                node[u] = a
            members[a] += members[b]
    arcs = {(node[x], node[y]) for x, y in pairs if node[x] != node[y]}
    links = [[] for _ in range(nbits)]  # per node: (neighbour, step)
    for a, b in arcs:
        if (b, a) in arcs or len(links[a]) > 1 or len(links[b]) > 1:
            return None  # two nodes forcing each other, or a third neighbour
        links[a].append((b, 1))
        links[b].append((a, -1))
    paths, seen = [], set()
    for a in range(nbits):
        if node[a] == a and a not in seen and len(links[a]) < 2:  # a path's first end
            path, prev, step = [], -1, 0
            while a >= 0:
                seen.add(a)
                path.append((members[a], step))
                prev, (a, step) = a, ([n for n in links[a] if n[0] != prev] or [(-1, 0)])[0]
            paths.append(path)
    return paths if len(seen) == len(set(node)) else None  # a node not seen lies on a cycle


def _count(nbits: int, implications, *_) -> int:
    """The number of closed assignments, by transfer on fences; no witness is built."""
    paths = _fences(nbits, implications)
    if paths is None:
        return sum(1 for _ in _closed_masks(nbits, implications))
    c0, c1 = 1, 0  # assignments so far with the last node at 0, at 1
    for _, step in chain(*paths):
        both = c0 + c1
        c0, c1 = c0 if step > 0 else both, c1 if step < 0 else both
    return c0 + c1


def _tally(nbits: int, implications, runs) -> dict[tuple[int, ...], int]:
    """The number of closed assignments per tuple of set-bit counts in runs
    of consecutive bits (their lengths, in bit order).  On fences, `_count`'s
    transfer of tallies keyed by the counts packed one field per run."""
    paths = _fences(nbits, implications)
    if paths is None:
        spans = [(end - size, (1 << size) - 1) for size, end in zip(runs, accumulate(runs))]
        return Counter(tuple((ones >> s & m).bit_count() for s, m in spans)
                       for ones in _closed_masks(nbits, implications))
    width = field_width(max(runs, default=0))
    shift = [1 << width * k for k, size in enumerate(runs) for _ in range(size)]
    c0, c1 = {0: 1}, {}
    for node, step in chain(*paths):
        both = c0.copy() if step > 0 else c0  # step 1: a 0 here needs a 0 before
        for k, c in c1.items():
            both[k] = both.get(k, 0) + c
        w = sum(shift[b] for b in node)
        c1 = {k + w: c for k, c in (c1 if step < 0 else both).items()}
    return unpack({k: c0.get(k, 0) + c1.get(k, 0) for k in c0.keys() | c1.keys()}, width, len(runs))
