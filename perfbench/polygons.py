"""Seeded benchmark inputs, generated without calling clusterkit.

A type-A quiver on n vertices comes from a triangulation of the convex
(n+3)-gon with corners 0..n+2.  Diagonals are labelled 1..n in sorted
corner-pair order; inside every triangle with corners u < w < z and sides
s0 = (u,w), s1 = (w,z), s2 = (u,z) the arrows are s0 -> s2 -> s1 -> s0
(boundary sides dropped).  Every other arc (i, j) indexes a cluster variable
whose d-vector is its crossing vector with the diagonals.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
import hashlib
import json
import random

from frieze import monomial_count, quiddity


@dataclass(frozen=True)
class Polygon:
    """A triangulated (n+3)-gon and the quiver it induces."""

    n: int
    diagonals: tuple[tuple[int, int], ...]   # label i+1 -> corner pair
    triangles: tuple[tuple[int, int, int], ...]
    arrows: tuple[tuple[int, int], ...]
    quiddity: tuple[int, ...]

    @property
    def size(self) -> int:
        return self.n + 3

    def crossing_vector(self, arc) -> tuple[int, ...]:
        i, j = arc
        out = []
        for c, d in self.diagonals:
            inside_c, inside_d = i < c < j, i < d < j
            out.append(1 if inside_c != inside_d and not {c, d} & {i, j} else 0)
        return tuple(out)

    def arcs(self) -> list[tuple[int, int]]:
        """Every arc that is neither a side nor a diagonal of the triangulation."""
        diags = set(self.diagonals)
        return [(i, j) for i in range(self.size) for j in range(i + 2, self.size)
                if (i, j) not in diags and (i, j) != (0, self.size - 1)]

    def count(self, arcs) -> int:
        """Frieze witness count of a monomial of (arc, multiplicity) pairs."""
        return monomial_count(self.quiddity, arcs)


@lru_cache(maxsize=None)
def _catalan(k: int) -> list[int]:
    cat = [1] * (k + 1)
    for m in range(2, k + 1):
        cat[m] = sum(cat[i] * cat[m - 1 - i] for i in range(m))
    return cat


def from_triangles(n: int, triangles) -> Polygon:
    """The polygon with n diagonals cut into the given corner triples."""
    triangles = sorted(tuple(sorted(t)) for t in triangles)
    diagonals = sorted({e for u, w, z in triangles for e in ((u, w), (w, z), (u, z))
                        if e[1] - e[0] >= 2 and e != (0, n + 2)})
    label = {d: k + 1 for k, d in enumerate(diagonals)}
    arrows = []
    for u, w, z in triangles:
        s0, s1, s2 = label.get((u, w)), label.get((w, z)), label.get((u, z))
        for t, h in ((s0, s2), (s2, s1), (s1, s0)):
            if t and h:
                arrows.append((t, h))
    return Polygon(n, tuple(diagonals), tuple(triangles), tuple(sorted(arrows)),
                   tuple(quiddity(n + 3, triangles)))


def random_polygon(n: int, rng: random.Random) -> Polygon:
    """Uniform random triangulation of the (n+3)-gon, built with an explicit
    stack (no recursion) from the given generator."""
    size = n + 3
    cat = _catalan(size)
    triangles = []
    stack = [(0, size - 1)]
    while stack:
        i, j = stack.pop()
        if j - i < 2:
            continue
        pick = rng.randrange(cat[j - i - 1])
        z = i + 1
        while pick >= cat[z - i - 1] * cat[j - z - 1]:
            pick -= cat[z - i - 1] * cat[j - z - 1]
            z += 1
        triangles.append((i, z, j))
        stack += [(i, z), (z, j)]
    return from_triangles(n, triangles)


def compatible(e, f) -> bool:
    """Arcs that share an endpoint or do not cross."""
    (i, j), (c, d) = e, f
    if {i, j} & {c, d}:
        return True
    return (i < c < j) == (i < d < j)


def digest(obj) -> str:
    """Short stable hash of a JSON-serialisable input description."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]
