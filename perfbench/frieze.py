"""Witness counts from the Conway-Coxeter frieze, sharing no code with clusterkit.

For a triangulated convex polygon with quiddity a (a_k = number of triangles
at corner k), the frieze entry of the arc (i, j) obeys

    m(i, i) = 0,  m(i, i+1) = 1,  m(i, j+1) = a_j * m(i, j) - m(i, j-1).

That entry is the value of the arc's cluster variable at x = 1, i.e. the
number of witnesses every model must produce (Conway & Coxeter 1973;
Caldero & Chapoton 2006).  A cluster monomial of pairwise compatible arcs
counts the product of the entries, each raised to its multiplicity.
"""

from __future__ import annotations


def quiddity(size: int, triangles) -> list[int]:
    """Number of triangles at each corner of the polygon."""
    a = [0] * size
    for tri in triangles:
        for corner in tri:
            a[corner] += 1
    return a


def frieze_entry(a, i: int, j: int) -> int:
    """m(i, j) for corners i < j of the polygon with quiddity a."""
    prev, cur = 0, 1
    for k in range(i + 1, j):
        prev, cur = cur, a[k] * cur - prev
    return cur


def monomial_count(a, arcs) -> int:
    """Witness count of a cluster monomial given as (arc, multiplicity) pairs."""
    count = 1
    for (i, j), mult in arcs:
        count *= frieze_entry(a, i, j) ** mult
    return count
