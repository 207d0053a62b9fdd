"""Pipelines: the pseudo-diagonals of a nonnegative d-vector as records.

`build_pipelines` reads the strands of `geometry._strands` back as marked
points ("pt", s, r) and polygon corners ("vx", c), and keeps its pipelines
and pipes as `Pipeline` and `PipelineSet` records.  Only the `pipelines`
command and its SVG read them; `decompose` and the models use the strands.
"""

from __future__ import annotations

from .geometry import Triangulation, _require_nonnegative, _strands
from .quiver import Quiver


class Pipeline:
    """One pseudo-diagonal assembled from pipes through marked points."""

    def __init__(self, endpoints: tuple[int, int], crossings: tuple[tuple[int, int], ...],
                 b_vector: tuple[int, ...]):
        self.endpoints = endpoints        # polygon corners
        self.crossings = crossings        # ordered (diagonal, rank)
        self.b_vector = b_vector

    def __eq__(self, other):
        return self.__class__ is other.__class__ and (
            (self.endpoints, self.crossings, self.b_vector)
            == (other.endpoints, other.crossings, other.b_vector))


class PipelineSet:
    """The pipelines of a d-vector; the pipes they run through are no part
    of its value."""

    def __init__(self, quiver: Quiver, triangulation: Triangulation, a: tuple[int, ...],
                 pipelines: tuple[Pipeline, ...], pipes: tuple[tuple, ...] = ()):
        self.quiver, self.triangulation, self.a = quiver, triangulation, a
        self.pipelines, self.pipes = pipelines, pipes

    def __eq__(self, other):
        return self.__class__ is other.__class__ and (
            (self.quiver, self.triangulation, self.a, self.pipelines)
            == (other.quiver, other.triangulation, other.a, other.pipelines))

    def as_diagonal_multiset(self) -> list[tuple[int, int]]:
        return [p.endpoints for p in self.pipelines]


def build_pipelines(q: Quiver, a) -> PipelineSet:
    """Marked points and pipes realizing a nonnegative d-vector.

    Each diagonal i carries a_i marked points.  Inside every triangle the
    matching marked points of two sides are joined rank-by-rank (counted from
    the sides' common corner), and leftover points run to the opposite
    corner.  Chaining pipes through marked points yields the pipelines."""
    return _pipelines(q, *_require_nonnegative(q, a, "pipelines need"))


def _pipelines(q: Quiver, a: tuple[int, ...], support) -> PipelineSet:
    """`build_pipelines` on a checked nonnegative vector with its support:
    the strands with their ids read back as marked points ("pt", s, r) and
    corners ("vx", c)."""
    strands, pipes = _strands(q, a, support)
    node = [("pt", s, r) for s in support for r in range(1, a[s - 1] + 1)]
    tag = lambda x: node[x] if x >= 0 else ("vx", -1 - x)
    pipelines = sorted((Pipeline(tuple(sorted((-1 - ids[0], -1 - ids[-1]))),
                                 tuple(node[x][1:] for x in ids[1:-1]), b)
                        for b, _, ids in strands),
                       key=lambda p: (p.b_vector, p.endpoints, p.crossings))
    return PipelineSet(q, q._triangulation, a, tuple(pipelines),
                       tuple((tag(x), tag(y)) for x, y in pipes))
