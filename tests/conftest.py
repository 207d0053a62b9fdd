import pytest

from clusterkit.harness import expand_model
from clusterkit.quiver import Quiver


@pytest.fixture
def three_cycle() -> Quiver:
    return Quiver(3, ((1, 2), (2, 3), (3, 1)))


@pytest.fixture
def a2() -> Quiver:
    return Quiver(2, ((1, 2),))


def path_quiver(n: int) -> Quiver:
    return Quiver(n, tuple((i, i + 1) for i in range(1, n)))


def whole_path_value(celq, model: str):
    """The cluster variable of the whole path of a completed quiver, by one
    model of the table; the completion is labelled canonically, so the value
    is over its canonical labels."""
    return expand_model(celq.quiver(), (1,) * celq.n + (0,) * (celq.n + 3), model)


@pytest.fixture
def seven_mixed() -> Quiver:
    """Two oriented triangles sharing a vertex, plus two hanging edges."""
    return Quiver(7, ((2, 1), (2, 3), (3, 5), (5, 2), (5, 6), (6, 7), (7, 5), (3, 4)))


@pytest.fixture
def seven_table() -> Quiver:
    """One triangle at each end of a short path, plus two hanging edges."""
    return Quiver(7, ((1, 2), (2, 5), (5, 1), (2, 6), (6, 3), (3, 2), (3, 4), (6, 7)))


@pytest.fixture
def four_with_triangle() -> Quiver:
    """A triangle on {1,2,4} with an extra edge 2 -> 3."""
    return Quiver(4, ((2, 1), (1, 4), (4, 2), (2, 3)))


@pytest.fixture
def eleven_complete() -> Quiver:
    """Completed version of the path 1 -> 2 -> 3 <- 4 (11 vertices)."""
    return Quiver(11, (
        (1, 5), (5, 6), (6, 1),
        (1, 2), (2, 7), (7, 1),
        (2, 3), (3, 8), (8, 2),
        (4, 3), (3, 9), (9, 4),
        (4, 10), (10, 11), (11, 4),
    ))
