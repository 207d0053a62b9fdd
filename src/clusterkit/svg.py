"""Cosmetic SVG drawings of pipelines, snake diagrams and broken lines; the
command line loads this module only under `--svg`."""

import math


def _document(parts, width: int = 500, height: int = 500) -> str:
    head = f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">'
    return "\n".join([head, *parts, "</svg>"]) + "\n"


def _line(x1, y1, x2, y2, stroke: str, width=None, spec: str = ".1f") -> str:
    """A segment; `spec` formats the coordinates ("" prints them as they are)."""
    tail = "" if width is None else f' stroke-width="{width}"'
    return (f'<line x1="{x1:{spec}}" y1="{y1:{spec}}" x2="{x2:{spec}}" y2="{y2:{spec}}" '
            f'stroke="{stroke}"{tail}/>')


def _circle(x, y, r, fill: str) -> str:
    return f'<circle cx="{x:.1f}" cy="{y:.1f}" r="{r}" fill="{fill}"/>'


def _polygon_xy(size: int, corner: int, radius: float = 200.0):
    ang = math.pi / 2 + 2 * math.pi * corner / size
    return radius * math.cos(ang) + 250, 250 - radius * math.sin(ang)


def pipelines_svg(ps) -> str:
    """A `geometry.PipelineSet` on a regular polygon layout."""
    t = ps.triangulation
    count = {lbl: (ps.a[lbl - 1] if lbl <= t.n else 0) for lbl in t.edges}

    def point_xy(label: int, rank: int):
        (u, w) = t.edges[label]
        x1, y1 = _polygon_xy(t.size, u)
        x2, y2 = _polygon_xy(t.size, w)
        f = rank / (count[label] + 1)
        return x1 + f * (x2 - x1), y1 + f * (y2 - y1)

    def node_xy(node):
        return point_xy(node[1], node[2]) if node[0] == "pt" else _polygon_xy(t.size, node[1])

    parts = []
    for lbl, (u, w) in sorted(t.edges.items()):
        x1, y1 = _polygon_xy(t.size, u)
        x2, y2 = _polygon_xy(t.size, w)
        parts.append(_line(x1, y1, x2, y2, "#888" if lbl > t.n else "#000", 1))
        if lbl <= t.n:
            parts.append(f'<text x="{(x1 + x2) / 2:.1f}" y="{(y1 + y2) / 2:.1f}" '
                         f'font-size="12">{lbl}</text>')
    for p1, p2 in ps.pipes:
        parts.append(_line(*node_xy(p1), *node_xy(p2), "#d22", 1.5))
    for lbl in range(1, t.n + 1):
        for r in range(1, count[lbl] + 1):
            parts.append(_circle(*point_xy(lbl, r), 2.5, "#d22"))
    return _document(parts)


def snake_svg(d, gamma=None) -> str:
    """The grid of a `snake.SnakeDiagram`, optionally highlighting one matching."""
    from .snake import label_variable  # loaded already: d is a snake diagram

    scale, pad = 60, 30
    maxy = max(y for _, y in d.tiles) + 1

    def xy(v):
        return pad + v[0] * scale, pad + (maxy - v[1]) * scale

    chosen_edges = set() if gamma is None else {d.edge_of_label[lbl] for lbl in gamma}
    parts = []
    for e, lbl in sorted(d.label_of_edge.items(), key=lambda kv: str(kv)):
        (x1, y1), (x2, y2) = xy(e[0]), xy(e[1])
        chosen = e in chosen_edges
        parts.append(_line(x1, y1, x2, y2, "#d22" if chosen else "#000", 4 if chosen else 1, ""))
        parts.append(f'<text x="{(x1 + x2) / 2 + 3}" y="{(y1 + y2) / 2 - 3}" '
                     f'font-size="11">x{label_variable(lbl)}</text>')
    return _document(parts, 600, 400)


def broken_line_svg(line, plane: tuple[int, int]) -> str:
    """A `scattering.BrokenLine` projected onto two coordinates: its tail
    along the first direction, then its points, each read over its scale."""
    den, m0, first = line.scale, line.moves[0], line.points[0]
    xs, ys = ([c / den for c in (first[r] - 3 * den * m0.get(r, 0), *(p[r] for p in line.points))]
              for r in (plane[0] - 1, plane[1] - 1))
    span = max(max(map(abs, xs)), max(map(abs, ys)), 1e-9)
    scale = 200 / span

    def xy(k):
        return 250 + xs[k] * scale, 250 - ys[k] * scale

    parts = [_line(0, 250, 500, 250, "#ccc", spec=""), _line(250, 0, 250, 500, "#ccc", spec="")]
    for k in range(len(xs) - 1):
        parts.append(_line(*xy(k), *xy(k + 1), "#d22", 2))
    for k in range(1, len(xs)):
        parts.append(_circle(*xy(k), 3, "#000"))
    return _document(parts)
