"""Minimal deterministic SVG emission for plane figures.

Output is plain text with layered <g> groups, stable float formatting, and
a single generator-version comment line; identical inputs give identical
bytes.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .geometry import SquareRuns

GENERATOR_VERSION = "codeplane-svg-1"

_SIZE = 640
_MARGIN = 40


def _fmt(x: float) -> str:
    return f"{x:.3f}"


class PlaneSvg:
    """(delta, R) unit-square canvas; delta runs right, R runs up."""

    def __init__(self, title: str = ""):
        self.title = title
        self._layers: list[tuple[str, list[str]]] = []

    def _map(self, delta: float, r: float) -> tuple[float, float]:
        x = _MARGIN + float(delta) * _SIZE
        y = _MARGIN + (1.0 - float(r)) * _SIZE
        return x, y

    def layer(self, name: str) -> list[str]:
        for existing, items in self._layers:
            if existing == name:
                return items
        items: list[str] = []
        self._layers.append((name, items))
        return items

    def add_points(self, layer: str, points: Iterable[tuple[float, float]], color: str = "#1f4e9c",
                   radius: float = 2.0):
        """Dots at (delta, R) points, drawn in (delta, R) order."""
        items = self.layer(layer)
        for delta, r in sorted(points):
            x, y = self._map(delta, r)
            items.append(
                f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(radius)}" fill="{color}"/>'
            )

    def add_polyline(self, layer: str, vertices: Sequence[tuple[float, float]], color: str = "#b03030",
                     width: float = 1.5):
        """Polyline through (delta, R) vertices."""
        if len(vertices) < 2:
            return
        pts = " ".join(
            "{},{}".format(*map(_fmt, self._map(delta, r))) for delta, r in vertices
        )
        self.layer(layer).append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="{_fmt(width)}"/>'
        )

    def add_cells(self, layer: str, cells: SquareRuns, n_grid: int, color: str = "#74a86040"):
        """One <rect> per square, in (column, row) order; x is formatted once per column, y once per row."""
        items = self.layer(layer)
        side = _fmt(_SIZE / n_grid)
        tail = f'" width="{side}" height="{side}" fill="{color}" stroke="#567"/>'
        # k / N is float(Fraction(k, N)); row j's square has its top edge at (j + 1) / N
        top = max((hi for _, _, hi in cells.runs), default=0)
        rows = [_fmt(self._map(0, (j + 1) / n_grid)[1]) for j in range(top)]
        for i, lo, hi in cells.runs:
            head = f'<rect x="{_fmt(self._map(i / n_grid, 0)[0])}" y="'
            items.extend(head + y + tail for y in rows[lo:hi])

    def render(self, manifest_comment: str = "") -> str:
        total = _SIZE + 2 * _MARGIN
        lines = [
            '<?xml version="1.0" encoding="UTF-8"?>',
            f"<!-- {GENERATOR_VERSION} -->",
        ]
        if manifest_comment:
            lines.append(f"<!-- {manifest_comment} -->")
        lines.append(
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{total}" height="{total}" '
            f'viewBox="0 0 {total} {total}">'
        )
        if self.title:
            lines.append(f"<title>{self.title}</title>")
        x0, y0 = self._map(0, 1)
        lines.append(
            f'<rect x="{_fmt(x0)}" y="{_fmt(y0)}" width="{_SIZE}" height="{_SIZE}" '
            'fill="white" stroke="#222"/>'
        )
        for name, items in self._layers:
            lines.append(f'<g id="{name}">')
            lines.extend(items)
            lines.append("</g>")
        lines.append("</svg>")
        return "\n".join(lines) + "\n"
