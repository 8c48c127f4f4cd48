"""Minimal deterministic SVG emission for plane figures.

Output is plain text with layered <g> groups, stable float formatting, and
a single generator-version comment line; identical inputs give identical
bytes.
"""

from __future__ import annotations

from typing import Iterable, Sequence

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

    def add_cells(self, layer: str, cells: Iterable[tuple[int, int]], n_grid: int,
                  color: str = "#74a86040"):
        items = self.layer(layer)
        side = _SIZE / n_grid
        for i, j in sorted(cells):
            x, y = self._map(i / n_grid, (j + 1) / n_grid)  # k / N is float(Fraction(k, N))
            items.append(
                f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(side)}" height="{_fmt(side)}" '
                f'fill="{color}" stroke="#567"/>'
            )

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
