"""Hand-rolled SVG line charts for accuracy traces. No plotting dependencies."""

from __future__ import annotations

from pathlib import Path

_WIDTH = 720
_HEIGHT = 360
_MARGIN_LEFT = 56
_MARGIN_RIGHT = 16
_MARGIN_TOP = 28
_MARGIN_BOTTOM = 40


def _escape(text: str) -> str:
    """``&``, ``<`` and ``>`` as XML entities, ``&`` first: ``xml.sax.saxutils.escape``
    without the import, which loads ``urllib.request`` and the network stack behind it."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _x(t: int, n: int) -> float:
    span = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    frac = 0.5 if n <= 1 else t / (n - 1)
    return _MARGIN_LEFT + frac * span


def _y(acc: float) -> float:
    span = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM
    return _MARGIN_TOP + (1.0 - min(max(acc, 0.0), 1.0)) * span


def _polyline(values: list[float], color: str, dash: str = "") -> str:
    pts = " ".join(f"{_x(t, len(values)):.2f},{_y(v):.2f}" for t, v in enumerate(values))
    dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
    return f'<polyline fill="none" stroke="{color}" stroke-width="1.5"{dash_attr} points="{pts}"/>'


def accuracy_trace_svg(
    true_accuracy: list[float],
    estimated_accuracy: list[float],
    reset_batches: list[int],
    title: str,
    path: str | Path,
) -> None:
    """True vs estimated accuracy over batches, with vertical reset markers."""
    if len(true_accuracy) != len(estimated_accuracy) or not true_accuracy:
        raise ValueError("need matching non-empty accuracy traces")
    n = len(true_accuracy)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_MARGIN_LEFT}" y="18" font-family="sans-serif" font-size="13">{_escape(title)}</text>',
    ]
    # y grid at 0, 0.25, ..., 1.0
    for i in range(5):
        acc = i / 4.0
        y = _y(acc)
        parts.append(
            f'<line x1="{_MARGIN_LEFT}" y1="{y:.2f}" x2="{_WIDTH - _MARGIN_RIGHT}" y2="{y:.2f}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_LEFT - 8}" y="{y + 4:.2f}" font-family="sans-serif" font-size="11" '
            f'text-anchor="end">{acc:.2f}</text>'
        )
    for t in reset_batches:
        if 0 <= t < n:
            x = _x(t, n)
            parts.append(
                f'<line x1="{x:.2f}" y1="{_MARGIN_TOP}" x2="{x:.2f}" y2="{_HEIGHT - _MARGIN_BOTTOM}" '
                f'stroke="#cc3333" stroke-width="1" stroke-dasharray="2,3"/>'
            )
    parts.append(_polyline(true_accuracy, "#1f6fb2"))
    parts.append(_polyline(estimated_accuracy, "#d98400", dash="5,3"))
    legend_y = _HEIGHT - 12
    parts.append(
        f'<text x="{_MARGIN_LEFT}" y="{legend_y}" font-family="sans-serif" font-size="11" '
        f'fill="#1f6fb2">true accuracy</text>'
    )
    parts.append(
        f'<text x="{_MARGIN_LEFT + 110}" y="{legend_y}" font-family="sans-serif" font-size="11" '
        f'fill="#d98400">estimated (dashed)</text>'
    )
    parts.append(
        f'<text x="{_MARGIN_LEFT + 240}" y="{legend_y}" font-family="sans-serif" font-size="11" '
        f'fill="#cc3333">resets (vertical)</text>'
    )
    parts.append(f'<text x="{(_WIDTH) // 2}" y="{_HEIGHT - 26}" font-family="sans-serif" '
                 f'font-size="11" text-anchor="middle">batch</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts))
