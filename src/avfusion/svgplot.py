"""Static SVG boxplot rendering without a plotting dependency.

Output is deterministic byte-for-byte for a fixed input: coordinates are
formatted at fixed precision and no timestamps or ids are embedded.
"""

from .errors import DegenerateInputError

_COLOR = "#c0392b"
# `<text>` content: `&`, `<` and `>` escaped, and what XML 1.0 cannot hold
# (C0 controls but tab, LF and CR; U+FFFE and U+FFFF) written as U+FFFD.
_TEXT = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;", **dict.fromkeys(
    [*range(9), 11, 12, *range(14, 32), 0xFFFE, 0xFFFF], "\ufffd")})

BOX_WIDTH = 14
GROUP_GAP = 18
MARGIN_LEFT = 60
MARGIN_TOP = 30
MARGIN_BOTTOM = 60
PLOT_HEIGHT = 320


def _fmt(x):
    return f"{x:.2f}"


def render_boxplot_svg(groups, label, title):
    """The SVG text of one box per group, and one legend entry, `label`, for
    all of them.

    `groups` is an ordered list of (group_name, BoxplotStats or None); a
    None group gets its name on the axis and no box.
    """
    groups = list(groups)
    if not groups:
        raise DegenerateInputError("no boxplot groups")
    present = [stats for _, stats in groups if stats is not None]
    if not present:
        raise DegenerateInputError("all boxplot groups are empty")
    y_min = min(min((s.whisker_low, *s.outliers)) for s in present)
    y_max = max(max((s.whisker_high, *s.outliers)) for s in present)
    if y_max == y_min:
        y_max = y_min + 1.0
    pad = 0.05 * (y_max - y_min)
    y_min -= pad
    y_max += pad

    group_width = BOX_WIDTH + GROUP_GAP
    width = MARGIN_LEFT + len(groups) * group_width + 140
    height = MARGIN_TOP + PLOT_HEIGHT + MARGIN_BOTTOM

    def y(value):
        frac = (value - y_min) / (y_max - y_min)
        return MARGIN_TOP + (1.0 - frac) * PLOT_HEIGHT

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        '<rect width="100%" height="100%" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="18" text-anchor="middle" '
        f'font-size="13" font-family="sans-serif">{title.translate(_TEXT)}</text>',
    ]
    # y axis with ticks
    axis_bottom = MARGIN_TOP + PLOT_HEIGHT
    parts.append(
        f'<line x1="{MARGIN_LEFT}" y1="{MARGIN_TOP}" x2="{MARGIN_LEFT}" '
        f'y2="{axis_bottom}" stroke="black"/>'
    )
    for i in range(5):
        value = y_min + i * (y_max - y_min) / 4
        ty = y(value)
        parts.append(
            f'<line x1="{MARGIN_LEFT - 4}" y1="{_fmt(ty)}" x2="{MARGIN_LEFT}" '
            f'y2="{_fmt(ty)}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{MARGIN_LEFT - 8}" y="{_fmt(ty + 3)}" text-anchor="end" '
            f'font-size="10" font-family="sans-serif">{value:.1f}</text>'
        )
    parts.append(
        f'<text x="14" y="{MARGIN_TOP + PLOT_HEIGHT / 2:.1f}" '
        f'text-anchor="middle" font-size="11" font-family="sans-serif" '
        f'transform="rotate(-90 14 {MARGIN_TOP + PLOT_HEIGHT / 2:.1f})">'
        "angle (degrees)</text>"
    )

    for g, (group_name, stats) in enumerate(groups):
        group_x = MARGIN_LEFT + GROUP_GAP / 2 + g * group_width
        if stats is not None:
            x0 = group_x + 2
            x1 = x0 + BOX_WIDTH - 4
            xc = (x0 + x1) / 2
            y_q1, y_q3 = y(stats.q1), y(stats.q3)
            parts.append(
                f'<line x1="{_fmt(xc)}" y1="{_fmt(y(stats.whisker_high))}" '
                f'x2="{_fmt(xc)}" y2="{_fmt(y_q3)}" stroke="{_COLOR}"/>'
            )
            parts.append(
                f'<line x1="{_fmt(xc)}" y1="{_fmt(y_q1)}" x2="{_fmt(xc)}" '
                f'y2="{_fmt(y(stats.whisker_low))}" stroke="{_COLOR}"/>'
            )
            parts.append(
                f'<rect class="box" x="{_fmt(x0)}" y="{_fmt(y_q3)}" '
                f'width="{_fmt(x1 - x0)}" height="{_fmt(y_q1 - y_q3)}" '
                f'fill="{_COLOR}" fill-opacity="0.35" stroke="{_COLOR}"/>'
            )
            y_med = y(stats.median)
            parts.append(
                f'<line x1="{_fmt(x0)}" y1="{_fmt(y_med)}" x2="{_fmt(x1)}" '
                f'y2="{_fmt(y_med)}" stroke="{_COLOR}" stroke-width="2"/>'
            )
            for outlier in stats.outliers:
                parts.append(
                    f'<circle class="outlier" cx="{_fmt(xc)}" '
                    f'cy="{_fmt(y(outlier))}" r="1.5" fill="{_COLOR}"/>'
                )
        label_x = _fmt(group_x + BOX_WIDTH / 2)
        parts.append(
            f'<text x="{label_x}" y="{axis_bottom + 14}" text-anchor="end" '
            f'font-size="9" font-family="sans-serif" transform="rotate(-45 '
            f'{label_x} {axis_bottom + 14})">{group_name.translate(_TEXT)}</text>'
        )

    # legend
    legend_x = width - 130
    legend_y = MARGIN_TOP + 10
    parts.append(
        f'<rect x="{legend_x}" y="{legend_y}" width="10" height="10" '
        f'fill="{_COLOR}" fill-opacity="0.35" stroke="{_COLOR}"/>'
    )
    parts.append(
        f'<text x="{legend_x + 14}" y="{legend_y + 9}" font-size="10" '
        f'font-family="sans-serif">{label.translate(_TEXT)}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
