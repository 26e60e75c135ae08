"""Deterministic DOT and SVG renderings of lattice trees.

Both formats are emitted byte-for-byte reproducibly: sites and bonds in
canonical order, integer coordinates only.
"""

from .core import RootedTree
from .errors import TooLarge

# SVG refuses trees past this many bonds
MAX_SVG_BONDS = 10**5
# and DOT past this many: `export --format dot` on a 1e6-bond path took
# 5.5 s and peaked at 631 MB (1e5: 0.57 s, 77 MB; CPython 3.11.7 on a
# 2-core x86-64 VM), so 1e7 would need several GB
MAX_DOT_BONDS = 10**6

GRID = 10          # pixels per lattice unit
PAD = 10           # margin around the bounding box
STROKE = 2         # bond line width
ROOT_RADIUS = 4


def to_dot(tree: RootedTree) -> str:
    """Graphviz graph with one node per site, named "x_y"; root marked."""
    if tree.bond_count > MAX_DOT_BONDS:
        raise TooLarge(
            f"{tree.bond_count} bonds exceeds the DOT guard {MAX_DOT_BONDS}"
        )
    lines = ["graph tree {"]
    for site in sorted(tree.sites):
        name = f"\"{site[0]}_{site[1]}\""
        if site == tree.root:
            lines.append(f"  {name} [root=true];")
        else:
            lines.append(f"  {name};")
    for (ax, ay), (bx, by) in tree.bonds:
        lines.append(f"  \"{ax}_{ay}\" -- \"{bx}_{by}\";")
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_svg(tree: RootedTree) -> str:
    """SVG with bonds as 2px lines on a 10px grid and a filled root dot.

    The y axis is flipped so +y in lattice coordinates points up on the
    rendered image.
    """
    if tree.bond_count > MAX_SVG_BONDS:
        raise TooLarge(
            f"{tree.bond_count} bonds exceeds the SVG guard {MAX_SVG_BONDS}"
        )
    xs = [s[0] for s in tree.sites]
    ys = [s[1] for s in tree.sites]
    min_x, max_x = min(xs), max(xs)
    min_y, max_y = min(ys), max(ys)

    def place(site):
        return (
            (site[0] - min_x) * GRID + PAD,
            (max_y - site[1]) * GRID + PAD,
        )

    width = (max_x - min_x) * GRID + 2 * PAD
    height = (max_y - min_y) * GRID + 2 * PAD
    lines = [
        f"<svg xmlns=\"http://www.w3.org/2000/svg\" "
        f"width=\"{width}\" height=\"{height}\" "
        f"viewBox=\"0 0 {width} {height}\">"
    ]
    for u, v in tree.bonds:
        (x1, y1), (x2, y2) = place(u), place(v)
        lines.append(
            f"<line x1=\"{x1}\" y1=\"{y1}\" x2=\"{x2}\" y2=\"{y2}\" "
            f"stroke=\"black\" stroke-width=\"{STROKE}\"/>"
        )
    rx, ry = place(tree.root)
    lines.append(
        f"<circle cx=\"{rx}\" cy=\"{ry}\" r=\"{ROOT_RADIUS}\" fill=\"black\"/>"
    )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
