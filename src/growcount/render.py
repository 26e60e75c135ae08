"""Deterministic DOT and SVG renderings of lattice trees, streamed from
the sorted packed keys a chunk at a time, the bonds by `core._bond_texts`:
sites and bonds in canonical order, integer coordinates only."""

from bisect import bisect_left

from . import core
from .errors import TooLarge

# SVG refuses trees past this many bonds
MAX_SVG_BONDS = 10**5

GRID = 10          # pixels per lattice unit
PAD = 10           # margin around the bounding box
STROKE = 2         # bond line width
ROOT_RADIUS = 4

# bond templates for core._bond_texts
_DOT_EDGE = ('  "', "_", '" -- "', "_", '";\n', "")
_SVG_LINE = ('<line x1="', '" y1="', '" x2="', '" y2="',
             f'" stroke="black" stroke-width="{STROKE}"/>\n', "")


def _site_ids(tree: core.RootedTree):
    """The packed sites in order, per chunk of keys those below its last
    lower end (key >> 1).  The +x bonds' upper ends, a column on, wait
    until reached, so a chunk sorts only ends near its own keys."""
    stride, carry, uppers = tree.stride, [], []
    for part in core._key_chunks(tree.keys):
        lows = [key >> 1 for key in part]
        uppers += [(key >> 1) + stride for key in part if key & 1]
        reached = bisect_left(uppers, lows[-1])
        ids = sorted({*carry, *lows, *uppers[:reached],
                      *[(key >> 1) + 1 for key in part if not key & 1]})
        del uppers[:reached]
        split = bisect_left(ids, lows[-1])
        carry = ids[split:]
        yield ids[:split]
    yield sorted({*carry, *uppers})


def to_dot(tree: core.RootedTree, out) -> None:
    """Write a Graphviz graph to `out`: a node per site, named "x_y",
    the root marked."""
    (ox, oy), stride = tree.origin, tree.stride
    # its line, matched whole: only a line starts with '  "'
    root = '  "{}_{}"'.format(*tree.root)
    out.write("graph tree {\n")
    for ids in _site_ids(tree):
        text = "".join([f'  "{s // stride + ox}_{s % stride + oy}";\n'
                        for s in ids])
        out.write(text.replace(f"{root};\n", f"{root} [root=true];\n", 1))
    out.writelines(core._bond_texts(tree, _DOT_EDGE, str, str))
    out.write("}\n")


def to_svg(tree: core.RootedTree, out) -> None:
    """Write an SVG to `out`: bonds as 2px lines on a 10px grid, +y up,
    and a filled root dot, in the packing's box: from the origin up to
    row stride - 2 and across to the last keys' column (+1 if one is +x)."""
    if tree.bond_count > MAX_SVG_BONDS:
        raise TooLarge(f"{tree.bond_count} bonds exceeds the SVG guard "
                       f"{MAX_SVG_BONDS}")
    (ox, oy), keys, width = tree.origin, tree.keys, 2 * tree.stride
    rows, columns = tree.stride - 2, keys[-1] // width
    last = keys[bisect_left(keys, columns * width):]   # the last column's
    columns += any(key & 1 for key in last)

    def x_text(x):
        return str((x - ox) * GRID + PAD)

    def y_text(y):
        return str((oy + rows - y) * GRID + PAD)

    w, h = columns * GRID + 2 * PAD, rows * GRID + 2 * PAD
    out.write(f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" '
              f'height="{h}" viewBox="0 0 {w} {h}">\n')
    out.writelines(core._bond_texts(tree, _SVG_LINE, x_text, y_text))
    rx, ry = tree.root
    out.write(f'<circle cx="{x_text(rx)}" cy="{y_text(ry)}" '
              f'r="{ROOT_RADIUS}" fill="black"/>\n</svg>\n')
