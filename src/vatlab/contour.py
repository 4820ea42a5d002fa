"""Decision-boundary grids, marching-squares contours, and hand-rolled SVG.

The boundary grid probes p(y=1|x) over a 2-D lattice in the pre-embedding
plane (each lattice point is pushed through the embedding before the
network), in as many row blocks as OpenBLAS's small-matrix rule allows, so
that the memory a plot takes beyond its result grid does not grow with the
resolution. Contours at LEVEL are extracted cell by cell with linear
interpolation along the crossed edges, and only the cells the level crosses
are read out of the lattice; the grid CSV is written one lattice row at a
time. No plotting dependency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .data import EmbeddingMap, embed_100d
from .errors import ConfigError
from .numerics import Tensor, as_tensor


@dataclass
class BoundaryGrid:
    xs: Tensor        # (nx,) lattice coordinates
    ys: Tensor        # (ny,)
    values: Tensor    # (ny, nx), p(y=1) per lattice point

    def __post_init__(self):
        if np.any(self.values < 0) or np.any(self.values > 1):
            raise ConfigError("grid values must be probabilities")


LEVEL = 0.5         # the decision boundary: the contour where p(y=1) crosses it
LATTICE_PAD = 0.3   # lattice_bounds pads each side by this fraction of the range
SVG_SIZE = 640      # boundary_svg's width and height in pixels
_MERGE_TOL = 1e-9   # _merge_segments joins endpoints equal at this grain


def lattice_bounds(points: Tensor) -> tuple[float, float, float, float]:
    points = as_tensor(points)
    lo, hi = points.min(axis=0), points.max(axis=0)
    pad = LATTICE_PAD * (hi - lo)
    return lo[0] - pad[0], hi[0] + pad[0], lo[1] - pad[1], hi[1] + pad[1]


# OpenBLAS (0.3.31, SkylakeX kernels) sends a product with M*N*K at most this
# to a small-matrix kernel that rounds differently, so a block must not fall
# under it for a product that over the whole lattice does not, or p would
# differ in its last bits from one product over the whole lattice. Above it,
# the rounding of a row can still depend on the block's row count for some
# shapes (a 100-300-2 network at 200^2), so p equals one whole-lattice product
# only where the tests pin it: 100-100-2 at 200^2 and 300^2, 100-50-2 at 137^2.
_SMALL_GEMM = 1_000_000


def _probe_blocks(resolution: int, per_point: list[int]) -> int:
    """Row blocks for a resolution x resolution probe whose products take
    per_point (N*K) multiply-adds per lattice point each: the most blocks
    whose smallest still keeps every product above the small-matrix
    threshold that the whole lattice's is above, or one block when no
    product over the whole lattice is."""
    large = [nk for nk in per_point if resolution * resolution * nk > _SMALL_GEMM]
    if not large:
        return 1
    # fewest lattice rows whose product with the smallest large N*K is above it
    rows = _SMALL_GEMM // (resolution * min(large)) + 1
    return resolution // rows


def probe_grid(net, emb: EmbeddingMap, bounds: tuple[float, float, float, float],
               resolution: int = 200) -> BoundaryGrid:
    """p(y=1|x) over a resolution x resolution lattice in the 2-D plane,
    probed in row blocks (see _probe_blocks). resolution must be at least 2,
    so that the lattice spans the bounds."""
    if resolution < 2:
        raise ConfigError(f"resolution must be >= 2, got {resolution}")
    x0, x1, y0, y1 = bounds
    xs = np.linspace(x0, x1, resolution)
    ys = np.linspace(y0, y1, resolution)
    values = np.empty((resolution, resolution))
    per_point = [emb.matrix.size] + [layer.weights.size for layer in net.layers]
    for rows in np.array_split(np.arange(resolution), _probe_blocks(resolution, per_point)):
        gx, gy = np.meshgrid(xs, ys[rows])
        plane = np.column_stack([gx.ravel(), gy.ravel()])
        proba = nn.predict_proba(net, embed_100d(plane, emb))[:, 1]
        values[rows] = proba.reshape(len(rows), resolution)
        # freed before the next block allocates, so that its arrays can take
        # this block's place on the heap instead of growing it
        del gx, gy, plane, proba
    return BoundaryGrid(xs=xs, ys=ys, values=values)


# marching-squares case -> (edge, edge) segments; the saddles 5 and 10 are
# resolved per cell. Edges: 0 bottom, 1 right, 2 top, 3 left.
_PAIRS = {
    1: [(3, 0)], 2: [(0, 1)], 3: [(3, 1)], 4: [(1, 2)],
    6: [(0, 2)], 7: [(3, 2)], 8: [(2, 3)], 9: [(2, 0)],
    11: [(2, 1)], 12: [(1, 3)], 13: [(1, 0)], 14: [(0, 3)],
}
# edge -> the two corners it joins, in interpolation order
_EDGE_CORNERS = ((0, 1), (1, 2), (3, 2), (0, 3))


def marching_squares(grid: BoundaryGrid) -> list[list[tuple[float, float]]]:
    """Contour segments at LEVEL, merged into polylines.

    Each lattice cell contributes 0-2 segments; endpoints are linearly
    interpolated along the crossed edges. Saddle cells are split by the
    cell-center value. Cells are visited row by row; only those the level
    crosses reach the Python loop.
    """
    xs, ys, v = grid.xs.tolist(), grid.ys.tolist(), grid.values
    above = (v >= LEVEL).astype(np.uint8)
    cases = (above[:-1, :-1] | above[:-1, 1:] << 1
             | above[1:, 1:] << 2 | above[1:, :-1] << 3)
    rows, cols = np.nonzero((cases != 0) & (cases != 15))
    # the corner values of the crossing cells, counter-clockwise from (j, i)
    corner_values = np.column_stack([v[rows, cols], v[rows, cols + 1],
                                     v[rows + 1, cols + 1], v[rows + 1, cols]]).tolist()
    segments = []

    def interp(pa, pb, fa, fb):
        t = 0.5 if fb == fa else (LEVEL - fa) / (fb - fa)
        return (pa[0] + t * (pb[0] - pa[0]), pa[1] + t * (pb[1] - pa[1]))

    for j, i, case, f in zip(rows.tolist(), cols.tolist(), cases[rows, cols].tolist(),
                             corner_values):
        corners = [(xs[i], ys[j]), (xs[i + 1], ys[j]),
                   (xs[i + 1], ys[j + 1]), (xs[i], ys[j + 1])]
        if case in (5, 10):
            center = np.mean(f)
            if case == 5:
                pairs = [(3, 0), (1, 2)] if center < LEVEL else [(3, 2), (1, 0)]
            else:
                pairs = [(0, 1), (2, 3)] if center < LEVEL else [(0, 3), (2, 1)]
        else:
            pairs = _PAIRS[case]
        edges = [interp(corners[a], corners[b], f[a], f[b]) for a, b in _EDGE_CORNERS]
        for a, b in pairs:
            segments.append((edges[a], edges[b]))
    return _merge_segments(segments)


def _merge_segments(segments) -> list[list[tuple[float, float]]]:
    """Chain shared-endpoint segments into polylines (greedy join)."""
    def key(p):
        return (round(p[0] / _MERGE_TOL), round(p[1] / _MERGE_TOL))

    starting_at: dict = {}  # endpoint key -> indices of the segments starting there
    for i, seg in enumerate(segments):
        starting_at.setdefault(key(seg[0]), []).append(i)
    used = [False] * len(segments)
    polylines = []
    for i, seg in enumerate(segments):
        if used[i]:
            continue
        used[i] = True
        line = [seg[0], seg[1]]
        while (nxt := next((k for k in starting_at.get(key(line[-1]), ()) if not used[k]),
                           None)) is not None:
            used[nxt] = True
            line.append(segments[nxt][1])
        polylines.append(line)
    return polylines


def boundary_svg(grid: BoundaryGrid, points: Tensor, labels: np.ndarray,
                 mean_lds: float) -> str:
    """SVG document: shaded probability field, LEVEL contour, data markers,
    and the mean smoothness estimate as a comment and a caption.

    Class 1 points draw as red circles, class 0 as blue triangles.
    """
    width = height = SVG_SIZE
    x0, x1 = grid.xs[0], grid.xs[-1]
    y0, y1 = grid.ys[0], grid.ys[-1]

    def to_px(p):
        px = (p[0] - x0) / (x1 - x0) * width
        py = height - (p[1] - y0) / (y1 - y0) * height
        return px, py

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<!-- mean smoothness estimate: {mean_lds:.6f} -->',
        f'<text x="10" y="20" font-size="14">mean LDS = {mean_lds:.4f}</text>',
    ]

    # coarse shading: one rect per 4x4 block of lattice cells
    step = max(1, len(grid.xs) // 50)
    cw = width / ((len(grid.xs) - 1) / step + 1)
    ch = height / ((len(grid.ys) - 1) / step + 1)
    for j in range(0, len(grid.ys), step):
        for i in range(0, len(grid.xs), step):
            val = grid.values[j, i]
            r = int(255 * val)
            b = int(255 * (1 - val))
            px, py = to_px((grid.xs[i], grid.ys[j]))
            parts.append(
                f'<rect x="{px:.1f}" y="{py - ch:.1f}" width="{cw:.1f}" height="{ch:.1f}" '
                f'fill="rgb({r},230,{b})" fill-opacity="0.35"/>')

    for line in marching_squares(grid):
        coords = " ".join(f"{px:.2f},{py:.2f}" for px, py in (to_px(p) for p in line))
        parts.append(f'<polyline points="{coords}" fill="none" stroke="black" stroke-width="2"/>')

    for p, label in zip(as_tensor(points), labels):
        px, py = to_px(p)
        if label == 1:
            parts.append(f'<circle cx="{px:.1f}" cy="{py:.1f}" r="5" fill="red"/>')
        else:
            tri = f"{px:.1f},{py - 6:.1f} {px - 5:.1f},{py + 4:.1f} {px + 5:.1f},{py + 4:.1f}"
            parts.append(f'<polygon points="{tri}" fill="blue"/>')
    parts.append("</svg>")
    return "\n".join(parts)


def grid_csv(grid: BoundaryGrid, path) -> None:
    """Write x,y,p rows for the probed lattice to path, one lattice row at a
    time, each value its shortest round-trip decimal."""
    x_text = [repr(x) for x in grid.xs.tolist()]
    with open(path, "w") as fh:
        fh.write("x,y,p\n")
        for y, row in zip(grid.ys.tolist(), grid.values):
            y_text = repr(y)
            fh.write("".join(f"{x},{y_text},{p!r}\n" for x, p in zip(x_text, row.tolist())))
