import tracemalloc

import numpy as np
import pytest

from vatlab import contour, data as dm, nn
from vatlab.contour import (BoundaryGrid, _probe_blocks, boundary_svg, marching_squares,
                            probe_grid)
from vatlab.errors import ConfigError


def linear_field_grid(n=21):
    xs = np.linspace(0.0, 1.0, n)
    ys = np.linspace(0.0, 1.0, n)
    values = np.tile(xs, (n, 1))  # p = x, independent of y
    return BoundaryGrid(xs=xs, ys=ys, values=values)


def reference_marching_squares(grid, level):
    """Unmerged segments of marching_squares, one Python step per cell."""
    xs, ys, v = grid.xs, grid.ys, grid.values
    segments = []

    def interp(pa, pb, fa, fb):
        t = 0.5 if fb == fa else (level - fa) / (fb - fa)
        return (pa[0] + t * (pb[0] - pa[0]), pa[1] + t * (pb[1] - pa[1]))

    table = {1: [(3, 0)], 2: [(0, 1)], 3: [(3, 1)], 4: [(1, 2)], 6: [(0, 2)], 7: [(3, 2)],
             8: [(2, 3)], 9: [(2, 0)], 11: [(2, 1)], 12: [(1, 3)], 13: [(1, 0)], 14: [(0, 3)]}
    for j in range(len(ys) - 1):
        for i in range(len(xs) - 1):
            corners = [(xs[i], ys[j]), (xs[i + 1], ys[j]),
                       (xs[i + 1], ys[j + 1]), (xs[i], ys[j + 1])]
            f = [v[j, i], v[j, i + 1], v[j + 1, i + 1], v[j + 1, i]]
            case = sum(1 << k for k in range(4) if f[k] >= level)
            if case in (0, 15):
                continue
            edges = {0: interp(corners[0], corners[1], f[0], f[1]),
                     1: interp(corners[1], corners[2], f[1], f[2]),
                     2: interp(corners[3], corners[2], f[3], f[2]),
                     3: interp(corners[0], corners[3], f[0], f[3])}
            if case == 5:
                pairs = [(3, 0), (1, 2)] if np.mean(f) < level else [(3, 2), (1, 0)]
            elif case == 10:
                pairs = [(0, 1), (2, 3)] if np.mean(f) < level else [(0, 3), (2, 1)]
            else:
                pairs = table[case]
            segments += [(edges[a], edges[b]) for a, b in pairs]
    return segments


class TestMarchingSquares:
    def test_matches_cell_by_cell_reference(self, rng):
        # a random field crosses the level in most cells, saddles included
        grid = BoundaryGrid(xs=np.linspace(-1.0, 2.0, 41), ys=np.linspace(0.5, 1.5, 31),
                            values=rng.random((31, 41)))
        grid.values[3, 4] = 0.5  # a corner exactly at the level
        expected = contour._merge_segments(reference_marching_squares(grid, contour.LEVEL))
        assert marching_squares(grid) == expected

    def test_vertical_line_for_linear_field(self):
        lines = marching_squares(linear_field_grid())
        points = np.array([p for line in lines for p in line])
        assert np.max(np.abs(points[:, 0] - 0.5)) < 1e-9
        ys = points[:, 1]
        assert ys.min() < 0.01 and ys.max() > 0.99

    def test_flat_field_has_no_contour(self):
        grid = BoundaryGrid(xs=np.linspace(0, 1, 5), ys=np.linspace(0, 1, 5),
                            values=np.full((5, 5), 0.2))
        assert marching_squares(grid) == []

    def test_circle_contour_radius(self):
        n = 101
        xs = np.linspace(-2, 2, n)
        ys = np.linspace(-2, 2, n)
        gx, gy = np.meshgrid(xs, ys)
        # p crosses 0.5 on the unit circle
        values = 1.0 / (1.0 + np.exp(5 * (np.sqrt(gx ** 2 + gy ** 2) - 1.0)))
        grid = BoundaryGrid(xs=xs, ys=ys, values=values)
        points = np.array([p for line in marching_squares(grid) for p in line])
        radii = np.linalg.norm(points, axis=1)
        assert np.max(np.abs(radii - 1.0)) < 0.05


def assert_matches_one_product(net, emb, resolution):
    grid = probe_grid(net, emb, (-1, 1, -1, 1), resolution=resolution)
    gx, gy = np.meshgrid(grid.xs, grid.ys)
    plane = np.column_stack([gx.ravel(), gy.ravel()])
    whole = nn.predict_proba(net, dm.embed_100d(plane, emb))[:, 1]
    assert grid.values.tobytes() == whole.reshape(resolution, resolution).tobytes()


class TestProbeGrid:
    def test_values_are_probabilities(self, rng):
        net = nn.init_mlp([100, 10, 2], rng)
        emb = dm.make_embedding(rng)
        grid = probe_grid(net, emb, (-1, 1, -1, 1), resolution=16)
        assert np.all((grid.values >= 0) & (grid.values <= 1))

    @pytest.mark.parametrize("resolution", [1, 0, -3])
    def test_rejects_resolution_below_2(self, rng, resolution):
        # a one-point lattice has zero span, which boundary_svg would divide by
        net = nn.init_mlp([100, 10, 2], rng)
        emb = dm.make_embedding(rng)
        with pytest.raises(ConfigError, match="resolution"):
            probe_grid(net, emb, (-1, 1, -1, 1), resolution=resolution)

    def test_flat_network_gives_half(self, rng):
        net = nn.init_mlp([100, 10, 2], rng)
        for layer in net.layers:
            layer.weights[:] = 0.0
            layer.biases[:] = 0.0
        emb = dm.make_embedding(rng)
        grid = probe_grid(net, emb, (-1, 1, -1, 1), resolution=8)
        assert np.allclose(grid.values, 0.5)
        assert marching_squares(grid) == []

    def test_memory_stays_bounded(self, rng):
        # one product over the 200^2 lattice peaked at 94 MB, blocks of 16,384
        # points at 33 MB there and 44 MB at 600^2; blocks at the small-matrix
        # floor take 15 and 18 MB, the 600^2 result grid 2.9 MB of them
        net = nn.init_mlp([100, 100, 2], rng)
        emb = dm.make_embedding(rng)
        for resolution in (200, 600):
            tracemalloc.start()
            try:
                probe_grid(net, emb, (-1, 1, -1, 1), resolution=resolution)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 20e6, resolution

    def test_blocks_match_one_product_over_the_lattice(self, rng):
        # fails if a block drops below OpenBLAS's small-matrix threshold; 7
        # blocks at 200^2 and 17 at 300^2
        net, emb = nn.init_mlp([100, 100, 2], rng), dm.make_embedding(rng)
        for resolution in (200, 300):
            assert_matches_one_product(net, emb, resolution)

    def test_narrow_hidden_layer_matches_one_product(self, rng):
        # 2 blocks of 137^2 would put the 50->2 layer under the threshold
        assert_matches_one_product(nn.init_mlp([100, 50, 2], rng), dm.make_embedding(rng), 137)

    @pytest.mark.parametrize("hidden, resolution, blocks", [
        (100, 200, 7), (50, 137, 1), (50, 200, 3), (7, 137, 3), (100, 1000, 166),
    ])
    def test_block_count(self, hidden, resolution, blocks):
        per_point = [2 * 100, 100 * hidden, hidden * 2]
        assert _probe_blocks(resolution, per_point) == blocks

    def test_rejects_invalid_values(self):
        with pytest.raises(ConfigError):
            BoundaryGrid(xs=np.arange(2.0), ys=np.arange(2.0),
                         values=np.array([[0.5, 1.5], [0.0, 0.2]]))


def test_svg_structure(rng):
    grid = linear_field_grid()
    points = np.array([[0.2, 0.2], [0.8, 0.8]])
    labels = np.array([0, 1])
    svg = boundary_svg(grid, points, labels, mean_lds=-0.25)
    assert svg.startswith("<svg") and svg.endswith("</svg>")
    assert "polyline" in svg
    assert "circle" in svg and "polygon" in svg
    assert "mean LDS = -0.2500" in svg


def test_grid_csv_row_count(tmp_path):
    path = tmp_path / "grid.csv"
    contour.grid_csv(linear_field_grid(5), path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "x,y,p"
    assert len(lines) == 1 + 25


def test_grid_csv_round_trips(rng, tmp_path):
    grid = BoundaryGrid(xs=np.linspace(-1.3, 2.7, 7), ys=np.linspace(-0.4, 0.9, 5),
                        values=rng.random((5, 7)) ** 9)
    path = tmp_path / "grid.csv"
    contour.grid_csv(grid, path)
    table = np.genfromtxt(path, delimiter=",", skip_header=1)
    gx, gy = np.meshgrid(grid.xs, grid.ys)
    for column, expected in zip(table.T, (gx, gy, grid.values)):
        assert column.tobytes() == expected.ravel().tobytes()


def test_lattice_bounds_padding():
    points = np.array([[0.0, 0.0], [1.0, 2.0]])
    x0, x1, y0, y1 = contour.lattice_bounds(points)
    assert np.allclose((x0, x1), (-0.3, 1.3))
    assert np.allclose((y0, y1), (-0.6, 2.6))
