import numpy as np
import pytest

from vatlab.errors import DimensionError, NumericError
from vatlab.numerics import (log_softmax, make_rng, normalize_rows, sample_unit_vector,
                             softmax)
from vatlab.train import EVAL_BLOCK


class TestLogSoftmax:
    def test_symmetric_pair(self):
        out = log_softmax(np.array([[0.0, 0.0]]))
        assert np.allclose(out, np.log(0.5))

    def test_large_logits_no_overflow(self):
        out = log_softmax(np.array([[1000.0, 0.0]]))
        # exact values on the shifted row: [log(1/(1+e^-1000)), -1000 + that]
        assert abs(out[0, 0]) < 1e-12
        assert abs(out[0, 1] + 1000.0) < 1e-9

    def test_shift_invariance(self, rng):
        z = rng.standard_normal((5, 4))
        assert np.allclose(log_softmax(z), log_softmax(z + 17.3), atol=1e-12)

    def test_rows_sum_to_one(self, rng):
        z = rng.uniform(-1e3, 1e3, (50, 6))
        sums = np.exp(log_softmax(z)).sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) < 1e-12

    def test_nonfinite_rejected(self):
        with pytest.raises(NumericError):
            log_softmax(np.array([[np.nan, 0.0]]))


class TestSampleUnitVector:
    def test_one_dimensional(self, rng):
        vals = {float(sample_unit_vector(rng, 1, 1)[0, 0]) for _ in range(20)}
        assert vals <= {1.0, -1.0}

    def test_unit_norm(self, rng):
        for dim in (2, 3, 17, 100):
            v = sample_unit_vector(rng, dim, 1)[0]
            assert abs(np.linalg.norm(v) - 1.0) <= 1e-12

    def test_sphere_uniformity(self):
        rng = make_rng(7)
        samples = rng.standard_normal((100_000, 3))
        samples /= np.linalg.norm(samples, axis=1, keepdims=True)
        assert np.max(np.abs(samples.mean(axis=0))) < 0.02
        # same check through the public API on a subsample
        mean = sample_unit_vector(make_rng(8), 3, 20_000).mean(axis=0)
        assert np.max(np.abs(mean)) < 0.02

    @pytest.mark.parametrize("batch, dim", [(1, 1), (16, 100), (250, 784)])
    def test_batched_draw_matches_single_draws(self, batch, dim):
        # reference: one Gaussian draw and 1-D norm per row, as a loop
        loop_rng = make_rng(31)
        rows = []
        for _ in range(batch):
            v = loop_rng.standard_normal(dim)
            rows.append(v / np.linalg.norm(v))
        batch_rng = make_rng(31)
        assert np.array_equal(sample_unit_vector(batch_rng, dim, batch), np.stack(rows))
        # both generators are left at the same position
        assert loop_rng.standard_normal() == batch_rng.standard_normal()

    def test_consecutive_draws_equal_one_draw(self):
        # evaluate() draws a split's directions block by block
        n, dim = EVAL_BLOCK + 100, 8
        one = sample_unit_vector(make_rng(32), dim, n)
        rng = make_rng(32)
        blocks = [sample_unit_vector(rng, dim, EVAL_BLOCK), sample_unit_vector(rng, dim, 100)]
        assert np.array_equal(np.concatenate(blocks), one)

    def test_rows_of_norm_below_the_floor_are_drawn_again(self):
        # the first draw has a zero row and a row of norm 1e-31
        draws = [np.array([[3.0, 4.0], [0.0, 0.0], [0.0, 1e-31]]),
                 np.array([[0.0, 2.0], [6.0, 8.0]])]
        shapes = []

        class Stub:
            def standard_normal(self, shape):
                shapes.append(shape)
                return draws.pop(0)

        v = sample_unit_vector(Stub(), 2, 3)
        assert shapes == [(3, 2), (2, 2)]
        assert np.array_equal(v, [[0.6, 0.8], [0.0, 1.0], [0.6, 0.8]])

    def test_zero_dim_rejected(self, rng):
        with pytest.raises(DimensionError):
            sample_unit_vector(rng, 0, 1)


def test_rng_streams_bitwise_identical():
    a = make_rng(987654321).standard_normal(1_000_000)
    b = make_rng(987654321).standard_normal(1_000_000)
    assert np.array_equal(a, b)


def test_normalize_rows_fallback():
    t = np.array([[3.0, 4.0], [0.0, 0.0]])
    out = normalize_rows(t)
    assert np.allclose(out[0], [0.6, 0.8])
    assert np.array_equal(out[1], [0.0, 0.0])


def test_softmax_matches_log_softmax(rng):
    z = rng.standard_normal((4, 5))
    assert np.allclose(softmax(z), np.exp(log_softmax(z)))
