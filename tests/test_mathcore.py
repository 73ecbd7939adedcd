import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dknn.mathcore import is_distribution, sharpen, softmax_rows
from dknn.rng import Rng
from oracles import (
    cross_entropy,
    finite_diff_gradient,
    kl_divergence,
    l2_distance,
    reference_is_distribution,
)


def random_distribution(rng: Rng, c: int) -> np.ndarray:
    v = rng.uniforms(c) + 1e-6
    return v / v.sum()


class TestSoftmax:
    """softmax_rows, the softmax the model uses, on 1-row arrays."""

    def test_symmetry(self):
        np.testing.assert_allclose(softmax_rows(np.array([[0.0, 0.0]])), [[0.5, 0.5]], atol=0)

    def test_shift_invariance_large(self):
        np.testing.assert_allclose(
            softmax_rows(np.array([[1000.0, 1000.0]])), [[0.5, 0.5]], atol=0
        )

    def test_ln2(self):
        np.testing.assert_allclose(
            softmax_rows(np.array([[math.log(2.0), 0.0]])), [[2.0 / 3.0, 1.0 / 3.0]],
            atol=1e-15,
        )

    def test_returns_distribution(self):
        rng = Rng(1)
        for _ in range(200):
            c = 1 + rng.bounded(12)
            v = rng.normals(c) * 50.0
            assert is_distribution(softmax_rows(v[None, :])[0])

    @given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=10),
           st.floats(-1e3, 1e3))
    @settings(max_examples=200, deadline=None)
    def test_shift_invariance_property(self, values, shift):
        v = np.array([values])
        diff = softmax_rows(v) - softmax_rows(v + shift)
        assert np.abs(diff).max() <= 1e-12


class TestIsDistribution:
    @pytest.mark.parametrize("tol", [1e-9, 1e-6])
    @pytest.mark.parametrize("p", [
        [0.5, 0.5], [1.0], [-0.0, 1.0], [0.0, -0.0, 1.0],
        [math.nan, 1.0], [0.5, math.nan, 0.5], [math.inf], [math.inf, 0.0],
        [-math.inf, 1.0], [math.inf, -math.inf], [-1e-300, 1.0], [-0.25, 1.25],
        [0.5, 0.5 + 2e-9], [0.5, 0.5 - 2e-9], [0.5, 0.5 + 2e-6], [0.5, 0.5 + 5e-10],
        [], [[0.5, 0.5]], 1.0,
        [[0.5, 0.5], [0.0, 1.0]], [[0.5, 0.5], [math.nan, 1.0]],
        [[0.5, 0.5], [0.5, 0.5 + 2e-9]], [[-0.0, 1.0], [1.0, -1e-300]],
        [[]], [[[0.5, 0.5]]],
    ])
    def test_truth_table_equals_first_form(self, p, tol):
        assert is_distribution(p, tol=tol) == reference_is_distribution(p, tol)

    def test_edges(self):
        assert is_distribution([-0.0, 1.0])
        assert not is_distribution([math.nan, 1.0])
        assert not is_distribution([math.inf, 0.0])
        assert not is_distribution([-1e-300, 1.0])
        assert not is_distribution([0.5, 0.5 + 2e-9])
        assert is_distribution([0.5, 0.5 + 2e-9], tol=1e-6)

    @pytest.mark.parametrize("tol", [1e-9, 1e-6])
    def test_block_of_edge_rows_equals_first_form_of_each_row(self, tol):
        rows = [[-0.0, 1.0], [math.nan, 1.0], [math.inf, 0.0], [-1e-300, 1.0],
                [0.5, 0.5 + 2e-9], [0.25, 0.75]]
        for size in range(1, len(rows) + 1):
            for block in itertools.combinations(rows, size):
                want = all(reference_is_distribution(row, tol) for row in block)
                assert is_distribution(np.array(block), tol=tol) == want
        assert not is_distribution(np.empty((0, 2)), tol=tol)


class TestL2Distance:
    def test_identity(self):
        a = np.array([1.0, -2.0, 3.5])
        assert l2_distance(a, a) == 0.0

    def test_pythagorean(self):
        assert l2_distance([0.0, 0.0], [3.0, 4.0]) == 5.0

    def test_symmetry(self):
        rng = Rng(2)
        for _ in range(100):
            a = rng.normals(8)
            b = rng.normals(8)
            assert l2_distance(a, b) == l2_distance(b, a)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            l2_distance([1.0], [1.0, 2.0])

    def test_triangle_inequality(self):
        rng = Rng(3)
        for _ in range(500):
            a, b, c = rng.normals(6), rng.normals(6), rng.normals(6)
            assert l2_distance(a, c) <= l2_distance(a, b) + l2_distance(b, c) + 1e-9


class TestKlDivergence:
    def test_self_is_zero(self):
        rng = Rng(4)
        for _ in range(100):
            p = random_distribution(rng, 5)
            assert kl_divergence(p, p) <= 1e-12

    def test_onehot_vs_uniform(self):
        # closed form 1 * ln(1/0.5) = ln 2, up to the eps smoothing
        assert abs(kl_divergence([1.0, 0.0], [0.5, 0.5]) - math.log(2.0)) <= 1e-6

    def test_asymmetry(self):
        a = np.array([0.5, 0.5])
        b = np.array([0.9, 0.1])
        assert kl_divergence(a, b) != kl_divergence(b, a)

    def test_nonnegative_random_pairs(self):
        rng = Rng(5)
        for _ in range(2000):
            c = 2 + rng.bounded(8)
            a = random_distribution(rng, c)
            b = random_distribution(rng, c)
            assert kl_divergence(a, b) >= -1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            kl_divergence([1.0], [0.5, 0.5])

    def test_bad_eps(self):
        with pytest.raises(ValueError):
            kl_divergence([0.5, 0.5], [0.5, 0.5], eps=0.0)


def sharpen_row(p) -> np.ndarray:
    """sharpen of one distribution, as a 1-row block."""
    return sharpen(np.array([p], dtype=np.float64))[0]


class TestSharpen:
    def test_uniform_fixed_point(self):
        for c in (2, 3, 7):
            u = np.full(c, 1.0 / c)
            np.testing.assert_allclose(sharpen_row(u), u, atol=1e-15)

    def test_onehot_fixed_point(self):
        p = np.array([0.0, 1.0, 0.0])
        np.testing.assert_allclose(sharpen_row(p), p, atol=0)

    def test_example_80_20(self):
        np.testing.assert_allclose(
            sharpen_row([0.8, 0.2]), [16.0 / 17.0, 1.0 / 17.0], atol=1e-15
        )

    def test_argmax_preserved_and_max_not_decreased(self):
        rng = Rng(6)
        for _ in range(1000):
            c = 2 + rng.bounded(9)
            p = random_distribution(rng, c)
            s = sharpen_row(p)
            assert is_distribution(s)
            assert np.argmax(s) == np.argmax(p)
            assert s.max() >= p.max() - 1e-12

    def test_unnormalized_input_two_step(self):
        # literal two-step evaluation for an unnormalized nonnegative vector
        p = np.array([2.0, 1.0])
        f = p * p / p.sum()
        np.testing.assert_allclose(sharpen_row(p), f / f.sum(), atol=0)


class TestCrossEntropy:
    def test_onehot_zero(self):
        assert cross_entropy([0.0, 1.0], 1) == 0.0

    def test_half(self):
        assert abs(cross_entropy([0.5, 0.5], 0) - math.log(2.0)) <= 1e-15

    def test_clamp(self):
        assert cross_entropy([1.0, 0.0], 1) == pytest.approx(math.log(1e12))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            cross_entropy([0.5, 0.5], 2)
        with pytest.raises(ValueError):
            cross_entropy([0.5, 0.5], -1)


class TestFiniteDiff:
    def test_quadratic(self):
        g = finite_diff_gradient(lambda v: float(np.sum(v * v)), [1.0, 2.0])
        np.testing.assert_allclose(g, [2.0, 4.0], atol=1e-9)

    def test_constant(self):
        g = finite_diff_gradient(lambda v: 3.25, [0.3, -0.7, 1.1])
        np.testing.assert_allclose(g, np.zeros(3), atol=0)

    def test_product(self):
        g = finite_diff_gradient(lambda v: float(v[0] * v[1]), [3.0, 5.0])
        np.testing.assert_allclose(g, [5.0, 3.0], atol=1e-9)

    def test_bad_h(self):
        with pytest.raises(ValueError):
            finite_diff_gradient(lambda v: 0.0, [1.0], h=0.0)

    def test_non_finite_f(self):
        with pytest.raises(ValueError):
            finite_diff_gradient(lambda v: float("inf"), [1.0])
