import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sharpv.errors import ShapeMismatchError
from sharpv.vecmath import (
    NORM_EPS,
    cosine_sim,
    dissim,
    l2_normalize,
    mean_rows,
    paired_row_dissim,
    row_dissim,
    unit_rows,
)

import reference_pruner as ref

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


def vec_strategy(dim):
    return arrays(np.float64, (dim,), elements=finite)


class TestDissim:
    def test_identical_direction_is_zero(self):
        v = np.array([3.0, -1.0, 2.0])
        assert dissim(v, v) == pytest.approx(0.0, abs=1e-9)
        assert dissim(v, 2.5 * v) == pytest.approx(0.0, abs=1e-9)

    def test_orthogonal_is_sqrt2(self):
        assert dissim([1.0, 0.0], [0.0, 1.0]) == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_antipodal_is_two(self):
        assert dissim([1.0, 0.0], [-1.0, 0.0]) == pytest.approx(2.0, abs=1e-12)

    def test_zero_vs_unit_is_one(self):
        assert dissim([0.0, 0.0], [5.0, 0.0]) == pytest.approx(1.0, abs=1e-12)

    def test_zero_vs_zero_is_zero(self):
        assert dissim([0.0, 0.0], [0.0, 0.0]) == 0.0

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ShapeMismatchError):
            dissim([1.0, 2.0], [1.0, 2.0, 3.0])

    @given(vec_strategy(6), vec_strategy(6))
    def test_range_and_symmetry(self, a, b):
        d = dissim(a, b)
        assert 0.0 <= d <= 2.0
        assert d == pytest.approx(dissim(b, a), abs=1e-12)

    @given(vec_strategy(6), vec_strategy(6), st.floats(min_value=1e-3, max_value=1e3))
    def test_scale_invariance(self, a, b, alpha):
        # holds only while scaling keeps a on its side of the zero rule
        assume((np.linalg.norm(a) < NORM_EPS) == (np.linalg.norm(alpha * a) < NORM_EPS))
        assert dissim(alpha * a, b) == pytest.approx(dissim(a, b), abs=1e-9)

    def test_scaling_below_norm_eps_hits_zero_rule(self):
        # norm 9.6e-10 stays a direction; scaled by 1e-3 it drops under
        # NORM_EPS and counts as the zero vector
        a = np.full(6, 3.927e-10)
        b = np.zeros(6)
        assert np.linalg.norm(a) >= NORM_EPS > np.linalg.norm(1e-3 * a)
        assert dissim(a, b) == pytest.approx(1.0, abs=1e-12)
        assert dissim(1e-3 * a, b) == 0.0

    @given(vec_strategy(8), vec_strategy(8))
    def test_chord_cosine_identity(self, a, b):
        # the two equivalent formulations of the distance must agree
        d = dissim(a, b)
        c = cosine_sim(a, b)
        if np.linalg.norm(a) < 1e-12 or np.linalg.norm(b) < 1e-12:
            return  # zero rule decouples the two forms by design
        assert d * d == pytest.approx(2.0 - 2.0 * c, abs=1e-9)

    @given(vec_strategy(5), vec_strategy(5))
    def test_matches_scalar_oracle(self, a, b):
        assert dissim(a, b) == pytest.approx(ref.dissim(list(a), list(b)), abs=1e-9)


class TestCosine:
    def test_scale_invariance(self):
        v = np.array([1.0, 2.0, 3.0])
        assert cosine_sim(v, 2 * v) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert cosine_sim([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0, abs=1e-12)

    def test_zero_rule(self):
        assert cosine_sim([0.0, 0.0], [1.0, 1.0]) == 0.0

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ShapeMismatchError):
            cosine_sim([1.0], [1.0, 2.0])

    @given(vec_strategy(7), vec_strategy(7))
    def test_bounded(self, a, b):
        assert -1.0 <= cosine_sim(a, b) <= 1.0


class TestNormalize:
    def test_unit_norm(self):
        v = l2_normalize(np.array([3.0, 4.0]))
        assert np.allclose(v, [0.6, 0.8])

    def test_zero_stays_zero(self):
        assert np.array_equal(l2_normalize(np.zeros(3)), np.zeros(3))

    def test_unit_rows_mixed(self):
        m = np.array([[3.0, 4.0], [0.0, 0.0], [0.0, 2.0]])
        out = unit_rows(m)
        assert np.allclose(out, [[0.6, 0.8], [0.0, 0.0], [0.0, 1.0]])


class TestRowOps:
    def test_rows_equal_ref_all_zero(self):
        ref_vec = np.array([1.0, 2.0])
        m = np.tile(ref_vec, (4, 1))
        assert np.allclose(row_dissim(m, ref_vec), 0.0, atol=1e-9)

    def test_two_by_two(self):
        m = np.array([[1.0, 0.0], [0.0, 1.0]])
        out = row_dissim(m, np.array([1.0, 0.0]))
        assert out == pytest.approx([0.0, math.sqrt(2)], abs=1e-12)

    def test_row_dissim_matches_scalar_loop(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            rows = int(rng.integers(1, 65))
            dim = int(rng.integers(1, 65))
            m = rng.standard_normal((rows, dim))
            r = m.mean(axis=0)
            got = row_dissim(m, r)
            want = [ref.dissim(list(row), list(r)) for row in m]
            assert got == pytest.approx(want, abs=1e-9)

    def test_paired_identical_is_zero(self):
        a = np.random.default_rng(1).standard_normal((5, 3))
        assert np.allclose(paired_row_dissim(a, a), 0.0, atol=1e-9)

    def test_paired_antipodal_is_two(self):
        a = np.tile([1.0, 0.0, 0.0], (4, 1))
        assert paired_row_dissim(a, -a) == pytest.approx([2.0] * 4, abs=1e-12)

    def test_paired_matches_scalar_loop(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            rows = int(rng.integers(1, 65))
            dim = int(rng.integers(1, 65))
            a = rng.standard_normal((rows, dim))
            b = rng.standard_normal((rows, dim))
            got = paired_row_dissim(a, b)
            want = [ref.dissim(list(x), list(y)) for x, y in zip(a, b)]
            assert got == pytest.approx(want, abs=1e-9)

    def test_paired_shape_mismatch_raises(self):
        with pytest.raises(ShapeMismatchError):
            paired_row_dissim(np.zeros((2, 3)), np.zeros((3, 3)))


class TestMeanRows:
    def test_single_row(self):
        row = np.array([1.0, -2.0, 3.0])
        assert np.array_equal(mean_rows(row[None, :]), row)

    def test_two_unit_rows(self):
        m = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert np.allclose(mean_rows(m), [0.5, 0.5])

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((16, 8))
        want = [sum(m[i][j] for i in range(16)) / 16 for j in range(8)]
        assert mean_rows(m) == pytest.approx(want, abs=1e-12)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            mean_rows(np.zeros((0, 3)))
