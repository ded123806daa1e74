"""Properties of the package's vector metrics, read through the functions
that run them.

The unit-chord dissimilarity is the pruner's pair score: the temporal
map of a two-frame, one-token video scores b after a. Row scores against
one reference are the temporal map after a frame that tiles the
reference; paired row scores are the temporal map between two frames;
scores against the frame mean are the spatial map. The cosine is the
degradation profile's row cosine, ``row_cosines``.
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sharpv.errors import ShapeMismatchError
from sharpv.memory import degradation_profile
from sharpv.pruner import VideoTokens, importance_maps
from sharpv.vecmath import NORM_EPS, row_cosines, unit_rows

import reference_pruner as ref

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


def vec_strategy(dim):
    return arrays(np.float64, (dim,), elements=finite)


def clear_of_norm_eps(v):
    """True iff every row's norm is clearly on one side of NORM_EPS, so
    summation order cannot move it across."""
    return bool((np.abs(np.linalg.norm(np.atleast_2d(v), axis=-1) / NORM_EPS - 1) > 1e-9).all())


def temporal_after(first, second):
    """Temporal scores of the (f, d) frame ``second`` after ``first``."""
    f, d = second.shape
    return importance_maps(VideoTokens(2, f, d, np.vstack([first, second])))[1][1]


def dissim(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return float(temporal_after(a[None, :], b[None, :])[0])


def row_dissim(m, ref_vec):
    return temporal_after(np.tile(ref_vec, (m.shape[0], 1)), m)


def mean_scores(frame):
    """Spatial scores: each token of one (f, d) frame against the frame mean."""
    f, d = frame.shape
    return importance_maps(VideoTokens(1, f, d, frame))[0][0]


def cosine(a, b):
    return float(row_cosines(np.asarray(a, dtype=np.float64)[None, :],
                             np.asarray(b, dtype=np.float64)[None, :])[0])


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
        if np.linalg.norm(a) < NORM_EPS or np.linalg.norm(b) < NORM_EPS:
            return  # zero rule decouples the two forms by design
        d = dissim(a, b)
        c = float(np.dot(a / np.linalg.norm(a), b / np.linalg.norm(b)))
        assert d * d == pytest.approx(2.0 - 2.0 * c, abs=1e-9)

    @given(vec_strategy(5), vec_strategy(5))
    def test_matches_scalar_oracle(self, a, b):
        assert dissim(a, b) == pytest.approx(ref.dissim(list(a), list(b)), abs=1e-9)


class TestCosine:
    def test_scale_invariance(self):
        v = np.array([1.0, 2.0, 3.0])
        assert cosine(v, 2 * v) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert cosine([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0, abs=1e-12)

    def test_zero_rule(self):
        assert cosine([0.0, 0.0], [1.0, 1.0]) == 0.0

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ShapeMismatchError):
            degradation_profile(np.ones((2, 1)), np.ones((2, 2)))

    @given(vec_strategy(7), vec_strategy(7))
    def test_bounded(self, a, b):
        assert -1.0 <= cosine(a, b) <= 1.0

    def test_tiny_rows_keep_their_direction(self):
        # norms 1e-7: their product is below NORM_EPS, each norm is not
        v = np.array([1e-7, 0.0])
        assert cosine(v, v) == 1.0
        assert cosine(v, [0.0, 1e-7]) == 0.0
        assert cosine(v, [-2e-7, 0.0]) == -1.0

    def test_identical_rows_score_exactly_one(self):
        a = np.random.default_rng(4).standard_normal((500, 64))
        assert (row_cosines(a, a.copy()) == 1.0).all()

    @given(vec_strategy(6), vec_strategy(6), st.floats(min_value=1e-9, max_value=1e3),
           st.floats(min_value=1e-9, max_value=1e3))
    # norms about 1e-8 and 1e-9: a rule on the norm product would zero the pair
    @example(np.arange(1.0, 7.0), np.eye(6)[0], 1e-9, 1e-9)
    def test_scaling_either_row_keeps_cosine(self, a, b, alpha, beta):
        # holds while scaling keeps each row on its side of the zero rule
        for v, scaled in ((a, alpha * a), (b, beta * b)):
            assume(clear_of_norm_eps(v) and clear_of_norm_eps(scaled))
            assume((np.linalg.norm(v) < NORM_EPS) == (np.linalg.norm(scaled) < NORM_EPS))
        c = cosine(a, b)
        assert cosine(alpha * a, b) == pytest.approx(c, abs=1e-12)
        assert cosine(a, beta * b) == pytest.approx(c, abs=1e-12)
        assert cosine(alpha * a, beta * b) == pytest.approx(c, abs=1e-12)

    @given(st.integers(1, 6).flatmap(lambda d: st.tuples(
        arrays(np.float64, (5, d), elements=finite), arrays(np.float64, (5, d), elements=finite))))
    def test_matches_dot_of_unit_rows(self, pair):
        # stage 2's cosine is stage 1's normalization followed by a dot
        a, b = pair
        assume(clear_of_norm_eps(a) and clear_of_norm_eps(b))
        want = np.clip(np.sum(unit_rows(a) * unit_rows(b), axis=-1), -1.0, 1.0)
        assert row_cosines(a, b) == pytest.approx(want, abs=4 * np.finfo(np.float64).eps)


class TestRowCosines:
    @staticmethod
    def norm_formula(a, b):
        # The zero rule written out per row: a pair scores 0 where either
        # row's own norm is below NORM_EPS.
        na = np.linalg.norm(a, axis=1)
        nb = np.linalg.norm(b, axis=1)
        dots = np.einsum("ij,ij->i", a, b)
        zero = (na < NORM_EPS) | (nb < NORM_EPS)
        out = np.where(zero, 0.0, dots / np.where(zero, 1.0, na * nb))
        return np.clip(out, -1.0, 1.0)

    def test_matches_norm_formula(self):
        rng = np.random.default_rng(12)
        a = rng.standard_normal((400, 64)) * rng.uniform(1e-3, 1e3, size=(400, 1))
        b = rng.standard_normal((400, 64)) * rng.uniform(1e-3, 1e3, size=(400, 1))
        b[:50] = 2.5 * a[:50]  # parallel: clipped to 1
        b[50:100] = -a[50:100]  # antiparallel: clipped to -1
        a[100:110] = 0.0  # zero rows
        a[110:120] = 1e-9 * rng.standard_normal((10, 64))  # norms ~8e-9, so the
        b[110:120] = 1e-9 * rng.standard_normal((10, 64))  # product is below NORM_EPS
        a[120:130] = 1e-14 * rng.standard_normal((10, 64))  # own norm below
        b[130:140] = 1e-14 * rng.standard_normal((10, 64))  # NORM_EPS
        na, nb = np.linalg.norm(a, axis=1), np.linalg.norm(b, axis=1)
        assert (na[110:120] * nb[110:120] < NORM_EPS).all()
        assert (na[120:130] < NORM_EPS).all() and (nb[130:140] < NORM_EPS).all()
        got = row_cosines(a, b)
        assert np.abs(got - self.norm_formula(a, b)).max() <= 1e-15
        assert (got[100:110] == 0.0).all()
        assert (got[110:120] != 0.0).all()
        assert (got[120:140] == 0.0).all()
        assert (np.abs(got) <= 1.0).all()


def test_only_vecmath_reads_norm_eps():
    # the zero rule lives in one module: no other package module may
    # import, read or reach through an attribute to NORM_EPS
    package = Path(__file__).resolve().parent.parent / "src" / "sharpv"
    readers = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Name) and node.id == "NORM_EPS"
                    or isinstance(node, ast.Attribute) and node.attr == "NORM_EPS"
                    or isinstance(node, ast.alias) and node.name == "NORM_EPS"):
                readers.add(path.name)
    assert readers == {"vecmath.py"}


class TestNormalize:
    def test_unit_norm(self):
        v = unit_rows(np.array([3.0, 4.0]))
        assert np.allclose(v, [0.6, 0.8])

    def test_zero_stays_zero(self):
        assert np.array_equal(unit_rows(np.zeros(3)), np.zeros(3))

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
        assert np.allclose(temporal_after(a, a), 0.0, atol=1e-9)

    def test_paired_antipodal_is_two(self):
        a = np.tile([1.0, 0.0, 0.0], (4, 1))
        assert temporal_after(a, -a) == pytest.approx([2.0] * 4, abs=1e-12)

    def test_paired_matches_scalar_loop(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            rows = int(rng.integers(1, 65))
            dim = int(rng.integers(1, 65))
            a = rng.standard_normal((rows, dim))
            b = rng.standard_normal((rows, dim))
            got = temporal_after(a, b)
            want = [ref.dissim(list(x), list(y)) for x, y in zip(a, b)]
            assert got == pytest.approx(want, abs=1e-9)


class TestMeanRows:
    def test_single_row(self):
        # a one-token frame is its own mean
        row = np.array([1.0, -2.0, 3.0])
        assert np.array_equal(mean_scores(row[None, :]), [0.0])

    def test_two_unit_rows(self):
        m = np.array([[1.0, 0.0], [0.0, 1.0]])
        want = ref.dissim([1.0, 0.0], [0.5, 0.5])
        assert mean_scores(m) == pytest.approx([want, want], abs=1e-12)

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((16, 8))
        mean = [sum(m[i][j] for i in range(16)) / 16 for j in range(8)]
        want = [ref.dissim(list(row), mean) for row in m]
        assert mean_scores(m) == pytest.approx(want, abs=1e-12)

    def test_empty_raises(self):
        # a frame with no tokens has no mean; the video is rejected
        with pytest.raises(ValueError):
            VideoTokens(1, 0, 3, np.zeros((0, 3)))
