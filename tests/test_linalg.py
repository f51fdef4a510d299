import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avfusion.errors import DegenerateInputError
from avfusion.linalg import angle_deg, centroid, cosine_similarity, l2_normalize

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


def nonzero_vectors(dim=4):
    return (
        st.lists(finite_floats, min_size=dim, max_size=dim)
        .map(np.array)
        .filter(lambda v: np.linalg.norm(v) > 1e-6)
    )


class TestL2Normalize:
    def test_three_four_five(self):
        assert np.allclose(l2_normalize([3.0, 4.0]), [0.6, 0.8])

    def test_already_unit(self):
        assert np.array_equal(l2_normalize([1.0, 0.0, 0.0]), [1.0, 0.0, 0.0])

    def test_zero_vector(self):
        with pytest.raises(DegenerateInputError):
            l2_normalize([0.0, 0.0])

    def test_unit_norm_and_direction(self, rng):
        v = rng.normal(size=6)
        u = l2_normalize(v)
        assert abs(np.linalg.norm(u) - 1.0) < 1e-12
        assert np.allclose(u * np.linalg.norm(v), v)


class TestCosineSimilarity:
    def test_identical_direction(self):
        assert cosine_similarity([1.0, 0.0], [1.0, 0.0]) == 1.0

    def test_orthogonal(self):
        assert cosine_similarity([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_forty_five(self):
        assert cosine_similarity([1.0, 0.0], [1.0, 1.0]) == pytest.approx(
            np.sqrt(0.5), abs=1e-12
        )

    def test_zero_vector(self):
        with pytest.raises(DegenerateInputError):
            cosine_similarity([0.0, 0.0], [1.0, 0.0])

    def test_clamped_near_parallel(self, rng):
        # Tiny perturbations of a common direction can push the raw cosine
        # past 1 in floating point; the clamp must hold.
        base = rng.normal(size=16)
        for _ in range(200):
            a = base * (1 + 1e-14 * rng.normal())
            b = base * (1 + 1e-14 * rng.normal())
            c = cosine_similarity(a, b)
            assert -1.0 <= c <= 1.0


class TestAngleDeg:
    def test_orthogonal(self):
        assert angle_deg([1.0, 0.0], [0.0, 1.0]) == pytest.approx(90.0)

    def test_antipodal(self):
        assert angle_deg([1.0, 0.0], [-1.0, 0.0]) == pytest.approx(180.0)

    def test_forty_five(self):
        assert angle_deg([1.0, 0.0], [1.0, 1.0]) == pytest.approx(45.0)

    @settings(max_examples=50, deadline=None)
    @given(nonzero_vectors(), nonzero_vectors())
    def test_symmetry(self, a, b):
        assert angle_deg(a, b) == pytest.approx(angle_deg(b, a), abs=1e-9)
        assert 0.0 <= angle_deg(a, b) <= 180.0

    @settings(max_examples=50, deadline=None)
    @given(nonzero_vectors(), st.floats(min_value=0.01, max_value=100.0))
    def test_scaling(self, a, c):
        assert angle_deg(a, c * a) == pytest.approx(0.0, abs=1e-5)
        assert angle_deg(a, -c * a) == pytest.approx(180.0, abs=1e-5)


class TestCentroid:
    def test_symmetric_pair(self):
        assert np.allclose(centroid([[1.0, 0.0], [0.0, 1.0]]), [0.5, 0.5])

    def test_single_vector(self):
        assert np.array_equal(centroid([[2.0, 5.0]]), [2.0, 5.0])

    def test_three_vectors(self):
        got = centroid([[2.0, 2.0], [4.0, 6.0], [0.0, 1.0]])
        assert np.allclose(got, [2.0, 3.0])

    def test_empty(self):
        with pytest.raises(DegenerateInputError):
            centroid([])
