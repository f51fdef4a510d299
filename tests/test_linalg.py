import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from avfusion.errors import DegenerateInputError
from avfusion.linalg import (
    angle_deg,
    centroid,
    cosine_similarity,
    l2_normalize,
    row_cosines,
)

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


def any_magnitude_vectors(dim):
    """Finite vectors of `dim` entries at a drawn scale from 1e-300 to
    1e300, or of any finite floats."""
    scaled = st.builds(
        lambda v, k: np.array(v) * 10.0**k,
        st.lists(st.floats(-10.0, 10.0), min_size=dim, max_size=dim),
        st.integers(-300, 300),
    )
    raw = st.lists(st.floats(allow_nan=False, allow_infinity=False),
                   min_size=dim, max_size=dim).map(np.array)
    return st.one_of(scaled, raw)


class TestUnderflowingNorms:
    """A nonzero vector whose squared norm is subnormal or underflows to 0
    keeps its direction, as a row of `row_cosines` does."""

    def test_cosine_and_angle_are_the_row_cosine(self):
        tiny, other = [1e-200, 2e-200], [1.0, 0.0]
        row = row_cosines(np.array([tiny]), np.array([other]))[0]
        assert cosine_similarity(tiny, other) == row == 0.4472135954999579
        assert cosine_similarity(other, tiny) == row
        assert angle_deg(tiny, other) == float(np.degrees(np.arccos(row)))

    def test_normalize_gives_the_rescaled_unit_vector(self):
        v = np.array([1e-200, -3e-200, 0.0])
        rescaled = v / 3e-200
        assert np.array_equal(l2_normalize(v), rescaled / np.sqrt(np.dot(rescaled, rescaled)))
        assert np.allclose(l2_normalize(v), np.array([1.0, -3.0, 0.0]) / np.sqrt(10.0))

    def test_zero_vectors_still_refused(self):
        with pytest.raises(DegenerateInputError, match="cannot normalize the zero vector"):
            l2_normalize([0.0, 0.0])
        for fn in (cosine_similarity, angle_deg):
            with pytest.raises(DegenerateInputError,
                               match="cosine similarity undefined for the zero vector"):
                fn([1e-200, 0.0], [0.0, 0.0])

    @pytest.mark.parametrize("row", [[3e-160, 4e-160, 0.0], [1e-155, -2e-160, 7e-156],
                                     [2.0**-520, 0.0, 0.0], [5e-324, 5e-324, 0.0]])
    def test_subnormal_square_keeps_its_cosine(self, row):
        # Below a norm of 2**-511 the sum of squares is subnormal: the
        # unscaled norm of [3e-160, 4e-160, 0] gave the cosine 0.60000334.
        row, other = np.array([row]), np.array([[1.0, 0.5, -2.0]])
        assert np.linalg.norm(row) < 2.0**-511
        assert row_cosines(row, other)[0] == pytest.approx(
            row_cosines(row * 2.0**600, other)[0], rel=0, abs=1e-15)
        assert cosine_similarity(row[0], other[0]) == row_cosines(row, other)[0]

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 6).flatmap(
        lambda dim: st.tuples(any_magnitude_vectors(dim), any_magnitude_vectors(dim))))
    def test_defined_vectors_keep_their_bits(self, pair):
        # The formulas these helpers had before they took a row of
        # `row_cosines`, which rescales a vector whose sum of squares is
        # subnormal or 0, and so has a norm below 2**-511.
        a, b = pair
        with np.errstate(all="ignore"):
            na, nb = np.linalg.norm(a), np.linalg.norm(b)
            assume(na >= 2.0**-511 and nb >= 2.0**-511)
            cos = float(np.clip(np.dot(a, b) / (na * nb), -1.0, 1.0))
            expected = (a / na, cos, float(np.degrees(np.arccos(cos))))
            got = (l2_normalize(a), cosine_similarity(a, b), angle_deg(a, b))
        for g, e in zip(got, expected):
            assert np.asarray(g).tobytes() == np.asarray(e).tobytes()
