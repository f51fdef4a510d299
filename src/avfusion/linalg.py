"""Dense vector/matrix helpers and the angular geometry used everywhere else.

All functions work on numpy float64 arrays and validate finiteness so that
no NaN/Inf can escape a public operation.  The one-vector helpers take
one row of the row functions, whose `np.vecdot` sums a row as `np.dot` does.
"""

import numpy as np

from .errors import DegenerateInputError, ShapeError


def as_vector(v) -> np.ndarray:
    """Coerce to a finite 1-d float64 array."""
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ShapeError(f"expected a nonempty 1-d vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DegenerateInputError("vector contains NaN or Inf")
    return arr


def rescale_underflowing(rows, norms):
    """(rows, norms) with each nonzero row whose norm underflowed to 0 (every
    entry below about 1e-154 in magnitude) divided by its largest magnitude,
    and its norm taken again; the other rows and norms are kept as they
    are.  A cosine does not change with the scale of a row, and the scaled
    row's norm is at least 1."""
    if not (norms == 0.0).any():
        return rows, norms
    tiny = np.flatnonzero((norms == 0.0) & rows.any(axis=1))
    rows, norms = rows.copy(), norms.copy()
    rows[tiny] /= np.abs(rows[tiny]).max(axis=1, keepdims=True)
    norms[tiny] = np.sqrt(np.vecdot(rows[tiny], rows[tiny]))
    return rows, norms


def row_cosines(left, right):
    """Clamped cosine of each pair of rows; an exactly zero row has none."""
    if not (np.isfinite(left).all() and np.isfinite(right).all()):
        raise DegenerateInputError("vector contains NaN or Inf")
    left, left_norms = rescale_underflowing(left, np.sqrt(np.vecdot(left, left)))
    right, right_norms = rescale_underflowing(right, np.sqrt(np.vecdot(right, right)))
    if (left_norms == 0.0).any() or (right_norms == 0.0).any():
        raise DegenerateInputError("cosine similarity undefined for the zero vector")
    return np.clip(np.vecdot(left, right) / (left_norms * right_norms), -1.0, 1.0)


def cosine_distances(rows):
    """1 - clamped cosine of every pair of rows, with the norms of
    `np.linalg.norm(rows, axis=1)`; an exactly zero row is at distance 1
    from every row."""
    norms = np.linalg.norm(rows, axis=1)
    norms[~rows.any(axis=1)] = 1.0
    rows, norms = rescale_underflowing(rows, norms)
    unit = rows / norms[:, None]
    dist = unit @ unit.T
    np.clip(dist, -1.0, 1.0, out=dist)
    return np.subtract(1.0, dist, out=dist)


def l2_normalize(v) -> np.ndarray:
    """Scale v to unit L2 norm, preserving direction."""
    v = as_vector(v)[None]
    rows, norms = rescale_underflowing(v, np.sqrt(np.vecdot(v, v)))
    if norms[0] == 0.0:
        raise DegenerateInputError("cannot normalize the zero vector")
    return rows[0] / norms[0]


def cosine_similarity(a, b) -> float:
    """Cosine of the angle between a and b, clamped to [-1, 1]."""
    a = as_vector(a)
    b = as_vector(b)
    if a.shape != b.shape:
        raise ShapeError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(row_cosines(a[None], b[None])[0])


def angle_deg(a, b) -> float:
    """Angle between a and b in degrees, in [0, 180]."""
    return float(np.degrees(np.arccos(cosine_similarity(a, b))))


def centroid(vectors) -> np.ndarray:
    """Element-wise arithmetic mean of a nonempty list of equal-length vectors."""
    vectors = list(vectors)
    if not vectors:
        raise DegenerateInputError("centroid of an empty list")
    stacked = np.stack([as_vector(v) for v in vectors])
    return stacked.mean(axis=0)
