"""Dense vector/matrix helpers and the angular geometry used everywhere else.

All functions work on numpy float64 arrays and validate finiteness so that
no NaN/Inf can escape a public operation.
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


def l2_normalize(v) -> np.ndarray:
    """Scale v to unit L2 norm, preserving direction."""
    v = as_vector(v)
    norm = np.linalg.norm(v)
    if norm == 0.0:
        raise DegenerateInputError("cannot normalize the zero vector")
    return v / norm


def cosine_similarity(a, b) -> float:
    """Cosine of the angle between a and b, clamped to [-1, 1]."""
    a = as_vector(a)
    b = as_vector(b)
    if a.shape != b.shape:
        raise ShapeError(f"dimension mismatch: {a.shape} vs {b.shape}")
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise DegenerateInputError("cosine similarity undefined for the zero vector")
    return float(np.clip(np.dot(a, b) / (na * nb), -1.0, 1.0))


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
