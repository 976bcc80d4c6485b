"""Minkowski and AdS geometry in the Poincare chart.

Conventions: metric signature (+, -, ..., -); an AdS point is (z > 0, x) with
chordal distance (-(x - x')^2 + (z - z')^2) / (2 z z').
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, DomainError

__all__ = ["MinkVector", "AdSPoint", "chordal_distance"]


@dataclass(frozen=True)
class MinkVector:
    """Point (or difference vector) of d-dimensional Minkowski space."""

    components: tuple

    def __post_init__(self):
        comps = tuple(float(c) for c in self.components)
        object.__setattr__(self, "components", comps)
        if len(comps) < 2:
            raise DomainError("Minkowski dimension must be >= 2")

    @property
    def d(self):
        return len(self.components)

    @property
    def array(self):
        return np.array(self.components)

    def __sub__(self, other):
        _same_d(self, other)
        return MinkVector(tuple(a - b for a, b in
                                zip(self.components, other.components)))

    def __neg__(self):
        return MinkVector(tuple(-a for a in self.components))

    def scale(self, lam):
        return MinkVector(tuple(lam * a for a in self.components))

    def dot(self, other):
        _same_d(self, other)
        a, b = self.array, other.array
        return float(a[0] * b[0] - np.dot(a[1:], b[1:]))

    def square(self):
        return self.dot(self)


def _same_d(a, b):
    if a.d != b.d:
        raise DimensionMismatchError(f"dimension mismatch: {a.d} vs {b.d}")


@dataclass(frozen=True)
class AdSPoint:
    """Poincare-chart point (z, x) of AdS_{d+1}, z > 0."""

    z: float
    x: MinkVector

    def __post_init__(self):
        if not 0 < self.z < math.inf:
            raise DomainError("AdS Poincare depth z must be finite and "
                              "positive")


def chordal_distance(p, q):
    """AdS-invariant chordal distance (-(x-x')^2 + (z-z')^2) / (2 z z')."""
    dx = p.x - q.x
    return (-dx.square() + (p.z - q.z) ** 2) / (2.0 * p.z * q.z)
