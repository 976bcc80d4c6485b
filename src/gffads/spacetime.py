"""Minkowski and AdS geometry in the Poincare chart.

Conventions: metric signature (+, -, ..., -); an AdS point is (z > 0, x) with
chordal distance (-(x - x')^2 + (z - z')^2) / (2 z z').  The embedding into
R^{2,d} uses an explicit basis in which the first two coordinates carry the
two positive signature directions:
    e_+ = (1,  1, 0, ..., 0) / 2,
    e_- = (1, -1, 0, ..., 0) / 2,
living in a (+, -) signature plane, so that e_+ . e_- = 1/2 and the e_+- are
lightlike; e_mu occupies the remaining d slots with e_mu . e_nu = eta_mu_nu.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ChartExitError, DimensionMismatchError, DomainError

__all__ = ["MinkVector", "AdSPoint", "CausalClass", "interval", "classify",
           "embed", "embedding_product", "chordal_distance",
           "ads_special_conformal"]


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

    def __add__(self, other):
        _same_d(self, other)
        return MinkVector(tuple(a + b for a, b in
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


class CausalClass(Enum):
    SPACELIKE = "spacelike"
    LIGHTLIKE = "lightlike"
    TIMELIKE_FUTURE = "timelike_future"
    TIMELIKE_PAST = "timelike_past"


def interval(a, b):
    """Invariant interval eta(a-b, a-b); positive for timelike separation."""
    diff = a - b
    return diff.square()


def classify(a, b):
    diff = a - b
    s = diff.square()
    if s < 0:
        return CausalClass.SPACELIKE
    if s == 0:
        return CausalClass.LIGHTLIKE
    return (CausalClass.TIMELIKE_FUTURE if diff.components[0] > 0
            else CausalClass.TIMELIKE_PAST)


def _metric_2d(d):
    """Metric of R^{2,d} in the (e-plane, e_mu) coordinates used by embed.

    The lightlike pair e_+- spans a (+,-) plane (slots 0, 1); the e_mu block
    (slots 2 .. d+1) carries eta = diag(+, -, ..., -), which contributes the
    second positive direction.
    """
    g = -np.eye(d + 2)
    g[0, 0] = g[2, 2] = 1.0
    return g


def embed(p):
    """Embedding xi = z^-1 (x^mu e_mu + e_- + (z^2 - x.x) e_+) into R^{2,d}.

    Returns the coordinate vector in the fixed basis described in the module
    docstring; it satisfies xi . xi = 1.
    """
    d = p.x.d
    xi = np.zeros(d + 2)
    xsq = p.x.square()
    # e_- and (z^2 - x.x) e_+ components in the first two slots
    coef_plus = p.z ** 2 - xsq
    xi[0] = 0.5 * (1.0 + coef_plus)
    xi[1] = 0.5 * (-1.0 + coef_plus)
    xi[2:] = p.x.array
    return xi / p.z


def embedding_product(p, q):
    """Inner product embed(p) . embed(q) in the R^{2,d} metric."""
    g = _metric_2d(p.x.d)
    return float(embed(p) @ g @ embed(q))


def chordal_distance(p, q):
    """AdS-invariant chordal distance (-(x-x')^2 + (z-z')^2) / (2 z z')."""
    dx = p.x - q.x
    return (-dx.square() + (p.z - q.z) ** 2) / (2.0 * p.z * q.z)


def ads_special_conformal(p, b):
    """Special conformal transformation of the Poincare chart.

    (z, x) -> (z, x^mu - b^mu (x^2 - z^2)) / (1 - 2 b.x + b^2 (x^2 - z^2)).
    Raises ChartExitError when the denominator vanishes or z would leave R_+.
    """
    _same_d(p.x, b)
    xsq = p.x.square()
    w = xsq - p.z ** 2
    denom = 1.0 - 2.0 * b.dot(p.x) + b.square() * w
    if denom == 0:
        raise ChartExitError("singular denominator: point maps out of the chart")
    znew = p.z / denom
    if znew <= 0:
        raise ChartExitError("transformation leaves the z > 0 chart")
    xnew = tuple((xc - bc * w) / denom
                 for xc, bc in zip(p.x.components, b.components))
    return AdSPoint(znew, MinkVector(xnew))
