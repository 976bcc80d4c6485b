import numpy as np
import pytest

from gffads.errors import DimensionMismatchError, DomainError
from gffads.spacetime import AdSPoint, MinkVector, chordal_distance

from conftest import rel_err


def random_point(rng, zmax=2.0):
    return AdSPoint(rng.uniform(0.2, zmax),
                    MinkVector(tuple(rng.uniform(-1.5, 1.5, 2))))


def embed(p):
    """Embedding xi = z^-1 (x^mu e_mu + e_- + (z^2 - x.x) e_+) into R^{2,d}.

    The first two coordinates carry the lightlike pair e_+- = (1, +-1, 0,
    ..., 0) / 2 of a (+, -) plane, so that e_+ . e_- = 1/2; e_mu occupies
    the remaining d slots with e_mu . e_nu = eta_mu_nu.  xi . xi = 1.
    """
    xi = np.zeros(p.x.d + 2)
    coef_plus = p.z ** 2 - p.x.square()
    xi[0] = 0.5 * (1.0 + coef_plus)
    xi[1] = 0.5 * (-1.0 + coef_plus)
    xi[2:] = p.x.array
    return xi / p.z


def embedding_product(p, q):
    """embed(p) . embed(q) in the metric of R^{2,d}: the e-plane (slots 0,
    1) is (+, -) and the e_mu block carries eta = diag(+, -, ..., -)."""
    g = -np.eye(p.x.d + 2)
    g[0, 0] = g[2, 2] = 1.0
    return float(embed(p) @ g @ embed(q))


def ads_special_conformal(p, b):
    """Special conformal map of the Poincare chart, an AdS isometry:

    (z, x) -> (z, x^mu - b^mu (x^2 - z^2)) / (1 - 2 b.x + b^2 (x^2 - z^2)),

    or None when the image leaves the z > 0 chart.
    """
    w = p.x.square() - p.z ** 2
    denom = 1.0 - 2.0 * b.dot(p.x) + b.square() * w
    if denom <= 0:
        return None
    return AdSPoint(p.z / denom, (p.x - b.scale(w)).scale(1.0 / denom))


def boost(x, chi):
    c, s = np.cosh(chi), np.sinh(chi)
    t, y = x.components
    return MinkVector((c * t + s * y, s * t + c * y))


class TestMinkVector:
    def test_dimension_guard(self):
        with pytest.raises(DomainError):
            MinkVector((1.0,))

    def test_interval_examples(self):
        a = MinkVector((0.3, -0.7))
        assert (a - a).square() == 0.0
        assert (MinkVector((1.0, 0.0)) - MinkVector((0.0, 0.0))).square() == \
            pytest.approx(1.0)
        z4 = MinkVector((0.0, 0.0, 0.0, 0.0))
        assert (MinkVector((0.0, 1.0, 0.0, 0.0)) - z4).square() == \
            pytest.approx(-1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            MinkVector((0.0, 1.0)) - MinkVector((0.0, 1.0, 0.0))


class TestEmbedding:
    def test_chordal_from_embedding(self, rng):
        for _ in range(30):
            p, q = random_point(rng), random_point(rng)
            assert abs(embedding_product(p, q)
                       - (1.0 + chordal_distance(p, q))) < 1e-10


class TestChordalDistance:
    def test_coincident(self):
        p = AdSPoint(0.7, MinkVector((0.2, -1.0)))
        assert chordal_distance(p, p) == 0.0

    def test_reference_value(self):
        p = AdSPoint(1.0, MinkVector((0.0, 0.0)))
        q = AdSPoint(1.0, MinkVector((0.0, np.sqrt(2.0))))
        assert chordal_distance(p, q) == pytest.approx(1.0, rel=1e-14)

    def test_symmetry(self, rng):
        p, q = random_point(rng), random_point(rng)
        assert chordal_distance(p, q) == pytest.approx(
            chordal_distance(q, p), rel=1e-14)

    def test_poincare_invariance(self, rng):
        for _ in range(20):
            p, q = random_point(rng), random_point(rng)
            a = MinkVector(tuple(rng.uniform(-1, 1, 2)))
            chi = rng.uniform(-1.0, 1.0)
            pt = AdSPoint(p.z, boost(p.x, chi) - a)
            qt = AdSPoint(q.z, boost(q.x, chi) - a)
            assert rel_err(chordal_distance(pt, qt),
                           chordal_distance(p, q)) < 1e-10

    def test_dilation_invariance(self, rng):
        p, q = random_point(rng), random_point(rng)
        lam = 2.3
        pt = AdSPoint(lam * p.z, p.x.scale(lam))
        qt = AdSPoint(lam * q.z, q.x.scale(lam))
        assert rel_err(chordal_distance(pt, qt), chordal_distance(p, q)) < 1e-10


class TestAdsSpecialConformal:
    def test_chordal_invariance(self, rng):
        b = MinkVector((0.04, 0.03))
        hits = 0
        for _ in range(40):
            p, q = random_point(rng), random_point(rng)
            pt, qt = ads_special_conformal(p, b), ads_special_conformal(q, b)
            if pt is None or qt is None:
                continue
            hits += 1
            assert rel_err(chordal_distance(pt, qt),
                           chordal_distance(p, q)) < 1e-10
        assert hits >= 20


class TestAdSPoint:
    def test_positive_depth(self):
        with pytest.raises(DomainError):
            AdSPoint(0.0, MinkVector((0.0, 0.0)))
