"""Target distributions: three exact 1-D laws and sample-based (empirical) targets.

A target is what the weighted-EDF fit is matched against. The exact targets
are the 1-D laws ``NormalTarget``, ``UniformTarget`` and ``MixtureOfUniforms``;
each exposes ``cdf`` and a closed-form running integral of the CDF
(``integral_of_cdf``), from which the QP assembly takes b exactly. Any other
target, of any dimension, is given as observed samples (``EmpiricalTarget``)
and is consumed by the closed-form empirical assembly instead.
"""

from dataclasses import dataclass

import numpy as np

from .core import SampleSet, as_points
from .edf import edf_eval_many

SQRT_2PI = np.sqrt(2.0 * np.pi)


def _norm_pdf(z):
    return np.exp(-0.5 * z * z) / SQRT_2PI


@dataclass(frozen=True)
class NormalTarget:
    """Normal observed distribution N(mu, sigma^2) on a 1-D data space."""

    mu: float
    sigma: float

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")

    dim = 1

    def cdf(self, q):
        from scipy.special import ndtr  # imported on first use: a cold CLI start skips scipy

        q = np.asarray(q, dtype=float)
        return ndtr((q - self.mu) / self.sigma)

    def integral_of_cdf(self, x):
        """Running integral I(x) = int_{-inf}^x cdf(t) dt (up to a constant)."""
        from scipy.special import ndtr

        x = np.asarray(x, dtype=float)
        z = (x - self.mu) / self.sigma
        return self.sigma * (z * ndtr(z) + _norm_pdf(z))

    def sample(self, n, rng):
        return SampleSet(rng.normal(self.mu, self.sigma, size=n)[:, None])


@dataclass(frozen=True)
class UniformTarget:
    """Uniform observed distribution on [low, high]."""

    low: float
    high: float

    def __post_init__(self):
        if not self.high > self.low:
            raise ValueError(f"need high > low, got [{self.low}, {self.high}]")

    dim = 1

    def cdf(self, q):
        q = np.asarray(q, dtype=float)
        return np.clip((q - self.low) / (self.high - self.low), 0.0, 1.0)

    def integral_of_cdf(self, x):
        x = np.asarray(x, dtype=float)
        w = self.high - self.low
        inside = np.clip(x, self.low, self.high) - self.low
        return inside**2 / (2.0 * w) + np.maximum(x - self.high, 0.0)

    def sample(self, n, rng):
        return SampleSet(rng.uniform(self.low, self.high, size=n)[:, None])


@dataclass(frozen=True)
class MixtureOfUniforms:
    """Mixture of uniform distributions on disjoint, ordered intervals.

    ``components`` is a sequence of (weight, low, high) triples with positive
    weights summing to one. The CDF is piecewise linear and continuous; it
    may be flat across gaps between intervals.
    """

    components: tuple

    def __post_init__(self):
        comps = tuple((float(w), float(a), float(b)) for w, a, b in self.components)
        if not comps:
            raise ValueError("mixture needs at least one component")
        weights = np.array([c[0] for c in comps])
        if np.any(weights <= 0):
            raise ValueError("component weights must be positive")
        if abs(weights.sum() - 1.0) > 1e-12:
            raise ValueError(f"component weights sum to {weights.sum()}, expected 1")
        for (_, a, b) in comps:
            if not b > a:
                raise ValueError(f"empty component interval [{a}, {b}]")
        for (_, _, b0), (_, a1, _) in zip(comps, comps[1:]):
            if a1 < b0:
                raise ValueError("component intervals must be disjoint and ordered")
        object.__setattr__(self, "components", comps)

    dim = 1

    @property
    def support(self):
        return self.components[0][1], self.components[-1][2]

    def cdf(self, q):
        q = np.asarray(q, dtype=float)
        out = np.zeros_like(q, dtype=float)
        for w, a, b in self.components:
            out += w * np.clip((q - a) / (b - a), 0.0, 1.0)
        return out

    def integral_of_cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x, dtype=float)
        # each component contributes w * int clip((t-a)/(b-a), 0, 1) dt
        for w, a, b in self.components:
            inside = np.clip(x, a, b) - a
            out += w * (inside**2 / (2.0 * (b - a)) + np.maximum(x - b, 0.0))
        return out

    def sample(self, n, rng):
        weights = np.array([c[0] for c in self.components])
        idx = rng.choice(len(self.components), size=n, p=weights)
        lo = np.array([c[1] for c in self.components])[idx]
        hi = np.array([c[2] for c in self.components])[idx]
        return SampleSet(rng.uniform(lo, hi)[:, None])


@dataclass(frozen=True)
class EmpiricalTarget:
    """Observed target given as m samples; its EDF stands in for the CDF."""

    samples: SampleSet

    def __post_init__(self):
        if not isinstance(self.samples, SampleSet):
            object.__setattr__(self, "samples", SampleSet(self.samples))
        if self.samples.n == 0:
            raise ValueError("empirical target needs at least one sample")

    @property
    def dim(self):
        return self.samples.dim

    @property
    def m(self):
        return self.samples.n

    def cdf(self, q):
        q = np.asarray(q, dtype=float)
        if q.ndim < 2:
            q = q.reshape(-1, self.samples.dim)
        return edf_eval_many(self.samples, q)


def is_exact(target):
    """True when the target exposes an exact CDF (rather than samples)."""
    return not isinstance(target, EmpiricalTarget)


def as_target(obj):
    """Coerce samples / arrays to EmpiricalTarget; pass targets through."""
    if isinstance(obj, (NormalTarget, UniformTarget, MixtureOfUniforms, EmpiricalTarget)):
        return obj
    if isinstance(obj, SampleSet) or isinstance(obj, np.ndarray):
        return EmpiricalTarget(SampleSet(as_points(obj)))
    raise TypeError(f"cannot interpret {type(obj).__name__} as a target distribution")
