"""Failure-time distributions.

The Section V model assumes Poisson arrivals (exponential inter-failure
times); the simulator additionally supports Weibull, lognormal, and the
"bathtub" composite the paper mentions (Section V: infant mortality +
useful life + wear-out) so that the model's sensitivity to the Poisson
assumption can be measured.

Every distribution exposes:

* ``sample(rng)`` / ``sample_n(rng, n)`` — draw inter-failure times;
* ``mean()`` — the MTBF implied by the parameters;
* ``cdf(t)`` / ``survival(t)`` — closed forms where available.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FailureDistribution",
    "Exponential",
    "Weibull",
    "LogNormal",
    "Bathtub",
]


class FailureDistribution:
    """Abstract interface for inter-failure time distributions."""

    def sample(self, rng: np.random.Generator) -> float:
        return float(self.sample_n(rng, 1)[0])

    def sample_n(self, rng: np.random.Generator, n: int) -> np.ndarray:
        raise NotImplementedError

    def mean(self) -> float:
        raise NotImplementedError

    def cdf(self, t: float) -> float:
        raise NotImplementedError

    def survival(self, t: float) -> float:
        return 1.0 - self.cdf(t)


@dataclass(frozen=True)
class Exponential(FailureDistribution):
    """Memoryless failures — the Poisson-process assumption of Section V.

    Parameters
    ----------
    lam:
        Failure rate λ in failures/second (1/MTBF).
    """

    lam: float

    def __post_init__(self) -> None:
        if not self.lam > 0:
            raise ValueError(f"rate must be > 0, got {self.lam}")

    def sample_n(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.exponential(1.0 / self.lam, size=n)

    def mean(self) -> float:
        return 1.0 / self.lam

    def cdf(self, t: float) -> float:
        if t <= 0:
            return 0.0
        return -math.expm1(-self.lam * t)


@dataclass(frozen=True)
class Weibull(FailureDistribution):
    """Weibull(shape k, scale λ_s) failures.

    ``shape < 1`` gives decreasing hazard (infant mortality), ``shape > 1``
    increasing hazard (wear-out), ``shape == 1`` reduces to Exponential.
    Schroeder & Gibson's HPC failure logs fit shape ≈ 0.7–0.8.
    """

    shape: float
    scale: float

    def __post_init__(self) -> None:
        if not (self.shape > 0 and self.scale > 0):
            raise ValueError(f"shape/scale must be > 0, got {self.shape}, {self.scale}")

    def sample_n(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.scale * rng.weibull(self.shape, size=n)

    def mean(self) -> float:
        return self.scale * math.gamma(1.0 + 1.0 / self.shape)

    def cdf(self, t: float) -> float:
        if t <= 0:
            return 0.0
        return -math.expm1(-((t / self.scale) ** self.shape))

    @classmethod
    def from_mtbf(cls, mtbf: float, shape: float) -> "Weibull":
        """Weibull with the given mean and shape."""
        scale = mtbf / math.gamma(1.0 + 1.0 / shape)
        return cls(shape=shape, scale=scale)


@dataclass(frozen=True)
class LogNormal(FailureDistribution):
    """Lognormal(μ, σ) failure times (heavy-tailed repair/failure model)."""

    mu: float
    sigma: float

    def __post_init__(self) -> None:
        if not self.sigma > 0:
            raise ValueError(f"sigma must be > 0, got {self.sigma}")

    def sample_n(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.lognormal(self.mu, self.sigma, size=n)

    def mean(self) -> float:
        return math.exp(self.mu + self.sigma**2 / 2.0)

    @classmethod
    def from_mean_cv(cls, mean: float, cv: float) -> "LogNormal":
        """Lognormal with given mean and coefficient of variation."""
        sigma2 = math.log(1.0 + cv * cv)
        mu = math.log(mean) - sigma2 / 2.0
        return cls(mu=mu, sigma=math.sqrt(sigma2))


@dataclass(frozen=True)
class Bathtub(FailureDistribution):
    """Bathtub-curve composite (Section V's caveat to the Poisson model).

    Mixture of three hazards: a decreasing-hazard Weibull (infant
    mortality), a constant-hazard Exponential (useful life), and an
    increasing-hazard Weibull (wear-out).  Sampling takes the minimum of
    one draw from each — i.e. the components race — which yields
    h(t) = h_infant(t) + h_life + h_wear(t), the standard competing-risks
    bathtub construction.
    """

    infant: Weibull
    life: Exponential
    wearout: Weibull

    def sample_n(self, rng: np.random.Generator, n: int) -> np.ndarray:
        draws = np.stack(
            [
                self.infant.sample_n(rng, n),
                self.life.sample_n(rng, n),
                self.wearout.sample_n(rng, n),
            ]
        )
        return draws.min(axis=0)

    def survival(self, t: float) -> float:
        return self.infant.survival(t) * self.life.survival(t) * self.wearout.survival(t)

    def mean(self) -> float:
        """Mean via numerical integration of the survival function."""
        from scipy import integrate

        upper = 20.0 * self.life.mean()
        val, _ = integrate.quad(self.survival, 0.0, upper, limit=200)
        return val

    @classmethod
    def typical(cls, mtbf: float) -> "Bathtub":
        """A bathtub whose useful-life component has the given MTBF, with
        mild infant-mortality and wear-out components (each an order of
        magnitude rarer over the life phase)."""
        return cls(
            infant=Weibull.from_mtbf(10.0 * mtbf, shape=0.5),
            life=Exponential(1.0 / mtbf),
            wearout=Weibull.from_mtbf(10.0 * mtbf, shape=3.0),
        )
