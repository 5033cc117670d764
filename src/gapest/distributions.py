"""Gap-time distributions and the equilibrium renewal functionals built on them.

A gap distribution F describes the interarrival time X of a renewal process
with finite mean mu. Besides the usual cdf/density surface, each
distribution exposes the quantities that drive the stationary (equilibrium)
process: the integrated survival function, the marginal hazard ``alpha`` of
the backward recurrence time, the occupation probabilities of the
before/astride/after phase at a fixed time point, the backward intensity
``alpha * p0 / p1`` (which collapses to 1/t for every F), and a diagnostic
for finiteness of the inverse moment E(1/X).

Built-in families: exponential, Weibull, uniform on an interval, and
discrete distributions given by atoms and masses. Spec strings of the form
``exp:<rate>``, ``weibull:<shape>:<scale>``, ``uniform:<a>:<b>`` and
``atoms:<a1>=<p1>,...`` round-trip through :func:`parse_distribution`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DistributionSpecError


@functools.cache
def _scipy_special():
    """scipy.special, imported on first use: importing gapest loads no scipy."""
    from scipy import special

    return special


@dataclass(frozen=True)
class OccupationProbabilities:
    """P{still before entry}, P{astride t}, P{already past} for the phase process."""

    p0: float
    p1: float
    p2: float


@dataclass(frozen=True)
class IntegrabilityReport:
    """Outcome of the E(1/X) diagnostic. ``value`` is +inf when divergent."""

    finite: bool
    value: float


_DIVERGENT = IntegrabilityReport(finite=False, value=math.inf)


def step_at(times, values, t, before):
    """Right-continuous step function at t: ``before`` left of times[0] and
    ``values[i]`` on [times[i], times[i+1]). A scalar t gives a float."""
    idx = np.searchsorted(times, t, side="right") - 1  # no copy of the table
    out = np.asarray(values[idx] if len(values) else np.empty(np.shape(t)))
    np.copyto(out, before, where=idx < 0)
    return out if out.ndim else float(out)


def atom_lookup(atoms, t):
    """Index of the first of the increasing ``atoms`` at or above t (the
    last atom when t is past them all), and whether that atom equals t."""
    idx = np.minimum(np.searchsorted(atoms, t), atoms.size - 1)
    return idx, atoms[idx] == t


def total(x, axis=-1):
    """The running sum of x along ``axis`` at its end, kept as an axis of
    length 1. Exact zeros inserted anywhere leave it bitwise the same, and
    no BLAS call makes it, so neither padding nor the thread count can."""
    sums = np.add.accumulate(x, axis)
    return sums[..., -1:] if axis == -1 else sums.take([-1], axis)


def normalised(weights, axis=-1):
    """Nonnegative ``weights`` over their ``total`` along ``axis``: the one
    division that makes the masses of a discrete law, so zero weights
    inserted anywhere leave every other mass bitwise the same."""
    if axis == 0 and weights.ndim == 2 and weights.shape[1] > 1 and weights.flags.c_contiguous:
        return weights / np.add.reduce(weights, axis=0)  # row by row; one column goes pairwise
    return weights / total(weights, axis)


class GapDistribution:
    """Base class for gap-time distributions with finite mean.

    Subclasses implement the family surface below in closed form; the
    survival and the equilibrium functionals are derived here from it.
    ``cdf``/``pdf`` accept scalars or arrays. Every sampler takes exactly
    one uniform per draw where it inverts a cdf.
    """

    # -- family surface -------------------------------------------------

    def cdf(self, t):
        raise NotImplementedError

    def pdf(self, t):
        raise NotImplementedError

    def mean(self) -> float:
        """E(X)."""
        raise NotImplementedError

    def ppf(self, u):
        raise NotImplementedError

    def integrated_survival(self, t: float) -> float:
        """Integral of 1 - F over (t, infinity)."""
        raise NotImplementedError

    def integrability_diagnostic(self) -> IntegrabilityReport:
        """Whether E(1/X) is finite, and its value if so."""
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n iid draws from F."""
        raise NotImplementedError

    def sample_length_biased(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n iid draws from the size-biased density t f(t) / mu."""
        raise NotImplementedError

    def sample_equilibrium_recurrence(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n iid draws from the equilibrium recurrence density (1 - F) / mu."""
        raise NotImplementedError

    def spec(self) -> str:
        """Spec string accepted by :func:`parse_distribution`."""
        raise NotImplementedError

    # -- derived quantities ---------------------------------------------

    def survival(self, t):
        return 1.0 - self.cdf(t)

    def alpha(self, t: float) -> float:
        """Marginal hazard of the backward recurrence time at t.

        alpha(t) = (1 - F(t)) / integral_t^inf (1 - F). NaN once the
        integrated survival has been exhausted.
        """
        if t < 0:
            raise ValueError(f"t must be nonnegative, got {t}")
        tail = self.integrated_survival(t)
        if tail <= 0.0:
            return math.nan
        return float(self.survival(t)) / tail

    def occupation(self, t: float) -> OccupationProbabilities:
        """Phase probabilities of the equilibrium pair (R, S) at time t.

        p0 = P{R > t}, p1 = P{R <= t < R + S} = t (1 - F(t)) / mu,
        p2 = 1 - p0 - p1.
        """
        if t < 0:
            raise ValueError(f"t must be nonnegative, got {t}")
        mu = self.mean()
        p0 = self.integrated_survival(t) / mu
        p1 = t * float(self.survival(t)) / mu
        p2 = min(max(1.0 - p0 - p1, 0.0), 1.0)
        return OccupationProbabilities(p0=p0, p1=p1, p2=p2)

    def backward_alpha(self, t: float) -> float:
        """Backward intensity alpha(t) * p0(t) / p1(t).

        Computed from its ingredients rather than simplified, so tests can
        confirm the identity backward_alpha(t) == 1/t. NaN where p1 is zero.
        """
        if t <= 0:
            raise ValueError(f"t must be positive, got {t}")
        occ = self.occupation(t)
        if occ.p1 <= 0.0:
            return math.nan
        return self.alpha(t) * occ.p0 / occ.p1

    def __repr__(self):
        return f"{type(self).__name__}({self.spec()!r})"


class Exponential(GapDistribution):
    """Exponential gaps with the given rate.

    Memoryless, so the gap hazard and the backward-recurrence hazard are
    both constant and the equilibrium recurrence law is the gap law itself.
    """

    def __init__(self, rate: float):
        rate = float(rate)
        if not (rate > 0 and math.isfinite(rate)):
            raise DistributionSpecError(f"rate must be > 0, got {rate}")
        self.rate = rate

    def cdf(self, t):
        t = np.asarray(t, dtype=float)
        return np.where(t > 0, -np.expm1(-self.rate * np.maximum(t, 0.0)), 0.0)

    def pdf(self, t):
        t = np.asarray(t, dtype=float)
        return np.where(t >= 0, self.rate * np.exp(-self.rate * np.maximum(t, 0.0)), 0.0)

    def mean(self):
        return 1.0 / self.rate

    def ppf(self, u):
        return -np.log1p(-np.asarray(u, dtype=float)) / self.rate

    def integrated_survival(self, t):
        return math.exp(-self.rate * t) / self.rate

    def sample(self, rng, n):
        return rng.exponential(1.0 / self.rate, size=n)

    def sample_length_biased(self, rng, n):
        # Size-biasing an exponential gives a shape-2 gamma.
        return rng.gamma(2.0, 1.0 / self.rate, size=n)

    def integrability_diagnostic(self):
        return _DIVERGENT

    def sample_equilibrium_recurrence(self, rng, n):
        return rng.exponential(1.0 / self.rate, size=n)

    def spec(self):
        return f"exp:{self.rate:g}"


class Weibull(GapDistribution):
    """Weibull gaps with shape k and scale lam: F(t) = 1 - exp(-(t/lam)^k)."""

    def __init__(self, shape: float, scale: float):
        shape, scale = float(shape), float(scale)
        if not (shape > 0 and math.isfinite(shape)):
            raise DistributionSpecError(f"shape must be > 0, got {shape}")
        if not (scale > 0 and math.isfinite(scale)):
            raise DistributionSpecError(f"scale must be > 0, got {scale}")
        self.shape = shape
        self.scale = scale

    def cdf(self, t):
        t = np.asarray(t, dtype=float)
        z = (np.maximum(t, 0.0) / self.scale) ** self.shape
        return np.where(t > 0, -np.expm1(-z), 0.0)

    def pdf(self, t):
        t = np.asarray(t, dtype=float)
        tt = np.maximum(t, 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):  # at 0: inf for a shape below 1
            z = (tt / self.scale) ** self.shape
            dens = (self.shape / self.scale) * (tt / self.scale) ** (self.shape - 1.0) * np.exp(-z)
        return np.where(t < 0, 0.0, dens)

    def mean(self):
        return self.scale * math.gamma(1.0 + 1.0 / self.shape)

    def ppf(self, u):
        u = np.asarray(u, dtype=float)
        return self.scale * (-np.log1p(-u)) ** (1.0 / self.shape)

    def integrated_survival(self, t):
        # Substituting v = (u/scale)^shape turns the tail integral into an
        # upper incomplete gamma with parameter 1/shape.
        k = self.shape
        z = (max(t, 0.0) / self.scale) ** k
        tail = _scipy_special().gammaincc(1.0 / k, z)
        return (self.scale / k) * math.gamma(1.0 / k) * float(tail)

    def integrability_diagnostic(self):
        # E(1/X) = Gamma(1 - 1/shape) / scale, finite only for shape > 1.
        if self.shape <= 1.0:
            return _DIVERGENT
        value = math.gamma(1.0 - 1.0 / self.shape) / self.scale
        return IntegrabilityReport(finite=True, value=value)

    def sample(self, rng, n):
        return self.scale * rng.weibull(self.shape, size=n)

    def sample_length_biased(self, rng, n):
        # Size-biased cdf is the regularized lower incomplete gamma of
        # (q/scale)^shape with parameter 1 + 1/shape; invert it exactly.
        return self._gamma_inverse(1.0 + 1.0 / self.shape, rng.uniform(size=n))

    def sample_equilibrium_recurrence(self, rng, n):
        # Equilibrium cdf 1 - integrated_survival / mu is the regularized
        # lower incomplete gamma of (t/scale)^shape with parameter 1/shape.
        return self._gamma_inverse(1.0 / self.shape, rng.uniform(size=n))

    def _gamma_inverse(self, a, u):
        return self.scale * _scipy_special().gammaincinv(a, u) ** (1.0 / self.shape)

    def spec(self):
        return f"weibull:{self.shape:g}:{self.scale:g}"


class UniformInterval(GapDistribution):
    """Uniform gaps on [a, b] with 0 <= a < b.

    The support is bounded, so survival reaches zero at b: hazard-type
    quantities (alpha, backward_alpha) are NaN from b on.
    """

    def __init__(self, a: float, b: float):
        a, b = float(a), float(b)
        if not (0.0 <= a < b and math.isfinite(b)):
            raise DistributionSpecError(f"need 0 <= a < b, got a={a}, b={b}")
        self.a = a
        self.b = b

    def cdf(self, t):
        t = np.asarray(t, dtype=float)
        return np.clip((t - self.a) / (self.b - self.a), 0.0, 1.0)

    def pdf(self, t):
        t = np.asarray(t, dtype=float)
        inside = (t >= self.a) & (t <= self.b)
        return np.where(inside, 1.0 / (self.b - self.a), 0.0)

    def mean(self):
        return 0.5 * (self.a + self.b)

    def ppf(self, u):
        return self.a + (self.b - self.a) * np.asarray(u, dtype=float)

    def integrated_survival(self, t):
        if t >= self.b:
            return 0.0
        if t <= self.a:
            return (self.a - t) + 0.5 * (self.b - self.a)
        return 0.5 * (self.b - t) ** 2 / (self.b - self.a)

    def integrability_diagnostic(self):
        if self.a <= 0.0:
            return _DIVERGENT
        return IntegrabilityReport(finite=True, value=math.log(self.b / self.a) / (self.b - self.a))

    def sample(self, rng, n):
        return rng.uniform(self.a, self.b, size=n)

    def sample_length_biased(self, rng, n):
        # Size-biased cdf (t^2 - a^2) / (b^2 - a^2) on [a, b].
        return np.sqrt(self.a**2 + rng.uniform(size=n) * (self.b**2 - self.a**2))

    def sample_equilibrium_recurrence(self, rng, n):
        # Equilibrium cdf: t / mu up to a, then 1 - (b - t)^2 / (b^2 - a^2).
        u = rng.uniform(size=n)
        mu = self.mean()
        tail = self.b - np.sqrt((self.b**2 - self.a**2) * (1.0 - u))
        return np.where(u * mu <= self.a, u * mu, tail)

    def spec(self):
        return f"uniform:{self.a:g}:{self.b:g}"


class DiscreteDistribution(GapDistribution):
    """Distribution with point masses at strictly increasing positive atoms.

    The cdf is a right-continuous step function, the density is the mass at
    an atom, and the inverse-moment diagnostic is the finite sum of mass/atom.
    """

    def __init__(self, atoms, masses):
        atoms = np.array(atoms, dtype=float)
        masses = np.array(masses, dtype=float)
        if atoms.ndim != 1 or atoms.size == 0 or atoms.shape != masses.shape:
            raise DistributionSpecError("atoms and masses must be matching nonempty 1-d sequences")
        if not np.all(np.isfinite(atoms) & (atoms > 0)):
            raise DistributionSpecError("atoms must be finite and positive")
        if not np.all(np.diff(atoms) > 0):
            raise DistributionSpecError("atoms must be strictly increasing")
        if not np.all(np.isfinite(masses) & (masses >= 0)):
            raise DistributionSpecError("masses must be finite and nonnegative")
        self._cum = np.cumsum(masses)
        if abs(self._cum[-1] - 1.0) > 1e-9:
            raise DistributionSpecError(f"masses must sum to 1, got {float(self._cum[-1])!r}")
        self._cum[-1] = 1.0
        self.atoms = atoms
        self.masses = masses

    def cdf(self, t):
        return step_at(self.atoms, self._cum, t, 0.0)

    def pdf(self, t):
        """Mass at t (zero except exactly at atoms)."""
        idx, hit = atom_lookup(self.atoms, np.asarray(t, dtype=float))
        out = np.where(hit, self.masses[idx], 0.0)
        return out if out.ndim else float(out)

    def mean(self):
        return float(total(self.atoms * self.masses)[0])

    def ppf(self, u):
        u = np.asarray(u, dtype=float)
        idx = np.searchsorted(self._cum, u, side="left")
        idx = np.minimum(idx, self.atoms.size - 1)
        out = self.atoms[idx]
        return out if out.ndim else float(out)

    def integrated_survival(self, t):
        return float(total(self.masses * np.maximum(self.atoms - t, 0.0))[0])

    def integrability_diagnostic(self):
        return IntegrabilityReport(finite=True, value=float(total(self.masses / self.atoms)[0]))

    def sample(self, rng, n):
        return rng.choice(self.atoms, size=n, p=self.masses)

    def sample_length_biased(self, rng, n):
        return rng.choice(self.atoms, size=n, p=normalised(self.atoms * self.masses))

    def sample_equilibrium_recurrence(self, rng, n):
        # The equilibrium density is piecewise constant between atoms, so
        # its cdf is piecewise linear and invertible exactly on the knots.
        knots = np.concatenate(([0.0], self.atoms))
        mu = self.mean()
        g = (mu - np.array([self.integrated_survival(v) for v in knots])) / mu
        g[-1] = 1.0
        return np.interp(rng.uniform(size=n), g, knots)

    def spec(self):
        parts = ",".join(f"{a:g}={m:.12g}" for a, m in zip(self.atoms, self.masses))
        return f"atoms:{parts}"


def parse_distribution(spec: str) -> GapDistribution:
    """Parse a distribution spec string.

    Accepted forms: ``exp:<rate>``, ``weibull:<shape>:<scale>``,
    ``uniform:<a>:<b>``, ``atoms:<a1>=<p1>,<a2>=<p2>,...``.
    """
    text = spec.strip()
    try:
        head, _, rest = text.partition(":")
        if not rest:
            raise DistributionSpecError("missing parameters")
        if head == "exp":
            return Exponential(_number(rest))
        if head == "weibull":
            shape, scale = rest.split(":")
            return Weibull(_number(shape), _number(scale))
        if head == "uniform":
            a, b = rest.split(":")
            return UniformInterval(_number(a), _number(b))
        if head == "atoms":
            atoms, masses = [], []
            for item in rest.split(","):
                a, _, p = item.partition("=")
                if not p:
                    raise DistributionSpecError(f"bad atom entry {item!r}")
                atoms.append(_number(a))
                masses.append(_number(p))
            return DiscreteDistribution(atoms, masses)
        raise DistributionSpecError(f"unknown family {head!r}")
    except DistributionSpecError as exc:
        raise DistributionSpecError(f"invalid distribution spec {spec!r}: {exc}") from None
    except ValueError as exc:
        raise DistributionSpecError(f"invalid distribution spec {spec!r}: {exc}") from None


def _number(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise DistributionSpecError(f"non-finite number {token!r}")
    return value
