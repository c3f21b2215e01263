"""Seeded randomness for reproducible experiments.

Every random choice in the library — Laplace noise for the mechanisms,
random graph generation, random workloads — flows through :class:`Rng`,
a thin wrapper around :class:`numpy.random.Generator`.  Constructing all
experiments from an explicit seed makes every number in the benchmark
tables regenerable bit-for-bit.

The Laplace distribution (Definition 3.1 of the paper) is the noise
distribution for all mechanisms in the paper: ``Lap(b)`` has density
``p(x) = exp(-|x|/b) / (2b)`` and the tail bound
``Pr[|Y| > t * b] = e^{-t}``.
"""

from __future__ import annotations

from typing import Iterable, Sequence, TypeVar

import numpy as np

from .exceptions import PrivacyError

T = TypeVar("T")

__all__ = ["Rng", "laplace_tail_bound", "laplace_quantile"]


def laplace_tail_bound(scale: float, t: float) -> float:
    """Return ``Pr[|Y| > t * scale]`` for ``Y ~ Lap(scale)``.

    This is the exact tail probability ``e^{-t}`` quoted after
    Definition 3.1 in the paper.
    """
    if scale <= 0:
        raise ValueError(f"Laplace scale must be positive, got {scale}")
    if t < 0:
        raise ValueError(f"tail multiple must be nonnegative, got {t}")
    return float(np.exp(-t))


def laplace_quantile(scale: float, gamma: float) -> float:
    """Return the magnitude ``m`` with ``Pr[|Y| > m] = gamma``.

    Inverting the tail bound gives ``m = scale * ln(1/gamma)``; this is
    the per-variable high-probability magnitude used in every union-bound
    argument of the paper (e.g. Theorem 5.5's ``(1/eps) log(E/gamma)``).
    """
    if scale <= 0:
        raise ValueError(f"Laplace scale must be positive, got {scale}")
    if not 0 < gamma <= 1:
        raise ValueError(f"gamma must be in (0, 1], got {gamma}")
    return float(scale * np.log(1.0 / gamma))


class Rng:
    """Reproducible random number generator.

    Parameters
    ----------
    seed:
        Any value accepted by :func:`numpy.random.default_rng`.  Passing
        the same seed reproduces the identical stream of samples.
    """

    def __init__(self, seed: int | None = None) -> None:
        self._seed = seed
        self._gen = np.random.default_rng(seed)

    @property
    def seed(self) -> int | None:
        """The seed this generator was constructed with (``None`` if OS
        entropy was used)."""
        return self._seed

    @property
    def generator(self) -> np.random.Generator:
        """The underlying numpy generator, for interop."""
        return self._gen

    def spawn(self) -> "Rng":
        """Return an independent child generator.

        Children derived from the same parent in the same order are
        themselves reproducible, so experiments can hand independent
        streams to sub-tasks without sharing state.
        """
        child = Rng.__new__(Rng)
        child._seed = None
        child._gen = np.random.default_rng(self._gen.integers(0, 2**63))
        return child

    # ------------------------------------------------------------------
    # Laplace sampling (Definition 3.1)
    # ------------------------------------------------------------------

    def laplace(self, scale: float) -> float:
        """Sample a single ``Lap(scale)`` variable.

        Raises :class:`~repro.exceptions.PrivacyError` on a non-positive
        scale, since a non-positive Laplace scale always indicates a
        privacy-parameter bug upstream.
        """
        if scale <= 0:
            raise PrivacyError(f"Laplace scale must be positive, got {scale}")
        return float(self._gen.laplace(loc=0.0, scale=scale))

    def laplace_vector(self, scale: float, size: int) -> np.ndarray:
        """Sample ``size`` i.i.d. ``Lap(scale)`` variables as an array."""
        if scale <= 0:
            raise PrivacyError(f"Laplace scale must be positive, got {scale}")
        if size < 0:
            raise ValueError(f"size must be nonnegative, got {size}")
        return self._gen.laplace(loc=0.0, scale=scale, size=size)

    # ------------------------------------------------------------------
    # General-purpose sampling used by generators and workloads
    # ------------------------------------------------------------------

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """Sample uniformly from ``[low, high)``."""
        return float(self._gen.uniform(low, high))

    def uniform_vector(self, low: float, high: float, size: int) -> np.ndarray:
        """Sample ``size`` i.i.d. uniform values from ``[low, high)``."""
        return self._gen.uniform(low, high, size=size)

    def integer(self, low: int, high: int) -> int:
        """Sample an integer uniformly from ``[low, high)``."""
        return int(self._gen.integers(low, high))

    def bit(self) -> int:
        """Sample a fair bit from ``{0, 1}``."""
        return int(self._gen.integers(0, 2))

    def bits(self, size: int) -> list[int]:
        """Sample ``size`` fair bits as a list of ints."""
        return [int(b) for b in self._gen.integers(0, 2, size=size)]

    def choice(self, items: Sequence[T]) -> T:
        """Choose one item uniformly from a non-empty sequence."""
        if not items:
            raise ValueError("cannot choose from an empty sequence")
        return items[int(self._gen.integers(0, len(items)))]

    def sample(self, items: Sequence[T], count: int) -> list[T]:
        """Choose ``count`` distinct items uniformly without replacement."""
        if count > len(items):
            raise ValueError(
                f"cannot sample {count} items from a sequence of {len(items)}"
            )
        indices = self._gen.choice(len(items), size=count, replace=False)
        return [items[int(i)] for i in indices]

    def shuffle(self, items: list[T]) -> None:
        """Shuffle a list in place."""
        self._gen.shuffle(items)  # type: ignore[arg-type]

    def exponential(self, scale: float) -> float:
        """Sample an exponential variable with the given scale."""
        if scale <= 0:
            raise ValueError(f"scale must be positive, got {scale}")
        return float(self._gen.exponential(scale))

    def normal(self, loc: float = 0.0, scale: float = 1.0) -> float:
        """Sample a normal variable."""
        if scale <= 0:
            raise ValueError(f"scale must be positive, got {scale}")
        return float(self._gen.normal(loc, scale))

    def permutation(self, n: int) -> list[int]:
        """Return a uniformly random permutation of ``range(n)``."""
        return [int(i) for i in self._gen.permutation(n)]

    def __repr__(self) -> str:
        return f"Rng(seed={self._seed!r})"
