"""Seeded deterministic sample generators for the test harness.

Identical configuration (seed, mode, counts) always reproduces the identical
stream, which keeps every suite and report replayable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from typing import Iterator, Union

from .semigroup import Elem, _elem


@dataclass(frozen=True)
class RationalMode:
    """Draw coordinates num/den with num in [0, max_num], den in [1, max_den]."""

    max_num: int = 20
    max_den: int = 8

    def __post_init__(self) -> None:
        if self.max_num < 0:
            raise ValueError("max_num must be non-negative")
        if self.max_den < 1:
            raise ValueError("max_den must be positive")


@dataclass(frozen=True)
class IntegerMode:
    """Draw integer coordinates in [0, max]."""

    max: int = 20

    def __post_init__(self) -> None:
        if self.max < 0:
            raise ValueError("max must be non-negative")


ScalarMode = Union[RationalMode, IntegerMode]


@dataclass(frozen=True)
class GenConfig:
    seed: int
    scalar_mode: ScalarMode = RationalMode()
    cases: int = 1000

    def __post_init__(self) -> None:
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be an unsigned 64-bit integer")
        if self.cases < 1:
            raise ValueError("cases must be positive")


# Fraction(num, den), memoised: grids are small and Fractions immutable
_grid_scalar = lru_cache(maxsize=4096)(Fraction)


def gen_scalar(cfg: GenConfig) -> Iterator[Fraction]:
    """Infinite deterministic stream of grid scalars.

    Each draw below n takes ``getrandbits(n.bit_length())`` of
    ``random.Random(cfg.seed)`` until the value is below n.  That is exactly
    how CPython 3.10-3.13 implement ``randrange(n)``, so the stream is the one
    ``randrange`` gives, without depending on its internals.  A rational
    scalar draws its numerator below max_num + 1, then its denominator as 1
    plus a draw below max_den.
    """
    getrandbits = random.Random(cfg.seed).getrandbits
    mode = cfg.scalar_mode
    integer = isinstance(mode, IntegerMode)
    n = (mode.max if integer else mode.max_num) + 1
    d = 1 if integer else mode.max_den
    kn, kd = n.bit_length(), d.bit_length()
    while True:
        num = getrandbits(kn)
        while num >= n:
            num = getrandbits(kn)
        if integer:
            yield _grid_scalar(num, 1)
            continue
        den = getrandbits(kd)
        while den >= d:
            den = getrandbits(kd)
        yield _grid_scalar(num, den + 1)


def gen_elem(cfg: GenConfig) -> Iterator[Elem]:
    """Infinite deterministic stream of quadrant points."""
    scalars = gen_scalar(cfg)
    while True:
        yield _elem(next(scalars), next(scalars))  # num/den with num >= 0, den >= 1
