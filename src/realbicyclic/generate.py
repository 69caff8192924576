"""Seeded deterministic sample generators for the test harness.

Identical configuration (seed, mode, counts) always reproduces the identical
stream, which keeps every suite and report replayable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
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


def gen_elem(cfg: GenConfig) -> Iterator[Elem]:
    """Infinite deterministic stream of quadrant points.

    Each draw below n takes ``getrandbits(n.bit_length())`` of
    ``random.Random(cfg.seed)`` until the value is below n.  That is exactly
    how CPython 3.10-3.13 implement ``randrange(n)``, so the stream is the one
    ``randrange`` gives, without depending on its internals.  A point draws
    its first coordinate, then its second.  An integer coordinate is a draw
    below max + 1; a rational one draws its numerator below max_num + 1, then
    its denominator as 1 plus a draw below max_den, and is reduced to lowest
    terms.
    """
    getrandbits = random.Random(cfg.seed).getrandbits
    mode = cfg.scalar_mode
    if isinstance(mode, IntegerMode):
        n = mode.max + 1
        k = n.bit_length()
        while True:
            a = getrandbits(k)
            while a >= n:
                a = getrandbits(k)
            b = getrandbits(k)
            while b >= n:
                b = getrandbits(k)
            yield _elem(a, 1, b, 1)
    n, d = mode.max_num + 1, mode.max_den
    kn, kd = n.bit_length(), d.bit_length()
    while True:
        an = getrandbits(kn)
        while an >= n:
            an = getrandbits(kn)
        ad = getrandbits(kd)
        while ad >= d:
            ad = getrandbits(kd)
        bn = getrandbits(kn)
        while bn >= n:
            bn = getrandbits(kn)
        bd = getrandbits(kd)
        while bd >= d:
            bd = getrandbits(kd)
        # ad and bd are the denominators less 1
        ga, gb = gcd(an, ad + 1), gcd(bn, bd + 1)
        yield _elem(an // ga, (ad + 1) // ga, bn // gb, (bd + 1) // gb)


def gen_scalar(cfg: GenConfig) -> Iterator[Fraction]:
    """Infinite deterministic stream of grid scalars: the coordinates of
    ``gen_elem(cfg)``, first then second, point by point."""
    for e in gen_elem(cfg):
        yield e.a
        yield e.b
