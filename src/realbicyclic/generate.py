"""Seeded deterministic sample generators for the test harness.

Identical configuration (seed, mode, counts) always reproduces the identical
stream, which keeps every suite and report replayable.  The configurations
check their field types: a seed, count or bound that is not an int (or is a
bool), and a mode that is not a mode, are ``TypeError``s naming the field.

A rational coordinate is reduced by a lookup in a lowest-terms table, built
once per mode and cached for its later streams; past ``_TABLE_MAX`` entries it
is reduced by ``gcd``.  Either way the draws, and so the stream, are the same.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from typing import Iterator, Union

from .semigroup import Elem, _check_int, _new, _set_q


@dataclass(frozen=True)
class RationalMode:
    """Draw coordinates num/den with num in [0, max_num], den in [1, max_den]."""

    max_num: int = 20
    max_den: int = 8

    def __post_init__(self) -> None:
        _check_int("max_num", self.max_num)
        _check_int("max_den", self.max_den)
        if self.max_num < 0:
            raise ValueError("max_num must be non-negative")
        if self.max_den < 1:
            raise ValueError("max_den must be positive")


@dataclass(frozen=True)
class IntegerMode:
    """Draw integer coordinates in [0, max]."""

    max: int = 20

    def __post_init__(self) -> None:
        _check_int("max", self.max)
        if self.max < 0:
            raise ValueError("max must be non-negative")


ScalarMode = Union[RationalMode, IntegerMode]


@dataclass(frozen=True)
class GenConfig:
    seed: int
    scalar_mode: ScalarMode = RationalMode()
    cases: int = 1000

    def __post_init__(self) -> None:
        _check_int("seed", self.seed)
        _check_int("cases", self.cases)
        if not isinstance(self.scalar_mode, (RationalMode, IntegerMode)):
            raise TypeError(
                f"scalar_mode must be a RationalMode or an IntegerMode, not {self.scalar_mode!r}"
            )
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be an unsigned 64-bit integer")
        if self.cases < 1:
            raise ValueError("cases must be positive")


_TABLE_MAX = 1024  # entries; a mode past it comes only from user-set bounds, and uses gcd


@lru_cache(maxsize=16)
def _lowest_terms(n: int, d: int) -> tuple:
    """``[num][den - 1]`` -> num/den in lowest terms, for num < n, 0 < den <= d."""
    return tuple(
        tuple((num // gcd(num, den), den // gcd(num, den)) for den in range(1, d + 1))
        for num in range(n)
    )


def gen_elem(cfg: GenConfig) -> Iterator[Elem]:
    """Infinite deterministic stream of quadrant points.

    Each draw below n takes ``getrandbits(n.bit_length())`` of
    ``random.Random(cfg.seed)`` until the value is below n.  That is exactly
    how CPython 3.10-3.13 implement ``randrange(n)``, so the stream is the one
    ``randrange`` gives, without depending on its internals.  A point draws
    its first coordinate, then its second.  An integer coordinate is a draw
    below max + 1; a rational one draws its numerator below max_num + 1, then
    its denominator as 1 plus a draw below max_den, and is reduced to lowest
    terms: by a lookup in the mode's cached table of (max_num + 1) x max_den
    entries, or by ``gcd`` when that passes ``_TABLE_MAX``.  The lookup
    changes no draw and no value.  A ``cfg`` that is not a ``GenConfig`` is a
    ``TypeError`` at the first draw.
    """
    if not isinstance(cfg, GenConfig):
        raise TypeError(f"cfg must be a GenConfig, not {cfg!r}")
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
            e = _new(Elem)
            _set_q(e, (a, 1, b, 1))
            yield e
    n, d = mode.max_num + 1, mode.max_den
    kn, kd = n.bit_length(), d.bit_length()
    terms = _lowest_terms(n, d) if n * d <= _TABLE_MAX else None
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
        e = _new(Elem)
        if terms is not None:
            _set_q(e, terms[an][ad] + terms[bn][bd])
        else:
            # ad and bd are the denominators less 1
            ga, gb = gcd(an, ad + 1), gcd(bn, bd + 1)
            _set_q(e, (an // ga, (ad + 1) // ga, bn // gb, (bd + 1) // gb))
        yield e
