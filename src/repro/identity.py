"""One value identity for every seeded model family (DESIGN.md §2.1).

Channel, MAC, mobility and traffic models are values: every knob,
the seed included, is fixed at construction, and one tuple of
primitives — :meth:`Identified.identity` — pins what the model does.
The result cache keeps one model's results apart from another's only
through that tuple, so ``repr``, equality, hashing and the cache
fingerprint are all derived from it, here and nowhere else.
"""

from __future__ import annotations

import hashlib
from abc import ABC, abstractmethod

import numpy as np


class Identified(ABC):
    """A model whose behaviour one tuple of primitives pins.

    Two instances with equal :meth:`identity` tuples are equal, hash
    alike and share cache entries, whatever their classes; the tuple's
    first entry is a kind string that differs across all models, so
    models of different kinds never compare equal.
    """

    @abstractmethod
    def identity(self) -> tuple:
        """Hashable tuple of primitives pinning this model's behaviour.

        Everything that can change what the model does for fixed inputs
        — kind, physical knobs, seed, geometry such as obstacles or a
        mobility box — must appear here: it reaches every cache key
        through :meth:`fingerprint` or ``Network.fingerprint()``.
        """

    def fingerprint(self) -> str:
        """SHA-256 of ``repr(identity())`` (the cache-key hook).

        :func:`repro.fastsim.cache.fingerprint_bytes` calls this, so a
        model in a sweep's kwargs contributes exactly its identity
        tuple to the grid point key.
        """
        return hashlib.sha256(repr(self.identity()).encode()).hexdigest()

    def __repr__(self) -> str:
        return f"{type(self).__name__}{self.identity()!r}"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Identified)
            and self.identity() == other.identity()
        )

    def __hash__(self) -> int:
        return hash(self.identity())


def checked_seed(seed, error: type[Exception]) -> int:
    """``seed`` as an ``int``; ``error`` unless it is a non-negative integer.

    numpy refuses negative seeds only when a generator is first built
    — mid-run, far from the constructor — and ``int()`` would truncate
    a float or read a bool or a digit string as a seed, so all of these
    are refused here.  The result is a Python ``int``: a numpy integer
    would repr as ``np.int64(3)`` inside an identity tuple on numpy 2,
    moving the fingerprint.
    """
    if (
        isinstance(seed, bool)
        or not isinstance(seed, (int, np.integer))
        or seed < 0
    ):
        raise error(f"seed must be a non-negative integer, got {seed!r}")
    return int(seed)
