"""The protocol shared by the two thickening families.

``GenericParams`` (maximal minors, in ``maximal_minors``) and
``PfaffianParams`` (sub-maximal pfaffians, in ``pfaffians``) are the two
implementations of ``Family``.  Each supplies its name, its parameters, the
ring dimension, the finite Ext degree, the first power with a finite nonzero
slice, the slice length and the set of nonvanishing degrees.  Everything
derived from those, such as local duality, the zero/finite/infinite
classification and the cumulative length, is defined here once.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod

__all__ = ["Family", "LengthClassification"]


class LengthClassification(enum.Enum):
    ZERO = "zero"
    FINITE_NONZERO = "finite-nonzero"
    INFINITE = "infinite"


class Family(ABC):
    """One thickening family with its parameters.

    Subclasses set the class attribute ``kind`` (the family name used in CLI
    records) and implement the abstract members below.
    """

    kind: str

    @staticmethod
    def generic(m: int, n: int) -> Family:
        from .maximal_minors import GenericParams

        return GenericParams(m, n)

    @staticmethod
    def pfaffian(n: int) -> Family:
        from .pfaffians import PfaffianParams

        return PfaffianParams(n)

    @property
    @abstractmethod
    def label(self) -> str:
        """Human-readable name with the parameters, e.g. ``sub-maximal-pfaffians(n=2)``."""

    @property
    @abstractmethod
    def parameters(self) -> dict[str, str]:
        """A fresh dict of the family name and its parameters, as the CLI records them."""

    @property
    @abstractmethod
    def ring_dimension(self) -> int:
        """Krull dimension k of the coordinate ring."""

    @property
    @abstractmethod
    def finite_ext_degree(self) -> int:
        """The unique Ext degree with finite nonzero length."""

    @property
    @abstractmethod
    def first_finite_power(self) -> int:
        """Smallest power d with a nonzero finite-length slice."""

    @abstractmethod
    def slice_length(self, d: int, jobs: int | None = None) -> int:
        """Length of the finite Ext module of the slice between powers d-1 and d."""

    @abstractmethod
    def nonvanishing_degrees(self, d: int) -> frozenset[int]:
        """Cohomological degrees with a nonzero Ext module for the d-th power."""

    @property
    def finite_cohomology_degree(self) -> int:
        """Local-cohomology counterpart of finite_ext_degree under local duality."""
        return self.ring_dimension - self.finite_ext_degree

    def local_cohomology_index(self, j_ext: int) -> int:
        """Graded local duality swaps Ext degree j for k - j, preserving lengths."""
        if not 0 <= j_ext <= self.ring_dimension:
            raise ValueError(f"Ext degree must lie in [0, {self.ring_dimension}], got {j_ext}")
        return self.ring_dimension - j_ext

    def length_classification(self, j: int, d: int) -> LengthClassification:
        """Trichotomy for the length of the Ext module in degree j at power d."""
        if j not in self.nonvanishing_degrees(d):
            return LengthClassification.ZERO
        if j == self.finite_ext_degree and d >= self.first_finite_power:
            return LengthClassification.FINITE_NONZERO
        return LengthClassification.INFINITE

    def cumulative_length(self, D: int, jobs: int | None = None) -> int:
        """Length of the finite Ext module of the full thickening at power D.

        Telescopes over the slices d = first_finite_power .. D; this is also
        the length of local cohomology in finite_cohomology_degree.
        """
        if D < 1:
            raise ValueError(f"cumulative_length requires D >= 1, got {D}")
        return sum(self.slice_length(d, jobs) for d in range(self.first_finite_power, D + 1))
