"""The protocol shared by the two thickening families.

``GenericParams`` (maximal minors, in ``maximal_minors``) and
``PfaffianParams`` (sub-maximal pfaffians, in ``pfaffians``) are the two
implementations of ``Family``, and every fact that tells the families apart
lives in them: the ring dimension, the finite Ext degree, the first power with
a finite nonzero slice, the slice length (a fast kernel and an enumeration
reference), the set of nonvanishing degrees and the table of closed-form
multiplicity oracles.  Everything derived from those is defined here once:
value semantics over the parameters each class names in ``fields``
(construction, equality, hashing, ``repr``, immutability), the label and CLI
parameters, local duality, the zero/finite/infinite classification and the
cumulative length.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from fractions import Fraction
from functools import cached_property

__all__ = ["Family", "LengthClassification"]


class LengthClassification(enum.Enum):
    ZERO = "zero"
    FINITE_NONZERO = "finite-nonzero"
    INFINITE = "infinite"


class Family(ABC):
    """One thickening family with its parameters.

    A subclass sets two class attributes, ``kind`` (the family name used in
    CLI records) and ``fields`` (its parameter names in positional order),
    and implements ``_check_parameters`` and the other abstract members
    below.  Each instance is an immutable value: it takes its parameters
    positionally or by name, compares and hashes by class and parameter
    values, and prints as e.g. ``GenericParams(m=5, n=3)``.
    """

    kind: str
    fields: tuple[str, ...]

    def __init__(self, *args: int, **kwargs: int) -> None:
        values = dict(zip(self.fields, args), **kwargs)
        if len(args) + len(kwargs) != len(self.fields) or values.keys() != set(self.fields):
            raise TypeError(f"{type(self).__name__} takes the parameters {self.fields}, got {args} and {kwargs}")
        self.__dict__.update(values)
        self._check_parameters()

    def _values(self) -> tuple[int, ...]:
        return tuple(getattr(self, name) for name in self.fields)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={value!r}" for name, value in zip(self.fields, self._values()))
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot assign {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

    @abstractmethod
    def _check_parameters(self) -> None:
        """Raise ValueError unless the parameters name a family member."""

    @staticmethod
    def generic(m: int, n: int) -> Family:
        from .maximal_minors import GenericParams

        return GenericParams(m, n)

    @staticmethod
    def pfaffian(n: int) -> Family:
        from .pfaffians import PfaffianParams

        return PfaffianParams(n)

    @cached_property  # the kernels format it into their error context on every call
    def label(self) -> str:
        """Human-readable name with the parameters, e.g. ``sub-maximal-pfaffians(n=2)``."""
        args = ", ".join(f"{name}={value}" for name, value in zip(self.fields, self._values()))
        return f"{self.kind}({args})"

    @property
    def parameters(self) -> dict[str, str]:
        """A fresh dict of the family name and its parameters, as the CLI records them."""
        return {"family": self.kind, **{name: str(value) for name, value in zip(self.fields, self._values())}}

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
    def slice_length(self, d: int) -> int:
        """Length of the finite Ext module of the slice between powers d-1 and d."""

    @abstractmethod
    def reference_slice_length(self, d: int) -> int:
        """The same length by enumerating the weight tuples of the slice sum.

        Slow (the tuple count grows like d^(n-1)); it exists as the route that
        ``slice_length`` is checked against in ``verify`` and the tests.
        """

    @abstractmethod
    def nonvanishing_degrees(self, d: int) -> frozenset[int]:
        """Cohomological degrees with a nonzero Ext module for the d-th power."""

    @abstractmethod
    def oracles(self) -> dict[str, Fraction]:
        """The family's closed-form multiplicity values, keyed by route name.

        ``multiplicities.build_report`` checks the interpolated j-multiplicity
        against each of them.
        """

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

    def cumulative_length(self, D: int) -> int:
        """Length of the finite Ext module of the full thickening at power D.

        Telescopes over the slices d = first_finite_power .. D; this is also
        the length of local cohomology in finite_cohomology_degree.
        """
        if D < 1:
            raise ValueError(f"cumulative_length requires D >= 1, got {D}")
        return sum(self.slice_length(d) for d in range(self.first_finite_power, D + 1))
