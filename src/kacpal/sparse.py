"""Finitely supported linear combinations over a basis.

The elements of the character basis, Q[S_k] among them as the character
model at n = 1 and the tensor square as that model at (n, 2m), are sparse
maps from keys to nonzero scalars.  This module holds the linear core
that adds, negates, scales and compares such sums; an element type
subclasses SparseSum and supplies what differs: its parameters (declared as
its __slots__), scalar coercion, its identity element, and its product.
character_basis.CharacterElement is the package's one such type.  The
group-basis algebra and its tensor square, which multiply by rows of the
group's multiplication table, are SparseSums of the test oracles
(tests/group_basis_oracle.py and tests/hopf_group_basis_oracle.py).  A bare
SparseSum, with no
parameters, holds a failing relation's difference in the group basis
(character_model.Monomial.__sub__).  The repeated-squaring loop,
wreath.power, is shared with the scalar field.
"""

from __future__ import annotations

from .wreath import power


def add_into(acc: dict, terms: dict, factor=None) -> dict:
    """In place acc += factor * terms (factor defaults to one).

    Coefficients that cancel to zero are removed, so acc stays a valid
    sparse sum.  Returns acc.
    """
    for key, c in terms.items():
        if factor is not None:
            c = c * factor
        cur = acc.get(key)
        if cur is not None:
            c = cur + c
        if c:
            acc[key] = c
        else:
            acc.pop(key, None)
    return acc


class SparseSum:
    """An immutable finitely supported sum: terms maps keys to nonzero scalars.

    A subclass names its parameters (such as n and m) in its own __slots__;
    two sums combine only when those parameters agree.  It also defines
    _scalar(value), which coerces a scalar; _one(), its identity element;
    and __mul__, its product.
    """

    __slots__ = ("terms",)

    def _assign(self, *args):
        for name, value in zip(type(self).__slots__ + ("terms",), args):
            object.__setattr__(self, name, value)
        return self

    @classmethod
    def _make(cls, *args):
        """An element from its parameter values then a terms dict, unchecked;
        the element takes ownership of the dict."""
        return object.__new__(cls)._assign(*args)

    @classmethod
    def zero(cls, *params):
        return cls._make(*params, {})

    def _params(self) -> tuple:
        return tuple(getattr(self, name) for name in type(self).__slots__)

    def _new(self, terms: dict):
        return self._make(*self._params(), terms)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other):
        if self._params() != other._params():
            raise ValueError(f"{type(self).__name__} parameter mismatch")

    # -- linear operations ---------------------------------------------------

    def __add__(self, other):
        self._check(other)
        return self._new(add_into(dict(self.terms), other.terms))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._new({k: -c for k, c in self.terms.items()})

    def scale(self, factor):
        factor = self._scalar(factor)
        if not factor:
            return self._new({})
        return self._new({k: c * factor for k, c in self.terms.items()})

    # -- multiplicative operations -------------------------------------------

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise ValueError(f"negative powers are not supported on {type(self).__name__}")
        return power(self, exponent, self._one)

    def __eq__(self, other):
        return (
            isinstance(other, type(self))
            and self._params() == other._params()
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self._params(), frozenset(self.terms.items())))
