"""Finitely supported linear combinations over a group basis.

The group algebra of Z_n wr S_m is a sparse map from group keys to nonzero
scalars, and so are its elements in the character basis, Q[S_k] among them
as the character model at n = 1, and the tensor square as that model at
(n, 2m).  This module holds
the code that adds and multiplies such sums.  An element type subclasses
SparseSum and supplies what differs: its parameters (declared as its
__slots__), scalar coercion, its identity element, and the row of its key
product.  The one type with its own product is
character_basis.CharacterElement: there the product of two keys is zero
unless the right key's character is the left key's moved by its
permutation, so it looks those keys up instead of taking rows.  root_sum,
a sum over roots of unity, serves every type with a twist order n.  The
repeated-squaring loop, power, is shared with the scalar field.
"""

from __future__ import annotations


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


def power(x, exponent: int, one):
    """x ** exponent for exponent >= 0 by repeated squaring; one() gives x ** 0.

    Starts from the lowest set bit and squares only while bits remain, so
    x ** 4 costs two products and x ** 5 three.
    """
    if not exponent:
        return one()
    while not exponent & 1:
        x = x * x
        exponent >>= 1
    result = x
    exponent >>= 1
    while exponent:
        x = x * x
        if exponent & 1:
            result = result * x
        exponent >>= 1
    return result


class SparseSum:
    """An immutable finitely supported sum: terms maps keys to nonzero scalars.

    A subclass names its parameters (such as n and m) in its own __slots__;
    two sums combine only when those parameters agree.  It also defines
    _scalar(value), which coerces a scalar; _one(), its identity element; and
    _row(key), a callable mapping a right key k to the key of key * k.
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

    def root_sum(self, pairs, den: int):
        """(1/den) sum of zeta^k x over the (k, x) pairs, x of this type and
        zeta of order 2n; self gives only the type and its parameters, of
        which n sets the field.  The field is imported here, as
        kacpal.cyclotomic builds on this module."""
        from .cyclotomic import zeta_over

        order = 2 * self.n
        acc: dict = {}
        for k, x in pairs:
            add_into(acc, x.terms, zeta_over(order, k, den))
        return self._new(acc)

    def scale(self, factor):
        factor = self._scalar(factor)
        if not factor:
            return self._new({})
        return self._new({k: c * factor for k, c in self.terms.items()})

    # -- multiplicative operations -------------------------------------------

    def __mul__(self, other):
        self._check(other)
        right = other.terms
        acc: dict = {}
        if right:  # a zero right factor must not build any product rows
            for i, a in self.terms.items():
                row = self._row(i)
                for j, b in right.items():
                    k = row(j)
                    c = a * b
                    cur = acc.get(k)
                    acc[k] = c if cur is None else cur + c
        return self._new({k: v for k, v in acc.items() if v})

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
