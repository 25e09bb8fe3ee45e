"""Exact arithmetic in the cyclotomic field Q(zeta_N).

A field element is a polynomial in zeta with rational coefficients, kept
reduced modulo the N-th cyclotomic polynomial.  Reduction modulo the
cyclotomic polynomial (rather than x^N - 1) makes the quotient a field, so
zero divisors cannot appear and two elements are equal exactly when their
coefficient vectors coincide.  Everything is arbitrary-precision rational;
no floating point is used anywhere.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from math import gcd

# All scalar coefficients in the package are stdlib Fractions: always
# reduced, denominator > 0, arbitrary precision.
Rational = Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


def euler_phi(n: int) -> int:
    """Number of integers in 1..n coprime to n."""
    if n < 1:
        raise ValueError("euler_phi requires n >= 1")
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def _monic_divmod(num: tuple[int, ...], den: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Divide integer polynomials (ascending coefficients); den must be monic."""
    num_l = list(num)
    dd = len(den) - 1
    if len(num_l) - 1 < dd:
        return (0,), tuple(num_l)
    quot = [0] * (len(num_l) - dd)
    for i in reversed(range(len(quot))):
        c = num_l[i + dd]
        quot[i] = c
        if c:
            for j, d in enumerate(den):
                num_l[i + j] -= c * d
    return tuple(quot), tuple(num_l[:dd])


@lru_cache(maxsize=None)
def cyclotomic_polynomial(order: int) -> tuple[int, ...]:
    """Integer coefficients of the cyclotomic polynomial of the given order.

    Ascending degree, monic, degree euler_phi(order).  Computed by exact
    division of x^order - 1 by the cyclotomic polynomials of all proper
    divisors, so the product over all divisors d of x^d-factors is x^order - 1
    by construction.
    """
    if order < 1:
        raise ValueError("cyclotomic_polynomial requires order >= 1")
    poly: tuple[int, ...] = tuple([-1] + [0] * (order - 1) + [1])
    for d in range(1, order):
        if order % d == 0:
            poly, rem = _monic_divmod(poly, cyclotomic_polynomial(d))
            assert not any(rem)
    return poly


@lru_cache(maxsize=None)
def _reduction_rows(order: int) -> tuple[tuple[int, ...], ...]:
    """x^(deg+j) reduced modulo the cyclotomic polynomial, j = 0..deg-2.

    Rows have integer entries because the modulus is monic over the integers.
    """
    phi = cyclotomic_polynomial(order)
    deg = len(phi) - 1
    rows = []
    cur = [-c for c in phi[:deg]]
    rows.append(tuple(cur))
    for _ in range(max(deg - 2, 0)):
        top = cur[-1]
        cur = [0] + cur[:-1]
        if top:
            cur = [c + top * r for c, r in zip(cur, rows[0])]
        rows.append(tuple(cur))
    return tuple(rows)


class CycNumber:
    """An element of Q(zeta_N): euler_phi(N) rational coefficients in zeta.

    Values are immutable; arithmetic returns new instances in canonical
    reduced form.  Mixing different orders raises ValueError rather than
    coercing.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs=()):
        deg = len(cyclotomic_polynomial(order)) - 1
        vec = tuple(Fraction(c) for c in coeffs)
        if len(vec) > deg:
            raise ValueError(f"too many coefficients for Q(zeta_{order}): {len(vec)} > {deg}")
        if len(vec) < deg:
            vec = vec + (_ZERO,) * (deg - len(vec))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", vec)

    @staticmethod
    def _make(order: int, coeffs: tuple[Fraction, ...]) -> "CycNumber":
        self = object.__new__(CycNumber)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", coeffs)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("CycNumber is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rational(cls, order: int, value) -> "CycNumber":
        deg = len(cyclotomic_polynomial(order)) - 1
        return cls._make(order, (Fraction(value),) + (_ZERO,) * (deg - 1))

    @classmethod
    def zero(cls, order: int) -> "CycNumber":
        return cls.from_rational(order, 0)

    @classmethod
    def one(cls, order: int) -> "CycNumber":
        return cls.from_rational(order, 1)

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def rational(self) -> Fraction:
        """The value as a Fraction; ValueError if the element is irrational."""
        if not self.is_rational():
            raise ValueError(f"not a rational element: {self!r}")
        return self.coeffs[0]

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CycNumber):
            if other.order != self.order:
                raise ValueError(f"cyclotomic order mismatch: {self.order} vs {other.order}")
            return other
        if isinstance(other, (int, Fraction)):
            return CycNumber.from_rational(self.order, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return CycNumber._make(self.order, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return CycNumber._make(self.order, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return CycNumber._make(self.order, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        deg = len(a)
        if deg == 1:
            return CycNumber._make(self.order, (a[0] * b[0],))
        conv = [_ZERO] * (2 * deg - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        conv[i + j] += ai * bj
        out = conv[:deg]
        rows = _reduction_rows(self.order)
        for k in range(deg, 2 * deg - 1):
            c = conv[k]
            if c:
                row = rows[k - deg]
                for idx, r in enumerate(row):
                    if r:
                        out[idx] += c * r
        return CycNumber._make(self.order, tuple(out))

    __rmul__ = __mul__

    def inverse(self) -> "CycNumber":
        """Multiplicative inverse via the extended Euclidean algorithm in Q[x]."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(zeta)")
        modulus = [Fraction(c) for c in cyclotomic_polynomial(self.order)]
        old_r, r = list(self.coeffs), modulus
        old_s, s = [_ONE], [_ZERO]
        while any(r):
            quot, rem = _frac_poly_divmod(old_r, r)
            old_r, r = r, rem
            old_s, s = s, _frac_poly_sub(old_s, _frac_poly_mul(quot, s))
        # old_r is a nonzero constant gcd; old_s / old_r[0] inverts self mod the cyclotomic polynomial
        g = next(c for c in old_r if c)
        inv_coeffs = [c / g for c in old_s]
        deg = len(self.coeffs)
        inv_coeffs += [_ZERO] * (deg - len(inv_coeffs))
        return CycNumber._make(self.order, tuple(inv_coeffs[:deg]))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, exponent: int) -> "CycNumber":
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = CycNumber.one(self.order)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- comparison / hashing ----------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycNumber.from_rational(self.order, other)
        if not isinstance(other, CycNumber):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        # A rational value equals its Fraction (see __eq__), so it must hash alike.
        if self.is_rational():
            return hash(self.coeffs[0])
        return hash((self.order, self.coeffs))

    def __repr__(self):
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*z")
            else:
                parts.append(f"{c}*z^{i}")
        body = " + ".join(parts) if parts else "0"
        return f"CycNumber({self.order}, {body!r})"

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        """JSON form with integers as decimal strings (bignum safe)."""
        return {
            "order": self.order,
            "coeffs": [[str(c.numerator), str(c.denominator)] for c in self.coeffs],
        }

    @classmethod
    def from_json(cls, data: dict) -> "CycNumber":
        coeffs = tuple(Fraction(int(num), int(den)) for num, den in data["coeffs"])
        return cls(data["order"], coeffs)

    def dumps(self) -> str:
        return json.dumps(self.to_json())

    @classmethod
    def loads(cls, text: str) -> "CycNumber":
        return cls.from_json(json.loads(text))


def _frac_poly_trim(p: list[Fraction]) -> list[Fraction]:
    while p and not p[-1]:
        p.pop()
    return p


def _frac_poly_divmod(num: list[Fraction], den: list[Fraction]):
    num = _frac_poly_trim(list(num))
    den = _frac_poly_trim(list(den))
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    if len(num) < len(den):
        return [_ZERO], num
    quot = [_ZERO] * (len(num) - len(den) + 1)
    lead = den[-1]
    for i in reversed(range(len(quot))):
        c = num[i + len(den) - 1] / lead
        quot[i] = c
        if c:
            for j, d in enumerate(den):
                num[i + j] -= c * d
    return quot, _frac_poly_trim(num[: len(den) - 1])


def _frac_poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    if not a or not b:
        return []
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return out


def _frac_poly_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = list(a) + [_ZERO] * (len(b) - len(a))
    for i, bi in enumerate(b):
        out[i] -= bi
    return out


@lru_cache(maxsize=None)
def zeta_power(order: int, k: int) -> CycNumber:
    """zeta^k in Q(zeta_order), exponent taken modulo the order."""
    k %= order
    deg = len(cyclotomic_polynomial(order)) - 1
    if k < deg:
        coeffs = tuple(_ONE if i == k else _ZERO for i in range(deg))
        return CycNumber._make(order, coeffs)
    return zeta(order) ** k


def zeta(order: int) -> CycNumber:
    """The distinguished primitive root of unity generating Q(zeta_order)."""
    return zeta_power(order, 1)


def gauss_sum_check(n: int, a: int, b: int) -> CycNumber:
    """Brute-force the double sum of q^(-ij - ai - bj) over i,j in Z_n.

    Here q = zeta^2 for zeta of order 2n.  The orthogonality identity says
    the result equals n * q^(a*b); callers assert that.
    """
    order = 2 * n
    total = CycNumber.zero(order)
    for i in range(n):
        for j in range(n):
            total = total + zeta_power(order, -2 * (i * j + a * i + b * j))
    return total
