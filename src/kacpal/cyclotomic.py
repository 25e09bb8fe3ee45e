"""Exact arithmetic in the cyclotomic field Q(zeta_N).

A field element is a polynomial in zeta with rational coefficients, kept
reduced modulo the N-th cyclotomic polynomial.  Reduction modulo the
cyclotomic polynomial (rather than x^N - 1) makes the quotient a field, so
zero divisors cannot appear.  The element is stored as integer numerators
over one positive common denominator (the representation of FLINT's
fmpq_poly), kept in lowest terms, so two elements are equal exactly when
their numerators and denominators coincide.  Arithmetic runs on Python ints
with one gcd per result; Fractions appear only where values enter or leave
(construction, coeffs, rational(), JSON).  No floating point is used
anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import add, neg, sub
from sys import hash_info

from .sparse import power
from .wreath import CheckFailedError

# The rational scalars of the package (the coefficients of rational
# character-basis elements, Q[S_k] among them as the model at n = 1, and the
# values CycNumber takes in and hands out) are stdlib Fractions: always
# reduced, denominator > 0, arbitrary precision.
Rational = Fraction


def _rational(value) -> Fraction:
    """value as a Fraction, at every place where a scalar enters the exact
    arithmetic.  A float raises TypeError: its binary value (0.1 reads as
    3602879701896397/36028797018963968) is seldom the number meant."""
    if isinstance(value, float):
        raise TypeError(f"a float ({value!r}) cannot enter exact arithmetic: use an int or a Fraction")
    return Fraction(value)


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

    Ascending degree, monic, of degree phi(order) (Euler's totient).
    Computed by exact division of x^order - 1 by the cyclotomic polynomials
    of all proper divisors, so the product over all divisors d of x^d-factors
    is x^order - 1 by construction.
    """
    if order < 1:
        raise ValueError("cyclotomic_polynomial requires order >= 1")
    poly: tuple[int, ...] = tuple([-1] + [0] * (order - 1) + [1])
    for d in range(1, order):
        if order % d == 0:
            poly, rem = _monic_divmod(poly, cyclotomic_polynomial(d))
            if any(rem):
                raise CheckFailedError(
                    f"cyclotomic polynomial of order {d} does not divide x^{order} - 1"
                )
    return poly


@lru_cache(maxsize=None)
def _x_power(order: int, k: int) -> tuple[int, ...]:
    """x^k reduced modulo the cyclotomic polynomial: phi(order) integers.

    The only reduction of a power; it is integral because the modulus is monic
    over the integers.
    """
    phi = cyclotomic_polynomial(order)
    deg = len(phi) - 1
    _, rem = _monic_divmod((0,) * k + (1,), phi)
    return rem + (0,) * (deg - len(rem))


@lru_cache(maxsize=None)
def _reduction_rows(order: int) -> tuple[tuple[int, ...], ...]:
    """x^(deg+j) reduced modulo the cyclotomic polynomial, j = 0..deg-2."""
    deg = len(cyclotomic_polynomial(order)) - 1
    return tuple(_x_power(order, deg + j) for j in range(deg - 1))


@lru_cache(maxsize=None)
def _galois_images(order: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """For each unit k != 1 modulo the order, the vectors of zeta^(i*k), i < deg.

    The automorphism zeta -> zeta^k maps sum a_i zeta^i to sum a_i zeta^(i*k),
    so these rows are its matrix on coefficient vectors.
    """
    deg = len(cyclotomic_polynomial(order)) - 1
    return tuple(
        tuple(_x_power(order, i * k % order) for i in range(deg))
        for k in range(2, order)
        if gcd(k, order) == 1
    )


class CycNumber:
    """An element of Q(zeta_N): phi(N) integer numerators of the powers
    of zeta over one positive common denominator.

    The form is canonical: den > 0, gcd(den, *num) == 1, and zero is all-zero
    numerators over den == 1.  Values are immutable; arithmetic returns new
    canonical instances.  Mixing different orders raises ValueError rather
    than coercing.
    """

    __slots__ = ("order", "num", "den")

    def __init__(self, order: int, coeffs=()):
        deg = len(cyclotomic_polynomial(order)) - 1
        vec = [_rational(c) for c in coeffs]
        if len(vec) > deg:
            raise ValueError(f"too many coefficients for Q(zeta_{order}): {len(vec)} > {deg}")
        # Over the lcm of reduced denominators the numerators share no factor with it.
        den = lcm(*(c.denominator for c in vec))
        num = tuple(c.numerator * (den // c.denominator) for c in vec)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "num", num + (0,) * (deg - len(vec)))
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("CycNumber is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rational(cls, order: int, value) -> "CycNumber":
        value = _rational(value)
        deg = len(cyclotomic_polynomial(order)) - 1
        return _make(order, (value.numerator,) + (0,) * (deg - 1), value.denominator)

    @classmethod
    def zero(cls, order: int) -> "CycNumber":
        return cls.from_rational(order, 0)

    @classmethod
    def one(cls, order: int) -> "CycNumber":
        return cls.from_rational(order, 1)

    # -- the boundary to Fractions -------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients of zeta^0, ..., zeta^(deg-1) as Fractions."""
        return tuple(Fraction(c, self.den) for c in self.num)

    def rational(self) -> Fraction:
        """The value as a Fraction; ValueError if the element is irrational."""
        if not self.is_rational():
            raise ValueError(f"not a rational element: {self!r}")
        return Fraction(self.num[0], self.den)

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def __bool__(self) -> bool:
        return any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

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
        da, db = self.den, other.den
        if da == db:
            return _reduced(self.order, tuple(map(add, self.num, other.num)), da)
        num = tuple([a * db + b * da for a, b in zip(self.num, other.num)])
        return _reduced(self.order, num, da * db)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        da, db = self.den, other.den
        if da == db:
            return _reduced(self.order, tuple(map(sub, self.num, other.num)), da)
        num = tuple([a * db - b * da for a, b in zip(self.num, other.num)])
        return _reduced(self.order, num, da * db)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return _make(self.order, tuple(map(neg, self.num)), self.den)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.num, other.num
        deg = len(a)
        if deg == 1:
            return _reduced(self.order, (a[0] * b[0],), self.den * other.den)
        conv = [0] * (2 * deg - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b, i):
                    conv[j] += ai * bj
        out = conv[:deg]
        for c, row in zip(conv[deg:], _reduction_rows(self.order)):
            if c:
                for idx, r in enumerate(row):
                    if r:
                        out[idx] += c * r
        return _reduced(self.order, tuple(out), self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> "CycNumber":
        """Multiplicative inverse.

        With self = N / den for the integer numerator N, the inverse is
        den * others / norm: others is the product of the Galois conjugates
        of N other than N, and norm = N * others, the product of all of them,
        is a nonzero integer.
        """
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(zeta)")
        order, num = self.order, self.num
        others = None
        for images in _galois_images(order):
            conj = [0] * len(num)
            for a, image in zip(num, images):
                if a:
                    for j, r in enumerate(image):
                        if r:
                            conj[j] += a * r
            conj = _make(order, tuple(conj), 1)
            others = conj if others is None else others * conj
        if others is None:  # Q(zeta) = Q
            norm, cofactor = num[0], (1,)
        else:
            product = _make(order, num, 1) * others
            if not product.is_rational():
                raise CheckFailedError(f"norm of {self!r} is not rational: {product!r}")
            norm, cofactor = product.num[0], others.num
        scale = self.den if norm > 0 else -self.den
        return _reduced(order, tuple([c * scale for c in cofactor]), abs(norm))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, exponent: int) -> "CycNumber":
        if exponent < 0:
            return self.inverse() ** (-exponent)
        return power(self, exponent, lambda: CycNumber.one(self.order))

    # -- comparison / hashing ----------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, CycNumber):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = CycNumber.from_rational(self.order, other)
        return self.order == other.order and self.den == other.den and self.num == other.num

    def __hash__(self):
        # A rational value equals its Fraction (see __eq__), so it must hash
        # alike: this is Fraction.__hash__ on num[0] / den, without the Fraction.
        num, den = self.num, self.den
        if any(num[1:]):
            return hash((self.order, den, num))
        a = num[0]
        try:
            h = hash(hash(abs(a)) * pow(den, -1, hash_info.modulus))
        except ValueError:  # den is a multiple of the modulus: no inverse
            h = hash_info.inf
        h = h if a >= 0 else -h
        return -2 if h == -1 else h

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
        import json

        return json.dumps(self.to_json())

    @classmethod
    def loads(cls, text: str) -> "CycNumber":
        import json

        return cls.from_json(json.loads(text))


# The slot setters get past CycNumber.__setattr__ more cheaply than
# object.__setattr__ does, which matters on the hot path of every operation.
_set_order = CycNumber.order.__set__
_set_num = CycNumber.num.__set__
_set_den = CycNumber.den.__set__


def _make(order: int, num: tuple[int, ...], den: int) -> CycNumber:
    """An instance from canonical numerators and denominator, unchecked."""
    self = object.__new__(CycNumber)
    _set_order(self, order)
    _set_num(self, num)
    _set_den(self, den)
    return self


def _reduced(order: int, num: tuple[int, ...], den: int) -> CycNumber:
    """num / den in lowest terms, for den > 0: one gcd, skipped when den is 1.

    Dividing out gcd(den, *num) also turns any zero into 0 / 1.
    """
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = tuple([c // g for c in num])
            den //= g
    return _make(order, num, den)


@lru_cache(maxsize=None)
def zeta_power(order: int, k: int) -> CycNumber:
    """zeta^k in Q(zeta_order), exponent taken modulo the order."""
    return _make(order, _x_power(order, k % order), 1)


def zeta_over(order: int, k: int, den: int) -> CycNumber:
    """zeta^k / den for den > 0, with no product and no reduction.

    It is already in lowest terms: zeta^k is a unit of the ring of integers
    Z[zeta], whose basis is the powers of zeta, so if d divided all its
    numerators then 1/d = zeta^(-k) (zeta^k / d) would be an integer.
    """
    return _make(order, _x_power(order, k % order), den)


@lru_cache(maxsize=None)
def root_count_sum(order: int, counts: tuple[int, ...], den: int = 1) -> CycNumber:
    """The sum over k of counts[k] zeta^k / den, for integer counts indexed
    by the exponents 0..order-1: the image of an element of the group ring
    Z[C_order] in Q(zeta), with one integer vector per nonzero count, then
    one reduction.  Remembered: sums of roots that a check meets again and
    again, such as a Gauss sum, are reduced once."""
    num = [0] * (len(cyclotomic_polynomial(order)) - 1)
    for k, c in enumerate(counts):
        if c:
            for i, r in enumerate(_x_power(order, k)):
                if r:
                    num[i] += c * r
    return _reduced(order, tuple(num), den)


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
