"""The integer layer of Q(zeta_N): cyclotomic polynomials, reduced powers of
zeta, and values as canonical integer pairs.

A value of Q(zeta_N) is the pair (num, den): phi(N) integer numerators of
zeta^0, ..., zeta^(deg-1) over one positive common denominator, in lowest
terms, so zero is all-zero numerators over 1 and two values are equal
exactly when their pairs are.  The order is not part of the pair, since
the caller knows it.  This is the package's one form of a field value: the
checks on exponent tables (kacpal.character_model and kacpal.hopf) read
sums of roots of unity as these pairs and compare them, the idempotent
command writes them with coefficient_json, and a failed check names one
with coefficient_repr.  A pair is a tuple, so it is always truthy: a value
is zero exactly when any(num) is false.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from .wreath import CheckFailedError


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


def reduced(num: tuple[int, ...], den: int) -> tuple:
    """num / den in lowest terms, for den > 0: one gcd, skipped when den is 1.

    Dividing out gcd(den, *num) also turns any zero into 0 / 1.
    """
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = tuple([c // g for c in num])
            den //= g
    return num, den


def lambda_coefficients(n: int, m: int, lam) -> list[tuple]:
    """The coefficients of the character idempotent Lambda_lam of Z_n^m in
    Q(zeta_2n), by twist index t: zeta^(2 lam . t) / n^m, as pairs.

    Built slot by slot, slot 0 varying fastest, as wreath.twist_index
    numbers the twists.  Each pair is already in lowest terms: zeta^k is a
    unit of the ring of integers Z[zeta], whose basis is the powers of zeta,
    so if d divided all its numerators then 1/d = zeta^(-k) (zeta^k / d)
    would be an integer.  character_model.check_model reads this table, and
    the idempotent command writes an expanded idempotent's group-basis
    coordinates as these pairs times a rational, with coefficient_json.  It
    is not remembered, so that each of them reads it afresh.
    """
    exponents = [0]
    for v in lam:
        exponents = [e + 2 * v * t for t in range(n) for e in exponents]
    order, den = 2 * n, n**m
    return [(_x_power(order, k % order), den) for k in exponents]


@lru_cache(maxsize=None)
def root_count_sum(order: int, counts: tuple[int, ...], den: int = 1) -> tuple:
    """The sum over k of counts[k] zeta^k / den as a pair, for integer counts
    indexed by the exponents 0..order-1: the image of an element of the group
    ring Z[C_order] in Q(zeta), with one integer vector per nonzero count,
    then one reduction.  Remembered: sums of roots that a check meets again
    and again, such as a Gauss sum, are reduced once."""
    num = [0] * (len(cyclotomic_polynomial(order)) - 1)
    for k, c in enumerate(counts):
        if c:
            for i, r in enumerate(_x_power(order, k)):
                if r:
                    num[i] += c * r
    return reduced(tuple(num), den)


def coefficient_json(order: int, num: tuple[int, ...], den: int) -> dict:
    """The JSON form of the value num / den of Q(zeta_order), integers as
    decimal strings (bignum safe): each coefficient as its pair in lowest
    terms, by one gcd."""
    pairs = []
    for c in num:
        g = gcd(c, den)
        pairs.append([str(c // g), str(den // g)])
    return {"order": order, "coeffs": pairs}


def coefficient_repr(order: int, num: tuple[int, ...], den: int) -> str:
    """The value num / den of Q(zeta_order) as a failed check names it: the
    order, then each nonzero coefficient in lowest terms, by one gcd, times
    its power of z, as the field class of the test oracle prints itself."""
    parts = []
    for i, c in enumerate(num):
        if c:
            g = gcd(c, den)
            c, d = c // g, den // g
            term = str(c) if d == 1 else f"{c}/{d}"
            parts.append(term if i == 0 else f"{term}*z" if i == 1 else f"{term}*z^{i}")
    return f"CycNumber({order}, {' + '.join(parts) or '0'!r})"


@lru_cache(maxsize=None)
def _roots(order: int) -> dict:
    """The numerators of zeta^k -> k for the roots of unity of Q(zeta_order)."""
    return {_x_power(order, k): k for k in range(order)}


def root_exponent(order: int, value: tuple, den: int = 1) -> int | None:
    """k with value = zeta^k / den in Q(zeta_order), or None when the pair
    value is not of that form.

    A root of unity is a unit of the integers of Q(zeta), so its numerators
    share no factor and zeta^k / den in lowest terms has denominator den.
    """
    num, value_den = value
    return _roots(order).get(num) if value_den == den else None
