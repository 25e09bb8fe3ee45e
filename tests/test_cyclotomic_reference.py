"""Differential tests of CycNumber against a Fraction-coefficient reference.

CycNumber stores integer numerators over one common denominator.  The
reference below is the plain representation it replaced: one Fraction per
power of zeta, products reduced by long division by the cyclotomic
polynomial, inverses by solving the linear system a * x = 1.  It shares no
arithmetic with the implementation under test.
"""

import json
from fractions import Fraction
from math import gcd

from hypothesis import given, settings, strategies as st

from cyclotomic_oracle import CycNumber, cyclotomic_polynomial

ORDERS = (1, 2, 3, 4, 5, 6, 8, 10, 12)
BIG = 10**30


# -- the Fraction-coefficient reference ---------------------------------------


def euler_phi(n: int) -> int:
    """Number of integers in 1..n coprime to n: the degree of the n-th
    cyclotomic polynomial."""
    if n < 1:
        raise ValueError("euler_phi requires n >= 1")
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def ref_reduce(order, poly):
    """poly modulo the monic cyclotomic polynomial, as euler_phi(order) Fractions."""
    phi = cyclotomic_polynomial(order)
    deg = len(phi) - 1
    poly = list(poly) + [Fraction(0)] * max(0, deg - len(poly))
    for top in reversed(range(deg, len(poly))):
        c = poly[top]
        if c:
            for i, p in enumerate(phi):
                poly[top - deg + i] -= c * p
    return tuple(poly[:deg])


def ref_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def ref_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def ref_neg(a):
    return tuple(-x for x in a)


def ref_mul(order, a, b):
    conv = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            conv[i + j] += x * y
    return ref_reduce(order, conv)


def ref_inverse(order, a):
    """Solve a * x = 1: column j of the system is a * zeta^j."""
    deg = len(a)
    unit = [tuple(Fraction(int(i == j)) for i in range(deg)) for j in range(deg)]
    columns = [ref_mul(order, a, e) for e in unit]
    rows = [[columns[j][i] for j in range(deg)] + [unit[0][i]] for i in range(deg)]
    for col in range(deg):
        pivot = next(r for r in range(col, deg) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        lead = rows[col][col]
        rows[col] = [v / lead for v in rows[col]]
        for r in range(deg):
            if r != col and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [v - factor * w for v, w in zip(rows[r], rows[col])]
    return tuple(row[deg] for row in rows)


def ref_pow(order, a, exponent):
    if exponent < 0:
        a, exponent = ref_inverse(order, a), -exponent
    result = ref_rational(order, 1)
    for _ in range(exponent):
        result = ref_mul(order, result, a)
    return result


def ref_rational(order, value):
    return (Fraction(value),) + (Fraction(0),) * (euler_phi(order) - 1)


def ref_json(order, a):
    return {"order": order, "coeffs": [[str(c.numerator), str(c.denominator)] for c in a]}


# -- strategies -----------------------------------------------------------------


def numerators():
    return st.one_of(st.integers(-3, 3), st.integers(-BIG, BIG))


@st.composite
def operands(draw, count=2):
    """count elements of one order with their reference coefficient tuples.

    Vectors may be short (trailing zeros, often rational or zero), and the
    elements may share one denominator, which takes the same-denominator
    path of + and -.
    """
    order = draw(st.sampled_from(ORDERS))
    deg = euler_phi(order)
    shared = draw(st.one_of(st.none(), st.integers(1, 12), st.integers(1, BIG)))
    dens = st.just(shared) if shared else st.one_of(st.integers(1, 9), st.integers(1, BIG))
    out = []
    for _ in range(count):
        coeffs = draw(st.lists(st.builds(Fraction, numerators(), dens), max_size=deg))
        ref = tuple(coeffs) + (Fraction(0),) * (deg - len(coeffs))
        out.append((CycNumber(order, coeffs), ref))
    return order, out


def assert_canonical(x):
    assert len(x.num) == euler_phi(x.order)
    assert all(type(c) is int for c in x.num) and type(x.den) is int
    assert x.den > 0
    assert gcd(x.den, *x.num) == 1
    if not any(x.num):
        assert x.den == 1


# -- tests ------------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(operands())
def test_arithmetic_matches_the_fraction_reference(case):
    order, [(a, ra), (b, rb)] = case
    assert_canonical(a)
    assert a.coeffs == ra
    results = [
        (a + b, ref_add(ra, rb)),
        (a - b, ref_sub(ra, rb)),
        (-a, ref_neg(ra)),
        (a * b, ref_mul(order, ra, rb)),
        (a + 1, ref_add(ra, ref_rational(order, 1))),
        (2 - a, ref_sub(ref_rational(order, 2), ra)),
        (a * Fraction(-3, 7), ref_mul(order, ra, ref_rational(order, Fraction(-3, 7)))),
    ]
    if any(rb):
        results.append((b.inverse(), ref_inverse(order, rb)))
    for got, expected in results:
        assert_canonical(got)
        assert got.coeffs == expected
    assert (a == b) == (ra == rb)
    assert (a - a).is_zero() and (a - a).den == 1


@settings(max_examples=100, deadline=None)
@given(operands(count=1), st.integers(-3, 4))
def test_powers_match_the_fraction_reference(case, exponent):
    order, [(a, ra)] = case
    if exponent < 0 and not any(ra):
        return
    got = a**exponent
    assert_canonical(got)
    assert got.coeffs == ref_pow(order, ra, exponent)


@settings(max_examples=200, deadline=None)
@given(operands(count=1))
def test_json_is_the_fraction_pairs(case):
    order, [(a, ra)] = case
    assert a.to_json() == ref_json(order, ra)
    assert a.dumps() == json.dumps(ref_json(order, ra))
    again = CycNumber.loads(a.dumps())
    assert again == a and hash(again) == hash(a)


@settings(max_examples=200, deadline=None)
@given(operands(count=1))
def test_values_reached_two_ways_are_equal_and_hash_alike(case):
    order, [(a, ra)] = case
    ways = [(a / 3) * 3, CycNumber(order, a.coeffs), a + a - a, -(-a)]
    if any(ra):
        ways.append(a.inverse().inverse())
    for other in ways:
        assert_canonical(other)
        assert other == a
        assert hash(other) == hash(a)
    if a.is_rational():
        assert a == ra[0]
        assert hash(a) == hash(ra[0])
        assert a.rational() == ra[0]
