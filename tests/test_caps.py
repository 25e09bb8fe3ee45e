"""The one cap table, wreath.CAPS: every capped library entry point, and the
group-basis rank oracle, reads its default there, names that cap in its
error, and takes an explicit cap."""

import sys
import time
from math import isqrt

import pytest

from group_basis_oracle import (
    AlgebraElement,
    _left_translates,
    left_ideal_dimension,
    sandwich_dimension,
)
from kacpal import cli
from kacpal.classifier import irrep_table
from kacpal.hopf import cocommutativity_witness, hopf_axiom_report
from kacpal.conjugacy import conjugacy_class_count
from kacpal.relations import verify_defining_relations
from kacpal.wreath import CAPS, CapExceededError, check_cap, group_order


def one(n, m):
    return AlgebraElement.one(n, m)


# entry point -> (its call at (n, m) with a cap, the name of its cap in
# wreath.CAPS, the check that cli.CAPS holds to the same cap)
ENTRY_POINTS = {
    "verify_defining_relations": (verify_defining_relations, "relation-suite", "relations"),
    "hopf_axiom_report": (hopf_axiom_report, "tensor-square", "hopf"),
    "cocommutativity_witness": (cocommutativity_witness, "tensor-square", "hopf"),
    "conjugacy_class_count": (conjugacy_class_count, "conjugacy", "conjugacy"),
    "left_ideal_dimension": (
        lambda n, m, **cap: left_ideal_dimension(one(n, m), **cap), "rank-check", "ranks"
    ),
    "sandwich_dimension": (
        lambda n, m, **cap: sandwich_dimension(one(n, m), one(n, m), **cap),
        "rank-check",
        "orthogonality",
    ),
    "_left_translates": (
        lambda n, m, **cap: list(_left_translates(one(n, m), **cap)), "rank-check", "ranks"
    ),
    "irrep_table ranks": (
        lambda n, m, **cap: irrep_table(n, m, check_ranks=True, **cap), "rank-check", "ranks"
    ),
    "irrep_table orthogonality": (
        lambda n, m, **cap: irrep_table(n, m, check_orthogonality=True, **cap),
        "rank-check",
        "orthogonality",
    ),
    "irrep_table conjugacy": (
        lambda n, m, **cap: irrep_table(n, m, check_conjugacy=True, **cap),
        "conjugacy",
        "conjugacy",
    ),
}


def smallest_above(cap):
    """The (n, m) with n, m >= 2 of least group order above cap."""
    sizes = [(n, m) for n in range(2, isqrt(cap) + 2) for m in range(2, 8)]
    return min((nm for nm in sizes if group_order(*nm) > cap), key=lambda nm: group_order(*nm))


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_default_cap_comes_from_the_table(entry):
    call, what, check = ENTRY_POINTS[entry]
    assert cli.CAPS[check][0] == what
    n, m = smallest_above(CAPS[what])
    with pytest.raises(CapExceededError) as info:
        call(n, m)
    assert str(info.value) == f"group order {group_order(n, m)} exceeds {what} cap {CAPS[what]}"


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_the_table_is_read_at_call_time(entry, monkeypatch):
    call, what, _ = ENTRY_POINTS[entry]
    monkeypatch.setitem(CAPS, what, 7)
    with pytest.raises(CapExceededError, match=f"exceeds {what} cap 7$"):
        call(2, 2)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_explicit_cap_overrides_the_default(entry):
    call, what, _ = ENTRY_POINTS[entry]
    with pytest.raises(CapExceededError, match=f"group order 8 exceeds {what} cap 7$"):
        call(2, 2, cap=7)
    call(2, 2, cap=8)  # the order itself is within its cap


def test_cli_caps_name_table_entries():
    for check, (what, disable) in cli.CAPS.items():
        assert what in CAPS, check
        assert disable is None or check in disable.split(",")


def test_a_refusal_costs_no_more_than_the_cap():
    # n^m * m! at m = 10^6 has millions of digits; the refusal stops building
    # it once it is past the cap and past what Python prints in decimal.
    start = time.perf_counter()
    with pytest.raises(CapExceededError) as info:
        check_cap(2, 10**6, "enumeration")
    assert time.perf_counter() - start < 1
    assert str(info.value) == "group order 2^1000000*1000000! exceeds enumeration cap 10000"
    # with no int-to-str limit the refusal reads the default 4300 digits:
    # it still names the formula rather than the whole decimal
    if hasattr(sys, "set_int_max_str_digits"):
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            start = time.perf_counter()
            with pytest.raises(CapExceededError) as info:
                check_cap(2, 30000, "enumeration")
            assert time.perf_counter() - start < 1
        finally:
            sys.set_int_max_str_digits(before)
        assert str(info.value) == "group order 2^30000*30000! exceeds enumeration cap 10000"
