"""The character basis F(lam, p) = Lambda_lam p against the group basis it
models, and the trace ranks of character_model against the echelon."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from cyclotomic_oracle import CycNumber, zeta, zeta_power
from group_basis_oracle import (
    AlgebraElement,
    CharacterElement,
    FieldCharacterElement,
    add_into,
    character_combination,
    character_product,
    check_model_by_products,
    exact,
    integer_form,
    integral,
    is_idempotent,
    lambda_idempotent,
    left_ideal_basis,
    left_ideal_dimension,
    rational,
    root_sum,
    sandwich_dimension,
    sandwich_rank_by_echelon,
    symmetric_group,
    to_group,
    y_element,
    y_inverse_element,
)
from hopf_group_basis_oracle import TensorElement, to_characters
from test_mutations import (
    _flipped_fourier_sign,
    _one_coefficient_doubled,
    _one_lambda_off_by_a_root,
    _repeated_lambda,
    _swapped_permute_character,
    _unmoved_characters,
)
from kacpal import character_model
from kacpal.character_model import (
    MonomialModel,
    check_model,
    left_ideal_rank,
    sandwich_rank,
    stabiliser_classes,
)
from kacpal.classifier import irrep_table
from kacpal.cli import main
from kacpal.wreath import (
    CheckFailedError,
    Perm,
    WreathElement,
    element_index,
    permute_character,
    twist_index,
)

SIZES = [(2, 2), (3, 2), (2, 3)]
PHI_SIZES = [(2, 2), (3, 2), (2, 3), (4, 2)]


def basis_keys(n, m):
    return [(lam, tuple(p)) for lam in product(range(n), repeat=m) for p in symmetric_group(m)]


RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def character_elements(n, m, coeffs=RATIONALS, max_size=4, element=CharacterElement):
    terms = st.dictionaries(st.sampled_from(basis_keys(n, m)), coeffs, max_size=max_size)
    return terms.map(lambda t: element(n, m, t))


@pytest.mark.parametrize("n, m", SIZES)
def test_product_matches_the_group_product_on_every_basis_pair(n, m):
    basis = [CharacterElement(n, m, {key: 1}) for key in basis_keys(n, m)]
    images = [to_group(f) for f in basis]
    for f, phi_f in zip(basis, images):
        for g, phi_g in zip(basis, images):
            assert to_group(f * g) == phi_f * phi_g, (f.terms, g.terms)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SIZES), st.data())
def test_product_matches_the_group_product(nm, data):
    n, m = nm
    x, y = (data.draw(character_elements(n, m)) for _ in range(2))
    assert to_group(x * y) == to_group(x) * to_group(y)


def summed_elements(n, m):
    """Oracle elements that are sums: one drawn element, the sum of two, or
    a difference of one with itself, which cancels to zero."""
    elements = character_elements(n, m)
    return st.one_of(
        elements,
        st.builds(lambda a, b: a + b, elements, elements),
        elements.map(lambda a: a - a),
    )


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(1, 4), (2, 2), (3, 2), (2, 3)]), st.data())
def test_the_keyed_product_is_the_group_product(nm, data):
    # character_product, the oracle that the integer idempotents are tested
    # against, is the group algebra's product under Phi
    n, m = nm
    x, y = (data.draw(summed_elements(n, m)) for _ in range(2))
    assert to_group(CharacterElement._make(n, m, character_product(x.terms, y.terms))) == to_group(x) * to_group(y)
    # (1 + s)(s - 1) = s^2 - 1 = 0 on a character that the involution s
    # fixes: every term of the product cancels
    lam = (data.draw(st.integers(0, n - 1)),) * m
    ident = Perm.identity(m)
    s = data.draw(st.sampled_from([p for p in symmetric_group(m) if p != ident and p * p == ident]))
    c = data.draw(RATIONALS.filter(bool))
    a = CharacterElement(n, m, {(lam, ident): c, (lam, s): c})
    b = CharacterElement(n, m, {(lam, s): 1, (lam, ident): -1})
    assert character_product(a.terms, b.terms) == {}
    assert (to_group(a) * to_group(b)).is_zero()


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SIZES), st.data())
def test_ranks_and_sandwiches_match_the_group_basis(nm, data):
    n, m = nm
    x, y = (data.draw(character_elements(n, m)) for _ in range(2))
    basis = left_ideal_basis(y)
    assert len(left_ideal_basis(x)) == left_ideal_dimension(to_group(x))
    assert len(basis) == left_ideal_dimension(to_group(y))
    assert sandwich_rank_by_echelon(x, basis) == sandwich_dimension(to_group(x), to_group(y))


def conjugate(e: CharacterElement, g: Perm) -> CharacterElement:
    """u e u^-1 for the group element u = sum_mu F(mu, g) of the permutation
    g: an idempotent on lam goes to one on a moved character, with the same
    ranks."""
    n, m = e.n, e.m
    chars = list(product(range(n), repeat=m))
    u = CharacterElement(n, m, {(mu, g): 1 for mu in chars})
    u_inv = CharacterElement(n, m, {(mu, g.inverse()): 1 for mu in chars})
    return u * e * u_inv


def table_idempotents(n, m):
    """The table's records, and their idempotents as oracle elements."""
    records = irrep_table(n, m).records
    return records, [CharacterElement._make(n, m, rational(r.element)) for r in records]


def integer_traces(e: CharacterElement) -> tuple:
    """(class sums, scale) of e's integer form, as irrep_table passes them."""
    terms, scale = integer_form(e.terms)
    return stabiliser_classes(terms), scale


def classification_idempotents(n, m, moved):
    """The table's idempotents, then up to `moved` of them conjugated by a
    cyclic shift that moves their character: characters that are not
    non-decreasing, and pairs with different characters that hold each
    value equally often."""
    records, elements = table_idempotents(n, m)
    shift = Perm(list(range(1, m)) + [0])
    shifted = [conjugate(e, shift) for r, e in zip(records, elements) if len(set(r.lam)) > 1]
    return elements + shifted[:moved]


@pytest.mark.parametrize("n, m", [(2, 2), (3, 2), (2, 3), (4, 2), (3, 3), (2, 4), (2, 5)])
def test_trace_ranks_match_the_echelon(n, m):
    elements = classification_idempotents(n, m, moved=4)
    traces = [integer_traces(e) for e in elements]
    bases = [left_ideal_basis(e) for e in elements]
    for e, trace, basis in zip(elements, traces, bases):
        assert is_idempotent(e.terms)
        assert left_ideal_rank(*trace, m) == len(basis)
    for e, ti in zip(elements, traces):
        for tj, basis in zip(traces, bases):
            assert sandwich_rank(ti, tj) == sandwich_rank_by_echelon(e, basis)


@pytest.mark.parametrize("n, m", [(2, 2), (3, 2), (2, 3)])
def test_trace_ranks_match_the_group_basis(n, m):
    elements = classification_idempotents(n, m, moved=2)
    traces = [integer_traces(e) for e in elements]
    images = [to_group(e) for e in elements]
    for trace, image in zip(traces, images):
        assert left_ideal_rank(*trace, m) == left_ideal_dimension(image)
    for ti, ei in zip(traces, images):
        for tj, ej in zip(traces, images):
            assert sandwich_rank(ti, tj) == sandwich_dimension(ei, ej)


def test_a_term_off_the_stabiliser_fails_the_lemma():
    # (0, 1) is moved by the transposition, and a second character is off lam
    for terms in ({((0, 1), (1, 0)): 1}, {((0, 0), (0, 1)): 1, ((1, 1), (0, 1)): 1}):
        with pytest.raises(CheckFailedError, match="the stabiliser lemma of the trace ranks"):
            stabiliser_classes(CharacterElement(2, 2, terms).terms)


def test_a_trace_that_is_no_integer_fails():
    # half of F(lam, 1) at m = 3 has the trace 3, and a third of it 2, but
    # F(lam, 1) / 4 has 3 / 2; none of them is idempotent
    lam = (0, 0, 0)
    quarter = CharacterElement(2, 3, {(lam, (0, 1, 2)): Fraction(1, 4)})
    with pytest.raises(CheckFailedError, match="is not a rank"):
        left_ideal_rank(*integer_traces(quarter), 3)
    # the sandwich of F(lam, 1) / 4 with itself is the trace 6 / 16
    with pytest.raises(CheckFailedError, match="is not a rank"):
        sandwich_rank(integer_traces(quarter), integer_traces(quarter))


@st.composite
def idempotents_and_others(draw):
    """A rational element at a small (n, m): a sum of distinct classification
    idempotents (idempotent, as they are orthogonal), possibly conjugated,
    scaled or with a random element added, or a random element alone."""
    n, m = draw(st.sampled_from(SIZES))
    elements = table_idempotents(n, m)[1]
    chosen = draw(st.lists(st.sampled_from(range(len(elements))), unique=True, max_size=3))
    e = CharacterElement(n, m)
    for i in chosen:
        e = e + elements[i]
    if draw(st.booleans()):
        e = conjugate(e, draw(st.sampled_from(symmetric_group(m))))
    kind = draw(st.sampled_from(["idempotent", "scaled", "plus", "random"]))
    if kind == "scaled":
        e = e.scale(draw(RATIONALS))
    elif kind == "plus":
        e = e + draw(character_elements(n, m))
    elif kind == "random":
        e = draw(character_elements(n, m))
    return e


@settings(max_examples=80, deadline=None)
@given(idempotents_and_others())
def test_the_integer_square_is_the_fraction_square(e):
    assert is_idempotent(e.terms) == (e * e == e)


@pytest.mark.parametrize("n, m", [(1, 3), (2, 2), (3, 2), (2, 3), (4, 2)])
def test_identity_and_model_check(n, m):
    one = CharacterElement.one(n, m)
    assert to_group(one) == AlgebraElement.one(n, m)
    f = CharacterElement(n, m, {basis_keys(n, m)[-1]: Fraction(2, 3)})
    assert one * f == f == f * one
    check_model(n, m)
    check_model_by_products(n, m)


def test_integral_keeps_the_line():
    key_a, key_b = ((0, 1), (1, 0)), ((1, 1), (0, 1))
    assert integral({key_a: Fraction(1, 2), key_b: Fraction(-1, 3)}) == {key_a: 3, key_b: -2}
    assert integral({key_a: Fraction(4)}) == {key_a: 4}


def test_keys_are_validated():
    with pytest.raises(ValueError, match="not in Z_2"):
        CharacterElement(2, 2, {((0, 2), (0, 1)): 1})
    with pytest.raises(ValueError, match="not a permutation"):
        CharacterElement(2, 2, {((0, 1), (1, 1)): 1})
    assert CharacterElement(2, 2, {((0, 1), (1, 0)): 0}).is_zero()


def phi_reference(n, m, terms):
    """Phi written out: c F(lam, p) maps to c n^-m sum_t zeta^(2 lam . t) (t, p)."""
    acc = {}
    norm = Fraction(1, n**m)
    for (lam, p), c in terms.items():
        for t in product(range(n), repeat=m):
            z = zeta_power(2 * n, 2 * sum(a * b for a, b in zip(lam, t)))
            add_into(acc, {element_index(WreathElement(n, t, Perm(p))): z * c * norm})
    return acc


def field_coefficients(n):
    """Rationals, and rational multiples of the roots of unity in Q(zeta_2n)."""
    order = 2 * n
    cyclotomics = st.builds(
        lambda k, q: zeta_power(order, k) * CycNumber.from_rational(order, q),
        st.integers(0, order - 1),
        RATIONALS,
    )
    return st.one_of(RATIONALS, cyclotomics)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(PHI_SIZES), st.data())
def test_the_change_of_basis_matches_its_definition(nm, data):
    n, m = nm
    field_elements = character_elements(n, m, field_coefficients(n), element=FieldCharacterElement)
    x, y = (data.draw(field_elements) for _ in range(2))
    assert to_group(x).terms == phi_reference(n, m, x.terms)
    # one column cache shared by two elements, as check_model_by_products shares it
    columns: dict = {}
    for z in (x, y, x):
        assert character_combination(n, m, z.terms, columns) == phi_reference(n, m, z.terms)


@pytest.mark.parametrize("n, m", PHI_SIZES)
def test_y_is_its_sum_of_character_idempotents(n, m):
    one = AlgebraElement.one(n, m)
    for l in range(1, m):
        acc: dict = {}
        for lam in product(range(n), repeat=m):
            weight = zeta_power(2 * n, -lam[l - 1] * lam[l])
            add_into(acc, lambda_idempotent(n, m, lam).terms, weight)
        assert y_element(n, m, l).terms == acc
        assert y_element(n, m, l) * y_inverse_element(n, m, l) == one


def test_scalars_are_rational_or_of_the_model_order():
    # the package's elements are rational; the oracle's field elements take
    # CycNumbers of the model's order
    rational = to_characters(TensorElement.unit(2, 2))
    with pytest.raises(TypeError):
        rational.scale(zeta(4))
    tensor = FieldCharacterElement._make(rational.n, rational.m, dict(rational.terms))
    scaled = tensor.scale(zeta(4))
    assert scaled.terms == {key: c * zeta(4) for key, c in tensor.terms.items()}
    with pytest.raises(ValueError, match="order 6 != 4"):
        tensor.scale(zeta(6))
    key = basis_keys(2, 2)[-1]
    assert FieldCharacterElement(2, 2, {key: zeta(4)}).terms == {key: zeta(4)}
    with pytest.raises(ValueError, match="order 8 != 4"):
        FieldCharacterElement(2, 2, {key: zeta(8)})
    halved = CharacterElement(2, 2, {key: 1}).scale(Fraction(1, 2))
    assert type(halved.terms[key]) is Fraction and halved.terms[key] == Fraction(1, 2)


@pytest.mark.parametrize(
    "mutate, n, m, lemma",
    [
        (_swapped_permute_character, 2, 3, "the composition law"),
        (_swapped_permute_character, 3, 3, "the composition law"),
        (_unmoved_characters, 2, 2, "conjugation"),
        (_flipped_fourier_sign, 3, 2, "the character action"),
        (_flipped_fourier_sign, 4, 3, "the character action"),
        (_one_lambda_off_by_a_root, 3, 2, "factorisation"),
        (_one_lambda_off_by_a_root, 2, 3, "factorisation"),
        (_one_lambda_off_by_a_root, 3, 1, "the one-slot idempotents"),
        (_repeated_lambda, 3, 1, "the one-slot idempotents"),
        (_repeated_lambda, 2, 3, "factorisation"),
        (_one_coefficient_doubled, 3, 2, "the coefficients of Lambda"),
        (_one_coefficient_doubled, 2, 1, "the coefficients of Lambda"),
    ],
)
def test_a_broken_model_fails_its_lemma(monkeypatch, mutate, n, m, lemma):
    mutate(monkeypatch)
    message = f"does not model the group algebra at \\(n={n}, m={m}\\): {lemma}:"
    with pytest.raises(CheckFailedError, match=message):
        check_model(n, m)
    with pytest.raises(CheckFailedError, match="does not model"):
        check_model_by_products(n, m)


@pytest.mark.parametrize(
    "n, m, text",
    [
        (3, 2, "Lambda_(1, 0) has CycNumber(6, '2/9') at twist index 0"),
        (2, 1, "Lambda_(1,) has CycNumber(4, '1') at twist index 0"),
    ],
)
def test_a_doubled_coefficient_is_named_by_its_repr(monkeypatch, n, m, text):
    # the failure prints the coefficient as the CycNumber it is
    _one_coefficient_doubled(monkeypatch)
    with pytest.raises(CheckFailedError) as failure:
        check_model(n, m)
    assert str(failure.value) == (
        f"the character basis does not model the group algebra at (n={n}, m={m}): "
        f"the coefficients of Lambda: {text}, not n^-m times a root of unity"
    )


@pytest.mark.parametrize("check, size", [("relations", 3), ("hopf", 6)])
def test_a_corrupted_table_fails_the_composition_law(monkeypatch, capsys, check, size):
    # mutation: the table of each permutation of order above 2 on size
    # slots, and no other, built from a slot map with two entries swapped.
    # check_model at (2, 3) builds a 3-cycle's table, and the Hopf report at
    # (2, 3) builds tables of the tensor model at (2, 6) that no model check
    # covers: each table is checked against its prefix as it is built
    real = character_model.permute_character

    def corrupted(lam, p):
        moved = list(real(lam, p))
        if len(p) == size and p * p != Perm.identity(size):
            moved[0], moved[1] = moved[1], moved[0]
        return tuple(moved)

    monkeypatch.setattr(character_model, "permute_character", corrupted)
    code = main(["verify", "--n", "2", "--m", "3", "--checks", check])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err == (
        f"the character basis does not model the group algebra at (n=2, m={size}): the composition law: "
        f"permute_character by {[1, 0, *range(2, size)]} then s_2 is not by their product\n"
    )


@pytest.mark.parametrize("mutate", [_swapped_permute_character, _flipped_fourier_sign])
def test_mutations_the_model_cannot_see_pass(monkeypatch, mutate):
    # at m = 2 every permutation is an involution, and at n = 2 -lam = lam
    mutate(monkeypatch)
    check_model(2, 2)
    check_model_by_products(2, 2)


def monomials(model):
    """Exponent tables, and root sums of tables on one permutation, which
    carry non_roots where a coefficient is off the roots of unity."""
    size = len(model.chars)
    entry = st.one_of(st.none(), st.integers(0, model.order - 1))
    exponents = st.lists(entry, min_size=size, max_size=size)
    root = st.integers(0, model.order - 1)

    def on(p):
        tables = st.builds(model.monomial, st.just(p), exponents)
        pairs = st.lists(st.tuples(root, tables), min_size=1, max_size=3)
        dens = st.integers(1, 3)
        sums = st.builds(lambda pairs, den: pairs[0][1].root_sum(pairs, den), pairs, dens)
        return st.one_of(tables, sums)

    return st.sampled_from(symmetric_group(model.m)).flatmap(on)


@pytest.mark.parametrize("n, m", [(1, 3), (3, 1), (2, 3), (3, 3), (4, 5)])
@settings(max_examples=5, deadline=None)
@given(rng=st.randoms(use_true_random=False))
def test_moved_is_the_index_of_each_moved_character(n, m, rng):
    # the tables are built in a shuffled order, so the check of each against
    # its prefix meets prefixes that are cached and prefixes that are not
    model = MonomialModel(n, m)
    shared = {}
    perms = symmetric_group(m)
    rng.shuffle(perms)
    for p in perms:
        act = model.moved(p)
        assert act == [twist_index(n, permute_character(lam, p)) for lam in model.chars]
        assert model.moved(p) is act
        # each index is one object, whichever permutation's map holds it
        assert all(shared.setdefault(b, b) is b for b in act)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(2, 2), (3, 2), (2, 3), (4, 2), (3, 1), (2, 4)]), st.data())
def test_monomial_tables_multiply_as_the_model(nm, data):
    model = MonomialModel(*nm)
    a, b = (data.draw(monomials(model)) for _ in range(2))
    if a.non_roots or b.non_roots:
        with pytest.raises(ValueError, match="no exponent to add"):
            a * b
    else:
        product_ = a * b
        assert exact(product_) == exact(a) * exact(b)
        assert product_ == a * b
    assert (a == b) == (exact(a) == exact(b))
    # the head of Phi(a - b), read from the tables, against the change of basis
    diff = to_group(exact(a) - exact(b)).terms
    if diff:
        head = min(diff)
        assert a.difference_head(b) == (head, diff[head].to_json())
    else:
        with pytest.raises(CheckFailedError, match="no group-basis coordinate"):
            a.difference_head(b)


@pytest.mark.parametrize("n, m", [(2, 2), (3, 2), (3, 3)])
def test_root_sums_of_tables_match_the_model(n, m):
    # the z_l^2 sum over x-monomial tables, and the same sum started at 1,
    # whose coefficients are off the roots of unity
    model = MonomialModel(n, m)
    for start in (0, 1):
        for l in range(1, m):
            before, after = (0,) * (l - 1), (0,) * (m - l - 1)
            pairs = [
                (-2 * i * j, model.x_monomial(before + (i, j) + after))
                for i in range(start, n)
                for j in range(start, n)
            ]
            table = pairs[0][1].root_sum(pairs, n)
            expected = root_sum(exact(pairs[0][1]), [(k, exact(x)) for k, x in pairs], n)
            assert exact(table) == expected
            assert bool(table.non_roots) == bool(start)


@pytest.mark.parametrize("n, m", [(2, 2), (3, 2), (4, 1)])
def test_root_sums_that_cancel_have_no_coefficient(n, m):
    # zeta^n = -1: x - x is 0 at every character, and x - 1 is 0 exactly
    # where x is 1; a zero coefficient is neither an entry nor off the roots
    model = MonomialModel(n, m)
    x, one = model.x_monomial((1,) + (0,) * (m - 1)), model.one()
    zero = x.root_sum([(0, x), (n, x)], 1)
    assert zero.is_zero() and not zero.non_roots
    pairs = [(0, x), (n, one)]
    table = x.root_sum(pairs, 1)
    assert exact(table) == root_sum(exact(x), [(k, exact(y)) for k, y in pairs], 1)
    cancelled = [a for a, e in enumerate(x.entries) if e == 0]
    assert cancelled
    assert all(table.entries[a] is None and a not in table.non_roots for a in cancelled)
