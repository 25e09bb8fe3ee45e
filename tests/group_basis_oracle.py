"""The group algebra and its group-basis classification, model check and
relation suite, and the echelon ranks, kept as the reference that the
package's versions are tested against.

SparseSum is the linear core of an element at (n, m): sum, difference,
negation, scaling, powers, equality and hashing of a sparse map from keys
to nonzero scalars, with add_into, the in-place accumulator.
CharacterElement subclasses it over the character basis F(lam, p) =
Lambda_lam p, with rational coefficients and the keyed product
F(lam, p) F(mu, q) = [mu = lam o p] F(lam, pq), character_product on
plain {(lam, p): c} maps.  With it, is_idempotent squares a map exactly on
integer numerators (integral): the reference for the idempotency that the
package reads per block shape from von Neumann's lemma
(character_model.symmetrizer_square).  rational turns the package's integer
form (terms, (num, den)) of a Young symmetrizer or a classification
idempotent into its map of Fractions, and integer_form turns such a map
back.  Each element type here and in tests/hopf_group_basis_oracle.py
subclasses SparseSum.

AlgebraElement is the group algebra of Z_n wr S_m over Q(zeta_2n): a
sparse map from dense group indices to CycNumbers, multiplied by rows of
the group's multiplication table (mul_row, row_product).  x_element,
x_monomial, lambda_idempotent, diagonal_element, y_element,
y_inverse_element, s_element and z_element are the distinguished elements
of the generalised Kac-Paljutkin structure, built in that basis; to_group
maps an element of the character basis there by the change of basis on
elements, character_combination, and idempotent_from_beta is a
classification idempotent's image.  exact is the element of an exponent
table (character_model.Monomial) with its coefficients in Q(zeta_2n):
to_group(exact(a) - exact(b)) is the reference for a.difference_head(b).
FieldCharacterElement is the character-basis element with coefficients
in Q(zeta_2n), which the rational CharacterElement does not take.
counit and quotient_to_sym are the counit and the projection onto Q[S_m]
on group-basis elements; root_sum, the sum over roots of unity of
relations.z_square_sum, serves every element type with a twist order n.

The idempotent of a labelled partition is the character idempotent of its
character vector times, for each block, the row-consecutive Young
symmetrizer embedded into the group algebra at the block's slots: a chain
of group-algebra products.  The dimension of a left ideal A e is the rank
of the |G| left translates g * e, and a sandwich dimension dim e A f the
rank of e times a basis of A f, all taken by one echelon, _echelon.  In the
character basis the same echelon ranks the m! nonzero left translates of
an element with one character (left_ideal_basis) and its sandwiches
(sandwich_rank_by_echelon): the reference for the trace ranks of
kacpal.character_model, which hold for idempotents only, where these hold
for any element.

check_model_by_products compares, under Phi, both products of every
generator with every basis element of the character basis, and
relation_suite_by_group_basis evaluates the relation families by group-basis
convolution; z_square_rhs is the group-basis value of z_l^2.

elements enumerates G, and conjugacy_class_count sweeps the classes by
conjugating by all of it, the reference for the generator-orbit sweep of
conjugacy.conjugacy_class_count.  standard_tableaux enumerates the standard
tableaux of a shape, the reference for the hook length formula, and
symmetrizer_by_brute_force finds the row and column groups of a shape's
row-consecutive filling among all of S_k, the reference for
partitions.young_symmetrizer.
"""

from fractions import Fraction
from functools import lru_cache, partial
from itertools import permutations, product
from math import factorial, lcm

from cyclotomic_oracle import CycNumber, _make, zeta_over, zeta_power
from kacpal.character_model import Monomial, MonomialModel, _generator_tables
from kacpal.classifier import LabelledPartition, character_idempotent, lambda_from_beta
from kacpal.partitions import Partition, young_symmetrizer
from kacpal import relations
from kacpal.relations import relation_families, relation_suite_report, z_square_sum
from kacpal.roots import lambda_coefficients
from kacpal.wreath import (
    CheckFailedError,
    Perm,
    WreathElement,
    check_cap,
    element_at,
    element_index,
    generator_b,
    group_order,
    perm_index,
    permute_character,
    power,
    twist_index,
)

ONE = Fraction(1)


def symmetric_group(m: int) -> list[Perm]:
    """All permutations of m points, in Lehmer-rank order."""
    return [Perm._make(images) for images in permutations(range(m))]


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
    """An immutable finitely supported sum at (n, m): terms maps keys to
    nonzero scalars, and two sums combine only when their (n, m) agree.

    A subclass defines _scalar(value), which coerces a scalar; _one(), its
    identity element; and __mul__, its product.  Its __init__ validates the
    terms into the dict it hands to SparseSum.__init__.
    """

    __slots__ = ("n", "m", "terms")

    def __init__(self, n: int, m: int, terms: dict):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "terms", terms)

    @classmethod
    def _make(cls, n: int, m: int, terms: dict):
        """An element from (n, m) and a terms dict, unchecked; the element
        takes ownership of the dict."""
        self = object.__new__(cls)
        SparseSum.__init__(self, n, m, terms)
        return self

    @classmethod
    def zero(cls, n: int, m: int):
        return cls._make(n, m, {})

    def _new(self, terms: dict):
        return self._make(self.n, self.m, terms)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other):
        if (self.n, self.m) != (other.n, other.m):
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
            and (self.n, self.m) == (other.n, other.m)
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.n, self.m, frozenset(self.terms.items())))


class CharacterElement(SparseSum):
    """A sparse element over the basis F(lam, p), keyed by (lam, p): lam a
    tuple in Z_n^m and p a permutation of m points: a Perm, or its one-line
    tuple, which is the same key because a Perm is that tuple.

    Coefficients are Fractions, as those of the classification idempotents
    and the Young symmetrizers of Q[S_k] are; FieldCharacterElement takes
    coefficients in Q(zeta_2n).  Its product is character_product on the
    terms maps.
    """

    __slots__ = ()

    def __init__(self, n: int, m: int, terms=None):
        clean: dict = {}
        super().__init__(n, m, clean)  # _scalar reads n
        for (lam, p), coeff in (terms or {}).items():
            lam, p = tuple(lam), Perm(p)
            if len(lam) != m or any(not 0 <= v < n for v in lam):
                raise ValueError(f"character {lam} not in Z_{n}^{m}")
            if p.m != m:
                raise ValueError(f"{tuple(p)} is not a permutation of {m} slots")
            coeff = self._scalar(coeff)
            if coeff:
                clean[lam, p] = coeff

    def _scalar(self, value) -> Fraction:
        """value as a Fraction.  A float raises TypeError: its binary value
        (0.1 reads as 3602879701896397/36028797018963968) is seldom the
        number meant."""
        if isinstance(value, float):
            raise TypeError(f"a float ({value!r}) cannot enter exact arithmetic: use an int or a Fraction")
        return Fraction(value)

    def _one(self) -> "CharacterElement":
        return CharacterElement.one(self.n, self.m)

    def __mul__(self, other):
        self._check(other)
        return self._new(character_product(self.terms, other.terms))

    @classmethod
    def one(cls, n: int, m: int) -> "CharacterElement":
        """The identity: the sum of all F(lam, 1)."""
        ident = tuple(range(m))
        return cls._make(n, m, {(lam, ident): ONE for lam in product(range(n), repeat=m)})


def character_product(x: dict, y: dict) -> dict:
    """The product of two elements of the character basis, given as maps
    {(lam, p): c} of nonzero coefficients: lam a character in Z_n^m and p a
    permutation of m points, a Perm or its one-line tuple.

    With p x^t p^(-1) = x^(t o p^(-1)) a permutation moves a character
    idempotent as p Lambda_mu = Lambda_(mu o p^(-1)) p, so

        F(lam, p) F(mu, q) = [mu = lam o p] F(lam, pq),

    the crossed-product form of C[Z_n^m] x| S_m (Serre, Linear
    Representations of Finite Groups, 8.2).  Each left key meets only the
    right terms on its partner character, found by lookup; coefficients
    that cancel are dropped.
    """
    by_character: dict = {}
    for (mu, q), b in y.items():
        by_character.setdefault(mu, []).append((q, b))
    acc: dict = {}
    for (lam, p), a in x.items():
        # lam = mu o p^(-1) exactly when mu = lam o p
        for q, b in by_character.get(permute_character(lam, p), ()):
            key = (lam, tuple([p[j] for j in q]))
            c = a * b
            cur = acc.get(key)
            acc[key] = c if cur is None else cur + c
    return {k: v for k, v in acc.items() if v}


def integral(terms: dict) -> dict:
    """The vector times the lcm of its coefficient denominators: integer
    coordinates on the same line, whose products need no Fraction arithmetic."""
    den = lcm(*(c.denominator for c in terms.values()))
    return {key: c.numerator * (den // c.denominator) for key, c in terms.items()}


def is_idempotent(e: dict) -> bool:
    """Whether e * e == e for a map e = {(lam, p): c} of rationals, decided
    on integer numerators: x = D e is integral for D the lcm of e's
    denominators, and e * e == e exactly when x x = D x."""
    den = lcm(*(c.denominator for c in e.values()))
    x = integral(e)
    return character_product(x, x) == {key: den * c for key, c in x.items()}


def rational(form: tuple) -> dict:
    """The map {key: c num / den} of Fractions of an integer form
    (terms, (num, den))."""
    terms, (num, den) = form
    return {key: Fraction(c * num, den) for key, c in terms.items()}


def integer_form(terms: dict) -> tuple:
    """A map of rationals in integer form: its integral terms over (1, D),
    D the lcm of its denominators."""
    return integral(terms), (1, lcm(*(Fraction(c).denominator for c in terms.values())))


@lru_cache(maxsize=None)
def mul_row(n: int, m: int, i: int) -> tuple[int, ...]:
    """Row i of the multiplication table: indices of element_i * element_j.
    (s, p)(t, q) has the twists of (s, p)(t, 1) and the permutation pq."""
    left, size = element_at(n, m, i), n**m
    twists = [twist_index(n, (left * element_at(n, m, t)).twists) for t in range(size)]
    perms = (perm_index(left.perm * Perm.from_lehmer(m, r)) * size for r in range(factorial(m)))
    return tuple(base + t for base in perms for t in twists)


def row_product(a, b):
    """a * b for sums over group keys whose type maps a left key to the row
    of its products, _row(key): a callable from a right key k to the key of
    key * k."""
    a._check(b)
    right = b.terms
    acc: dict = {}
    if right:  # a zero right factor must not build any product rows
        for i, x in a.terms.items():
            row = a._row(i)
            for j, y in right.items():
                k = row(j)
                c = x * y
                cur = acc.get(k)
                acc[k] = c if cur is None else cur + c
    return a._new({k: v for k, v in acc.items() if v})


def root_sum(like, pairs, den: int):
    """(1/den) sum of zeta^k x over the (k, x) pairs, x of like's type and
    zeta of order 2n; like gives only the type and its parameters, of which
    n sets the field."""
    order = 2 * like.n
    acc: dict = {}
    for k, x in pairs:
        add_into(acc, x.terms, zeta_over(order, k, den))
    return like._new(acc)


class FieldCharacterElement(CharacterElement):
    """A character-basis element with coefficients in Q(zeta_2n):
    CharacterElement takes rationals only."""

    __slots__ = ()

    def _scalar(self, value):
        """value in Q(zeta_2n): a CycNumber of order 2n, or a rational as a Fraction."""
        if isinstance(value, CycNumber):
            if value.order != 2 * self.n:
                raise ValueError(f"coefficient order {value.order} != {2 * self.n}")
            return value
        return super()._scalar(value)


class AlgebraElement(SparseSum):
    """A sparse element of the group algebra over Q(zeta_2n)."""

    __slots__ = ()

    def __init__(self, n: int, m: int, terms=None):
        order = group_order(n, m)
        clean: dict[int, CycNumber] = {}
        super().__init__(n, m, clean)  # _scalar reads n
        for index, coeff in (terms or {}).items():
            if not 0 <= index < order:
                raise ValueError(f"group index {index} out of range for (n={n}, m={m})")
            coeff = self._scalar(coeff)
            if coeff:
                clean[index] = coeff

    __mul__ = row_product
    root_sum = root_sum

    def _scalar(self, value) -> CycNumber:
        """value in Q(zeta_2n): a CycNumber of order 2n, or a rational."""
        if isinstance(value, CycNumber):
            if value.order != 2 * self.n:
                raise ValueError(f"coefficient order {value.order} != {2 * self.n}")
            return value
        return CycNumber.from_rational(2 * self.n, value)

    def _one(self) -> "AlgebraElement":
        return AlgebraElement.one(self.n, self.m)

    def _row(self, index: int):
        return mul_row(self.n, self.m, index).__getitem__

    def difference_head(self, other: "AlgebraElement") -> tuple[int, dict]:
        """The least index of self - other and its coefficient's JSON."""
        diff = (self - other).terms
        head = min(diff)
        return head, diff[head].to_json()

    @classmethod
    def one(cls, n: int, m: int) -> "AlgebraElement":
        return cls._make(n, m, {0: CycNumber.one(2 * n)})

    @classmethod
    def basis(cls, element: WreathElement) -> "AlgebraElement":
        return cls._make(
            element.n, element.m, {element_index(element): CycNumber.one(2 * element.n)}
        )

    def __repr__(self):
        head = ", ".join(f"{ix}: {c!r}" for ix, c in sorted(self.terms.items())[:4])
        more = "" if len(self.terms) <= 4 else f", ... ({len(self.terms)} terms)"
        return f"AlgebraElement(n={self.n}, m={self.m}, {{{head}{more}}})"

    def to_json(self) -> dict:
        terms = [{"index": ix, "coeff": c.to_json()} for ix, c in sorted(self.terms.items())]
        return {"n": self.n, "m": self.m, "terms": terms}

    @classmethod
    def from_json(cls, data: dict) -> "AlgebraElement":
        terms = {item["index"]: CycNumber.from_json(item["coeff"]) for item in data["terms"]}
        return cls(data["n"], data["m"], terms)


def character_combination(n: int, m: int, terms: dict, columns: dict) -> dict:
    """Phi on coordinates: the group-basis terms {index: c'} of the sum of
    c F(lam, p) = c Lambda_lam p over the terms {(lam, p): c}.

    Lambda_lam p = n^(-m) sum_t zeta^(2 lam . t) (t, p), and the index of
    (t, p) is perm_index(p) n^m + t, so c Lambda_lam p is c times the pairs
    of roots.lambda_coefficients shifted by perm_index(p) n^m.  columns
    caches c Lambda_lam per (lam, c), so terms sharing a character and a
    coefficient share their multiplications.
    """
    order, size = 2 * n, n**m
    acc: dict = {}
    for (lam, p), c in terms.items():
        col = columns.get((lam, c))
        if col is None:
            col = columns[lam, c] = {
                t: _make(order, *pair) * c
                for t, pair in enumerate(lambda_coefficients(n, m, lam))
            }
        base = perm_index(p) * size
        shifted = {base + t: z for t, z in col.items()}
        acc = add_into(acc, shifted) if acc else shifted
    return acc


def exact(table: Monomial) -> CharacterElement:
    """The element of an exponent table, with its coefficients in Q(zeta_2n)."""
    model, p = table.model, table.perm
    order = model.order
    terms = {
        (model.chars[a], p): zeta_power(order, e)
        for a, e in enumerate(table.entries)
        if e is not None
    }
    terms.update({(model.chars[a], p): _make(order, *c) for a, c in table.non_roots.items()})
    return CharacterElement._make(model.n, model.m, terms)


def to_group(x: CharacterElement) -> AlgebraElement:
    """The group-basis image Phi(x), with no group-algebra product."""
    return terms_to_group(x.n, x.m, x.terms)


def terms_to_group(n: int, m: int, terms: dict) -> AlgebraElement:
    """Phi of a character-basis map {(lam, p): c} at (n, m), the form in
    which the package holds a classification idempotent."""
    return AlgebraElement._make(n, m, character_combination(n, m, terms, {}))


def idempotent_from_beta(beta: LabelledPartition) -> AlgebraElement:
    """The classification idempotent in the group basis: the character
    idempotent times the embedded row-consecutive Young symmetrizers of the
    blocks, mapped by Phi."""
    return terms_to_group(beta.n, beta.m, rational(character_idempotent(beta)))


def x_element(n: int, m: int, i: int) -> AlgebraElement:
    """The twist generator at slot i (1-based) as a basis element."""
    if not 1 <= i <= m:
        raise ValueError(f"x index {i} out of range 1..{m}")
    return x_monomial(n, m, tuple(1 if j == i - 1 else 0 for j in range(m)))


def x_monomial(n: int, m: int, exponents) -> AlgebraElement:
    """The product of x generators with the given exponent vector."""
    exponents = tuple(e % n for e in exponents)
    if len(exponents) != m:
        raise ValueError("exponent vector length must be m")
    # x-monomials carry the identity permutation, whose Lehmer rank is 0,
    # so their index is just the mixed-radix twist value.
    return AlgebraElement._make(n, m, {twist_index(n, exponents): CycNumber.one(2 * n)})


@lru_cache(maxsize=None)
def lambda_idempotent(n: int, m: int, lam: tuple[int, ...]) -> AlgebraElement:
    """The character idempotent of the abelian subalgebra for character lam.

    Averages all x-monomials against the character q^(lam . i); the family
    over all lam forms a complete set of orthogonal idempotents.  Each
    coefficient is zeta^(2 lam . i) over the common denominator n^m, the
    pairs of roots.lambda_coefficients; an x-monomial's index is its twist
    index.
    """
    if len(lam) != m or any(not 0 <= v < n for v in lam):
        raise ValueError(f"character {lam} not in Z_{n}^{m}")
    order, pairs = 2 * n, lambda_coefficients(n, m, lam)
    return AlgebraElement._make(n, m, {t: _make(order, *pair) for t, pair in enumerate(pairs)})


def diagonal_element(n: int, m: int, exponent) -> AlgebraElement:
    """sum_lam zeta^exponent(lam) Lambda_lam, by the change of basis."""
    ident = tuple(range(m))
    terms = {
        (lam, ident): zeta_power(2 * n, exponent(lam)) for lam in product(range(n), repeat=m)
    }
    return AlgebraElement._make(n, m, character_combination(n, m, terms, {}))


def _y_power(n: int, m: int, l: int, sign: int) -> AlgebraElement:
    # the relation table defines y_l by its eigenvalues, looked up at call
    # time, so a test that replaces y_exponent reaches these elements too
    if not 1 <= l <= m - 1:
        raise ValueError(f"index {l} out of range 1..{m - 1}")
    return diagonal_element(n, m, lambda lam: sign * relations.y_exponent(lam, l))


@lru_cache(maxsize=None)
def y_element(n: int, m: int, l: int) -> AlgebraElement:
    """The unit of order 2n acting on the character idempotents by
    zeta^(-lam_l * lam_{l+1})."""
    return _y_power(n, m, l, 1)


@lru_cache(maxsize=None)
def y_inverse_element(n: int, m: int, l: int) -> AlgebraElement:
    """Inverse of y_element, by inverting each diagonal eigenvalue."""
    return _y_power(n, m, l, -1)


@lru_cache(maxsize=None)
def s_element(n: int, m: int, l: int) -> AlgebraElement:
    """The transposition generator as a group basis element."""
    return AlgebraElement.basis(generator_b(n, m, l))


@lru_cache(maxsize=None)
def z_element(n: int, m: int, l: int) -> AlgebraElement:
    """The square-root generator, reconstructed as y_l^(-1) s_l."""
    return y_inverse_element(n, m, l) * s_element(n, m, l)


def counit(a: AlgebraElement) -> CycNumber:
    """The counit: one on every group basis element, extended linearly."""
    return sum(a.terms.values(), CycNumber.zero(2 * a.n))


def quotient_to_sym(a: AlgebraElement) -> CharacterElement:
    """Project onto the symmetric group algebra Q[S_m] by forgetting twists.

    Q[S_m] is the character model at (1, m), whose key ((0,)*m, p) is the
    permutation p.  The projection kills x_i - 1, so every x-monomial maps to
    the identity permutation.  Raises ValueError if a projected coefficient
    is not rational (the model at n = 1 has rational coefficients only).
    """
    acc: dict = {}
    for ix, c in a.terms.items():
        add_into(acc, {element_at(a.n, a.m, ix).perm: c})
    trivial = (0,) * a.m
    return CharacterElement(1, a.m, {(trivial, perm): c.rational() for perm, c in acc.items()})


@lru_cache(maxsize=None)
def elements(n: int, m: int) -> tuple[WreathElement, ...]:
    """All group elements in index order (index 0 is the identity)."""
    return tuple(element_at(n, m, ix) for ix in range(group_order(n, m)))


def conjugacy_class_count(n: int, m: int) -> int:
    """Number of conjugacy classes, by conjugating a representative of each
    class by every element of G."""
    elems = elements(n, m)
    pairs = [(g, g.inverse()) for g in elems]
    visited = bytearray(len(elems))
    count = 0
    for rep_ix, rep in enumerate(elems):
        if visited[rep_ix]:
            continue
        count += 1
        for g, g_inv in pairs:
            visited[element_index(g * rep * g_inv)] = 1
    return count


def iota_embed(beta: LabelledPartition, label: int, s: CharacterElement) -> AlgebraElement:
    """Embed an element of Q[S_k], the character model at (1, k) keyed
    ((0,)*k, p), over the label's block slots into the group algebra.

    Permutations act on the contiguous slot range of the block (offset by
    the sizes of the earlier blocks); twists stay zero.
    """
    sizes = [block.size for block in beta.blocks]
    if not 0 <= label < beta.n:
        raise ValueError(f"label {label} out of range")
    size = sizes[label]
    if (s.n, s.m) != (1, size):
        raise ValueError(f"element of the model at ({s.n}, {s.m}) does not fit block of size {size}")
    offset = sum(sizes[:label])
    n, m = beta.n, beta.m
    terms = {}
    for (_, perm), coeff in s.terms.items():
        images = list(range(m))
        for a in range(size):
            images[offset + a] = offset + perm[a]
        index = element_index(WreathElement(n, (0,) * m, Perm(images)))
        terms[index] = CycNumber.from_rational(2 * n, coeff)
    return AlgebraElement(n, m, terms)


def idempotent_by_products(beta: LabelledPartition, labels=None) -> AlgebraElement:
    """lambda_idempotent times the embedded symmetrizers, multiplied in the
    group algebra in the given label order (ascending by default)."""
    result = lambda_idempotent(beta.n, beta.m, lambda_from_beta(beta))
    for label in range(beta.n) if labels is None else labels:
        block = beta.blocks[label]
        if block.size:
            symmetrizer = rational(young_symmetrizer(block))
            result = result * iota_embed(beta, label, CharacterElement(1, block.size, symmetrizer))
    return result


def standard_tableaux(mu: Partition) -> list[tuple]:
    """Brute-force enumeration of all standard tableaux of the shape, each
    the tuple of its rows: the reference for the hook length formula."""
    k = mu.size
    results: list[tuple] = []
    counts = [0] * len(mu)
    cells: list[list[int]] = [[] for _ in mu]

    def place(value: int):
        if value > k:
            results.append(tuple(map(tuple, cells)))
            return
        for r in range(len(mu)):
            if counts[r] < mu[r] and (r == 0 or counts[r - 1] > counts[r]):
                cells[r].append(value)
                counts[r] += 1
                place(value + 1)
                counts[r] -= 1
                cells[r].pop()

    if k == 0:
        return [()]
    place(1)
    return results


def symmetrizer_by_brute_force(mu: Partition) -> dict:
    """The normalised Young symmetrizer h v f^mu / k! of the shape's
    row-consecutive filling, as CharacterElement terms at (1, k): R and C
    are the permutations in symmetric_group(k) that map each row, or each
    column, of the filling 0..k-1 to itself, found by testing all of them,
    and f^mu counts the brute-force standard tableaux."""
    k = mu.size
    rows, start = [], 0
    for part in mu:
        rows.append(set(range(start, start + part)))
        start += part
    columns = [{min(row) + c for row in rows if c < len(row)} for c in range(len(rows[0]))]

    def keeping(blocks):
        return [p for p in symmetric_group(k) if all({p[i] for i in b} == b for b in blocks)]

    trivial = (0,) * k
    h = CharacterElement(1, k, {(trivial, p): 1 for p in keeping(rows)})
    v = CharacterElement(1, k, {(trivial, p): p.sign() for p in keeping(columns)})
    return (h * v).scale(Fraction(len(standard_tableaux(mu)), factorial(k))).terms


def _echelon(vectors) -> list[dict]:
    """Normalised pivot rows spanning an iterable of sparse {position: scalar}
    vectors.

    The scalars are ints, Fractions or CycNumbers (the rows come out as
    Fractions or CycNumbers); positions need only be hashable and mutually
    ordered.  Incremental echelon: each new vector is reduced
    against the pivots in insertion order (each pivot row is already clean at
    all earlier pivot positions), then normalised on its first nonzero
    position.
    """
    pivots: list[tuple] = []
    for vec in vectors:
        vec = {p: c for p, c in vec.items() if c}
        for pos, row in pivots:
            c = vec.get(pos)
            if c is None:
                continue
            for p2, r2 in row.items():
                cur = vec.get(p2)
                s = -(c * r2) if cur is None else cur - c * r2
                if s:
                    vec[p2] = s
                else:
                    vec.pop(p2, None)
        if not vec:
            continue
        lead = min(vec)
        inv = ONE / vec[lead]
        pivots.append((lead, {p: c * inv for p, c in vec.items()}))
    return [row for _, row in pivots]


def _sparse_rank(vectors) -> int:
    """Rank of an iterable of sparse {position: scalar} vectors."""
    return len(_echelon(vectors))


def left_translates(x: CharacterElement):
    """The nonzero left translates F(mu, q) x, which span the left ideal A x.

    F(mu, q) F(lam, s) is nonzero only when mu = lam o q^(-1), so each q
    gives one translate per character in the support of x: m! vectors for a
    classification idempotent, against |G| in the group basis.
    """
    n, m = x.n, x.m
    chars = dict.fromkeys(lam for lam, _ in x.terms)
    for q in symmetric_group(m):
        q_inv = q.inverse()
        for lam in chars:
            translate = CharacterElement._make(n, m, {(permute_character(lam, q_inv), q): ONE})
            yield (translate * x).terms


def left_ideal_basis(x: CharacterElement) -> list[dict]:
    """Echelon rows spanning the left ideal A x; its dimension is their number."""
    return _echelon(left_translates(x))


def sandwich_rank_by_echelon(e: CharacterElement, basis: list[dict]) -> int:
    """The rank of {e v : v in basis}; when basis spans the left ideal A f
    this is dim e A f, the sandwich dimension.

    Scaling a vector leaves a rank unchanged, so e and the rows are taken
    with integer coordinates and their products run on ints.
    """
    n, m = e.n, e.m
    left = CharacterElement._make(n, m, integral(e.terms))
    return _sparse_rank(
        (left * CharacterElement._make(n, m, integral(row))).terms for row in basis
    )


def basis_element(n: int, m: int, index: int) -> AlgebraElement:
    return AlgebraElement._make(n, m, {index: CycNumber.one(2 * n)})


def _left_translates(e: AlgebraElement, cap: int | None = None):
    """The vectors g * e for g in G; the cap is checked before the first one."""
    n, m = e.n, e.m
    order = check_cap(n, m, "rank-check", cap)
    rows = (mul_row(n, m, g) for g in range(order))
    return ({row[h]: c for h, c in e.terms.items()} for row in rows)


def left_ideal_dimension(e: AlgebraElement, cap: int | None = None) -> int:
    """Dimension of the left ideal generated by e: rank of {g * e : g in G}."""
    return _sparse_rank(_left_translates(e, cap))


def sandwich_dimension(e: AlgebraElement, f: AlgebraElement, cap: int | None = None) -> int:
    """Rank of the span of {e * g * f : g in G}.

    Since A f = span{g * f}, this is the rank of {e * v} over a basis v of
    A f, which needs dim(A f) products instead of |G| columns.  For
    idempotents of a split semisimple algebra it is 1 exactly when e is
    primitive and f generates an isomorphic simple module, and 0 exactly
    when the modules are non-isomorphic.
    """
    e._check(f)
    basis = _echelon(_left_translates(f, cap))
    return _sparse_rank((e * AlgebraElement._make(e.n, e.m, row)).terms for row in basis)


def check_model_by_products(n: int, m: int) -> None:
    """Check that Phi intertwines the group's generators with the model, on
    every basis element F; CheckFailedError names the first failure.

    For each generator g with preimage g~ it checks Phi(g~) = g, then
    g Phi(F) = Phi(g~ F) and Phi(F) g = Phi(F g~), with the products on the
    right taken by the model's own rule and those on the left by the group's
    product of elements.  On the left these read x_i Phi(F(lam, p)) =
    zeta^(-2 lam_i) Phi(F(lam, p)) and s_l Phi(F(lam, p)) =
    Phi(F(lam o s_l, s_l p)).  The right products put every p on the left of
    the rule, where its inverse matters (a 3-cycle is not an involution).
    The cost is about 4m |G| n^m coefficient comparisons.
    """
    columns: dict = {}
    elems = elements(n, m)
    gens = []
    for name, g, table in _generator_tables(MonomialModel(n, m)):
        image = exact(table)
        if character_combination(n, m, image.terms, columns) != AlgebraElement.basis(g).terms:
            raise CheckFailedError(
                f"the character basis does not model the group algebra at (n={n}, m={m}): "
                f"Phi maps the image of {name} elsewhere"
            )
        left = [element_index(g * h) for h in elems]
        right = [element_index(h * g) for h in elems]
        gens.append((name, image, left, right))
    for lam in product(range(n), repeat=m):
        for p in symmetric_group(m):
            f = CharacterElement._make(n, m, {(lam, p): 1})
            phi = character_combination(n, m, f.terms, columns)
            for name, image, left, right in gens:
                for side, moved, model in (("left", left, image * f), ("right", right, f * image)):
                    phi_model = character_combination(n, m, model.terms, columns)
                    if phi_model != {moved[h]: c for h, c in phi.items()}:
                        raise CheckFailedError(
                            f"the character basis does not model the group algebra at "
                            f"(n={n}, m={m}): the {side} product of {name} and "
                            f"F({lam}, {list(p)}) differs under Phi"
                        )


def z_square_rhs(n: int, m: int, l: int) -> AlgebraElement:
    """(1/n) sum over i,j in 0..n-1 of q^(-ij) x_l^i x_{l+1}^j.

    The exact value of z_l^2; the sum starts at zero, which is the only
    range consistent with z_l^2 = y_l^(-2).
    """
    return z_square_sum(n, m, l, partial(x_monomial, n, m))


def relation_suite_by_group_basis(n: int, m: int, cap: int | None = None) -> dict:
    """verify_defining_relations' report, with every relation family
    evaluated on group-basis elements by convolution and the order of y_l
    found by repeated products."""
    if n < 2:
        raise ValueError(f"the relation suite needs n >= 2, got n={n}: at n = 1 every y_l is 1")
    check_cap(n, m, "relation-suite", cap)
    one = AlgebraElement.one(n, m)
    ys = {l: y_element(n, m, l) for l in range(1, m)}
    families = relation_families(
        n,
        m,
        partial(x_monomial, n, m),
        ys,
        {l: y_inverse_element(n, m, l) for l in ys},
        {l: s_element(n, m, l) for l in ys},
        partial(lambda_idempotent, n, m),
    )

    def y_order(l):
        power = one
        for k in range(1, 2 * n + 1):
            power = power * ys[l]
            if power == one:
                return k
        return None

    return relation_suite_report(n, m, families, y_order)
