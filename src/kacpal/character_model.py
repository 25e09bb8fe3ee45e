"""The exponent-table model of the character basis, its model check, and
the ranks taken in it.

The tensor square of the algebra at (n, m) is modelled by the elements of
kacpal.character_basis at (n, 2m), keyed by tensor_key.  check_model
verifies at a given (n, m), from the lemmas behind the product rule, that
the change of basis Phi carries the model's product to the group's before
any check relies on the model.

An element with one permutation p whose coefficients are 2n-th roots of
unity or zero, sum_lam zeta^e(lam) F(lam, p), is monomial: the generators
x_i and s_l, the units y_l and z_l and each Lambda_lam = F(lam, 1) are.
Monomial stores it as an exponent table, and two tables multiply by adding
integers along permute_character; MonomialModel holds the character
arithmetic of one (n, m).  The relation suite and the Hopf report evaluate
their defining formulas on these tables, at (n, m) and, for the tensor
square, at (n, 2m), so no element is changed to this basis from the group
basis.

left_ideal_basis and sandwich_rank take the classification table's ranks
in the character basis, where a classification idempotent has rational
coordinates and m! nonzero left translates.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import lcm

from . import algebra
from .algebra import AlgebraElement
from .character_basis import ONE, CharacterElement, permute_character, symmetric_group
from .cyclotomic import CycNumber, _x_power, root_count_sum, zeta_power
from .sparse import power
from .wreath import (
    CheckFailedError,
    Perm,
    WreathElement,
    generator_a,
    generator_b,
    twist_index,
)


def tensor_key(left: tuple, right: tuple) -> tuple:
    """The key of F(lam, p) (x) F(nu, q) in the model at (n, 2m).

    The tensor square of the algebra at (n, m) is that of G x G, the subgroup
    of the group at (n, 2m) whose permutations keep each half of the slots,
    so F(lam, p) (x) F(nu, q) is F(lam nu, p (+) q), with q moved to the
    slots m..2m-1; the model's product on these keys is that of each leg.
    """
    (lam, p), (nu, q) = left, right
    m = len(p)
    return (*lam, *nu), (*p, *[m + j for j in q])


@lru_cache(maxsize=None)
def characters(n: int, m: int) -> tuple:
    """The characters of Z_n^m in twist-index order: entry k has twist_index k,
    so slot 0 varies fastest."""
    return tuple(t[::-1] for t in product(range(n), repeat=m))


def _echelon(vectors) -> list[dict]:
    """Normalised pivot rows spanning an iterable of sparse {position: scalar}
    vectors; the only elimination loop in the package.

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


def sandwich_rank(e: CharacterElement, basis: list[dict]) -> int:
    """The rank of {e v : v in basis}; when basis spans the left ideal A f
    this is dim e A f, the sandwich dimension.

    Scaling a vector leaves a rank unchanged, so e and the rows are taken
    with integer coordinates and their products run on ints.
    """
    n, m = e.n, e.m
    left = CharacterElement._make(n, m, integral(e.terms))
    vectors = ((left * CharacterElement._make(n, m, integral(row))).terms for row in basis)
    # Looked up on the algebra module at call time, so that a wrapper put there
    # (the benchmark's tracer counts rank vectors) sees these ranks too.
    return algebra._sparse_rank(vectors)


def integral(terms: dict) -> dict:
    """The vector times the lcm of its coefficient denominators: integer
    coordinates on the same line, whose products need no Fraction arithmetic."""
    den = lcm(*(c.denominator for c in terms.values()))
    return {key: c.numerator * (den // c.denominator) for key, c in terms.items()}


@lru_cache(maxsize=None)
def _roots(order: int) -> dict:
    """The numerators of zeta^k -> k for the roots of unity of Q(zeta_order)."""
    return {_x_power(order, k): k for k in range(order)}


def root_exponent(c: CycNumber, den: int = 1) -> int | None:
    """k with c = zeta^k / den, or None when c is not of that form.

    A root of unity is a unit of the integers of Q(zeta), so its numerators
    share no factor and zeta^k / den in lowest terms has denominator den.
    """
    return _roots(c.order).get(c.num) if c.den == den else None


class MonomialModel:
    """The character arithmetic of the model at one (n, m), for Monomial
    tables: the characters in twist-index order, and the action of each
    permutation that a product has met on their indices."""

    def __init__(self, n: int, m: int):
        self.n, self.m, self.order = n, m, 2 * n
        self.chars = characters(n, m)
        self._indices = list(range(len(self.chars)))
        self._moved: dict = {}

    def moved(self, p) -> list[int]:
        """Entry a is the index of chars[a] o p: F(chars[a], p) F(mu, q) is
        nonzero only for that mu.

        The index of a character is linear in its entries, and
        permute_character moves entries between slots: chars[a] o p has
        the index sum_i chars[a][i] n^j over the slots j that the entry of
        slot i moves to, read off permute_character of the slot labels.
        The table is built slot by slot in twist-index order, as
        x_monomial builds its exponents, and holds the model's own index
        objects, so that no map holds an int of its own.
        """
        act = self._moved.get(p)
        if act is None:
            n, m = self.n, self.m
            weights = [0] * m
            for j, i in enumerate(permute_character(tuple(range(m)), p)):
                weights[i] = n**j
            act = [0]
            for w in weights:
                act = [a + d * w for d in range(n) for a in act]
            indices = self._indices
            act = self._moved[p] = [indices[a] for a in act]
        return act

    def monomial(self, p, exponents=None) -> "Monomial":
        """sum_lam zeta^e F(lam, p) over exponents e by character (None for a
        zero coefficient); all exponents 0 by default."""
        if exponents is None:
            exponents = [0] * len(self.chars)
        order = self.order
        entries = tuple(None if e is None else e % order for e in exponents)
        return Monomial(self, Perm(p), entries, {})

    def diagonal(self, exponents) -> "Monomial":
        return self.monomial(range(self.m), exponents)

    def one(self) -> "Monomial":
        return self.diagonal(None)

    def x_monomial(self, t) -> "Monomial":
        """x^t = sum_lam zeta^(-2 lam . t) F(lam, 1), its table built slot by
        slot in twist-index order."""
        exponents = [0]
        for v in t:
            if v:
                exponents = [e - 2 * v * a for a in range(self.n) for e in exponents]
            else:
                exponents *= self.n
        return self.diagonal(exponents)

    def idempotent(self, lam) -> "Monomial":
        """Lambda_lam = F(lam, 1)."""
        exponents = [None] * len(self.chars)
        exponents[twist_index(self.n, lam)] = 0
        return self.diagonal(exponents)


class Monomial:
    """sum_lam c_lam F(lam, p) at one (n, m), as an exponent table: entry a
    is e with c_lam = zeta^e for lam = chars[a], or None for c_lam = 0.

    non_roots holds, by character index, the coefficients that are neither,
    exactly; only root_sum makes them, so a relation whose side has one
    fails, and no product takes them.
    """

    __slots__ = ("model", "perm", "entries", "non_roots")

    def __init__(self, model: MonomialModel, perm: Perm, entries: tuple, non_roots: dict):
        self.model, self.perm, self.entries, self.non_roots = model, perm, entries, non_roots

    def is_zero(self) -> bool:
        return not self.non_roots and all(e is None for e in self.entries)

    def __eq__(self, other):
        if not isinstance(other, Monomial):
            return NotImplemented
        model, theirs = self.model, other.model
        return (
            (model.n, model.m) == (theirs.n, theirs.m)
            and self.entries == other.entries
            and self.non_roots == other.non_roots
            and (self.perm == other.perm or self.is_zero())
        )

    def __mul__(self, other: "Monomial") -> "Monomial":
        # F(lam, p) F(mu, q) = [mu = lam o p] F(lam, pq)
        if self.non_roots or other.non_roots:
            raise ValueError("a coefficient off the roots of unity has no exponent to add")
        order, right = self.model.order, other.entries
        entries = tuple(
            None if e is None or (f := right[b]) is None else (e + f) % order
            for e, b in zip(self.entries, self.model.moved(self.perm))
        )
        return Monomial(self.model, self.perm * other.perm, entries, {})

    def __pow__(self, exponent: int) -> "Monomial":
        return power(self, exponent, self.model.one)

    def root_sum(self, pairs, den: int) -> "Monomial":
        """(1/den) sum of zeta^k x over the (k, x) pairs, tables on one
        permutation: each character counts its exponents with integers, and
        each distinct count is reduced once."""
        model, perm = self.model, self.perm
        order = model.order
        counts = [[0] * order for _ in model.chars]
        for k, x in pairs:
            if x.perm != perm or x.non_roots:
                raise ValueError("a root sum takes exponent tables on one permutation")
            for row, e in zip(counts, x.entries):
                if e is not None:
                    row[(k + e) % order] += 1
        entries, non_roots = [], {}
        for a, row in enumerate(counts):
            value = root_count_sum(order, tuple(row), den)
            e = root_exponent(value)
            if e is None and value:
                non_roots[a] = value
            entries.append(e)
        return Monomial(model, perm, tuple(entries), non_roots)

    def exact(self) -> CharacterElement:
        """The element with its coefficients in Q(zeta_2n)."""
        model, p = self.model, self.perm
        terms = {
            (model.chars[a], p): zeta_power(model.order, e)
            for a, e in enumerate(self.entries)
            if e is not None
        }
        terms.update({(model.chars[a], p): c for a, c in self.non_roots.items()})
        return CharacterElement._make(model.n, model.m, terms)

    def __sub__(self, other: "Monomial") -> AlgebraElement:
        """The difference in the group basis, for a relation's report: both
        sides rebuilt exactly and their difference mapped through Phi."""
        return (self.exact() - other.exact()).to_group()


def _generator_tables(model: MonomialModel) -> list[tuple]:
    """(name, g, g~) for each generator g of the group, with g~ = Phi^(-1)(g):
    x_i = sum_lam zeta^(-2 lam_i) F(lam, 1) and s_l = sum_lam F(lam, s_l)."""
    n, m = model.n, model.m
    images = []
    for i in range(1, m + 1):
        g = generator_a(n, m, i)
        images.append((f"x_{i}", g, model.x_monomial(g.twists)))
    for l in range(1, m):
        g = generator_b(n, m, l)
        images.append((f"s_{l}", g, model.monomial(g.perm)))
    return images


def _lambda_exponents(n: int, m: int, lam: tuple, fail) -> list[int]:
    """k by twist index t for the coefficients n^-m zeta^k of Lambda_lam, as
    algebra.lambda_idempotent builds it; fail names any other coefficient."""
    terms, den = algebra.lambda_idempotent(n, m, lam).terms, n**m
    row = [root_exponent(terms[t], den) if t in terms else None for t in range(den)]
    if None in row or len(terms) != den:
        t = row.index(None) if None in row else max(terms)
        fail(
            "the coefficients of Lambda",
            f"Lambda_{lam} has {terms.get(t, 0)!r} at twist index {t}, "
            f"not n^-m times a root of unity",
        )
    return row


@lru_cache(maxsize=None)
def check_model(n: int, m: int) -> tuple:
    """Check at (n, m) the lemmas from which Phi carries the model's product
    to the group's; CheckFailedError names the first lemma that fails.  On a
    pass, return the exponents it read: row a holds k by twist index for the
    coefficients n^-m zeta^k of Lambda_lam, lam = chars[a].

    A pass is remembered, so a process checks each (n, m) once however many
    suites rest on the model; a failure raises again on every call.

    Phi(F(lam, p)) = Lambda_lam p, and Lambda_lam lies in the group algebra
    of the twist subgroup, so

        Lambda_lam p Lambda_mu q = Lambda_lam (p Lambda_mu p^(-1)) pq
                                 = Lambda_lam Lambda_(mu o p^(-1)) pq
                                 = [lam = mu o p^(-1)] Lambda_lam pq,

    which is Phi(F(lam, p) F(mu, q)), as mu o p^(-1) = lam exactly when
    mu = lam o p (o is permute_character).  Every coefficient of every
    Lambda_lam is read as n^-m zeta^k through the root table, and these
    lemmas are checked on the exponents k, exactly:

    - factorisation: Lambda_lam is the product over the slots i of the
      one-slot idempotent Lambda_(lam_i) of (n, 1) placed at slot i, so the
      Lambda_lam are orthogonal idempotents summing to 1 when those are;
    - the one-slot idempotents: Lambda_a = n^-1 sum_j zeta^(j r_a) x^j with
      n r_a = 0 mod 2n, so Lambda_a Lambda_b = (S(r_a - r_b) / n) Lambda_b
      for S(e) = sum_j zeta^(j e); S(r_a - r_b) = n [a = b], and the sum
      over a, n^-1 sum_j (sum_a zeta^(j r_a)) x^j, is 1.  Each such sum of
      roots counts its exponents with integers and is reduced once;
    - the character action x_i Lambda_lam = zeta^(-2 lam_i) Lambda_lam,
      which by the factorisation is x Lambda_a = zeta^(-2a) Lambda_a on
      one slot;
    - conjugation s_l Lambda_mu s_l = Lambda_(mu o s_l), with each twist
      index conjugated by the group's own product;
    - the composition law (mu o a) o s = mu o (a s) for a in S_m and each
      generator s, and mu o 1 = mu, read on character indices.  Along words
      these extend the conjugation to p Lambda_mu p^(-1) = Lambda_(mu o p^(-1))
      and give (mu o p^(-1)) o p = mu.  A p / p^(-1) swap in permute_character
      fails here: it agrees with o on involutions only;
    - the generator images: by the action and completeness a group element
      (t, p) is sum_lam zeta^(-2 lam . t) Lambda_lam p, and the Lambda_lam p
      are linearly independent, so Phi(g~) = g exactly when g~ has these
      coefficients.

    The cost is about (m + 1) n^(2m) integer comparisons, with n^(2m)
    coefficients read, and m! m n^m character moves: no group element is
    enumerated and no element multiplied.
    """
    order, size = 2 * n, n**m

    def fail(lemma, detail):
        raise CheckFailedError(
            f"the character basis does not model the group algebra at (n={n}, m={m}): "
            f"{lemma}: {detail}"
        )

    model = MonomialModel(n, m)
    chars = model.chars
    table = [_lambda_exponents(n, m, lam, fail) for lam in chars]
    slot = table if m == 1 else [_lambda_exponents(n, 1, (a,), fail) for a in range(n)]

    for lam, row in zip(chars, table):
        product_row = [0]
        for a in lam:
            product_row = [(e + f) % order for f in slot[a] for e in product_row]
        if row != product_row:
            fail("factorisation", f"Lambda_{lam} is not the product of its one-slot idempotents")

    rates = [row[1] if n > 1 else 0 for row in slot]
    for a, (row, r) in enumerate(zip(slot, rates)):
        if (n * r) % order or any((e - j * r) % order for j, e in enumerate(row)):
            fail(
                "the one-slot idempotents",
                f"Lambda_{a} is not n^-1 sum_j zeta^(j r) x^j with n r = 0 mod 2n",
            )
    vanishes: dict = {}  # e -> whether S(e) is 0; S(0) = n is a count
    for a, ra in enumerate(rates):
        for b, rb in enumerate(rates):
            e = (ra - rb) % order
            if e not in vanishes:
                counts = [0] * order
                for j in range(n):
                    counts[j * e % order] += 1
                vanishes[e] = not root_count_sum(order, tuple(counts))
            if vanishes[e] == (a == b):
                fail("the one-slot idempotents", f"Lambda_{a} Lambda_{b} is not [a = b] Lambda_{b}")
    for j in range(n):
        counts = [0] * order
        for row in slot:
            counts[row[j]] += 1
        if root_count_sum(order, tuple(counts)) != (n if j == 0 else 0):
            fail("the one-slot idempotents", f"their sum has the coefficient of x^{j} wrong")

    for a, row in enumerate(slot):
        if any((row[j - 1] - row[j] + 2 * a) % order for j in range(n)):
            fail("the character action", f"x Lambda_{a} is not zeta^{-2 * a} Lambda_{a}")

    ident = Perm.identity(m)
    for l in range(1, m):
        s = generator_b(n, m, l)
        conj = [twist_index(n, (s * WreathElement._make(n, t, ident) * s).twists) for t in chars]
        for a, b in enumerate(model.moved(s.perm)):
            row, moved_row = table[a], table[b]
            if any(e != moved_row[c] for e, c in zip(row, conj)):
                fail("conjugation", f"s_{l} Lambda_{chars[a]} s_{l} is not Lambda_{chars[b]}")

    if model.moved(ident) != list(range(size)):
        fail("the composition law", "permute_character moves a character by the identity")
    gens = {l: generator_b(n, m, l).perm for l in range(1, m)}
    for a in symmetric_group(m):
        first = model.moved(a)
        for l, s in gens.items():
            then = model.moved(s)
            if [then[b] for b in first] != model.moved(a * s):
                fail(
                    "the composition law",
                    f"permute_character by {list(a)} then s_{l} is not by their product",
                )

    for name, g, image in _generator_tables(model):
        twists = g.twists
        expected = tuple((-2 * sum(x * t for x, t in zip(lam, twists))) % order for lam in chars)
        if image.perm != g.perm or image.entries != expected or image.non_roots:
            fail("the generator images", f"Phi maps the image of {name} elsewhere")
    return tuple(map(tuple, table))
