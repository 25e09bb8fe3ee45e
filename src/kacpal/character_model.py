"""The exponent-table model of the character basis, its model check, and
the ranks taken in it.

The tensor square of the algebra at (n, m) is modelled by the character
basis at (n, 2m), keyed by tensor_key.  check_model verifies at a given
(n, m), from the lemmas behind the product rule, that the change of basis
Phi carries the model's product to the group's before any check relies on
the model.

An element with one permutation p whose coefficients are 2n-th roots of
unity or zero, sum_lam zeta^e(lam) F(lam, p), is monomial: the generators
x_i and s_l, the units y_l and z_l and each Lambda_lam = F(lam, 1) are.
Monomial stores it as an exponent table, and two tables multiply by adding
integers along permute_character; MonomialModel holds the character
arithmetic of one (n, m).  The relation suite and the Hopf report evaluate
their defining formulas on these tables, at (n, m) and, for the tensor
square, at (n, 2m), so no element is changed to this basis from the group
basis.  Sums of roots of unity, such as the coefficients of a root_sum or
of a Lambda_lam, are read as the canonical integer pairs of kacpal.roots.
A classification idempotent is held in integer form, +-1 terms
{(lam, p): c} over one scale (num, den), and no check multiplies it, so no
check loads fractions, whether it passes or fails: a failed model check
names a coefficient by roots.coefficient_repr, and a
failing relation's counterexample, the least group index at which Phi of
its difference is nonzero, is read from the two tables
(Monomial.difference_head) as an integer pair of kacpal.roots, as is the
Hopf report's non-cocommutativity witness.  The exact
elements of the tables and the change of basis to the group basis on
elements, against which that head is tested, are the reference in
tests/group_basis_oracle.py.

The classification table's ranks are traces.  For idempotents the maps
x -> x e and x -> e_i x e_j are idempotent, so their ranks are their traces,
which the product rule gives in closed form when every term of e lies on
one lam fixed by its permutation: dim A e = m! c_(lam, 1), and
dim e_i A e_j = sum_(q: lam_i o q = lam_j) sum_sigma c_sigma d_(q^-1 sigma^-1 q)
is a pairing of class sums over lam's stabiliser Y, as q^-1 sigma^-1 q runs
|Y| / |C| times over the class C of sigma (Serre, Linear Representations of
Finite Groups, ch. 2); it is 0 unless lam_i and lam_j hold each value
equally often.  The traces rest on that lemma, checked by
stabiliser_classes, and on the idempotency of each e, read from its
blocks' shapes by symmetrizer_square.  For a classification idempotent
c_(lam, 1) = prod f^mu / b_i!, the prefactors of its blocks' Young
symmetrizers.  The square and the echelon they replaced are the reference
in tests/group_basis_oracle.py.
"""

from functools import lru_cache
from itertools import permutations, product
from math import factorial, lcm, prod
from operator import add

from .roots import (
    coefficient_json,
    coefficient_repr,
    lambda_coefficients,
    root_count_sum,
    root_exponent,
)
from .wreath import (
    CheckFailedError,
    Perm,
    WreathElement,
    generator_a,
    generator_b,
    perm_index,
    permute_character,
    power,
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


def stabiliser_classes(e: dict) -> dict:
    """The class sums D(C) of e = sum c_sigma F(lam, sigma), keyed by class.

    lam's stabiliser is the product of the symmetric groups on the slots of
    each value of lam, so sigma's class there is its sorted cycles as
    (value of lam on the cycle, length).  A term off one lam, or whose
    sigma moves lam, fails the lemma the traces rest on: CheckFailedError.
    """
    sums: dict = {}
    lam = next(iter(e), (None,))[0]
    for (mu, sigma), c in e.items():
        if mu != lam or permute_character(lam, sigma) != lam:
            raise CheckFailedError(
                f"F({list(mu)}, {list(sigma)}) is not on one character fixed by its "
                f"permutation: the stabiliser lemma of the trace ranks fails"
            )
        key = tuple(sorted((lam[i], length) for i, length in Perm(sigma).cycles()))
        sums[key] = sums.get(key, 0) + c
    return sums


def left_ideal_rank(classes: dict, scale: tuple, m: int) -> int:
    """dim A e = m! c_(lam, 1) for an idempotent (num / den) sum c F(lam, p)
    whose terms have these class sums, scale = (num, den); the identity's is
    the one class of m cycles."""
    return _rank(factorial(m) * next((d for key, d in classes.items() if len(key) == m), 0), scale)


def sandwich_rank(left: tuple, right: tuple) -> int:
    """dim e_i A e_j for idempotents given as (class sums, scale), as for
    left_ideal_rank: sum_C (|Y| / |C|) D_i(C) D_j(C) times the scales, where
    |Y| / |C|, the order of a centraliser, is the product over the distinct
    cycles of length^k k!, k the cycle's multiplicity."""
    (classes, (num, den)), (other, (other_num, other_den)) = left, right
    total = 0
    for key, d in classes.items():
        if key in other:
            centraliser = 1
            for cycle in set(key):
                k = key.count(cycle)
                centraliser *= cycle[1] ** k * factorial(k)
            total += centraliser * d * other[key]
    return _rank(total, (num * other_num, den * other_den))


def _rank(trace: int, scale: tuple) -> int:
    """The trace times num / den: CheckFailedError if no integer, no rank."""
    rank, rest = divmod(trace * scale[0], scale[1])
    if rest:
        raise CheckFailedError(f"the trace {trace} * {scale[0]}/{scale[1]} of an idempotent is not a rank")
    return rank


def symmetrizer_square(mu, terms) -> int:
    """xi with y^2 = xi y, for y = h v given as its terms ((p, c), ...): the
    Young symmetrizer of mu's row-consecutive tableau, whose rows and
    columns are read from mu alone.  Von Neumann's lemma (Fulton and Harris,
    Representation Theory, 4.2) is checked by integer comparisons: y_1 = 1;
    t y = y and y u = -y on every term for the swaps t and u of adjacent
    slots of a row and of a column, which generate the row and column groups
    R and C; y has |R| |C| terms, so its support is R C (R and C meet in 1);
    and each sigma off it sends two slots x, z of a column into one row, so
    t = (sigma(x) sigma(z)) in R has sigma^-1 t sigma = (x z) in C.  Then any
    a with r a = a and a c = sgn(c) a has a_sigma = a_(t sigma (x z)) =
    -a_sigma = 0 off R C and is a_1 y: so y^2 = xi y, xi = sum_p y_p y_(p^-1).
    The construction guarantees the lemma: its failure raises
    CheckFailedError naming it."""
    k, y = mu.size, dict(terms)
    row_of = [r for r, part in enumerate(mu) for _ in range(part)]
    column_of = [c for part in mu for c in range(part)]
    slots = range(k)

    def fail(detail):
        raise CheckFailedError(f"von Neumann's lemma fails for the symmetrizer of {list(mu)}: {detail}")

    def swap(a, b):
        return [b if i == a else a if i == b else i for i in slots]

    row_swaps = [swap(a, a + 1) for a in slots[:-1] if row_of[a] == row_of[a + 1]]
    # the slot below a is a + mu[row of a]
    column_swaps = [swap(a, a + mu[r]) for a, r, c in zip(slots, row_of, column_of) if c < (*mu, 0)[r + 1]]
    if y.get(tuple(slots)) != 1:
        fail("the coefficient of 1 is not 1")
    for p, c in y.items():
        if any(y.get(tuple(map(t.__getitem__, p))) != c for t in row_swaps):
            fail(f"the terms at {list(p)} and its left translates by the row group differ")
        if any(y.get(tuple(map(p.__getitem__, u))) != -c for u in column_swaps):
            fail(f"the terms at {list(p)} and its right translates by the column group are not opposite")
    if len(y) != prod(map(factorial, (*mu, *mu.conjugate()))):
        fail(f"{len(y)} terms, not |R| |C|")
    weights = [c * len(mu) for c in column_of]  # plus the row of a slot's image: a (column, row) pair
    for sigma in permutations(slots):
        if sigma not in y and len(set(map(add, weights, map(row_of.__getitem__, sigma)))) == k:
            fail(f"{list(sigma)} is off the support, but no two slots of a column go to one row")
    return sum(c * y.get(tuple(sorted(slots, key=p.__getitem__)), 0) for p, c in y.items())


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

        Each table is checked against the composition law as it is built.
        The identity's must be the identity, and an adjacent transposition's
        is a base case.  Any other p is a s, with s the adjacent
        transposition at p's last descent, so a is shorter, and p's table
        must be a's followed by s's.  a's table, if not cached, is built and
        checked the same way, before p's, and not kept.
        """
        act = self._moved.get(p)
        if act is None:
            act = self._moved[p] = self._checked(p)
        return act

    def _checked(self, p) -> list[int]:
        """p's table, built and checked as moved says, and not cached."""
        n, m, indices = self.n, self.m, self._indices
        l = max((l for l in range(1, m) if p[l - 1] > p[l]), default=0)  # p's last descent
        s = Perm.transposition(m, l - 1, l) if l else p
        a = p * s  # p = a s with a shorter; the identity if p is 1 or s
        first = None if a == Perm.identity(m) else self._moved.get(a) or self._checked(a)
        weights = [0] * m
        for j, i in enumerate(permute_character(tuple(range(m)), p)):
            weights[i] = n**j
        act = [0]
        for w in weights:
            act = [a + d * w for d in range(n) for a in act]
        act = [indices[a] for a in act]
        if not l and act != indices:
            self.fail("the composition law", "permute_character moves a character by the identity")
        if first is not None:
            then = self.moved(s)
            if [then[b] for b in first] != act:
                detail = f"permute_character by {list(a)} then s_{l} is not by their product"
                self.fail("the composition law", detail)
        return act

    def fail(self, lemma: str, detail: str):
        raise CheckFailedError(
            f"the character basis does not model the group algebra at (n={self.n}, m={self.m}): "
            f"{lemma}: {detail}"
        )

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
    exactly, as the pairs of kacpal.roots; only root_sum makes them, so a
    relation whose side has one fails, and no product takes them.
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
            e = root_exponent(order, value)
            if e is None and any(value[0]):
                non_roots[a] = value
            entries.append(e)
        return Monomial(model, perm, tuple(entries), non_roots)

    def difference_head(self, other: "Monomial") -> tuple[int, dict]:
        """The least group index at which Phi(self - other) is nonzero, and
        the JSON of its coefficient there, for a relation's report and for
        the Hopf report's non-cocommutativity witness.

        Phi(F(lam, p)) = Lambda_lam p has the coordinate n^-m zeta^(2 lam . t)
        at the index perm_index(p) n^m + t, so a table's coordinate there is
        n^-m sum_lam c_lam zeta^(2 lam . t): the exponents are counted with
        integers, the non_roots numerators added over the lcm of their
        denominators, and the count reduced once.  Over the first m // 2
        slots and the rest, the two legs at (n, 2m), 2 lam . t is
        2 lam' . t' + 2 lam'' . t'', so for each t'' the sum over lam'' is
        taken once, then for each t' that over lam'.  Sides on two
        permutations fill two blocks of indices, visited in perm_index
        order.  Tables that differ in no coordinate fail: CheckFailedError.
        """
        model = self.model
        n, m, order, size = model.n, model.m, model.order, len(model.chars)
        den = lcm(*(d for table in (self, other) for _, d in table.non_roots.values()))
        blocks: dict = {}
        for table, sign in ((self, 1), (other, -1)):
            blocks.setdefault(perm_index(table.perm), []).append((table, sign))
        first, last = _twice_dot(n, m // 2), _twice_dot(n, m - m // 2)
        low = len(first)
        for block in sorted(blocks):
            for outer, phase in enumerate(last):
                # by lam', the counts of sum_lam'' c_lam zeta^(2 lam'' . t'')
                rows = [[0] * order for _ in range(low)]
                for table, sign in blocks[block]:
                    root, entries = sign * den, table.entries
                    for high, shift in enumerate(phase):
                        for row, e in zip(rows, entries[high * low : (high + 1) * low]):
                            if e is not None:
                                row[(e + shift) % order] += root
                    for a, (num, d) in table.non_roots.items():
                        high, part = divmod(a, low)
                        row, shift, scale = rows[part], phase[high], sign * (den // d)
                        for i, c in enumerate(num):
                            row[(i + shift) % order] += scale * c
                for inner, shifts in enumerate(first):
                    counts = [0] * order
                    for row, shift in zip(rows, shifts):
                        for k, c in enumerate(row):
                            if c:
                                counts[(k + shift) % order] += c
                    value = root_count_sum(order, tuple(counts), den * size)
                    if any(value[0]):
                        return block * size + outer * low + inner, coefficient_json(order, *value)
        raise CheckFailedError("two exponent tables differ but in no group-basis coordinate")


@lru_cache(maxsize=None)
def _twice_dot(n: int, k: int) -> tuple:
    """Row t, by twist index, of 2 lam . t for lam = chars[a] at (n, k): the
    exponent of (t, p) in n^k Lambda_lam p, read from the table of x^t."""
    model = MonomialModel(n, k)
    return tuple(tuple(-e % model.order for e in model.x_monomial(t).entries) for t in model.chars)


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
    roots.lambda_coefficients gives them; fail names any other coefficient."""
    order, den = 2 * n, n**m
    coefficients = lambda_coefficients(n, m, lam)
    row = [root_exponent(order, c, den) for c in coefficients]
    if None in row:
        t = row.index(None)
        fail(
            "the coefficients of Lambda",
            f"Lambda_{lam} has {coefficient_repr(order, *coefficients[t])} at twist index {t}, "
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
    - the composition law (mu o a) o s = mu o (a s) for each generator s,
      and mu o 1 = mu, on character indices: MonomialModel.moved checks it
      on each table it builds, so the relation suite and the Hopf report
      rest on it at (n, m) and (n, 2m) for every table they meet.  Here it
      builds the identity's and, for m >= 3, a 3-cycle's, where a p / p^(-1)
      swap in permute_character fails: it agrees with o on involutions only.
      Along words it extends the conjugation to p Lambda_mu p^(-1) =
      Lambda_(mu o p^(-1)) and gives (mu o p^(-1)) o p = mu.  The
      classification builds no table: it checks each term's stabiliser
      membership on that term;
    - the generator images: by the action and completeness a group element
      (t, p) is sum_lam zeta^(-2 lam . t) Lambda_lam p, and the Lambda_lam p
      are linearly independent, so Phi(g~) = g exactly when g~ has these
      coefficients.

    The cost is about (m + 1) n^(2m) integer comparisons, with n^(2m)
    coefficients read, and (m + 1) n^m character moves: no group element and
    no permutation is enumerated, and no element multiplied.
    """
    order = 2 * n
    model = MonomialModel(n, m)
    chars, fail = model.chars, model.fail
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
                vanishes[e] = not any(root_count_sum(order, tuple(counts))[0])
            if vanishes[e] == (a == b):
                fail("the one-slot idempotents", f"Lambda_{a} Lambda_{b} is not [a = b] Lambda_{b}")
    for j in range(n):
        counts = [0] * order
        for row in slot:
            counts[row[j]] += 1
        # the integer n or 0 is its own count of zeta^0
        if root_count_sum(order, tuple(counts)) != root_count_sum(order, (n if j == 0 else 0,)):
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

    model.moved(ident)  # moved checks the composition law
    if m >= 3:
        model.moved(Perm.transposition(m, 0, 1) * Perm.transposition(m, 1, 2))

    for name, g, image in _generator_tables(model):
        twists = g.twists
        expected = tuple((-2 * sum(x * t for x, t in zip(lam, twists))) % order for lam in chars)
        if image.perm != g.perm or image.entries != expected or image.non_roots:
            fail("the generator images", f"Phi maps the image of {name} elsewhere")
    return tuple(map(tuple, table))
