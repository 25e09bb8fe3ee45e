"""Comultiplication, counit, and antipode, and the check of the Hopf axioms.

The comultiplication is group-like on x-monomials and is given on the
square-root generators by the twisted formula
delta(z_l) = P (z_l (x) z_l), P = (1/n) sum q^(-ij) x_l^i (x) x_{l+1}^j,
so delta(s_l) = delta(y_l) delta(z_l); it is extended multiplicatively
from these images.  The counit is one on every group element, so
eps(Lambda_lam p) = eps(Lambda_lam).  The antipode inverts x-monomials and
fixes the square-root generators, so S(s_l) = z_l S(y_l), extended
anti-multiplicatively.

Each of these formulas is written once, on images (_delta_z_image,
_delta_s_image and _antipode_s_image), over the primitives of one
representation: x-monomials x(t), diagonal elements
diagonal(e) = sum_lam zeta^e(lam) Lambda_lam, z(l), the tensor of two
elements and the group-like delta of a diagonal one.  _CharacterHopf holds
them as exponent tables (character_model.Monomial) in the character basis
F(lam, p) = Lambda_lam p, at (n, m) for the algebra and at (n, 2m) for its
tensor square, and the report runs on those tables.  They are the
group-basis images changed to the character basis on each leg, exactly:

- check_model at (n, m) proves that Phi: F(lam, p) -> Lambda_lam p carries
  the model's product to the group's, and that Phi^(-1) maps x^t to
  sum_lam zeta^(-2 lam . t) F(lam, 1) and s_l to sum_lam F(lam, s_l).  So
  the tables of x-monomials, of diagonal elements and of z_l = y_l^(-1) s_l
  are those elements, and their products are the group's;
- the tensor square is the model at (n, 2m) keyed by
  character_model.tensor_key: F(lam, p) (x) F(nu, q) is F(lam nu, p (+) q),
  whose product is the model's product on each leg; MonomialModel.moved
  checks the composition law on each table it builds there too.  So a (x) b
  is the table at (n, 2m) whose entry a' + n^m b' is e_a' + f_b', and tables
  there multiply as the tensor square does;
- delta(Lambda_lam) = sum over mu + nu = lam of Lambda_mu (x) Lambda_nu.
  Lambda_lam = n^-m sum_t zeta^(2 lam . t) x^t, delta(x^t) = x^t (x) x^t,
  and on each leg x^t = sum_mu zeta^(-2 mu . t) Lambda_mu, so the
  coefficient of Lambda_mu (x) Lambda_nu in delta(Lambda_lam) is
  n^-m sum_t zeta^(2 (lam - mu - nu) . t), which is [mu + nu = lam] by the
  orthogonality of the characters of Z_n^m.  So the group-like delta of the
  diagonal table e is the diagonal table at (n, 2m) with entry e(mu + nu)
  at (mu, nu), and delta(x^t) is the table of x^(t t);
- the prefactor P is evaluated exactly by root_sum: each character counts
  its exponents with integers, and each count is reduced once.  By the Gauss
  sum P is diagonal with entry zeta^(2 mu_l nu_(l+1)); a P with another
  coefficient raises CheckFailedError naming delta(z_l) before any table
  product takes it, with the coefficient written from its pair by
  roots.coefficient_repr, so that a failing report loads no fractions
  either.

tests/hopf_group_basis_oracle.py evaluates the same formulas in the group
basis and compares these tables with them under the dense change of basis.

On the basis F(lam, p) the comultiplication is then a 2-cocycle twist
(Majid, Foundations of Quantum Group Theory):

    delta(F(lam, p)) = sum over mu + nu = lam of
                       zeta^omega_p(mu, nu) F(mu, p) (x) F(nu, p),
    S(F(lam, p)) = zeta^sigma_p(mu) F(mu, p^(-1)),  mu = (-lam) o p,

where omega_p is the table of delta(p) and sigma_p that of S(p).  The
report reads them for p = 1 and the s_l only.  Every axiom holds on every
basis element exactly when it holds there:

- multiplicativity: by the universal property of a group algebra (Kassel,
  Quantum Groups, ch. III), delta is an algebra map exactly when delta(x_i)
  and delta(s_l) satisfy a presentation of the group,
  relations.group_presentation, checked on the tables at (n, 2m).  It rests
  on the lemma that the Coxeter relations present S_m, which check_coxeter
  proves by induction on m, with k cosets enumerated at level k;
- coassociativity: both sides are then algebra maps, equal on the
  Lambda_lam (the table of delta(1) is 0), so the axiom holds exactly when
  each omega_(s_l) satisfies the 2-cocycle identity omega(mu, nu) +
  omega(mu + nu, rho) = omega(mu, nu + rho) + omega(nu, rho) mod 2n on all
  n^(3m) triples.  Along words, omega_(pq)(a, b) = omega_p(a, b) +
  omega_q(a o p, b o p) is a sum of generator cocycles pulled back by
  automorphisms of Z_n^m, so the verdict is that of every omega_p;
- counit: with eps(F(a, p)) = eps(Lambda_a), the sum of the coefficients
  n^-m zeta^k that check_model read, the axiom says eps(Lambda_a) = [a = 0],
  which allows no value but 0 or 1, and omega_(s_l) = 0 wherever mu or nu
  is 0, as omega_(pq)(0, b) = omega_p(0, b) + omega_q(0, b o p);
- antipode: S is an anti-map exactly when iota S is an algebra map, iota the
  anti-automorphism that inverts each group element, so exactly when x_i
  and iota S(s_l) satisfy group_presentation at (n, m).  The h with
  m (S (x) id) delta(h) = eps(h) 1 then form a subalgebra (Sweedler's
  argument), as do those of the mirror, so both identities are checked on
  the F(lam, 1) and F(lam, s_l), exactly, on exponents;
- relations: an algebra map carries every relation that holds in A to the
  images, and the relation suite proves relations.presentation in A, so
  delta preserves the relations when it is multiplicative.  The table of
  delta(z_l) is delta(y_l)^(-1) delta(s_l), so it is then delta(z_l) of the
  algebra map.  When delta is not multiplicative the relations that the
  tables of delta(x^t) = x^(t t) and delta(z_l) at (n, 2m) break are named.

The counit and the antipode visit p = 1, then s_(m-1) .. s_1, in Lehmer
order.  A reduced word of p uses only generators whose Lehmer rank, that
of s_l being (m - l)!, is at most p's, so a loop over every permutation in
Lehmer order first fails at one of these, with the same detail.

The non-cocommutativity witness is read from the same tables.  The flip
a (x) b -> b (x) a takes entry a + n^m b of a table at (n, 2m) to entry
b + n^m a, and Phi (x) Phi is a linear bijection that commutes with it, so
delta(z_l) is cocommutative exactly when its table equals its flip; so is
delta(x_i), the table of x^(t t).  Otherwise the witness is the first
nonzero group-basis coordinate of delta(z_l) - flip delta(z_l).  check_model
reads every coefficient of every Lambda_lam as n^-m zeta^k and proves the
factorisation into one-slot idempotents, that each is
Lambda_a = n^-1 sum_j zeta^(j r_a) x^j, and the character action
x Lambda_a = zeta^(-2a) Lambda_a, which forces r_a = 2a.  With
x^t p = (t, p) in the group,

    Phi(F(lam, p)) = Lambda_lam p = n^-m sum_t zeta^(2 lam . t) (t, p).

P is diagonal and z_l lies on s_l, so both legs of the table d of
delta(z_l) lie on s_l, and the coordinate of (t, s_l) (x) (u, s_l) in the
difference is D(t, u), with

    D(t, w) = n^-2m sum_(mu, nu) (zeta^d(mu, nu) - zeta^d(nu, mu)) zeta^(2 (mu . t + nu . w)).

The group index of (t, p) is perm_index(p) n^m + twist_index(t), so the
witness is the least pair (t, w) with D(t, w) nonzero, in t-major order.
Monomial.difference_head, the routine that reads a failing relation's
head, reads it from flip delta(z_l) - delta(z_l) at (n, 2m):

- there the twist pair (first leg u, second leg v) has the index
  u + n^m v, so difference_head visits v in the outer loop and u in the
  inner one;
- the coordinate of flip delta(z_l) - delta(z_l) at (u, v) is D(v, u);
- D is antisymmetric, so its support is symmetric, and the first nonzero
  coordinate that difference_head meets is the least pair (t, w) = (v, u)
  in t-major order, with the same coefficient D(t, w);
- so the witness pair is [base + v, base + u], with
  v, u = divmod(index mod n^(2m), n^m) and base = perm_index(s_l) n^m.

The group-basis delta, counit, antipode, tensor square and witness, the
axiom checks on them, the quotient onto Q[S_m], the dense change of basis,
the relation check on dense character-basis tensors (the oracle's
CharacterElement), and WalkHopf, these checks as they were with delta(p)
and S(p) built for every p, are the reference in
tests/hopf_group_basis_oracle.py.
"""

from __future__ import annotations

from functools import lru_cache, partial

from .character_model import MonomialModel, check_model, tensor_key
from .relations import coxeter, group_presentation, presentation, y_exponent, z_square_sum
from .roots import coefficient_repr, root_count_sum
from .wreath import CheckFailedError, check_cap, generator_b, perm_index, twist_index


# -- the defining formulas, on the primitives of a representation -------------


def _delta_z_image(im, l: int):
    """delta(z_l) = P (z_l (x) z_l), with P the z_l^2 double sum whose
    monomials x_l^i x_{l+1}^j are split as x_l^i (x) x_{l+1}^j."""
    m = im.m

    def split(e):
        return im.tensor(im.x(e[:l] + (0,) * (m - l)), im.x((0,) * l + e[l:]))

    z = im.z(l)
    prefactor = im.monomial(z_square_sum(im.n, m, l, split), f"the prefactor of delta(z_{l})")
    return prefactor * im.tensor(z, z)


def _delta_s_image(im, l: int, delta_z):
    """delta(s_l) = delta(y_l) delta(z_l); y_l is diagonal, so its
    comultiplication is group-like."""
    return im.group_like(im.diagonal(partial(y_exponent, l=l))) * delta_z


def _antipode_s_image(im, l: int):
    """S(s_l) = z_l S(y_l): S fixes z_l and inverts the x-monomials, so
    S(y_l) is diagonal with exponent -((-lam_l) mod n)((-lam_{l+1}) mod n).

    Negating the character representatives changes the integer products in
    the exponents, so for n >= 3 this differs from s_l itself.
    """
    n = im.n
    return im.z(l) * im.diagonal(lambda lam: -((-lam[l - 1]) % n) * ((-lam[l]) % n))


# -- the lemma that the Coxeter relations present S_m --------------------------


class _Word(tuple):
    """A word in letters 2 (l - 1) for s_l and 2 (l - 1) + 1 for its inverse."""

    def __mul__(self, other):
        return _Word(tuple.__add__(self, other))


def _cosets(relators: list, letters: int, subgroup: list, bound: int, lemma: str) -> int:
    """The number of cosets of the subgroup generated by the words subgroup
    in the group on letters 0 .. letters - 1, x ^ 1 the inverse of x, with
    these relators; CheckFailedError names lemma past bound cosets.  Coset
    enumeration (Todd and Coxeter, Proc. Edinburgh Math. Soc. 5, 1936) in
    the HLT strategy (Holt, Eick and O'Brien, Handbook of Computational Group
    Theory, 5.1) scans the subgroup's generators at coset 0, then at each
    live coset in turn the relators and x x^(-1) for each letter x, defining
    cosets to close each scan and merging a coset found equal to another."""
    relators = [*relators, *((x, x ^ 1) for x in range(letters))]
    table, parent = [[None] * letters], [0]

    def rep(c):
        while parent[c] != c:
            parent[c] = c = parent[parent[c]]
        return c

    def coincide(a, b):
        pairs = [(a, b)]
        for a, b in pairs:  # grows as merges force merges
            a, b = sorted((rep(a), rep(b)))
            if a != b:
                parent[b] = a
                for x, d in enumerate(table[b]):
                    if d is not None:
                        table[d][x ^ 1] = None
                        d = rep(d)
                        if table[a][x] is not None:
                            pairs.append((d, table[a][x]))
                        elif table[d][x ^ 1] is not None:
                            pairs.append((a, table[d][x ^ 1]))
                        else:
                            table[a][x], table[d][x ^ 1] = d, a

    def scan(a, w):
        # w from both ends at coset a; a gap of one letter is a deduction
        f, b, i, j = a, a, 0, len(w) - 1
        while True:
            while i <= j and table[f][w[i]] is not None:
                f, i = table[f][w[i]], i + 1
            while j >= i and table[b][w[j] ^ 1] is not None:
                b, j = table[b][w[j] ^ 1], j - 1
            if j < i:
                return coincide(f, b) if f != b else None
            if i < j:  # define the coset f w[i]
                if len(table) == bound:
                    raise CheckFailedError(f"{lemma}, the enumeration did not close in {bound} cosets")
                table.append([None] * letters)
                parent.append(len(table) - 1)
            table[f][w[i]] = b if i == j else len(table) - 1
            table[table[f][w[i]]][w[i] ^ 1] = f

    for w in subgroup:
        scan(0, w)
    for a, _ in enumerate(table):  # grows as cosets are defined
        for w in relators:
            if parent[a] == a:
                scan(a, w)
    return sum(c == p for c, p in enumerate(parent))


@lru_cache(maxsize=None)
def check_coxeter(m: int) -> None:
    """Check the lemma that coxeter presents a group of order m!, or raise
    CheckFailedError naming it; a pass is remembered.

    Each relation lhs = rhs of coxeter on words is the relator lhs rhs^(-1).
    By induction on k = 2 .. m, with G_k presented by the relators whose
    letters all lie among s_1 .. s_(k-1), so that each level's relations hold
    the last's: H_k = <s_1 .. s_(k-2)> must have exactly k cosets in G_k,
    defining at most 5 k.  H_k's generators satisfy G_(k-1)'s relations, so
    |G_k| = k |H_k| <= k |G_(k-1)| and |G_m| <= m!; the adjacent
    transpositions of S_m satisfy the relations and generate it, so
    |G_m| = m!.
    """
    families = coxeter({l: _Word((2 * l - 2,)) for l in range(1, m)}, _Word()).values()
    relators = [lhs + tuple(x ^ 1 for x in reversed(rhs)) for items in families for _, lhs, rhs in items]
    for k in range(2, m + 1):
        lemma = f"the Coxeter relations do not present S_{m}: at level {k} of the induction"
        level = [w for w in relators if max(w) < 2 * k - 2]
        count = _cosets(level, 2 * k - 2, [(2 * l - 2,) for l in range(1, k - 1)], 5 * k, lemma)
        if count != k:
            raise CheckFailedError(f"{lemma}, the enumeration closed at {count} cosets, not {k}")


# -- the character basis -------------------------------------------------------


def _broken(families: dict) -> list[str]:
    """The names of the relations of the families whose sides differ."""
    return [name for items in families.values() for name, lhs, rhs in items if lhs != rhs]


class _CharacterHopf:
    """delta, S and the counit on the generators at one (n, m), as exponent
    tables over characters numbered by twist index, and the primitives of
    the defining formulas in the model.

    A table of delta(p) at (n, 2m) has F(a, p) (x) F(b, p) as its entry
    a + n^m b, so delta(F(lam, p)) collects the pairs with a + b = lam; the
    entry a of a table of S(p) is the exponent of F(a, p^(-1)).
    eps[a] = eps(F(a, p)), for every p, as the pair of kacpal.roots.
    delta_z, delta_s and antipode_s map l to the tables of the generator
    images.  plus[a][b] is the index of the character a + b, neg[a] that of
    -a and model.moved(p)[a] that of a o p.
    """

    def __init__(self, n: int, m: int):
        rows = check_model(n, m)
        self.n, self.m, self.order = n, m, 2 * n
        model = self.model = MonomialModel(n, m)
        chars = self.chars = model.chars
        self.plus = [
            [twist_index(n, [(a + b) % n for a, b in zip(mu, nu)]) for nu in chars] for mu in chars
        ]
        self.neg = [twist_index(n, [-a % n for a in mu]) for mu in chars]
        self.model2 = MonomialModel(n, 2 * m)
        self.gens = {l: generator_b(n, m, l).perm for l in range(1, m)}
        # Phi(F(lam, p)) is Lambda_lam moved to the block of p, with the same
        # coefficients, so its counit is that of Lambda_lam: n^-m times the
        # sum of zeta^k over the exponents k of its row, as check_model read them.
        self.eps = [
            root_count_sum(self.order, tuple(map(row.count, range(self.order))), n**m)
            for row in rows
        ]
        self.delta_z = {l: _delta_z_image(self, l) for l in self.gens}
        self.delta_s = {l: _delta_s_image(self, l, self.delta_z[l]) for l in self.gens}
        self.antipode_s = {l: _antipode_s_image(self, l) for l in self.gens}

    # the primitives of _delta_z_image, _delta_s_image and _antipode_s_image

    def x(self, t):
        return self.model.x_monomial(t)

    def diagonal(self, exponent):
        return self.model.diagonal([exponent(lam) for lam in self.chars])

    def z(self, l: int):
        """z_l = y_l^(-1) s_l."""
        return self.diagonal(lambda lam: -y_exponent(lam, l)) * self.model.monomial(self.gens[l])

    def tensor(self, a, b):
        """a (x) b at (n, 2m): entry i + n^m j is e_i + f_j, on p (+) q."""
        _, perm = tensor_key(((), a.perm), ((), b.perm))
        entries = [None if e is None or f is None else e + f for f in b.entries for e in a.entries]
        return self.model2.monomial(perm, entries)

    def group_like(self, a):
        """delta of the diagonal table a: entry e(mu + nu) at (mu, nu)."""
        e = a.entries
        return self.model2.diagonal([e[c] for row in self.plus for c in row])

    def monomial(self, a, what: str):
        """a, unless it has a coefficient off the roots of unity."""
        if a.non_roots:
            c = coefficient_repr(self.order, *a.non_roots[min(a.non_roots)])
            raise CheckFailedError(
                f"{what} has the coefficient {c} in the character basis, "
                f"which is not a power of zeta_{self.order}"
            )
        return a

    # the checks

    def rows(self, table) -> list:
        """Row a of a table at (n, 2m): entry b is the exponent of
        F(a, p) (x) F(b, q)."""
        entries, size = table.entries, len(self.chars)
        return [entries[a::size] for a in range(size)]

    def inverted(self, t):
        """iota(t), for the anti-automorphism iota of A that inverts each
        group element: iota(Lambda_lam p) = p^(-1) Lambda_(-lam), so
        iota(F(lam, p)) = F((-lam) o p, p^(-1))."""
        p = t.perm.inverse()
        return self.model.monomial(p, [t.entries[self.neg[b]] for b in self.model.moved(p)])

    def name(self, a: int, p) -> str:
        return f"F({self.chars[a]}, {list(p)})"

    def coassociativity_failure(self) -> str | None:
        # the cocycle identity on the generators: see the module docstring
        plus, order, size = self.plus, self.order, len(self.chars)
        for l, p in self.gens.items():
            w = self.rows(self.delta_s[l])
            for a in range(size):
                wa = w[a]
                for b in range(size):
                    wab, wb, w_sum, plus_b = wa[b], w[b], w[plus[a][b]], plus[b]
                    for c in range(size):
                        if (wab + w_sum[c] - wa[plus_b[c]] - wb[c]) % order:
                            lam = plus[plus[a][b]][c]
                            return (
                                f"(delta x id) delta and (id x delta) delta differ on "
                                f"{self.name(lam, p)} at the term "
                                f"{self.name(a, p)} (x) {self.name(b, p)} (x) {self.name(c, p)}"
                            )
        return None

    def multiplicativity_failure(self) -> str | None:
        # the images must satisfy a presentation of the group, as the
        # Coxeter lemma makes group_presentation
        check_coxeter(self.m)
        mono = lambda e: self.model2.x_monomial(e + e)  # noqa: E731
        broken = _broken(group_presentation(self.n, self.m, mono, self.delta_s))
        return f"delta({broken[0]}) fails, so delta is not an algebra map" if broken else None

    def counit_off(self) -> list[tuple]:
        """[(a, 1)] for the first a with eps(F(a, p)) != [a = 0], else []: the
        counit's and the antipode's first failure, as on F(lam, 1) both say
        eps(Lambda_lam) = [lam = 0].  [a = 0] is its own count of zeta^0."""
        one, order = self.model.one().perm, self.order
        off = [a for a, e in enumerate(self.eps) if e != root_count_sum(order, (int(a == 0),))]
        return [(a, one) for a in off[:1]]

    def counit_failure(self) -> str | None:
        # the term F(a, p) (x) F(b, p) of delta(F(a + b, p)) must contribute
        # eps(F(a, p)) zeta^omega F(b, p) = [a = 0] F(b, p) and its mirror:
        # eps(F(a, 1)) = [a = 0], which leaves no value but 0 or 1, and
        # omega_(s_l) = 0 wherever a or b is 0, whose first failing pair in
        # the order of a, b is the least of two candidates
        failing = self.counit_off()
        for l in reversed(self.gens):  # s_(m-1) .. s_1, in Lehmer order
            w = self.rows(self.delta_s[l])
            pairs = [(0, b) for b, e in enumerate(w[0]) if e][:1]
            pairs += [(a, 0) for a, row in enumerate(w) if row[0]][:1]
            failing += [(self.plus[a][b], self.gens[l]) for a, b in sorted(pairs)[:1]]
        if failing:
            return f"(eps x id) delta or (id x eps) delta is not the identity on {self.name(*failing[0])}"
        return None

    def antipode_failure(self) -> str | None:
        # On F(lam, s), s = s_l: S(F(a, s)) F(b, s) = zeta^sigma_s(c) F(c, s) F(b, s)
        # with c = (-a) o s is F(c, 1) when b = -a, so m (S x id) delta(F(lam, s))
        # is [lam = 0] sum_a zeta^(omega_s(a, -a) + sigma_s(c)) F(c, 1), and
        # its mirror [lam = 0] sum_a zeta^(omega_s(a, -a) + sigma_s(a o s)) F(a, 1):
        # both are eps 1 = [lam = 0] 1 exactly when these exponents are 0.
        order, failing = self.order, self.counit_off()
        for l in reversed(self.gens):  # s_(m-1) .. s_1, in Lehmer order
            w, sigma = self.rows(self.delta_s[l]), self.antipode_s[l].entries
            act = self.model.moved(self.gens[l])
            exponents = ((w[a][b], act[b], act[a]) for a, b in enumerate(self.neg))
            if any((e + sigma[c]) % order or (e + sigma[d]) % order for e, c, d in exponents):
                failing.append((0, self.gens[l]))
        if failing:
            return f"m (S x id) delta or m (id x S) delta is not eps 1 on {self.name(*failing[0])}"
        # S is an anti-map exactly when iota S is an algebra map, with
        # iota S(x_i) = x_i
        check_coxeter(self.m)
        iota_s = {l: self.inverted(table) for l, table in self.antipode_s.items()}
        broken = _broken(group_presentation(self.n, self.m, self.x, iota_s))
        return f"S({broken[0]}) fails in the opposite algebra, so S is not an anti-map" if broken else None

    def flip(self, t):
        """The table of the flipped tensor: F(a, p) (x) F(b, q) -> F(b, q) (x) F(a, p)."""
        m, size, entries = self.m, len(self.chars), t.entries
        _, perm = tensor_key(((), [j - m for j in t.perm[m:]]), ((), t.perm[:m]))
        return self.model2.monomial(perm, [e for b in range(size) for e in entries[b::size]])

    def cocommutativity_witness(self) -> dict:
        """Whether each delta(z_l) differs from its flip, with the first
        nonzero coordinate of the difference as witness, and whether the
        x generators are symmetric."""
        out: dict = {}
        size = len(self.chars)
        for l, table in self.delta_z.items():
            flipped = self.flip(table)
            if table == flipped:
                out[f"z_{l}"] = {"status": "cocommutative"}
            else:
                # index u + n^m v holds D(v, u), so the witness is (v, u):
                # see the module docstring
                index, coefficient = flipped.difference_head(table)
                v, u = divmod(index % size**2, size)
                base = perm_index(self.gens[l]) * size
                out[f"z_{l}"] = {
                    "status": "noncocommutative",
                    "witness": {"pair": [base + v, base + u], "coefficient": coefficient},
                }
        m = self.m
        x_tables = (self.model2.x_monomial(2 * [int(j == i) for j in range(m)]) for i in range(m))
        x_symmetric = all(table == self.flip(table) for table in x_tables)
        out["x_generators"] = "symmetric" if x_symmetric else "asymmetric"
        return out

    def relation_failures(self) -> list[str]:
        """The defining relations that delta, extended multiplicatively from
        the generator images, breaks, on the tables at (n, 2m):
        delta(x^t) = x^(t t) and the delta(z_l) built from their formula;
        the report reads them when delta is not multiplicative."""
        families = presentation(self.n, self.m, lambda e: self.model2.x_monomial(e + e), self.delta_z)
        return [f"delta({name})" for name in _broken(families)]


def hopf_axiom_report(n: int, m: int, cap: int | None = None) -> dict:
    """Verify every coalgebra, bialgebra and antipode axiom on every basis
    element (and pair of basis elements), in the character basis, by
    checking it on the generators (see the module docstring).

    check_model runs first at (n, m).  Includes the relation-preservation
    suite and the non-cocommutativity witnesses, read from the tables of the
    delta(z_l).
    """
    if n < 2:
        raise ValueError(
            f"the Hopf report needs n >= 2, got n={n}: at n = 1 the algebra is Q[S_m], "
            "whose comultiplication is cocommutative"
        )
    if m < 2:
        raise ValueError(
            f"the Hopf report needs m >= 2, got m={m}: at m = 1 there is no z_l, "
            "so no non-cocommutativity witness exists"
        )
    check_cap(n, m, "tensor-square", cap)
    hopf = _CharacterHopf(n, m)
    multiplicative = hopf.multiplicativity_failure()
    failures = {
        "coassociativity": hopf.coassociativity_failure(),
        "counit": hopf.counit_failure(),
        "antipode": hopf.antipode_failure(),
        # an algebra map preserves the relations: see the module docstring
        "delta_preserves_relations": multiplicative and (hopf.relation_failures() or None),
        "delta_multiplicative": multiplicative,
    }
    report: dict = {
        "n": n,
        "m": m,
        "axioms": {
            name: "pass" if detail is None else {"status": "fail", "detail": detail}
            for name, detail in failures.items()
        },
    }
    report["non_cocommutativity"] = hopf.cocommutativity_witness()
    report["all_pass"] = all(v == "pass" for v in report["axioms"].values()) and all(
        entry["status"] == "noncocommutative"
        for key, entry in report["non_cocommutativity"].items()
        if key.startswith("z_")
    )
    return report


def cocommutativity_witness(n: int, m: int, cap: int | None = None) -> dict:
    """Report that delta(z_l) differs from its flip, with one nonzero
    coordinate as witness, and that the x generators are symmetric.

    check_model runs first at (n, m); the tables of the generator images are
    built, and no axiom is checked."""
    check_cap(n, m, "tensor-square", cap)
    return _CharacterHopf(n, m).cocommutativity_witness()
