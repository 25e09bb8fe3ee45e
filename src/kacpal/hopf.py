"""Comultiplication, counit, and antipode, and the check of the Hopf axioms.

The comultiplication is group-like on x-monomials and is given on the
square-root generators by the twisted formula
delta(z_l) = P (z_l (x) z_l), P = (1/n) sum q^(-ij) x_l^i (x) x_{l+1}^j,
so delta(s_l) = delta(y_l) delta(z_l); it is extended multiplicatively to
every permutation, breadth-first over S_m from the identity.  The counit is
the group-algebra counit (one on every basis element).  The antipode
inverts x-monomials and fixes the square-root generators, so
S(s_l) = z_l S(y_l), extended anti-homomorphically along the same walk.

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
  whose product is the model's product on each leg.  So a (x) b is the table
  at (n, 2m) whose entry a' + n^m b' is e_a' + f_b', and tables there
  multiply as the tensor square does;
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
  product takes it.

tests/hopf_group_basis_oracle.py evaluates the same formulas in the group
basis and compares these tables with them under the dense change of basis.

On the basis F(lam, p) the comultiplication is then a 2-cocycle twist
(Majid, Foundations of Quantum Group Theory):

    delta(F(lam, p)) = sum over mu + nu = lam of
                       zeta^omega_p(mu, nu) F(mu, p) (x) F(nu, p),
    S(F(lam, p)) = zeta^sigma_p(mu) F(mu, p^(-1)),  mu = (-lam) o p,

where omega_p is the table of delta(p) and sigma_p that of S(p).  One
breadth-first walk over the Cayley graph of S_m from the identity, taking
l = 1..m-1 in order, builds them: each edge p -> p s_l takes one table
product, delta(p) delta(s_l), and the first edge to reach p s_l stores it as
delta(p s_l), with S(p s_l) = S(s_l) S(p).  So delta(p) is the product of the
delta(s_l) tables along the word w = w0 w1 ... by which the walk reached p,
and S(p) that of the S(s_l) tables along its reverse.  Every axiom then
holds on every basis element exactly when

- multiplicativity: every other edge's product equals the stored
  delta(p s_l), so delta(p) delta(s_l) = delta(p s_l) for all m! (m - 1)
  pairs.  This gives delta(p) delta(q) = delta(pq) for every pair:
  delta(q) is the product of the delta(s_l) tables along the walk's word w
  of q, and table products are associative, so delta(p) delta(q) =
  delta(p s_w0) delta(s_w1) ... = delta(pq), one letter at a time.  With
  delta(F(lam, p)) = delta(Lambda_lam) delta(p) and p Lambda_mu =
  Lambda_(mu o p^(-1)) p, that is delta(F F') = delta(F) delta(F') on every
  pair of basis elements: delta is an algebra map;
- coassociativity: omega_p(mu, nu) + omega_p(mu + nu, rho)
  = omega_p(mu, nu + rho) + omega_p(nu, rho) mod 2n on all n^(3m) triples
  (the 2-cocycle identity) for p = s_1 .. s_(m-1), or for every p when an
  edge is not multiplicative.  When delta is an algebra map, so are
  (delta x id) delta and (id x delta) delta, which then agree on A exactly
  when they agree on the generators Lambda_lam and s_l.  On Lambda_lam both
  are the sum of Lambda_mu (x) Lambda_nu (x) Lambda_rho over
  mu + nu + rho = lam, as the table of delta(1) is 0 by construction; on s_l
  they agree exactly when omega_(s_l) is a cocycle: (m - 1) n^(3m) triples,
  not m! n^(3m);
- counit: (eps (x) id) delta = id and its mirror.  With eps(F(a, p)) =
  eps(Lambda_a), the sum of the coefficients n^-m zeta^k that check_model
  read, this is eps(Lambda_a) = [a = 0] for every character a, which allows
  no value but 0 or 1, and omega_p(mu, nu) = 0 wherever mu or nu is 0:
  integer comparisons, m! n^m of them;
- antipode: m (S (x) id) delta = eps 1 and its mirror hold on every
  F(lam, p).  For fixed lam and p, a -> (-a) o p is a bijection of the
  characters, so each side carries at most one root of unity per character
  and nothing cancels: both sides are {character: exponent} maps, and
  eps(Lambda_lam) 1 is the empty map, zeta^k on every character, or, when
  eps(Lambda_lam) is neither 0 nor a root of unity, no such map;
- relations: relations.presentation holds on the tables of the x-monomials
  and of the delta(z_l) at (n, 2m), multiplied by adding exponents.

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
difference is

    n^-2m sum over mu, nu of (zeta^d(mu, nu) - zeta^d(nu, mu)) zeta^(2 (mu . t + nu . u)).

The group index of (t, p) is perm_index(p) n^m + twist_index(t), so the
first nonzero coordinate in the order of (t, u) is the least pair of
indices.  Each coordinate counts its exponents with integers and is reduced
once by root_count_sum, and the sum over mu is taken once for each t.

The group-basis delta, antipode, tensor square and witness, the axiom checks
on them, the dense change of basis, the relation check on dense
character-basis tensors and the all-pairs multiplicativity and antipode
loops are kept as the reference in tests/hopf_group_basis_oracle.py.
"""

from __future__ import annotations

from functools import cached_property, partial

from .algebra import AlgebraElement
from .character_basis import CharacterElement, symmetric_group
from .character_model import MonomialModel, check_model, root_exponent, tensor_key
from .cyclotomic import CycNumber, root_count_sum
from .relations import presentation, y_exponent, z_square_sum
from .sparse import add_into
from .wreath import CheckFailedError, check_cap, element_at, generator_b, perm_index, twist_index


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


def counit(a: AlgebraElement) -> CycNumber:
    """The counit: one on every group basis element, extended linearly."""
    return sum(a.terms.values(), CycNumber.zero(2 * a.n))


# -- the character basis -------------------------------------------------------


class _CharacterHopf:
    """delta, S and the counit on every basis element F(lam, p) at one (n, m),
    as exponent tables over characters numbered by twist index, and the
    primitives of the defining formulas in the model.

    delta_p[p] is the table of delta(p) at (n, 2m), so F(a, p) (x) F(b, p)
    is its entry a + n^m b and delta(F(lam, p)) collects the pairs with
    a + b = lam; sigma[p][a] is the exponent of F(a, p^(-1)) in S(p);
    eps[a] = eps(F(a, p)), for every p.  delta_z, delta_s and antipode_s map
    l to the tables of the generator images; the walk that builds delta_p
    and sigma checks multiplicativity, one product per Cayley edge.
    plus[a][b] is the index of the character a + b, neg[a] that of -a and
    model.moved(p)[a] that of a o p.
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
        self.perms = symmetric_group(m)
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

    @cached_property
    def _walk(self) -> tuple[dict, dict, str | None]:
        """delta(p) and the exponents of S(p) for every p, and the first
        edge that is not multiplicative, by the walk of the module docstring."""
        one, size = self.perms[0], len(self.chars)
        delta, antipode = {one: self.model2.one()}, {one: self.model.one()}
        failure, reached = None, [one]
        for p in reached:  # grows as the walk reaches new permutations
            for l, s in self.gens.items():
                product, q = delta[p] * self.delta_s[l], p * s
                if q not in delta:
                    delta[q] = product
                    antipode[q] = self.antipode_s[l] * antipode[p]
                    reached.append(q)
                elif failure is None and product.entries != delta[q].entries:
                    # the first differing term F(a, q) (x) F(b, q) in the order of a, b
                    got, want = product.entries, delta[q].entries
                    a, b = min((k % size, k // size) for k, e in enumerate(got) if e != want[k])
                    lam = self.plus[a][b]
                    failure = (
                        f"delta(F F') and delta(F) delta(F') differ for F = "
                        f"{self.name(lam, p)}, F' = {self.name(self.model.moved(p)[lam], s)} "
                        f"at the term {self.name(a, q)} (x) {self.name(b, q)}"
                    )
        return delta, {p: table.entries for p, table in antipode.items()}, failure

    # walked on first use, so that the witness alone multiplies no tables
    delta_p = cached_property(lambda self: self._walk[0])
    sigma = cached_property(lambda self: self._walk[1])

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
            c = a.non_roots[min(a.non_roots)]
            raise CheckFailedError(
                f"{what} has the coefficient {c!r} in the character basis, "
                f"which is not a power of zeta_{c.order}"
            )
        return a

    # the checks

    def omega(self, p) -> list:
        """Row a of the table of delta(p): entry b is the exponent of
        F(a, p) (x) F(b, p)."""
        entries, size = self.delta_p[p].entries, len(self.chars)
        return [entries[a::size] for a in range(size)]

    def name(self, a: int, p) -> str:
        return f"F({self.chars[a]}, {list(p)})"

    def antipode_terms(self, p) -> list[tuple[int, int]]:
        """Entry a is (e, b): S(F(a, p)) = S(p) F(-a, 1) = zeta^e F(b, p^(-1)), b = (-a) o p."""
        sigma, act = self.sigma[p], self.model.moved(p)
        return [(sigma[b], b) for b in (act[c] for c in self.neg)]

    def coassociativity_failure(self) -> str | None:
        # on the generators when delta is an algebra map (see the module docstring)
        perms = self.gens.values() if self.multiplicativity_failure() is None else self.perms
        plus, order, size = self.plus, self.order, len(self.chars)
        for p in perms:
            w = self.omega(p)
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
        return self._walk[2]

    def counit_failure(self) -> str | None:
        # the term F(a, p) (x) F(b, p) of delta(F(a + b, p)) must contribute
        # eps(F(a, p)) zeta^omega F(b, p) = [a = 0] F(b, p) and its mirror:
        # eps[a] = [a = 0] and eps[b] = [b = 0], which leaves no value but 0
        # or 1, and omega = 0 wherever a or b is 0.  The first failing pair in
        # the order of p, a, b is the least of four candidates.
        bad = [a for a, value in enumerate(self.eps) if value != (1 if a == 0 else 0)]
        for p in self.perms:
            w = self.omega(p)
            failing = [(x, 0) for x in bad[:1]] + [(0, x) for x in bad[:1]]
            failing += [(0, b) for b, e in enumerate(w[0]) if e][:1]
            failing += [(a, 0) for a, row in enumerate(w) if row[0]][:1]
            if failing:
                a, b = min(failing)
                return (
                    f"(eps x id) delta or (id x eps) delta is not the identity on "
                    f"{self.name(self.plus[a][b], p)}"
                )
        return None

    def antipode_failure(self) -> str | None:
        order, size = self.order, len(self.chars)

        def unit_times(value):
            # value 1, with 1 = sum F(mu, 1), as {mu: exponent}; None, which
            # no side equals, when value is neither 0 nor a root of unity
            if not value:
                return {}
            k = root_exponent(value)
            return None if k is None else dict.fromkeys(range(size), k)

        expected = [unit_times(value) for value in self.eps]
        for p in self.perms:
            w, terms = self.omega(p), self.antipode_terms(p)
            fwd, back = self.model.moved(p), self.model.moved(p.inverse())
            for lam in range(size):
                left: dict = {}
                right: dict = {}
                for a in range(size):
                    b = self.plus[lam][self.neg[a]]
                    e = w[a][b]
                    # S(F(a, p)) F(b, p) = zeta^k F(c, p^(-1)) F(b, p): F(c, 1)
                    # when b = c o p^(-1); c = (-a) o p differs for each a
                    k, c = terms[a]
                    if back[c] == b:
                        left[c] = (e + k) % order
                    # F(a, p) S(F(b, p)) = zeta^k F(a, p) F(c, p^(-1)): F(a, 1) when c = a o p
                    k, c = terms[b]
                    if c == fwd[a]:
                        right[a] = (e + k) % order
                if left != expected[lam] or right != expected[lam]:
                    return (
                        f"m (S x id) delta or m (id x S) delta is not eps 1 on "
                        f"{self.name(lam, p)}"
                    )
        return None

    def flip(self, t):
        """The table of the flipped tensor: F(a, p) (x) F(b, q) -> F(b, q) (x) F(a, p)."""
        m, size, entries = self.m, len(self.chars), t.entries
        _, perm = tensor_key(((), [j - m for j in t.perm[m:]]), ((), t.perm[:m]))
        return self.model2.monomial(perm, [e for b in range(size) for e in entries[b::size]])

    def first_difference(self, l: int) -> tuple[list, CycNumber]:
        """The least pair of group indices at which delta(z_l) and its flip
        differ, and the coefficient of the difference there; delta(z_l) must
        differ from its flip."""
        order, size, entries = self.order, len(self.chars), self.delta_z[l].entries
        base = perm_index(self.gens[l]) * size
        # twice_dot[t][mu] = 2 mu . t, the exponent of (t, p) in n^m Lambda_mu p
        twice_dot = [[-e % order for e in self.x(t).entries] for t in self.chars]
        for t, phase in enumerate(twice_dot):
            # by nu, the counts of sum_mu (zeta^d(mu, nu) - zeta^d(nu, mu)) zeta^(2 mu . t)
            by_nu = []
            for nu in range(size):
                counts = [0] * order
                for e, f, k in zip(entries[nu * size : (nu + 1) * size], entries[nu::size], phase):
                    if e is not None:
                        counts[(e + k) % order] += 1
                    if f is not None:
                        counts[(f + k) % order] -= 1
                by_nu.append(counts)
            for u, shifts in enumerate(twice_dot):
                counts = [0] * order
                for row, shift in zip(by_nu, shifts):
                    for k, c in enumerate(row):
                        if c:
                            counts[(k + shift) % order] += c
                value = root_count_sum(order, tuple(counts), size * size)
                if value:
                    return [base + t, base + u], value
        raise CheckFailedError(
            f"delta(z_{l}) differs from its flip as a table but in no group-basis coordinate"
        )

    def cocommutativity_witness(self) -> dict:
        """Whether each delta(z_l) differs from its flip, with the first
        nonzero coordinate of the difference as witness, and whether the
        x generators are symmetric."""
        out: dict = {}
        for l, table in self.delta_z.items():
            if table == self.flip(table):
                out[f"z_{l}"] = {"status": "cocommutative"}
            else:
                pair, value = self.first_difference(l)
                out[f"z_{l}"] = {
                    "status": "noncocommutative",
                    "witness": {"pair": pair, "coefficient": value.to_json()},
                }
        m = self.m
        x_tables = (self.model2.x_monomial(2 * [int(j == i) for j in range(m)]) for i in range(m))
        x_symmetric = all(table == self.flip(table) for table in x_tables)
        out["x_generators"] = "symmetric" if x_symmetric else "asymmetric"
        return out

    def relation_failures(self) -> list[str]:
        """The defining relations that delta, extended multiplicatively from
        the generator images, breaks, on the tables at (n, 2m):
        delta(x^t) = x^(t t) and the delta(z_l) built from their formula."""
        families = presentation(self.n, self.m, lambda e: self.model2.x_monomial(e + e), self.delta_z)
        return [
            f"delta({name})"
            for items in families.values()
            for name, lhs, rhs in items
            if lhs != rhs
        ]


def hopf_axiom_report(n: int, m: int, cap: int | None = None) -> dict:
    """Verify every coalgebra, bialgebra and antipode axiom on every basis
    element (and pair of basis elements), in the character basis.

    check_model runs first at (n, m).  Includes the relation-preservation
    suite (well-definedness of the multiplicative extension) and the
    non-cocommutativity witnesses, read from the tables of the delta(z_l).
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
    failures = {
        "coassociativity": hopf.coassociativity_failure(),
        "counit": hopf.counit_failure(),
        "antipode": hopf.antipode_failure(),
        "delta_preserves_relations": hopf.relation_failures() or None,
        "delta_multiplicative": hopf.multiplicativity_failure(),
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

    check_model runs first at (n, m); the tables of the delta(z_l) are built,
    and the walk over S_m is not taken."""
    check_cap(n, m, "tensor-square", cap)
    return _CharacterHopf(n, m).cocommutativity_witness()


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
