"""Comultiplication, counit, and antipode, and the check of the Hopf axioms.

The comultiplication is group-like on x-monomials and is given on the
square-root generators by the twisted formula
delta(z_l) = ((1/n) sum q^(-ij) x_l^i (x) x_{l+1}^j) (z_l (x) z_l),
extended multiplicatively along a canonical adjacent-transposition word for
each basis permutation.  The counit is the group-algebra counit (one on every
basis element).  The antipode inverts x-monomials and fixes the square-root
generators, extended anti-homomorphically along the same canonical words.
These definitions live in the group basis.

The axioms are checked in the character basis F(lam, p) = Lambda_lam p of
kacpal.character_basis, after check_model has verified that basis at the
report's (n, m).  Changed to the character basis on both legs,

    delta(F(lam, p)) = sum over mu + nu = lam of
                       zeta^omega_p(mu, nu) F(mu, p) (x) F(nu, p),
    S(F(lam, p)) = zeta^sigma_p(mu) F(mu, p^(-1)),  mu = (-lam) o p,

so delta and S are fixed by exponent tables with values in Z_2n: the
comultiplication is a 2-cocycle twist (Majid, Foundations of Quantum Group
Theory).  A tensor changed to the character basis on both legs is an
element of the model at (n, 2m), keyed by character_basis.tensor_key, whose
product is that of the tensor square.  delta(s_l) is read there, and S(s_l)
at (n, m), as one character_basis.Monomial each by MonomialModel.read; a
coefficient that is not a 2n-th root of unity, or a term on another
permutation, raises CheckFailedError, and so does a delta(x_i) other than
x^t (x) x^t.  delta(p) and S(p) of every other permutation are products of
these tables along its canonical word, as the group-basis maps are.  Every
axiom then holds on every basis element exactly when

- coassociativity: omega_p(mu, nu) + omega_p(mu + nu, rho)
  = omega_p(mu, nu + rho) + omega_p(nu, rho) mod 2n, over all m! n^(3m)
  triples (the 2-cocycle identity);
- multiplicativity: omega_pq(mu, nu) = omega_p(mu, nu) + omega_q(mu o p, nu o p)
  mod 2n, over all m!^2 n^(2m) pairs of basis elements;
- counit: (eps (x) id) delta = id and its mirror.  With eps(F(a, p)) =
  eps(Lambda_a), read once, this is eps(Lambda_a) = [a = 0] for every
  character a, which allows no value but 0 or 1, and omega_p(mu, nu) = 0
  wherever mu or nu is 0: integer comparisons, m! n^m of them;
- antipode: m (S (x) id) delta = eps 1 and its mirror hold on every
  F(lam, p);
- relations: algebra.presentation holds on the images of the x-monomials
  and the z_l as exponent tables at (n, 2m), multiplied by adding exponents;
  delta(z_l) must be monomial there, or CheckFailedError names it.

The tensors are changed to the character basis by
character_basis.block_coordinates, on integer counts.  The
non-cocommutativity witness stays in the group basis: it reads
delta(z_l) from _delta_z, the defining formula that the relation check has
already built, and compares it with its flip.

The group-basis axiom checks on the generators, the relation check on dense
character-basis tensors, and the dense change of basis are kept as the
reference in tests/hopf_group_basis_oracle.py.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import TYPE_CHECKING

from .algebra import (
    AlgebraElement,
    character_combination,
    lambda_idempotent,
    presentation,
    x_element,
    x_monomial,
    y_element,
    z_element,
    z_square_sum,
)
from .character_basis import (
    CharacterElement,
    Monomial,
    MonomialModel,
    block_coordinates,
    character_coordinates,
    check_model,
    symmetric_group,
    tensor_key,
)
from .cyclotomic import CycNumber, zeta_power
from .sparse import SparseSum, add_into
from .wreath import (
    CheckFailedError,
    Perm,
    check_cap,
    element_at,
    generator_a,
    generator_b,
    group_order,
    mul_row,
    twist_index,
)

if TYPE_CHECKING:  # imported where it is used, so the report does not load it
    from .partitions import SymFormalSum


class TensorElement(SparseSum):
    """A sparse element of the tensor square of the group algebra."""

    __slots__ = ("n", "m")

    def __init__(self, n: int, m: int, terms=None):
        order = group_order(n, m)
        clean: dict[tuple[int, int], CycNumber] = {}
        self._assign(n, m, clean)  # _scalar reads n
        for (i, j), coeff in (terms or {}).items():
            if not (0 <= i < order and 0 <= j < order):
                raise ValueError(f"tensor index ({i}, {j}) out of range")
            coeff = self._scalar(coeff)
            if coeff:
                clean[(i, j)] = coeff

    # The benchmark's tracer wraps TensorElement.__mul__ found in this class's
    # own __dict__; without this binding its product counts would read zero.
    __mul__ = SparseSum.__mul__

    # Scalars are those of the algebra, Q(zeta_2n).
    _scalar = AlgebraElement._scalar
    root_sum = AlgebraElement.root_sum

    def _one(self) -> "TensorElement":
        return TensorElement.unit(self.n, self.m)

    def _row(self, key: tuple[int, int]):
        # componentwise group product in both tensor legs
        left = mul_row(self.n, self.m, key[0])
        right = mul_row(self.n, self.m, key[1])
        return lambda k: (left[k[0]], right[k[1]])

    @classmethod
    def unit(cls, n: int, m: int) -> "TensorElement":
        return cls._make(n, m, {(0, 0): CycNumber.one(2 * n)})

    def flip(self) -> "TensorElement":
        return TensorElement._make(
            self.n, self.m, {(j, i): c for (i, j), c in self.terms.items()}
        )

    def __repr__(self):
        return f"TensorElement(n={self.n}, m={self.m}, {len(self.terms)} terms)"


def tensor(a: AlgebraElement, b: AlgebraElement) -> TensorElement:
    """The elementary tensor of two algebra elements."""
    a._check(b)
    terms = {}
    for i, ca in a.terms.items():
        for j, cb in b.terms.items():
            terms[(i, j)] = ca * cb
    return TensorElement._make(a.n, a.m, terms)


def _diagonal(a: AlgebraElement) -> TensorElement:
    """Apply the group-like comultiplication to an element supported on
    x-monomials."""
    return TensorElement._make(a.n, a.m, {(i, i): c for i, c in a.terms.items()})


@lru_cache(maxsize=None)
def _delta_z(n: int, m: int, l: int) -> TensorElement:
    """The defining comultiplication of the square-root generator: the z_l^2
    double sum with each monomial x_l^i x_{l+1}^j split as x_l^i (x) x_{l+1}^j,
    times z_l (x) z_l."""

    def split(e):
        left = x_monomial(n, m, e[:l] + (0,) * (m - l))
        return tensor(left, x_monomial(n, m, (0,) * l + e[l:]))

    z = z_element(n, m, l)
    return z_square_sum(n, m, l, split) * tensor(z, z)


@lru_cache(maxsize=None)
def _delta_s(n: int, m: int, l: int) -> TensorElement:
    """delta(s_l) = delta(y_l) delta(z_l); y_l is a combination of x-monomials,
    so its comultiplication is diagonal."""
    return _diagonal(y_element(n, m, l)) * _delta_z(n, m, l)


def _perm_word(images: tuple[int, ...]) -> tuple[int, ...]:
    """A canonical adjacent-transposition word for a permutation.

    Bubble sort the one-line form; the reversed swap sequence gives 1-based
    subscripts w so that the basis element equals s_{w[0]} * s_{w[1]} * ...
    """
    work = list(images)
    swaps = []
    changed = True
    while changed:
        changed = False
        for i in range(len(work) - 1):
            if work[i] > work[i + 1]:
                work[i], work[i + 1] = work[i + 1], work[i]
                swaps.append(i + 1)
                changed = True
    return tuple(reversed(swaps))


@lru_cache(maxsize=None)
def _delta_basis(n: int, m: int, index: int) -> TensorElement:
    """Comultiplication of a single group basis element."""
    u = element_at(n, m, index)
    result = _diagonal(x_monomial(n, m, u.twists))
    for l in _perm_word(u.perm):
        result = result * _delta_s(n, m, l)
    return result


def delta(a: AlgebraElement) -> TensorElement:
    """Comultiplication, extended linearly over the group basis."""
    acc: dict[tuple[int, int], CycNumber] = {}
    for ix, c in a.terms.items():
        add_into(acc, _delta_basis(a.n, a.m, ix).terms, c)
    return TensorElement._make(a.n, a.m, acc)


def counit(a: AlgebraElement) -> CycNumber:
    """The counit: one on every group basis element, extended linearly."""
    return sum(a.terms.values(), CycNumber.zero(2 * a.n))


@lru_cache(maxsize=None)
def _antipode_s(n: int, m: int, l: int) -> AlgebraElement:
    """The antipode of s_l: fixes z_l and reverses the factors,
    S(s_l) = z_l * sum over lam of zeta^(-lam_l lam_{l+1}) Lambda_(-lam).

    Negating the character representatives changes the integer products in
    the exponents, so for n >= 3 this differs from s_l itself.
    """
    ident = tuple(range(m))
    terms = {}
    for lam in product(range(n), repeat=m):
        neg_l, neg_next = (-lam[l - 1]) % n, (-lam[l]) % n
        terms[lam, ident] = zeta_power(2 * n, -neg_l * neg_next)
    return z_element(n, m, l) * character_combination(n, m, terms, {})


@lru_cache(maxsize=None)
def _antipode_basis(n: int, m: int, index: int) -> AlgebraElement:
    """Antipode of one basis element: reversed word of s-antipodes times the
    inverted x-monomial."""
    u = element_at(n, m, index)
    result = x_monomial(n, m, tuple((-t) % n for t in u.twists))
    for l in _perm_word(u.perm):
        result = _antipode_s(n, m, l) * result
    return result


def antipode(a: AlgebraElement) -> AlgebraElement:
    """The antipode: x-monomials map to their inverses, square-root
    generators are fixed, extended anti-homomorphically along the canonical
    word of each basis element."""
    acc: dict[int, CycNumber] = {}
    for ix, c in a.terms.items():
        add_into(acc, _antipode_basis(a.n, a.m, ix).terms, c)
    return AlgebraElement._make(a.n, a.m, acc)


# -- the character basis of the tensor square -----------------------------------


def _to_characters(t: TensorElement) -> CharacterElement:
    """The exact change of basis of both legs of a tensor: an element of the
    model at (n, 2m), keyed by tensor_key.  (s, p) (x) (u, q) is the group
    element (s + n^m u, p (+) q) at (n, 2m), so each block p (+) q is changed
    in one pass over its 2m slots."""
    n, m = t.n, t.m
    size, blocks = n**m, {}
    for (i, j), c in t.terms.items():
        (p, s), (q, u) = divmod(i, size), divmod(j, size)
        blocks.setdefault((p, q), {})[s + size * u] = c
    terms: dict = {}
    for (p, q), column in blocks.items():
        _, doubled = tensor_key(((), Perm.from_lehmer(m, p)), ((), Perm.from_lehmer(m, q)))
        terms.update(block_coordinates(n, 2 * m, doubled, column))
    return CharacterElement._make(n, 2 * m, terms)


def _delta_table(model2: MonomialModel, t: TensorElement, p, what: str) -> Monomial:
    """The exponent table at (n, 2m) of a tensor that must be
    sum zeta^e F(mu, p) (x) F(nu, p), the image under delta of an element on
    the permutation p; CheckFailedError names what it is otherwise."""
    _, doubled = tensor_key(((), p), ((), p))  # p (+) p
    return model2.read(_to_characters(t).terms, doubled, what)


class _CharacterHopf:
    """delta, S and the counit on every basis element F(lam, p) at one (n, m),
    as exponent tables over characters numbered by twist index.

    omega[p][a][b] is the exponent of F(a, p) (x) F(b, p) in delta(p), so
    delta(F(lam, p)) collects the pairs with a + b = lam; sigma[p][a] that of
    F(a, p^(-1)) in S(p); eps[a] = eps(F(a, p)), for every p.  The remaining
    tables hold character arithmetic: plus[a][b] is the index of a + b,
    neg[a] that of -a and moved[p][a] that of a o p; zetas[k] is zeta^k.
    """

    def __init__(self, n: int, m: int):
        self.n, self.m, self.order = n, m, 2 * n
        self.zetas = [zeta_power(self.order, k) for k in range(self.order)]
        model = MonomialModel(n, m)
        chars = self.chars = model.chars
        self.plus = [
            [twist_index(n, [(a + b) % n for a, b in zip(mu, nu)]) for nu in chars] for mu in chars
        ]
        self.neg = [twist_index(n, [-a % n for a in mu]) for mu in chars]
        self.perms = symmetric_group(m)
        self.moved = {p: model.moved(p) for p in self.perms}
        model2 = self.model2 = MonomialModel(n, 2 * m)
        self._check_x_group_like()
        # Phi(F(lam, p)) is Lambda_lam moved to the block of p, with the same
        # coefficients, so its counit is that of Lambda_lam.
        self.eps = [counit(lambda_idempotent(n, m, lam)) for lam in chars]
        delta_s, antipode_s = {}, {}
        for l in range(1, m):
            s = generator_b(n, m, l).perm
            delta_s[l] = _delta_table(model2, _delta_s(n, m, l), s, f"delta(s_{l})")
            terms = character_coordinates(n, m, _antipode_s(n, m, l).terms)
            antipode_s[l] = model.read(terms, s, f"S(s_{l})")
        # along the word w of p, delta(p) = delta(s_w0) delta(s_w1) ... and
        # S(p) = ... S(s_w1) S(s_w0); F(a, p) (x) F(b, p) is entry a + n^m b
        # of the table of delta(p), its twist index at (n, 2m)
        size = len(chars)
        self.omega, self.sigma = {}, {}
        for p in self.perms:
            delta_p, antipode_p = model2.one(), model.one()
            for l in _perm_word(p):
                delta_p, antipode_p = delta_p * delta_s[l], antipode_s[l] * antipode_p
            self.omega[p] = [delta_p.entries[a::size] for a in range(size)]
            self.sigma[p] = antipode_p.entries

    def _check_x_group_like(self):
        n, m, model2 = self.n, self.m, self.model2
        for i in range(1, m + 1):
            t = generator_a(n, m, i).twists
            table = _delta_table(model2, delta(x_element(n, m, i)), range(m), f"delta(x_{i})")
            if table != model2.x_monomial(t + t):
                raise CheckFailedError(f"delta(x_{i}) is not group-like in the character basis")

    def name(self, a: int, p) -> str:
        return f"F({self.chars[a]}, {list(p)})"

    def antipode_term(self, a: int, p) -> tuple[int, int]:
        """S(F(a, p)) = S(p) F(-a, 1) = zeta^e F(b, p^(-1)) with b = (-a) o p, as (e, b)."""
        b = self.moved[p][self.neg[a]]
        return self.sigma[p][b], b

    def coassociativity_failure(self) -> str | None:
        plus, order, size = self.plus, self.order, len(self.chars)
        for p in self.perms:
            w = self.omega[p]
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
        order, size = self.order, len(self.chars)
        for p in self.perms:
            wp, act = self.omega[p], self.moved[p]
            for q in self.perms:
                wq, wpq = self.omega[q], self.omega[p * q]
                for a in range(size):
                    rp, rpq, rq = wp[a], wpq[a], wq[act[a]]
                    for b in range(size):
                        if (rpq[b] - rp[b] - rq[act[b]]) % order:
                            lam = self.plus[a][b]
                            return (
                                f"delta(F F') and delta(F) delta(F') differ for F = "
                                f"{self.name(lam, p)}, F' = {self.name(act[lam], q)} at the term "
                                f"{self.name(a, p * q)} (x) {self.name(b, p * q)}"
                            )
        return None

    def counit_failure(self) -> str | None:
        # the term F(a, p) (x) F(b, p) of delta(F(a + b, p)) must contribute
        # eps(F(a, p)) zeta^omega F(b, p) = [a = 0] F(b, p) and its mirror:
        # eps[a] = [a = 0] and eps[b] = [b = 0], which leaves no value but 0
        # or 1, and omega = 0 wherever a or b is 0.  The first failing pair in
        # the order of p, a, b is the least of four candidates.
        bad = [a for a, value in enumerate(self.eps) if value != (1 if a == 0 else 0)]
        for p in self.perms:
            w = self.omega[p]
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
        order, size, zetas = self.order, len(self.chars), self.zetas
        for p in self.perms:
            w, fwd, back = self.omega[p], self.moved[p], self.moved[p.inverse()]
            for lam in range(size):
                # eps(F(lam, p)) 1, with 1 = sum F(mu, 1)
                expected = dict.fromkeys(range(size), self.eps[lam]) if self.eps[lam] else {}
                left: dict = {}
                right: dict = {}
                for a in range(size):
                    b = self.plus[lam][self.neg[a]]
                    e = w[a][b]
                    # S(F(a, p)) F(b, p) = zeta^k F(c, p^(-1)) F(b, p): F(c, 1) when b = c o p^(-1)
                    k, c = self.antipode_term(a, p)
                    if back[c] == b:
                        add_into(left, {c: zetas[(e + k) % order]})
                    # F(a, p) S(F(b, p)) = zeta^k F(a, p) F(c, p^(-1)): F(a, 1) when c = a o p
                    k, c = self.antipode_term(b, p)
                    if c == fwd[a]:
                        add_into(right, {a: zetas[(e + k) % order]})
                if left != expected or right != expected:
                    return (
                        f"m (S x id) delta or m (id x S) delta is not eps 1 on "
                        f"{self.name(lam, p)}"
                    )
        return None


def _relation_failures(n: int, m: int) -> list[str]:
    """The defining relations that delta, extended multiplicatively from the
    generator images, breaks: each image is an exponent table at (n, 2m),
    x^t (x) x^t = x^(t t) and delta(z_l) read off the defining formula."""
    model2 = MonomialModel(n, 2 * m)
    z = {
        l: _delta_table(model2, _delta_z(n, m, l), generator_b(n, m, l).perm, f"delta(z_{l})")
        for l in range(1, m)
    }
    families = presentation(n, m, lambda e: model2.x_monomial(e + e), z)
    return [
        f"delta({name})" for items in families.values() for name, lhs, rhs in items if lhs != rhs
    ]


def hopf_axiom_report(n: int, m: int, cap: int | None = None) -> dict:
    """Verify every coalgebra, bialgebra and antipode axiom on every basis
    element (and pair of basis elements), in the character basis.

    check_model runs first at (n, m).  Includes the relation-preservation
    suite (well-definedness of the multiplicative extension) and the
    non-cocommutativity witnesses, which stay in the group basis.
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
    check_model(n, m)
    hopf = _CharacterHopf(n, m)
    failures = {
        "coassociativity": hopf.coassociativity_failure(),
        "counit": hopf.counit_failure(),
        "antipode": hopf.antipode_failure(),
        "delta_preserves_relations": _relation_failures(n, m) or None,
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
    report["non_cocommutativity"] = cocommutativity_witness(n, m, cap=cap)
    report["all_pass"] = all(v == "pass" for v in report["axioms"].values()) and all(
        entry["status"] == "noncocommutative"
        for key, entry in report["non_cocommutativity"].items()
        if key.startswith("z_")
    )
    return report


def cocommutativity_witness(n: int, m: int, cap: int | None = None) -> dict:
    """Report that delta(z_l) differs from its flip, with one nonzero
    coordinate as witness, and that the x generators are symmetric.

    delta(z_l) is _delta_z, its defining formula, which the relation check
    has already built; delta applied to the group-basis terms of z_l gives
    the same tensor."""
    check_cap(n, m, "tensor-square", cap)
    out: dict = {}
    for l in range(1, m):
        d = _delta_z(n, m, l)
        diff = d - d.flip()
        if diff.is_zero():
            out[f"z_{l}"] = {"status": "cocommutative"}
        else:
            key = min(diff.terms)
            out[f"z_{l}"] = {
                "status": "noncocommutative",
                "witness": {
                    "pair": list(key),
                    "coefficient": diff.terms[key].to_json(),
                },
            }
    x_symmetric = all(
        delta(x_element(n, m, i)) == delta(x_element(n, m, i)).flip()
        for i in range(1, m + 1)
    )
    out["x_generators"] = "symmetric" if x_symmetric else "asymmetric"
    return out


def quotient_to_sym(a: AlgebraElement) -> SymFormalSum:
    """Project onto the symmetric group algebra by forgetting twists.

    The projection kills x_i - 1, so every x-monomial maps to the identity
    permutation.  Raises ValueError if a projected coefficient is not
    rational (such a value cannot be represented in a rational formal sum).
    """
    from .partitions import SymFormalSum

    acc: dict = {}
    for ix, c in a.terms.items():
        add_into(acc, {element_at(a.n, a.m, ix).perm: c})
    return SymFormalSum(a.m, {perm: c.rational() for perm, c in acc.items()})
