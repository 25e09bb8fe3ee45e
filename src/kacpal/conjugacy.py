"""The conjugacy classes of the generalised symmetric group, counted as
orbits under conjugation by its generators; only the conjugacy check loads
this module.

The sweep that conjugates by every element of G, which this replaced, is
the reference in tests/group_basis_oracle.py.
"""

from __future__ import annotations

from .wreath import check_cap, element_at, element_index, generator_a, generator_b


def conjugacy_class_count(n: int, m: int, cap: int | None = None) -> int:
    """Number of conjugacy classes, as orbits under conjugation by the
    generators x_i (generator_a) and s_l (generator_b).

    A set closed under conjugation by each generator g is closed under
    conjugation by g^(-1), a power of g in a finite group, and so under every
    product of generators: under G.  The class of an element is therefore the
    set its generator conjugates reach, and the sweep visits each index once.
    """
    order = check_cap(n, m, "conjugacy", cap)
    gens = [generator_a(n, m, i) for i in range(1, m + 1)]
    gens += [generator_b(n, m, l) for l in range(1, m)]
    pairs = [(g, g.inverse()) for g in gens]
    visited = bytearray(order)
    count = 0
    for start in range(order):
        if visited[start]:
            continue
        count += 1
        visited[start] = 1
        stack = [start]
        while stack:
            u = element_at(n, m, stack.pop())
            for g, g_inv in pairs:
                ix = element_index(g * u * g_inv)
                if not visited[ix]:
                    visited[ix] = 1
                    stack.append(ix)
    return count
