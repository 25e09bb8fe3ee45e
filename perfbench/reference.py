"""A fixed pure-Python reference task that does not depend on kacpal.

It does the kind of work kacpal's hot paths do: Fraction products and sums
on short coefficient tuples, accumulated in a dict keyed by small ints. The
benchmark times it in fresh processes between commands to measure how fast
the shared machine runs Python during the run, and scales its reported
times to a machine on which this task takes a fixed CPU time.
"""

from fractions import Fraction

ROUNDS = 7000


def work() -> Fraction:
    acc: dict[int, tuple[Fraction, ...]] = {}
    a = (Fraction(1, 3), Fraction(-2, 5), Fraction(0), Fraction(7, 4))
    for i in range(1, ROUNDS + 1):
        b = (Fraction(i, i + 1), Fraction(1, i), Fraction(-i, 7), Fraction(3))
        prod = [Fraction(0)] * 4
        for j, x in enumerate(a):
            if x:
                for k, y in enumerate(b):
                    prod[(j + k) % 4] += x * y
        key = (i * 7919) % 97
        cur = acc.get(key)
        acc[key] = tuple(prod) if cur is None else tuple(p + c for p, c in zip(prod, cur))
    return sum(sum(v) for v in acc.values())


if __name__ == "__main__":
    print(work())
