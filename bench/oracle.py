"""Independent answer checks for the benchmark, standard library only.

Nothing here calls into orderdim.  Posets are lists of Python ints:
``up[i]`` has bit j set when element i < element j strictly.  Each check
either returns the true answer computed a different way than the library
does it, or raises ``Mismatch`` naming what disagrees.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations, product


class Mismatch(Exception):
    """The program under test returned a wrong answer."""


def closure(up: list[int]) -> list[int]:
    """Transitive closure of a strict relation given as row bitsets."""
    m = len(up)
    out = list(up)
    for k in range(m):
        bit = 1 << k
        row = out[k]
        for i in range(m):
            if out[i] & bit:
                out[i] |= row
    return out


def downsets(up: list[int]) -> list[int]:
    m = len(up)
    down = [0] * m
    for i in range(m):
        for j in range(m):
            if up[i] >> j & 1:
                down[j] |= 1 << i
    return down


def random_poset(rng: random.Random, m: int, density: float) -> list[int]:
    """Random strict order: edges along a random permutation, then closed."""
    perm = list(range(m))
    rng.shuffle(perm)
    up = [0] * m
    for a in range(m):
        for b in range(a + 1, m):
            if rng.random() < density:
                up[perm[a]] |= 1 << perm[b]
    return closure(up)


def count_extensions(up: list[int]) -> int:
    """Number of linear extensions, by dynamic programming over downsets."""
    m = len(up)
    down = downsets(up)
    ways = {0: 1}
    for _ in range(m):
        nxt: dict[int, int] = {}
        for taken, w in ways.items():
            for i in range(m):
                if not taken >> i & 1 and down[i] & ~taken == 0:
                    key = taken | 1 << i
                    nxt[key] = nxt.get(key, 0) + w
        ways = nxt
    return ways[(1 << m) - 1]


def crown_bits(n: int) -> list[int]:
    """The 2n-element crown a1..an, b1..bn with a_i < b_j iff i != j."""
    up = [0] * (2 * n)
    for i in range(n):
        for j in range(n):
            if i != j:
                up[i] |= 1 << (n + j)
    return up


def critical_pairs(up: list[int]) -> list[tuple[int, int]]:
    m = len(up)
    down = downsets(up)
    return [
        (x, y)
        for x in range(m)
        for y in range(m)
        if x != y
        and not up[x] >> y & 1
        and not up[y] >> x & 1
        and down[x] & ~down[y] == 0
        and up[y] & ~up[x] == 0
    ]


def _reversible_in(pairs: list[tuple[int, int]], up: list[int], t: int) -> bool:
    """Can the pairs be split into t classes, each reversible in one
    linear extension (the order plus the class's reversed pairs stays
    acyclic)?  Backtracking with per-class reachability bitsets; classes
    are opened in order of first use, so relabelled splits are skipped."""
    m = len(up)
    reach = [list(up) for _ in range(t)]

    def place(k: int, used: int) -> bool:
        if k == len(pairs):
            return True
        x, y = pairs[k]
        for c in range(min(used + 1, t)):
            r = reach[c]
            if r[x] >> y & 1:  # x already below y: the edge y -> x closes a cycle
                continue
            saved = list(r)
            gain = 1 << x | r[x]
            for a in range(m):
                if a == y or r[a] >> y & 1:
                    r[a] |= gain
            if place(k + 1, max(used, c + 1)):
                return True
            reach[c] = saved
        return False

    return place(0, 0)


def dimension_of(up: list[int]) -> int:
    """Order dimension by colouring critical pairs (Trotter & Moore)."""
    pairs = critical_pairs(up)
    if not pairs:
        return 1
    t = 2
    while not _reversible_in(pairs, up, t):
        t += 1
    return t


def check_realizer(labels: list[str], up: list[int], orders) -> None:
    """Raise unless the orders are permutations of labels whose
    intersection is exactly the relation, checked pair by pair."""
    m = len(labels)
    ranks = []
    for order in orders:
        order = list(order)
        if sorted(order) != sorted(labels):
            raise Mismatch("witness order is not a permutation of the elements")
        pos = {lab: k for k, lab in enumerate(order)}
        ranks.append([pos[lab] for lab in labels])
    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            below_everywhere = all(r[i] < r[j] for r in ranks)
            if below_everywhere != bool(up[i] >> j & 1):
                raise Mismatch(
                    f"witness disagrees with the order on ({labels[i]}, {labels[j]})"
                )


def check_extension(labels: list[str], up: list[int], order, forced=()) -> None:
    """Raise unless order is a linear extension of the relation that puts
    a before b for each forced (a, b)."""
    order = list(order)
    if sorted(order) != sorted(labels):
        raise Mismatch("extension is not a permutation of the elements")
    pos = {lab: k for k, lab in enumerate(order)}
    for i, a in enumerate(labels):
        for j, b in enumerate(labels):
            if up[i] >> j & 1 and pos[a] > pos[b]:
                raise Mismatch(f"extension puts {b} below {a}")
    for a, b in forced:
        if pos[a] > pos[b]:
            raise Mismatch(f"extension ignores the forced pair ({a}, {b})")


def realizer_pair_census(up: list[int]) -> int:
    """Ordered pairs (L1, L2) of linear extensions whose intersection is
    the order.  L1 fixes L2: it must reverse every incomparable pair, so
    count the L1 whose conjugate relation is itself a linear order."""
    m = len(up)
    down = downsets(up)
    total = 0
    order: list[int] = []

    def conjugate_is_linear() -> bool:
        pos = {e: k for k, e in enumerate(order)}
        rel = list(up)
        for a in range(m):
            for b in range(m):
                if a != b and not up[a] >> b & 1 and not up[b] >> a & 1:
                    if pos[b] < pos[a]:
                        rel[a] |= 1 << b
        return closure(rel) == rel and all(not rel[a] >> a & 1 for a in range(m))

    def walk(taken: int) -> None:
        nonlocal total
        if len(order) == m:
            total += conjugate_is_linear()
            return
        for i in range(m):
            if not taken >> i & 1 and down[i] & ~taken == 0:
                order.append(i)
                walk(taken | 1 << i)
                order.pop()

    walk(0)
    return total


def product_up(points: list[tuple[Fraction, ...]]) -> list[int]:
    """Componentwise order (<= everywhere, not equal) as row bitsets."""
    m = len(points)
    up = [0] * m
    for i, p in enumerate(points):
        for j, q in enumerate(points):
            if i != j and all(a <= b for a, b in zip(p, q)):
                up[i] |= 1 << j
    return up


def lex_rank_order(points: list[tuple[Fraction, ...]], i: int) -> list[int]:
    """Point indices sorted by cyclic coordinate priority i, i+1, ..."""
    n = len(points[0])
    pri = [(i + j) % n for j in range(n)]
    return sorted(range(len(points)), key=lambda t: [points[t][a] for a in pri])


def check_strict(points: list[tuple[Fraction, ...]]) -> None:
    n = len(points[0])
    for axis in range(n):
        values = [p[axis] for p in points]
        if len(set(values)) != len(values):
            raise Mismatch(f"two points share coordinate {axis}")


def balls(n: int):
    """The fixed (center, radius) stream sample_dn draws its k-th point from."""
    t = 0
    while True:
        bound = 1 << t
        prev = bound >> 1
        for b in range(t + 1):
            scale = 1 << b
            radius = Fraction(1, 2 * scale)
            for nums in product(range(-bound, bound + 1), repeat=n):
                if b < t and all(abs(q) <= prev for q in nums):
                    continue
                yield tuple(Fraction(q, scale) for q in nums), radius
        t += 1


def check_sample(points, n: int, count: int) -> None:
    """sample_dn's contract: count strict points, the k-th in the k-th ball."""
    if len(points) != count:
        raise Mismatch(f"sample has {len(points)} points, expected {count}")
    if count:
        check_strict(points)
    for p, (center, radius) in zip(points, balls(n)):
        if len(p) != n or any(abs(v - c) >= radius for v, c in zip(p, center)):
            raise Mismatch("a sampled point lies outside its ball")


def check_order_preserving(src, dst, pairs) -> None:
    """Matched (src index, dst index) pairs keep every coordinate order."""
    for x, y in pairs:
        for x2, y2 in pairs:
            if x == x2:
                continue
            for axis in range(len(src[0])):
                if (src[x][axis] < src[x2][axis]) != (dst[y][axis] < dst[y2][axis]):
                    raise Mismatch(f"matching breaks coordinate {axis}")


def product_automorphisms(points) -> int:
    """Self-bijections preserving the product order both ways, counted by
    backtracking (the library scans all permutations)."""
    up = product_up(points)
    m = len(points)
    image: list[int] = []
    used = 0
    count = 0

    def extend(k: int) -> None:
        nonlocal used, count
        if k == m:
            count += 1
            return
        for cand in range(m):
            if used >> cand & 1:
                continue
            if all(
                (up[i] >> k & 1) == (up[image[i]] >> cand & 1)
                and (up[k] >> i & 1) == (up[cand] >> image[i] & 1)
                for i in range(k)
            ):
                image.append(cand)
                used |= 1 << cand
                extend(k + 1)
                used &= ~(1 << cand)
                image.pop()

    extend(0)
    return count


def axis_permutations_present(points) -> int:
    """Coordinate permutations that map the point set onto itself."""
    n = len(points[0])
    pts = set(points)
    return sum(
        1
        for sigma in permutations(range(n))
        if all(tuple(p[sigma[k]] for k in range(n)) in pts for p in points)
    )
