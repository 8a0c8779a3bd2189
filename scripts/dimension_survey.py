"""Tabulate order dimension over random posets and the crown family.

For each size the script samples posets (random edge density along a
random permutation, transitively closed), computes exact dimension with
witness realizers, and prints the distribution plus the worst observed
margin against the floor(m/2) bound.
"""

import argparse
import random
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from orderdim.dimension import dimension
from orderdim.poset import FinitePoset, _closure, crown


def random_poset(rng: random.Random, m: int) -> FinitePoset:
    """Random edges along a random permutation, so acyclic, then closed."""
    perm = list(range(m))
    rng.shuffle(perm)
    density = rng.uniform(0.1, 0.6)
    rows = [0] * m
    for i in range(m):
        for j in range(i + 1, m):
            if rng.random() < density:
                rows[perm[i]] |= 1 << perm[j]
    return FinitePoset.from_rows([f"x{i}" for i in range(m)], _closure(rows))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--samples", type=int, default=200, help="posets per size")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--min-size", type=int, default=2)
    ap.add_argument("--max-size", type=int, default=8)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    print(f"{'m':>3} {'samples':>8} {'dim counts':<24} {'max':>4} {'bound':>6}")
    for m in range(args.min_size, args.max_size + 1):
        counts: Counter[int] = Counter()
        for _ in range(args.samples):
            counts[dimension(random_poset(rng, m)).dim] += 1
        dist = " ".join(f"{d}:{counts[d]}" for d in sorted(counts))
        bound = m // 2 if m >= 4 else "-"
        print(f"{m:>3} {args.samples:>8} {dist:<24} {max(counts):>4} {bound:>6}")

    print("\ncrowns:")
    for n in (2, 3, 4):
        res = dimension(crown(n))
        print(f"  crown({n}): {2 * n} elements, dimension {res.dim}")


if __name__ == "__main__":
    main()
