"""Tabulate order dimension over random posets and the crown family.

For each size the script samples posets (random edge density along a
random permutation, transitively closed), computes exact dimension with
witness realizers, and prints the distribution plus the worst observed
margin against the floor(m/2) bound.  With --profile it also prints, per
size, the median wall time of one dimension() call, the median time of
each of its phases (building the search, critical-pair colouring,
witness search and the witness self-check, timed on a second run), and
the median steps of the colouring and of the witness search, so a change
in speed can be told apart from a change in work, and placed.  The
witness search builds one linear extension per colour class, one step
per element each:

    python scripts/dimension_survey.py --min-size 6 --max-size 10 --profile
"""

import argparse
import random
import sys
from collections import Counter
from pathlib import Path
from statistics import median
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from orderdim.dimension import _RealizerSearch, _checked, dimension
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


def phase_profile(p: FinitePoset) -> tuple[float, float, float, float, int, int]:
    """Microseconds of the phases of dimension(p), building the search,
    colouring, witness search and self-check, then the steps of the
    colouring and of the witness search."""
    t0 = perf_counter()
    search = _RealizerSearch(p, None)
    t1 = perf_counter()
    n = search.least_classes(len(p))
    t2 = perf_counter()
    colouring = search.meter.budget - search.meter.remaining
    t3 = perf_counter()
    orders = search.witness(n)
    t4 = perf_counter()
    _checked(p, orders)
    t5 = perf_counter()
    witness = search.meter.budget - search.meter.remaining - colouring
    us = 1e6
    return (t1 - t0) * us, (t2 - t1) * us, (t4 - t3) * us, (t5 - t4) * us, colouring, witness


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--samples", type=int, default=200, help="posets per size")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--min-size", type=int, default=2)
    ap.add_argument("--max-size", type=int, default=8)
    ap.add_argument(
        "--profile",
        action="store_true",
        help="also print median us per dimension() call and per phase, and steps per phase",
    )
    args = ap.parse_args()

    rng = random.Random(args.seed)
    profile = []
    print(f"{'m':>3} {'samples':>8} {'dim counts':<24} {'max':>4} {'bound':>6}")
    for m in range(args.min_size, args.max_size + 1):
        counts: Counter[int] = Counter()
        micros, phases = [], []
        for _ in range(args.samples):
            p = random_poset(rng, m)
            start = perf_counter()
            res = dimension(p)
            micros.append((perf_counter() - start) * 1e6)
            counts[res.dim] += 1
            if args.profile:
                phases.append(phase_profile(p))
        dist = " ".join(f"{d}:{counts[d]}" for d in sorted(counts))
        bound = m // 2 if m >= 4 else "-"
        print(f"{m:>3} {args.samples:>8} {dist:<24} {max(counts):>4} {bound:>6}")
        if args.profile:
            profile.append((m, median(micros), *map(median, zip(*phases))))

    print("\ncrowns:")
    for n in (2, 3, 4):
        res = dimension(crown(n))
        print(f"  crown({n}): {2 * n} elements, dimension {res.dim}")

    if profile:
        print("\nmedian per dimension() call:")
        print(
            f"{'m':>3} {'us':>9} {'build_us':>9} {'colour_us':>9} {'witness_us':>10}"
            f" {'check_us':>9} {'colouring':>10} {'witness':>8}"
        )
        for m, us, build, colour, witness_us, check, colouring, witness in profile:
            print(
                f"{m:>3} {us:>9.1f} {build:>9.1f} {colour:>9.1f} {witness_us:>10.1f}"
                f" {check:>9.1f} {colouring:>10g} {witness:>8g}"
            )


if __name__ == "__main__":
    main()
