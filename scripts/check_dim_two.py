"""Check the two-class decision of the dimension search exhaustively.

`dimension` decides dim(P) <= 2 from the conflict graph of the critical
pairs alone: two classes suffice exactly when its alternating 2-cycles
close no odd cycle.  This script runs that decision on every naturally
labelled poset (i below j implies i < j as indices) up to --max-size
elements, which covers every isomorphism type, and compares it with the
2-colouring search over the whole pair set.  Where the decision accepts,
it also checks the split that shows it: the extension of each class must
realize the poset, and a split that does not counts as a disagreement.
It prints one line per size and exits 1 on any disagreement.

    python scripts/check_dim_two.py --max-size 6
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from orderdim.dimension import _RealizerSearch, _checked
from orderdim.errors import NotARealizer, SelfCheckFailed
from orderdim.poset import FinitePoset, _bits

BUDGET = 10**12


def natural_posets(m: int):
    """Upper-triangular bit rows of every naturally labelled poset on m
    elements: element k joins on top of the first k with any down-closed
    set of them below it."""
    stack = [([], [])]
    while stack:
        up, down = stack.pop()
        k = len(down)
        if k == m:
            yield up
            continue
        for below in range(1 << k):
            if all(not down[i] & ~below for i in _bits(below)):
                lifted = [row | (below >> i & 1) << k for i, row in enumerate(up)]
                stack.append((lifted + [0], down + [below]))


def split_realizes(p: FinitePoset, search: _RealizerSearch) -> bool:
    """Whether the extensions of the classes least_classes kept pass the
    witness self-check."""
    try:
        _checked(p, [search._last_extension(c) for c in search.classes])
    except (NotARealizer, SelfCheckFailed):
        return False
    return True


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--max-size", type=int, default=6)
    args = ap.parse_args()

    bad = 0
    print(f"{'m':>3} {'posets':>8} {'dim>=3':>8} {'disagree':>9}")
    for m in range(1, args.max_size + 1):
        labels = [f"n{i}" for i in range(m)]
        posets = wide = wrong = 0
        for up in natural_posets(m):
            p = FinitePoset.from_rows(labels, up)
            search = _RealizerSearch(p, BUDGET)
            fast = search.least_classes(2) is not None
            slow = _RealizerSearch(p, BUDGET)._colour(2) is not None
            posets += 1
            wide += not slow
            if fast != slow:
                wrong += 1
                print(f"disagree: {p.to_json()} decision {fast}, colouring {slow}")
            elif fast and not split_realizes(p, search):
                wrong += 1
                print(f"disagree: {p.to_json()} split {search.classes} is no realizer")
        print(f"{m:>3} {posets:>8} {wide:>8} {wrong:>9}")
        bad += wrong
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
