"""Emit every machine-checkable certificate as JSON, replaying each first.

Writes one file per certificate into the output directory: the
amalgamation failure, the antichain-swap and lexicographic-collapse
non-homogeneity witnesses (both widths), and a two-homogeneity
extension demo on an ascending four-chain.  A certificate that fails
its replay stops the script with exit status 1 (also under python -O).
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from orderdim.homogeneity import (
    ap_failure_certificate,
    nonhom_witness,
    qn_lex_nonhom_witness,
    two_homogeneity_demo,
)


def write_certificates(jobs, outdir: Path) -> None:
    """Replay each (name, certificate) job, then write it as JSON."""
    outdir.mkdir(parents=True, exist_ok=True)
    for name, cert in jobs:
        if not cert.replay():
            sys.exit(f"{name}: certificate failed its replay")
        path = outdir / f"{name}.json"
        path.write_text(json.dumps(cert.to_json(), sort_keys=True, indent=2) + "\n")
        print(f"{path}  kind={cert.kind.value}  replay=ok")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="certificates", help="output directory")
    args = ap.parse_args()

    jobs = [("ap_failure_n2", ap_failure_certificate(2))]
    for n in (2, 3):
        jobs.append((f"nonhom_n{n}", nonhom_witness(n)))
        jobs.append((f"qn_lex_nonhom_n{n}", qn_lex_nonhom_witness(n)))
        jobs.append((f"two_homogeneity_n{n}", two_homogeneity_demo(n)))
    write_certificates(jobs, Path(args.out))


if __name__ == "__main__":
    main()
