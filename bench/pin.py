"""Write bench/pins.json: the answers the benchmark compares against.

Run from the repository root at the commit whose outputs are the
reference:

    python3 bench/pin.py

It runs every CLI pipeline variant as real processes and records the
sha256 and length of its stdout, and records the JSON digest of each
seed-independent certificate.  Re-pinning is a deliberate change of the
expected outputs and belongs in its own commit, with the reason.
"""

from __future__ import annotations

import hashlib
import json
import sys

import workloads as W

sys.path.insert(0, str(W.ROOT / "src"))


def main() -> None:
    env = W.cli_env()
    iso_b, code = W.run_pipeline(
        [["gen", "sample", "--n", "2", "--count", "5", "--seed", "99"]], env
    )
    if code:
        raise SystemExit("gen sample failed")
    pins = {"iso_b": iso_b.decode(), "cli": {}, "certificates": {}}
    W.PINS_FILE.write_text(json.dumps(pins), encoding="utf-8")
    W.write_iso_input()
    for variants in W.cli_families().values():
        for key, stages in variants:
            out, code = W.run_pipeline(stages, env)
            if code:
                raise SystemExit(f"{key} exited {code}")
            pins["cli"][key] = {
                "sha256": hashlib.sha256(out).hexdigest(),
                "bytes": len(out),
            }
    from orderdim import homogeneity

    for kind, builder in (
        ("ap", homogeneity.ap_failure_certificate),
        ("nonhom", homogeneity.nonhom_witness),
        ("qnlex", homogeneity.qn_lex_nonhom_witness),
    ):
        for n in (2, 3):
            pins["certificates"][f"{kind}-{n}"] = W.digest(builder(n).to_json())
    W.PINS_FILE.write_text(
        json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"pinned {len(pins['cli'])} pipelines, {len(pins['certificates'])} certificates")


if __name__ == "__main__":
    main()
