#!/usr/bin/env python3
"""The compatibility theorem, model-checked (paper section 3.4).

Explores every interleaving of local events and every permitted action
choice on small systems, for:

* mixes of MOESI-class members       -> all consistent (exhaustive);
* homogeneous BS-adapted protocols   -> consistent;
* naive foreign/class mixes          -> violations found (as the paper
  warns: those protocols need further definition before mixing);
* deliberately broken mutants        -> violations found (the checker
  has teeth).

Run:  python examples/model_check_compatibility.py
"""

from repro import execute, plan
from repro.analysis import format_rows
from repro.verify import explore


def main() -> None:
    print("Exhaustive exploration of the FULL relaxation closure")
    print("(two caches, any permitted action at every step):")
    result = explore(["full-class", "full-class"])
    print(" ", result.summary())
    print()

    # Every suite: class members, homogeneous foreign, incompatible
    # mixes and mutants.
    rows = execute(plan("verify")).rows
    print(
        format_rows(
            rows,
            "Verification matrix",
            columns=["mix", "expected", "observed", "ok", "states",
                     "transitions"],
        )
    )
    print()

    failures = [r for r in rows if not r["ok"]]
    print(f"{len(rows) - len(failures)}/{len(rows)} cases as the paper "
          "predicts")

    # Show one concrete counterexample narrative for the famous unsafe
    # mix: Write-Once (whose S means "consistent with memory") against a
    # MOESI owner.
    print()
    print("Example counterexample (write-once + moesi):")
    bad = explore(["write-once", "moesi"])
    semantic = [v for v in bad.violations if "memory-current" in v.error]
    print(" ", semantic[0] if semantic else bad.violations[0])


if __name__ == "__main__":
    main()
