#!/usr/bin/env python3
"""Protocol shootout: the [Arch85]-style comparison behind the paper's
"preferred" choices (section 5.2), through the :mod:`repro.api` verbs.

Runs every implemented protocol over the same synthetic shared-memory
workload on the timed Futurebus simulator and prints the comparison
table, then the update-vs-invalidate and copy-back-vs-write-through
sweeps.  The session traces the comparison: each protocol gets its own
stream in the exported timeline.

Run:  python examples/protocol_shootout.py
"""

from repro import Session, plan
from repro.analysis import (
    format_rows,
    update_vs_invalidate_sweep,
    write_through_vs_copy_back,
)


def main() -> None:
    session = Session(label="shootout", trace=True)
    print(
        format_rows(
            session.execute(plan("shootout", references=4000)),
            "Protocol comparison -- 4 CPUs, p_shared=0.3, p_write=0.3, "
            "4000 references, timed Futurebus run",
        )
    )
    print()
    print(
        format_rows(
            update_vs_invalidate_sweep(),
            "Update vs invalidate across sharing intensity "
            "(the section 5.2 preferred-choice evidence)",
        )
    )
    print()
    print(
        format_rows(
            write_through_vs_copy_back(),
            "Write-through vs copy-back bus traffic (why the class exists)",
        )
    )
    path = session.write_trace("shootout.trace.json")
    print(f"\nper-protocol trace written to {path}")


if __name__ == "__main__":
    main()
