"""repro: a full reproduction of Sweazey & Smith, "A Class of Compatible
Cache Consistency Protocols and their Support by the IEEE Futurebus"
(ISCA 1986) -- the paper that defined MOESI.

Quickstart (the :mod:`repro.api` verbs)::

    from repro import Session, plan

    session = Session(trace=True)
    result = session.execute(
        plan("experiment", protocol="illinois", references=500)
    )
    assert result.ok
    session.write_trace("out.trace.json")   # Chrome/Perfetto format

or, building the system by hand::

    from repro import System, BoardSpec
    from repro.workloads import ping_pong

    system = System([BoardSpec("cpu0", "moesi"),
                     BoardSpec("cpu1", "dragon"),
                     BoardSpec("cpu2", "write-through")])
    system.run_trace(ping_pong(rounds=100, processors=3))
    assert not system.check_coherence()
    print(system.report().row())

Packages:

* :mod:`repro.core` -- MOESI states, signals, events, the class tables
  (Tables 1/2), policies, validation, invariants;
* :mod:`repro.protocols` -- MOESI, Berkeley, Dragon, Write-Once, Illinois,
  Firefly, write-through, non-caching;
* :mod:`repro.bus` -- the Futurebus: wired-OR lines, broadcast handshake,
  timing, transactions, arbitration;
* :mod:`repro.cache` -- set-associative and sector caches, replacement,
  the snooping controller;
* :mod:`repro.memory` -- main memory (the default owner);
* :mod:`repro.system` -- system builder, discrete-event runner, stats;
* :mod:`repro.workloads` -- traces, synthetic generator, sharing patterns;
* :mod:`repro.verify` -- the exhaustive model checker behind the
  compatibility theorem;
* :mod:`repro.perf` -- the parallel execution layer (the process pool
  the verification matrix, the DES sweeps and fuzz campaigns fan out
  over, the batch kernel, the ``repro bench`` suite);
* :mod:`repro.analysis` -- regenerate/diff the paper's tables and figures,
  performance comparisons;
* :mod:`repro.ext` -- section 5/6 extensions (Puzak refinement, per-page
  protocols, line crossers, line-size mismatch demo, sync/flush
  commands);
* :mod:`repro.hierarchy` -- multi-bus cluster bridges (the section-6
  open problem, built; they compose to arbitrary depth);
* :mod:`repro.obs` -- observability: structured tracing, the metrics
  registry, Chrome-trace/JSONL exporters, profiling;
* :mod:`repro.api` -- the front door: the :func:`plan` /
  :func:`execute` verbs over frozen :mod:`repro.specs` values, the
  :class:`Session` observability context, and typed results;
* :mod:`repro.serve` -- the long-lived asyncio service tier multiplexing
  spec executions onto the warm pool with content-hash memoization.
"""

from repro.api import (
    ExperimentResult,
    FuzzResult,
    Session,
    VerifyResult,
    execute,
    plan,
)
from repro.specs import (
    BatchSpec,
    ExperimentSpec,
    FuzzSpec,
    GeometrySpec,
    ShootoutSpec,
    VerifySpec,
    WorkloadSpec,
)
from repro.core.states import LineState
from repro.hierarchy.system import ClusterSpec, HierarchicalSystem
from repro.core.validation import check_membership
from repro.protocols.registry import make_protocol, protocol_names
from repro.system.system import BoardSpec, CoherenceError, System
from repro.verify.explorer import explore

__version__ = "1.1.0"

__all__ = [
    "LineState",
    "ClusterSpec",
    "HierarchicalSystem",
    "check_membership",
    "make_protocol",
    "protocol_names",
    "BoardSpec",
    "CoherenceError",
    "System",
    "Session",
    "ExperimentResult",
    "VerifyResult",
    "FuzzResult",
    "plan",
    "execute",
    "explore",
    "ExperimentSpec",
    "VerifySpec",
    "FuzzSpec",
    "BatchSpec",
    "ShootoutSpec",
    "GeometrySpec",
    "WorkloadSpec",
    "__version__",
]
