"""Synthetic multiprocessor reference generator (Dubois-Briggs style).

The paper's performance discussion rests on [Arch85], whose simulations
"are based only on a model of program behavior [Dubo82]" -- a
probabilistic model, not address traces.  This module implements that
class of model:

* each processor owns a pool of **private** blocks and all share a pool
  of **shared** blocks;
* each reference is shared with probability ``p_shared``, a write with
  probability ``p_write`` (independently for shared/private);
* temporal locality: with probability ``locality`` a reference re-uses
  the processor's previous block of that class instead of drawing a new
  one;
* shared blocks are drawn from a geometric-ish skew so some blocks are
  "hot" (actively shared) -- the regime where the update-vs-invalidate
  choice matters (section 5.2).

All draws come from a seeded :class:`random.Random`, so traces are
reproducible.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
from bisect import bisect_right
from typing import Iterator, Optional

from repro.workloads.trace import Op, ReferenceRecord, Trace

__all__ = ["SyntheticConfig", "SyntheticWorkload"]

_READ = Op.READ
_WRITE = Op.WRITE


@dataclasses.dataclass(frozen=True)
class SyntheticConfig:
    """Parameters of the probabilistic program-behaviour model."""

    processors: int = 4
    #: Distinct shared blocks (line-sized).
    shared_blocks: int = 16
    #: Distinct private blocks per processor.
    private_blocks: int = 64
    #: Probability a reference targets shared data.
    p_shared: float = 0.2
    #: Probability a reference is a write (applied to both classes).
    p_write: float = 0.3
    #: Probability of re-referencing the previous block of the same class.
    locality: float = 0.6
    #: Skew of the shared-block popularity (1.0 = uniform; higher = hotter
    #: hot set).
    sharing_skew: float = 2.0
    #: Line size used to turn block numbers into byte addresses.
    line_size: int = 32

    def __post_init__(self) -> None:
        for name in ("p_shared", "p_write", "locality"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.processors < 1:
            raise ValueError("need at least one processor")
        if self.shared_blocks < 1 or self.private_blocks < 1:
            raise ValueError("block pools must be non-empty")
        if self.sharing_skew < 1.0:
            raise ValueError("sharing_skew must be >= 1.0")

    def unit_ids(self) -> list[str]:
        return [f"cpu{i}" for i in range(self.processors)]


class SyntheticWorkload:
    """Reproducible reference-stream factory for one configuration.

    The address map places all shared blocks first, then each processor's
    private region, so shared and private lines never collide.
    """

    def __init__(self, config: SyntheticConfig, seed: int = 0) -> None:
        self.config = config
        self.seed = seed
        #: Cumulative shared-block weights, (b+1)^-skew accumulated -- the
        #: list ``random.choices(weights=...)`` would rebuild per draw.
        self._shared_cum_weights = list(itertools.accumulate(
            (b + 1) ** -config.sharing_skew for b in range(config.shared_blocks)
        ))

    # ------------------------------------------------------------------
    # Address map.
    # ------------------------------------------------------------------
    def shared_address(self, block: int) -> int:
        if not 0 <= block < self.config.shared_blocks:
            raise ValueError(f"shared block out of range: {block}")
        return block * self.config.line_size

    def private_address(self, processor: int, block: int) -> int:
        if not 0 <= block < self.config.private_blocks:
            raise ValueError(f"private block out of range: {block}")
        base = self.config.shared_blocks + processor * self.config.private_blocks
        return (base + block) * self.config.line_size

    # ------------------------------------------------------------------
    def stream(self, processor: int) -> Iterator[tuple[Op, int]]:
        """Infinite (op, byte-address) stream for one processor.

        The draws are those of ``rng.choices(range(n),
        cum_weights=...)`` for a skewed shared block and of
        ``rng.randrange(n)`` for a uniform one, made directly: one
        ``random()`` bisected into the precomputed cumulative weights,
        and rejection sampling on ``getrandbits(n.bit_length())`` (what
        ``randrange`` does underneath).  Same generator calls, same
        order, same blocks -- ``tests/test_synthetic.py`` replays the
        library calls against this stream.
        """
        cfg = self.config
        rng = random.Random(f"{self.seed}/{processor}")
        draw = rng.random
        getrandbits = rng.getrandbits
        p_shared = cfg.p_shared
        p_write = cfg.p_write
        locality = cfg.locality
        n_shared = cfg.shared_blocks
        n_private = cfg.private_blocks
        shared_bits = n_shared.bit_length()
        private_bits = n_private.bit_length()
        uniform_shared = cfg.sharing_skew == 1.0
        cum_weights = self._shared_cum_weights
        total_weight = cum_weights[-1] + 0.0
        last_index = n_shared - 1
        # The address map of shared_address/private_address, inlined:
        # every drawn block is in range by construction.
        line_size = cfg.line_size
        private_base = cfg.shared_blocks + processor * cfg.private_blocks
        last_shared: Optional[int] = None
        last_private: Optional[int] = None
        while True:
            is_shared = draw() < p_shared
            op = _WRITE if draw() < p_write else _READ
            if is_shared:
                if last_shared is not None and draw() < locality:
                    block = last_shared
                elif uniform_shared:
                    block = getrandbits(shared_bits)
                    while block >= n_shared:
                        block = getrandbits(shared_bits)
                else:
                    block = bisect_right(
                        cum_weights, draw() * total_weight, 0, last_index
                    )
                last_shared = block
                yield op, block * line_size
            else:
                if last_private is not None and draw() < locality:
                    block = last_private
                else:
                    block = getrandbits(private_bits)
                    while block >= n_private:
                        block = getrandbits(private_bits)
                last_private = block
                yield op, (private_base + block) * line_size

    def trace(self, references: int) -> Trace:
        """A finite round-robin interleaving of all processors' streams."""
        unit_ids = self.config.unit_ids()
        streams = [self.stream(i) for i in range(self.config.processors)]
        # ``zip`` resumes the streams in unit order, one round at a time;
        # a last, partial round draws ahead on streams nobody reads.
        draws = itertools.islice(
            itertools.chain.from_iterable(zip(*streams)), references
        )
        records = []
        append = records.append
        # Records are immutable, and locality makes a unit repeat its
        # references, so each distinct (unit, op, address) is one shared
        # record: a third as many objects to build and for the collector
        # to walk while the trace runs.  Keyed per unit by the address,
        # complemented for a write.
        #
        # A new record is filled in directly rather than through the
        # frozen dataclass ``__init__`` (a Python call and one
        # ``object.__setattr__`` per field).  The instance dict is all
        # that ``__init__`` would produce: equality, hashing, repr,
        # pickling and immutability are the dataclass's own.
        new_record = object.__new__
        seen = [(unit, {}) for unit in unit_ids]
        for (unit, known), (op, address) in zip(itertools.cycle(seen), draws):
            key = address if op is _READ else ~address
            record = known.get(key)
            if record is None:
                record = known[key] = new_record(ReferenceRecord)
                fields = record.__dict__
                fields["unit"] = unit
                fields["op"] = op
                fields["address"] = address
            append(record)
        # Round-robin: the first min(references, processors) units each
        # appear in unit order.
        return Trace(records, unit_ids[:len(records)])

    def streams(self) -> dict[str, Iterator[tuple[Op, int]]]:
        """Per-unit infinite streams for the timed runner."""
        return {
            unit_id: self.stream(i)
            for i, unit_id in enumerate(self.config.unit_ids())
        }
