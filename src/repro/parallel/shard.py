"""Splitting a seed/schedule range into deterministic work shards.

Every chaos campaign in this repo, on either substrate, is a loop over
*independently seeded* work items: run ``i`` derives its RNG from
``(master_seed, i)`` and nothing else.  That independence is what makes
sharding trivial **and** what the determinism contract leans on: a
:class:`Shard` is just a contiguous slice ``[start, stop)`` of the
global item range, and any partition of that range — one shard on one
worker, or eight shards on eight — must produce results that merge back
(:mod:`repro.parallel.merge`) into exactly the sequential output.

Two rules keep that true:

* **Per-item state is indexed by the global item position, never by the
  worker.**  :func:`derive_subseeds` draws one sub-seed per item from a
  single ``random.Random(master_seed)`` stream, so item ``i`` sees the
  same sub-seed whether the range was split two ways or sixteen; shards
  carry the slice of that stream covering their items.
* **Shards are data, not processes.**  A shard never knows how many
  workers exist; :mod:`repro.parallel.pool` maps shards onto workers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple

__all__ = ["Shard", "derive_subseeds", "make_shards"]


@dataclass(frozen=True)
class Shard:
    """One contiguous chunk ``[start, stop)`` of a campaign's item range.

    ``sub_seeds`` holds one master-seed-derived integer per item in the
    chunk (``sub_seeds[k]`` belongs to global item ``start + k``) for
    workloads that need a per-item RNG stream beyond the campaign's own
    ``f"{seed}:{index}"`` convention.  They are derived by global item
    index, so they are identical under any worker count.
    """

    index: int
    start: int
    stop: int
    sub_seeds: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.start < 0 or self.stop < self.start:
            raise ValueError(
                f"invalid shard range [{self.start}, {self.stop})"
            )
        if self.sub_seeds and len(self.sub_seeds) != self.count:
            raise ValueError(
                f"shard covers {self.count} item(s) but carries "
                f"{len(self.sub_seeds)} sub-seed(s)"
            )

    @property
    def count(self) -> int:
        return self.stop - self.start

    def describe(self) -> str:
        """Human-readable identity, used in errors and timing reports."""
        return f"shard {self.index}: seeds [{self.start}, {self.stop})"


def derive_subseeds(master_seed, count: int) -> Tuple[int, ...]:
    """One 64-bit sub-seed per work item, from a single master stream.

    The stream is indexed by global item position — never by worker id
    or worker count — so any sharding of ``[0, count)`` sees the same
    sub-seeds for the same items.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    rng = random.Random(master_seed)
    return tuple(rng.getrandbits(64) for _ in range(count))


def make_shards(total: int, workers: int, master_seed=0) -> List[Shard]:
    """Split ``[0, total)`` into up to ``workers`` balanced shards.

    Chunks are contiguous; the first ``total % workers`` shards get one
    extra item.  Empty chunks (``total < workers``) are dropped, so every
    returned shard has at least one item.  Sub-seeds come from
    :func:`derive_subseeds` on the full range and are sliced per shard,
    preserving the by-global-index invariant.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if total < 0:
        raise ValueError(f"total must be >= 0, got {total}")
    sub_seeds = derive_subseeds(master_seed, total)
    base, extra = divmod(total, workers)
    shards: List[Shard] = []
    start = 0
    for index in range(workers):
        count = base + (1 if index < extra else 0)
        if count == 0:
            break  # balanced layout: all later chunks are empty too
        stop = start + count
        shards.append(
            Shard(
                index=index,
                start=start,
                stop=stop,
                sub_seeds=sub_seeds[start:stop],
            )
        )
        start = stop
    return shards
