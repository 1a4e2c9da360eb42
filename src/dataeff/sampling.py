"""Subset-size schedule and seeded target-domain samplers.

The schedule spaces n subset sizes logarithmically between 0% and 100%:
raw(x) = (101 ** (1/(n-1))) ** (x-1) - 1 for x = 1..n, discretized with the
ceiling function. Two samplers draw from a target domain's train split:

* uniform -- takes ceil(k% of the rows), without replacement, as a seeded
  Fisher-Yates prefix over the rows in file order;
* spis -- "samples per intent slot": a greedy single pass over the rows in
  seeded-shuffled order that keeps a row while any of its ontology labels is
  still seen fewer than k times. Every label ends up covered min(k, total)
  times; subset size is data-dependent rather than fixed.

Draws depend only on (row order, spec), never on process state, so subsets
are reproducible across runs and platforms. Each spec keys its own stream,
so draws at different sizes are independent: a 12% subset is NOT guaranteed
to contain the 7% subset drawn with the same seed.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import SamplingError
from .rng import SplitMix64, combine, float_key, string_key

if TYPE_CHECKING:
    from .corpus import CorpusTable

ALGORITHMS = ("uniform", "spis")


@dataclass(frozen=True)
class Schedule:
    """Subset-size schedule: raw curve values and their ceiled integer sizes."""

    n: int
    raw: tuple[float, ...]
    sizes: tuple[int, ...]


def make_schedule(n: int = 10) -> Schedule:
    """Build the n-point logarithmic schedule; endpoints are exactly 0 and 100."""
    if n < 2:
        raise SamplingError(f"schedule needs at least 2 points, got {n}")
    base = 101.0 ** (1.0 / (n - 1))
    raw = [base ** x - 1.0 for x in range(n)]
    if abs(raw[0]) > 1e-9 or abs(raw[-1] - 100.0) > 1e-9:
        raise SamplingError("schedule endpoints drifted from 0 and 100")
    raw[0], raw[-1] = 0.0, 100.0  # snap float residue at the exact endpoints
    sizes = [math.ceil(v - 1e-9) for v in raw]
    return Schedule(n, tuple(raw), tuple(sizes))


@dataclass(frozen=True)
class SubsetSpec:
    """What to draw: target domain, algorithm, size parameter, seed.

    size_param is a percent in [0, 100] for uniform, a minimum per-label
    occurrence count >= 1 for spis.
    """

    target_domain: str
    algorithm: str
    size_param: float
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "size_param", float(self.size_param))  # stable JSON form
        if self.algorithm not in ALGORITHMS:
            raise SamplingError(f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}")
        if self.algorithm == "uniform" and not 0.0 <= self.size_param <= 100.0:
            raise SamplingError(f"uniform percent must be in [0, 100], got {self.size_param}")
        if self.algorithm == "spis":
            if self.size_param < 1 or not self.size_param.is_integer():
                raise SamplingError(f"spis parameter must be an integer >= 1, got {self.size_param}")
        if not 0 <= self.seed < 2 ** 64:
            raise SamplingError(f"seed must be an unsigned 64-bit integer, got {self.seed}")


@dataclass(frozen=True)
class Subset:
    """A drawn subset: its SubsetSpec plus corpus row positions, in draw order."""

    spec: SubsetSpec
    row_ids: tuple[int, ...]


def _stream(spec: SubsetSpec) -> SplitMix64:
    """PRNG stream keyed by every spec field, so distinct specs draw independently."""
    algo = ALGORITHMS.index(spec.algorithm)
    return SplitMix64(
        combine(spec.seed, string_key(spec.target_domain), algo, float_key(spec.size_param))
    )


def uniform_size(percent: float, population: int) -> int:
    """ceil(percent% of population); exact integer arithmetic for whole percents."""
    if percent == 0:
        return 0
    if float(percent).is_integer():
        return -(-int(percent) * population // 100)
    return math.ceil(percent * population / 100.0 - 1e-9)


def uniform_sample(table: CorpusTable, spec: SubsetSpec) -> Subset:
    """Draw ceil(k% * |train rows|) rows without replacement from the target domain."""
    if spec.algorithm != "uniform":
        raise SamplingError(f"uniform_sample got algorithm {spec.algorithm!r}")
    ids = list(table.row_ids(spec.target_domain, "train"))
    size = uniform_size(spec.size_param, len(ids))
    if spec.size_param > 0 and not ids:
        raise SamplingError(
            f"domain {spec.target_domain!r} has no train rows to sample from"
        )
    chosen = _stream(spec).shuffle_prefix(ids, size)
    return Subset(spec, tuple(chosen))


def spis_sample(table: CorpusTable, spec: SubsetSpec) -> Subset:
    """Greedy cover: keep a row while any of its labels is still below k occurrences.

    One pass over the domain's train rows in seeded-shuffled order. Afterwards
    every ontology label is covered min(k, total occurrences) times.
    """
    if spec.algorithm != "spis":
        raise SamplingError(f"spis_sample got algorithm {spec.algorithm!r}")
    k = int(spec.size_param)
    ids = list(table.row_ids(spec.target_domain, "train"))
    order = _stream(spec).shuffle(ids)
    seen: Counter = Counter()
    chosen = []
    for pos in order:
        labels = table.labels[pos]
        if any(seen[label] < k for label in labels):
            chosen.append(pos)
            seen.update(labels)
    return Subset(spec, tuple(chosen))


def sample(table: CorpusTable, spec: SubsetSpec) -> Subset:
    """Dispatch on spec.algorithm."""
    if spec.algorithm == "uniform":
        return uniform_sample(table, spec)
    return spis_sample(table, spec)

