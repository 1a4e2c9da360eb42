"""Subset-size schedule and seeded target-domain samplers.

The schedule spaces n subset sizes logarithmically between 0% and 100%:
raw(x) = (101 ** (1/(n-1))) ** (x-1) - 1 for x = 1..n, discretized with the
ceiling function. sample_nested cuts one subset per size parameter k from a
seeded order of a target domain's train split (a Fisher-Yates shuffle of its
rows in file order), and sample the one a SubsetSpec names. By algorithm:

* uniform -- takes the first ceil(k% of the rows) of the order;
* spis -- "samples per intent slot": a greedy pass over the order that keeps a
  row while any of its ontology labels is still seen fewer than k times. A
  label below k at a row was below k at every earlier row that holds it, so
  the pass keeps exactly the rows whose threshold, 1 + the fewest earlier
  occurrences of any of their labels, is at most k. Every label ends up
  covered min(k, total) times; subset size is data-dependent.

Draws depend only on (row order, spec), never on process state, so subsets
are reproducible across runs and platforms. The order's stream is keyed by
(seed, domain, algorithm), not by size, so subsets nest: with one seed, the
7% uniform subset is a prefix of the 12% one, and spis at k is inside k + 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .errors import SamplingError
from .rng import SplitMix64, combine, string_key

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
    raw = [0.0] + [base ** x - 1.0 for x in range(1, n - 1)] + [100.0]  # exact endpoints
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


def uniform_size(percent: float, population: int) -> int:
    """ceil(percent% of population), 1e-9 low; exact for a whole percent of < 1e13 rows."""
    return math.ceil(percent * population / 100.0 - 1e-9)


def sample_nested(
    table: CorpusTable, target_domain: str, algorithm: str, seed: int, size_params: Sequence[float]
) -> list[Subset]:
    """One subset per size parameter, all cut from one order of the domain's train rows."""
    specs = [SubsetSpec(target_domain, algorithm, k, seed) for k in size_params]
    ids = list(table.row_ids(target_domain, "train"))
    stream = SplitMix64(combine(seed, string_key(target_domain), ALGORITHMS.index(algorithm)))
    if algorithm == "uniform":
        if not ids and any(spec.size_param > 0 for spec in specs):
            raise SamplingError(f"domain {target_domain!r} has no train rows to sample from")
        sizes = [uniform_size(spec.size_param, len(ids)) for spec in specs]
        order = stream.shuffle_prefix(ids, max(sizes, default=0))
        return [Subset(spec, tuple(order[:size])) for spec, size in zip(specs, sizes)]
    order = stream.shuffle_prefix(ids, len(ids))
    seen: dict[str, int] = {}
    thresholds = []
    for pos in order:
        labels = table.labels[pos]
        thresholds.append(1 + min(seen.get(label, 0) for label in labels))
        for label in labels:
            seen[label] = seen.get(label, 0) + 1
    return [Subset(spec, tuple(pos for pos, t in zip(order, thresholds) if t <= spec.size_param))
            for spec in specs]


def sample(table: CorpusTable, spec: SubsetSpec) -> Subset:
    """The one subset spec names: sample_nested at its single size parameter."""
    return sample_nested(table, spec.target_domain, spec.algorithm, spec.seed, [spec.size_param])[0]


# Benchmark seam: bench/tracer.py looks these two names up here, and bench/run.py
# reports their spans. Delete them once the package records its own spans.
uniform_sample = spis_sample = sample
