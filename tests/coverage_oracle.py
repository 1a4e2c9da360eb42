"""The exact expected coverage curve of a corpus: a truth to check fitted answers against.

The model is a parser that memorizes templates. It trains on every source-domain
train row plus a uniform draw, without replacement, of m of the N target-domain
train rows, and it parses a test row exactly when the row's label sequence
(``CorpusTable.labels``) occurs among its training rows. So a test row is parsed:

* always, when its sequence occurs among the source train rows;
* otherwise, when its sequence occurs n times among the target train rows, with
  probability 1 - C(N - n, m) / C(N, m), the chance that the draw holds at least
  one of those n rows (0 when n is 0).

The expected exact match at m is the mean of those probabilities over the test
rows, and it never falls as m grows. The true answer to "how much data for y% EM"
is the least m whose expected exact match is at least y, written as 100 * m / N:
it comes from the corpus alone, with no run and no noise.
"""

from __future__ import annotations

import math
from collections import Counter


def _log_choose(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


class CoverageOracle:
    """Expected exact match of the template memorizer on one target domain of a table."""

    def __init__(self, table, target: str):
        source = {table.labels[i] for domain in table.domains() if domain != target
                  for i in table.row_ids(domain, "train")}
        train = table.row_ids(target, "train")
        counts = Counter(table.labels[i] for i in train)
        test = table.row_ids(target, "test")
        if not train or not test:
            raise ValueError(f"domain {target!r} needs train and test rows")
        self.n_train, self.n_test = len(train), len(test)
        self.always = 0  # test rows parsed from the source rows alone
        self.rows_by_count: Counter[int] = Counter()  # n -> test rows whose sequence has n
        for i in test:
            if table.labels[i] in source:
                self.always += 1
            else:
                self.rows_by_count[counts[table.labels[i]]] += 1

    def expected_em(self, m: int) -> float:
        """Expected exact match, in percent, with m target train rows drawn."""
        if not 0 <= m <= self.n_train:
            raise ValueError(f"m must be in [0, {self.n_train}], got {m}")
        parsed = float(self.always)
        log_all = _log_choose(self.n_train, m)
        for n, rows in self.rows_by_count.items():
            if n == 0:
                continue
            miss = 0.0 if m > self.n_train - n else math.exp(
                _log_choose(self.n_train - n, m) - log_all)
            parsed += rows * (1.0 - miss)
        return 100.0 * parsed / self.n_test

    def required_percent(self, y: float) -> float | None:
        """100 * m / N for the least m whose expected exact match is at least y;
        None when even every target train row falls short of y."""
        if self.expected_em(self.n_train) < y:
            return None
        lo, hi = -1, self.n_train  # expected_em(lo) < y <= expected_em(hi), lo = -1 meaning none
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if self.expected_em(mid) >= y:
                hi = mid
            else:
                lo = mid
        return 100.0 * hi / self.n_train
