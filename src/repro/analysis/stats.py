"""Small, dependency-free statistics used by the experiments.

These cover what the paper's evaluation needs: energy histograms
(Figure 4(b)), rank-preservation checks and linear fits for the
relative-accuracy study (Figure 6), and means for the energy cache
analyses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean (0.0 for an empty sequence)."""
    if not values:
        return 0.0
    return sum(values) / len(values)


@dataclass
class Histogram:
    """A fixed-bin histogram over a value range."""

    lo: float
    hi: float
    counts: List[int] = field(default_factory=list)

    @classmethod
    def of(cls, values: Sequence[float], bins: int = 12) -> "Histogram":
        """Bin ``values`` into ``bins`` equal-width buckets."""
        if bins < 1:
            raise ValueError("need at least one bin")
        if not values:
            return cls(0.0, 1.0, [0] * bins)
        lo = min(values)
        hi = max(values)
        if hi == lo:
            hi = lo + 1.0
        counts = [0] * bins
        width = (hi - lo) / bins
        for value in values:
            index = min(bins - 1, int((value - lo) / width))
            counts[index] += 1
        return cls(lo, hi, counts)

    @property
    def bins(self) -> int:
        return len(self.counts)

    def spread_score(self) -> float:
        """Fraction of samples outside the modal bin.

        Near 0 for the concentrated histogram of a low-variance path
        (Figure 4(b), path 1,4,7,8); large for a spread-out one (path
        1,3,6,8).
        """
        total = sum(self.counts)
        if total == 0:
            return 0.0
        return 1.0 - max(self.counts) / total

    def render(self, width: int = 40) -> str:
        """ASCII rendering (one row per bin)."""
        peak = max(self.counts) if self.counts else 0
        lines = []
        bin_width = (self.hi - self.lo) / max(1, self.bins)
        for index, count in enumerate(self.counts):
            bar = "#" * (0 if peak == 0 else int(round(width * count / peak)))
            lines.append(
                "%10.3g | %-*s %d"
                % (self.lo + index * bin_width, width, bar, count)
            )
        return "\n".join(lines)


def _ranks(values: Sequence[float]) -> List[float]:
    """Fractional ranks (ties get the average rank)."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        rank = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = rank
        i = j + 1
    return ranks


def spearman_rank_correlation(x: Sequence[float], y: Sequence[float]) -> float:
    """Spearman's rho between two samples (1.0 = same ranking)."""
    if len(x) != len(y):
        raise ValueError("samples must have equal length")
    if len(x) < 2:
        return 1.0
    rx = _ranks(x)
    ry = _ranks(y)
    mx = mean(rx)
    my = mean(ry)
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    sx = sum((a - mx) ** 2 for a in rx) ** 0.5
    sy = sum((b - my) ** 2 for b in ry) ** 0.5
    if sx == 0 or sy == 0:
        return 1.0
    return cov / (sx * sy)


def ranking_preserved(x: Sequence[float], y: Sequence[float]) -> bool:
    """Whether sorting by ``y`` orders items exactly as sorting by ``x``.

    This is the paper's "relative accuracy" criterion for Figure 6: the
    macro-model estimates rank the candidate configurations the same
    way the reference estimates do.
    """
    if len(x) != len(y):
        raise ValueError("samples must have equal length")
    order_x = sorted(range(len(x)), key=lambda i: x[i])
    order_y = sorted(range(len(y)), key=lambda i: y[i])
    return order_x == order_y


def linear_fit(x: Sequence[float], y: Sequence[float]) -> Tuple[float, float, float]:
    """Least-squares line through (x, y): returns (slope, intercept, r).

    ``r`` is Pearson's correlation coefficient — near 1.0 indicates the
    linear relationship the paper observes between macro-model and
    reference energies.
    """
    if len(x) != len(y) or len(x) < 2:
        raise ValueError("need two equal-length samples of size >= 2")
    mx = mean(x)
    my = mean(y)
    sxx = sum((a - mx) ** 2 for a in x)
    syy = sum((b - my) ** 2 for b in y)
    sxy = sum((a - mx) * (b - my) for a, b in zip(x, y))
    if sxx == 0:
        raise ValueError("x values are constant; no line fits")
    slope = sxy / sxx
    intercept = my - slope * mx
    r = 0.0 if syy == 0 else sxy / (sxx ** 0.5 * syy ** 0.5)
    return slope, intercept, r
