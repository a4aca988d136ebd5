"""Query-stream generation.

The query-cache evaluation (paper §6.5) samples 100 K queries from the
dataset's query pool under two popularity distributions — **uniform** and
**Zipfian** (alpha = 0.7 / 0.8) — and relies on *semantic* locality: two
distinct queries about the same intent ("a brown dog is running in the
sand" vs. "a brown dog plays at the beach") should hit the same cached
result.  We reproduce both axes: queries are drawn per-intent under the
chosen popularity law, and each query embedding is its intent centroid
plus fresh paraphrase noise, so repeated intents are similar-but-unequal
vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List

import numpy as np


class ZipfSampler:
    """Bounded Zipf(alpha) over ranks ``0..n-1`` (rank 0 most popular)."""

    def __init__(self, n: int, alpha: float, seed: int = 0):
        if n <= 0:
            raise ValueError("n must be positive")
        if alpha < 0:
            raise ValueError("alpha cannot be negative")
        self.n = n
        self.alpha = alpha
        ranks = np.arange(1, n + 1, dtype=np.float64)
        weights = ranks ** (-alpha)
        self._probs = weights / weights.sum()
        self._rng = np.random.default_rng(seed)

    def sample(self, size: int) -> np.ndarray:
        """Draw `size` ranks under the Zipf law."""
        return self._rng.choice(self.n, size=size, p=self._probs)

    @property
    def probabilities(self) -> np.ndarray:
        return self._probs.copy()


@dataclass(frozen=True)
class QueryRecord:
    """One query: its embedding and ground-truth intent."""

    qfv: np.ndarray
    intent: int
    sequence: int


@dataclass
class QueryStream:
    """A reproducible stream of intelligent queries.

    ``distribution`` is ``"uniform"`` or ``"zipf"``; for Zipf, intents are
    popularity-ranked by index.  ``paraphrase_noise`` controls how far two
    queries with the same intent sit from each other (the semantic-
    similarity axis the query cache exploits).
    """

    dim: int
    n_intents: int
    distribution: str = "uniform"
    alpha: float = 0.7
    paraphrase_noise: float = 0.15
    #: per-query variation of the paraphrase noise: each query's sigma is
    #: ``paraphrase_noise * U(1 - spread, 1 + spread)``.  Real paraphrases
    #: vary in how far they drift from the intent; with spread > 0 the
    #: QCN scores spread smoothly, which is what makes the query cache's
    #: error-threshold axis (Fig. 13) a curve rather than a step.
    noise_spread: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.distribution not in ("uniform", "zipf"):
            raise ValueError(f"unknown distribution {self.distribution!r}")
        if self.dim <= 0 or self.n_intents <= 0:
            raise ValueError("dim and n_intents must be positive")
        if not 0 <= self.noise_spread < 1:
            raise ValueError("noise_spread must be in [0, 1)")

    def centroids(self) -> np.ndarray:
        """The intent centroids (deterministic for the seed)."""
        rng = np.random.default_rng(self.seed)
        return rng.normal(0.0, 1.0, (self.n_intents, self.dim)).astype(np.float32)

    def generate(self, n_queries: int) -> List[QueryRecord]:
        """Materialize ``n_queries`` records."""
        return list(self.iter_queries(n_queries))

    def iter_queries(self, n_queries: int) -> Iterator[QueryRecord]:
        """Lazily generate query records in arrival order."""
        if n_queries <= 0:
            raise ValueError("n_queries must be positive")
        rng = np.random.default_rng(self.seed + 1)
        if self.distribution == "zipf":
            intents = ZipfSampler(self.n_intents, self.alpha, seed=self.seed + 2).sample(
                n_queries
            )
        else:
            intents = rng.integers(0, self.n_intents, n_queries)
        centroids = self.centroids()
        if not self.noise_spread:
            # one batched draw: Generator.normal fills an (n, dim)
            # array from the same variate stream as n sequential
            # (dim,) draws, so every row is bit-equal to the loop below
            noise = rng.normal(0.0, self.paraphrase_noise, (n_queries, self.dim))
            qfvs = (centroids[intents] + noise).astype(np.float32)
            for i in range(n_queries):
                yield QueryRecord(
                    qfv=qfvs[i], intent=int(intents[i]), sequence=i
                )
            return
        for i in range(n_queries):
            intent = int(intents[i])
            sigma = self.paraphrase_noise
            if self.noise_spread:
                sigma *= rng.uniform(1 - self.noise_spread, 1 + self.noise_spread)
            noise = rng.normal(0.0, sigma, self.dim)
            qfv = (centroids[intent] + noise).astype(np.float32)
            yield QueryRecord(qfv=qfv, intent=intent, sequence=i)

    def intent_probabilities(self) -> np.ndarray:
        """The popularity law over intents."""
        if self.distribution == "zipf":
            return ZipfSampler(self.n_intents, self.alpha).probabilities
        return np.full(self.n_intents, 1.0 / self.n_intents)
