"""An entropy-based target generation algorithm (TGA).

Hitlists extend their seed sets with generated candidates — Entropy/IP,
6Gen, 6GAN and friends model the statistical structure of known
addresses and emit look-alikes.  The paper leans on this twice: the TUM
hitlist's TGA-extrapolated entries (Section 2.1.1) and the closing
recommendation to evaluate *generators trained on NTP-sourced (end-user)
addresses* as a future address source.

This implementation follows Entropy/IP's core idea in a compact form:

1. **learn** — compute each of the 32 address nybbles' empirical value
   distribution and Shannon entropy over the seed set;
2. **segment** — classify nybbles as *fixed* (entropy ≈ 0), *dirty*
   (low entropy: a few dominant values), or *free* (high entropy);
3. **generate** — for each candidate, copy a random seed and resample
   the dirty nybbles from their learned distributions (free nybbles are
   left alone with probability ``keep_free`` or resampled uniformly
   over observed values), biasing candidates into the seeds' structural
   neighbourhood.

Like every seed-based TGA, it inherits its input's bias — the property
the paper's Figure 1/Table 3 arguments rest on, and which the ablation
bench measures directly.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, List, Set, Tuple

#: Nybbles per IPv6 address.
NYBBLES = 32

#: Entropy (bits) below which a nybble counts as fixed.
FIXED_THRESHOLD = 0.05

#: Entropy below which a nybble is "dirty" (structured but variable).
DIRTY_THRESHOLD = 2.5

#: Leading bits a candidate copies verbatim from its seed (a multiple
#: of 4), and the probability a free nybble keeps its seed value.
PREFIX_LOCK = 56
KEEP_FREE = 0.5


def _nybble(value: int, index: int) -> int:
    """Nybble ``index`` of an address, 0 = most significant."""
    shift = 4 * (NYBBLES - 1 - index)
    return (value >> shift) & 0xF


def _with_nybble(value: int, index: int, nybble: int) -> int:
    shift = 4 * (NYBBLES - 1 - index)
    mask = 0xF << shift
    return (value & ~mask) | ((nybble & 0xF) << shift)


@dataclass(frozen=True)
class NybbleModel:
    """Learned statistics of one nybble position."""

    index: int
    distribution: Tuple[Tuple[int, float], ...]  # (value, probability)
    entropy: float

    @property
    def segment(self) -> str:
        if self.entropy <= FIXED_THRESHOLD:
            return "fixed"
        if self.entropy <= DIRTY_THRESHOLD:
            return "dirty"
        return "free"

    def sample(self, rng: random.Random) -> int:
        values = [value for value, _ in self.distribution]
        weights = [weight for _, weight in self.distribution]
        return rng.choices(values, weights=weights, k=1)[0]


@dataclass
class EntropyTga:
    """A trained generator.

    Build with :func:`train`; call :meth:`generate` for candidates.
    """

    seeds: Tuple[int, ...]
    models: Tuple[NybbleModel, ...]
    seed: int = 0x76A

    @property
    def segments(self) -> Dict[str, int]:
        """How many nybbles fall into each segment (model shape)."""
        counts: Dict[str, int] = {"fixed": 0, "dirty": 0, "free": 0}
        for model in self.models:
            counts[model.segment] += 1
        return counts

    @property
    def total_entropy(self) -> float:
        """Sum of per-nybble entropies (address-space spread proxy)."""
        return sum(model.entropy for model in self.models)

    def generate(self, count: int) -> List[int]:
        """Emit up to ``count`` distinct candidates, none of them a seed.

        Candidates start from a random seed and keep its first
        :data:`PREFIX_LOCK` bits verbatim (an independent per-nybble
        model would otherwise tear apart the prefix correlations and
        generate into unrouted space — real TGAs expand *within* dense
        observed regions).  Beyond the lock, dirty nybbles are resampled
        from their learned distributions, free nybbles with probability
        ``1 - KEEP_FREE``; fixed nybbles never change.
        """
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        if not self.seeds:
            return []
        chooser = random.Random(self.seed)
        seen: Set[int] = set(self.seeds)
        first_mutable = PREFIX_LOCK // 4
        candidates: List[int] = []
        attempts = 0
        limit = count * 20
        while len(candidates) < count and attempts < limit:
            attempts += 1
            candidate = chooser.choice(self.seeds)
            for model in self.models[first_mutable:]:
                if model.segment == "dirty":
                    candidate = _with_nybble(candidate, model.index,
                                             model.sample(chooser))
                elif model.segment == "free" and \
                        chooser.random() >= KEEP_FREE:
                    candidate = _with_nybble(candidate, model.index,
                                             model.sample(chooser))
            if candidate in seen:
                continue
            seen.add(candidate)
            candidates.append(candidate)
        return candidates


def train(seeds: Iterable[int], seed: int = 0x76A) -> EntropyTga:
    """Learn an :class:`EntropyTga` from seed addresses."""
    materialized = tuple(sorted(set(seeds)))
    if not materialized:
        raise ValueError("cannot train a TGA on an empty seed set")
    models: List[NybbleModel] = []
    total = len(materialized)
    for index in range(NYBBLES):
        counts = Counter(_nybble(value, index) for value in materialized)
        distribution = tuple(sorted(
            (value, count / total) for value, count in counts.items()))
        entropy = -sum(p * math.log2(p) for _, p in distribution if p > 0)
        models.append(NybbleModel(index=index, distribution=distribution,
                                  entropy=entropy))
    return EntropyTga(seeds=materialized, models=tuple(models), seed=seed)


@dataclass(frozen=True)
class TgaEvaluation:
    """Outcome of scanning a generated candidate set."""

    seeds: int
    candidates: int
    responsive: int

    @property
    def hit_rate(self) -> float:
        return self.responsive / self.candidates if self.candidates else 0.0


def evaluate(tga: EntropyTga, engine, count: int,
             label: str = "tga") -> Tuple[TgaEvaluation, object]:
    """Generate candidates and scan them; returns (evaluation, results).

    ``engine`` is a :class:`repro.scan.engine.ScanEngine`; the full
    grab results are returned for device-type analysis.
    """
    candidates = tga.generate(count)
    results = engine.run(candidates, label=label)
    responsive: Set[int] = set()
    for protocol in ("http", "https", "ssh", "mqtt", "mqtts", "amqp",
                     "amqps", "coap"):
        responsive |= results.responsive_addresses(protocol)
    return TgaEvaluation(
        seeds=len(tga.seeds),
        candidates=len(candidates),
        responsive=len(responsive),
    ), results
