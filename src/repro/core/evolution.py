"""Evolutionary strategy search — an alternative discrete search algorithm.

The paper chooses differentiable search (Gumbel-softmax + weight sharing)
over black-box alternatives for efficiency.  This module implements the
standard regularized-evolution baseline *on top of the same weight-sharing
supernet*, so the two algorithms are directly comparable at equal cost:
both first train the shared weights, then differ only in how they explore
the discrete space (gradient on alpha vs mutation + tournament selection).

Used by the search-algorithm ablation benchmarks and available to users who
prefer a gradient-free search.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..graph.datasets import MolecularDataset
from ..graph.loader import DataLoader
from ..metrics import higher_is_better
from ..nn import Adam, clip_grad_norm
from ..finetune.base import supervised_loss
from .search import _sweep_scores
from .space import DEFAULT_SPACE, FineTuneSpace, FineTuneStrategySpec
from .supernet import S2PGNNSupernet

__all__ = ["EvolutionConfig", "EvolutionResult", "EvolutionarySearcher"]


@dataclass
class EvolutionConfig:
    """Hyper-parameters of regularized evolution over the supernet."""

    warmup_epochs: int = 4  # shared-weight training before evolution
    population_size: int = 8
    generations: int = 5
    tournament_size: int = 3
    mutation_rate: float = 0.3
    batch_size: int = 32
    theta_lr: float = 1e-3
    grad_clip: float = 5.0
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.tournament_size <= self.population_size:
            raise ValueError(
                "tournament_size must satisfy 1 <= tournament_size <= "
                f"population_size, got tournament_size={self.tournament_size}, "
                f"population_size={self.population_size}")


@dataclass
class EvolutionResult:
    """Outcome of a run.  ``spec``/``score`` are the **best ever
    evaluated** (warm-up population included) — regularized evolution ages
    individuals out of the population, so the best spec found is not
    necessarily a survivor of the final generation."""

    spec: FineTuneStrategySpec
    score: float
    history: list[dict] = field(default_factory=list)
    seconds: float = 0.0


class EvolutionarySearcher:
    """Regularized evolution with weight-sharing fitness evaluation."""

    def __init__(
        self,
        encoder,
        dataset: MolecularDataset,
        space: FineTuneSpace = DEFAULT_SPACE,
        config: EvolutionConfig | None = None,
        batch_cache=None,
    ):
        self.config = config or EvolutionConfig()
        self.space = space
        self.dataset = dataset
        self.supernet = S2PGNNSupernet(
            encoder, space, num_tasks=dataset.num_tasks, seed=self.config.seed
        )
        # Shared evaluation-batch cache (repro.serve.cache); passing the
        # run-wide registry shares the validation split's collated batches
        # with the searcher / fine-tune / serving phases of the same run.
        if batch_cache is None:
            from ..serve.cache import BatchCacheRegistry

            batch_cache = BatchCacheRegistry()
        self.batch_cache = batch_cache

    # ------------------------------------------------------------------
    def _train_shared_weights(self, train_graphs, rng) -> None:
        """Warm up theta with uniformly sampled strategies (one-shot NAS),
        each batch trained through its spec's discrete forward."""
        cfg = self.config
        optimizer = Adam(self.supernet.theta_parameters(), lr=cfg.theta_lr)
        loader = DataLoader(train_graphs, batch_size=cfg.batch_size, shuffle=True,
                            rng=np.random.default_rng((cfg.seed, 21)), cache=True)
        k = self.supernet.encoder.num_layers
        for _ in range(cfg.warmup_epochs):
            for batch in loader:
                spec = self.space.random_spec(k, rng)
                logits = self.supernet.forward_specs(batch, [spec])[0]
                loss = supervised_loss(logits, batch, self.dataset.info.task_type)
                optimizer.zero_grad()
                loss.backward()
                clip_grad_norm(self.supernet.theta_parameters(), cfg.grad_clip)
                optimizer.step()

    def _fitness(self, spec: FineTuneStrategySpec, valid_graphs) -> float:
        """Validation score of a spec under shared weights (no retraining).

        Scored like ``S2PGNNSearcher.evaluate_spec`` (batch size 64, its
        default ``eval_batch_size``) from this searcher's batch-cache
        registry, so the validation split is collated exactly once per
        search — and not at all when an outer run already cached it.
        """
        return _sweep_scores(self.supernet, [spec],
                             self.batch_cache.loader(valid_graphs, 64),
                             self.dataset.info.metric)[0]

    def _mutate(self, spec: FineTuneStrategySpec, rng) -> FineTuneStrategySpec:
        """Mutate each dimension independently with ``mutation_rate``."""
        cfg = self.config
        identity = list(spec.identity)
        for k in range(len(identity)):
            if rng.random() < cfg.mutation_rate:
                identity[k] = self.space.identity[rng.integers(0, len(self.space.identity))]
        fusion = spec.fusion
        if rng.random() < cfg.mutation_rate:
            fusion = self.space.fusion[rng.integers(0, len(self.space.fusion))]
        readout = spec.readout
        if rng.random() < cfg.mutation_rate:
            readout = self.space.readout[rng.integers(0, len(self.space.readout))]
        return FineTuneStrategySpec(identity=tuple(identity), fusion=fusion,
                                    readout=readout)

    # ------------------------------------------------------------------
    def search(self) -> EvolutionResult:
        cfg = self.config
        rng = np.random.default_rng((cfg.seed, 33))
        train_graphs, valid_graphs, _ = self.dataset.split()
        start = time.perf_counter()  # repro: disable=REP002 (result timing metadata)

        self._train_shared_weights(train_graphs, rng)

        k = self.supernet.encoder.num_layers
        better = higher_is_better(self.dataset.info.metric)
        sign = 1.0 if better else -1.0

        population = [self.space.random_spec(k, rng) for _ in range(cfg.population_size)]
        fitness = [sign * self._fitness(s, valid_graphs) for s in population]
        history: list[dict] = []

        # Best-ever tracking across *all* evaluations.  Regularized
        # evolution kills the oldest individual each generation, so the
        # best spec ever evaluated can age out of the population — an
        # argmax over the survivors at the end would silently lose it.
        best_ever = int(np.argmax(fitness))
        best_spec, best_fit = population[best_ever], fitness[best_ever]

        for generation in range(cfg.generations):
            # Tournament selection of a parent.
            contenders = rng.choice(len(population), size=cfg.tournament_size,
                                    replace=False)
            parent = population[max(contenders, key=lambda i: fitness[i])]
            child = self._mutate(parent, rng)
            child_fit = sign * self._fitness(child, valid_graphs)
            if child_fit > best_fit:
                best_spec, best_fit = child, child_fit
            # Regularized evolution: the oldest individual dies.
            population.pop(0)
            fitness.pop(0)
            population.append(child)
            fitness.append(child_fit)
            best = int(np.argmax(fitness))
            history.append({
                "generation": generation,
                "best_fitness": sign * fitness[best],
                "best": population[best].describe(),
                "best_ever_fitness": sign * best_fit,
                "best_ever": best_spec.describe(),
            })

        return EvolutionResult(
            spec=best_spec,
            score=sign * best_fit,
            history=history,
            seconds=time.perf_counter() - start,  # repro: disable=REP002 (result timing metadata)
        )
