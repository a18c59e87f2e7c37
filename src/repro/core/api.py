"""High-level S2PGNN API: search a strategy, then fine-tune the derived model.

This is the entry point a downstream user calls (and what every benchmark
drives)::

    from repro import S2PGNNFineTuner
    from repro.graph import load_dataset
    from repro.pretrain import get_pretrained

    dataset = load_dataset("bbbp", size=400)
    tuner = S2PGNNFineTuner(lambda: get_pretrained("contextpred", "gin"))
    result = tuner.fit(dataset)
    print(tuner.best_spec_.describe(), result.test_score)

The two phases mirror the paper: the bi-level search (Sec. III-C) discovers
``Phi_ft*`` on the train/validation splits; the derived discrete model is
then fine-tuned from the *pre-trained* initialization and evaluated on the
held-out test split.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..finetune.base import FineTuneResult, FineTuneStrategy, finetune
from ..graph.datasets import MolecularDataset
from ..graph.loader import eval_logits
from .search import S2PGNNSearcher, SearchConfig, SearchResult
from .space import DEFAULT_SPACE, FineTuneSpace, FineTuneStrategySpec
from .supernet import DerivedModel

__all__ = ["S2PGNNFineTuner", "FineTuneConfig"]


@dataclass
class FineTuneConfig:
    """Hyper-parameters for the post-search fine-tuning phase."""

    epochs: int = 30
    batch_size: int = 32
    lr: float = 1e-3
    patience: int = 10


class S2PGNNFineTuner:
    """Search-to-fine-tune driver (scikit-learn-style fit/predict).

    Parameters
    ----------
    encoder_factory:
        Zero-argument callable returning a *fresh pre-trained* encoder; it is
        called once for the search supernet and once for the derived model,
        so both start from the same pre-trained weights.
    space:
        The fine-tuning search space; pass a degraded space for ablations.
    search_config / finetune_config:
        Phase hyper-parameters.
    strategy:
        Optional additional regularized fine-tuning strategy applied during
        the derived-model phase (the paper notes regularizers like GTOT are
        orthogonal and combinable with S2PGNN).
    batch_cache:
        A :class:`~repro.serve.cache.BatchCacheRegistry` shared by every
        phase this tuner runs: search derivation, fine-tune early-stop /
        test evaluation, and :meth:`predict` all draw their evaluation
        batches from it, so each split is collated and segment-planned
        once per run.  A private registry is created when omitted; pass
        one in to share with an :class:`~repro.serve.InferenceService`.
    """

    def __init__(
        self,
        encoder_factory,
        space: FineTuneSpace = DEFAULT_SPACE,
        search_config: SearchConfig | None = None,
        finetune_config: FineTuneConfig | None = None,
        strategy: FineTuneStrategy | None = None,
        seed: int = 0,
        batch_cache=None,
    ):
        self.encoder_factory = encoder_factory
        self.space = space
        self.search_config = search_config or SearchConfig(seed=seed)
        self.finetune_config = finetune_config or FineTuneConfig()
        self.strategy = strategy
        self.seed = seed
        if batch_cache is None:
            from ..serve.cache import BatchCacheRegistry

            batch_cache = BatchCacheRegistry()
        self.batch_cache = batch_cache

        self.best_spec_: FineTuneStrategySpec | None = None
        self.search_result_: SearchResult | None = None
        self.model_: DerivedModel | None = None
        self.result_: FineTuneResult | None = None

    # ------------------------------------------------------------------
    def search(self, dataset: MolecularDataset) -> FineTuneStrategySpec:
        """Phase 1: bi-level strategy search on the dataset's train/val splits."""
        searcher = S2PGNNSearcher(
            self.encoder_factory(), dataset, space=self.space,
            config=self.search_config, batch_cache=self.batch_cache,
        )
        self.search_result_ = searcher.search()
        self.best_spec_ = self.search_result_.spec
        return self.best_spec_

    def fit(self, dataset: MolecularDataset,
            spec: FineTuneStrategySpec | None = None) -> FineTuneResult:
        """Search (unless a spec is given) then fine-tune the derived model."""
        if spec is None:
            spec = self.search(dataset)
        else:
            self.best_spec_ = spec
        cfg = self.finetune_config
        self.model_ = DerivedModel(
            self.encoder_factory(), spec, dataset.num_tasks, seed=self.seed
        )
        if self.search_result_ is not None:
            # Weight sharing (Sec. III-C2): continue from searched weights.
            self.model_.load_from_supernet(self.search_result_.supernet)
        self.result_ = finetune(
            self.model_,
            dataset,
            strategy=self.strategy,
            epochs=cfg.epochs,
            batch_size=cfg.batch_size,
            lr=cfg.lr,
            patience=cfg.patience,
            seed=self.seed,
            batch_cache=self.batch_cache,
        )
        self.result_.strategy = "s2pgnn"
        return self.result_

    def predict(self, graphs, batch_size: int = 64) -> np.ndarray:
        """Predict logits/values for a list of graphs with the fitted model.

        Batches come from the tuner's shared
        :class:`~repro.serve.cache.BatchCacheRegistry`, so repeated
        predictions over the same graphs (a serving loop, or the test
        split the fine-tune phase already collated) never re-collate.
        Cached batches snapshot collation-time values — if you mutate
        graphs between calls, run ``self.batch_cache.invalidate(graphs)``
        first to re-collate.  The forward runs in the eval sweep
        ``InferenceService.predict`` shares
        (:func:`~repro.graph.loader.eval_logits`), under
        :class:`~repro.nn.inference`, so the model's train/eval mode is
        never touched — not even by a forward that raises.
        """
        if self.model_ is None:
            raise RuntimeError("call fit() before predict()")
        return eval_logits(self.batch_cache.loader(graphs, batch_size),
                           self.model_, self.model_.num_tasks)
