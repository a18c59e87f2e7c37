"""Fine-tuning protocol: strategy hooks + the downstream training loop.

Implements paper Eq. (7): ``theta* = argmin Phi_ft[L_ft(f(.); D_ft)]`` where
the strategy ``Phi_ft`` may (a) transform the model before training (freeze
layers, insert adapters, swap normalizers) and (b) add a regularization term
to the supervised loss (paper Eq. 9).

The trainer follows the paper's protocol (Sec. IV-A4): Adam @ 1e-3, batch
size 32, early stopping on the validation split, metric reported on the test
split at the best-validation epoch, averaged over seeds by the caller.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..graph.datasets import DatasetInfo, MolecularDataset
from ..graph.graph import Batch, Graph
from ..graph.loader import DataLoader, eval_score
from ..metrics import higher_is_better
from ..nn import Adam, Module, Tensor, clip_grad_norm
from ..nn.functional import binary_cross_entropy_with_logits

__all__ = [
    "FineTuneStrategy",
    "FineTuneResult",
    "supervised_loss",
    "evaluate_model",
    "finetune",
]


class FineTuneStrategy:
    """Base strategy ``Phi_ft``: override :meth:`prepare` and/or :meth:`regularizer`."""

    name = "base"

    def prepare(self, model: Module) -> Module:
        """Transform the model before training (freezing, adapters, ...)."""
        return model

    def regularizer(self, model: Module, batch: Batch, outputs: dict) -> Tensor | None:
        """Extra loss term ``L_reg`` (paper Eq. 9); None means no term."""
        return None

    def trainable_parameters(self, model: Module) -> list:
        """Parameters the optimizer should update (default: all unfrozen)."""
        return [p for p in model.parameters() if p.requires_grad]


@dataclass
class FineTuneResult:
    """Outcome of one fine-tuning run."""

    test_score: float
    valid_score: float
    train_losses: list[float] = field(default_factory=list)
    valid_history: list[float] = field(default_factory=list)
    seconds_per_epoch: float = 0.0
    best_epoch: int = 0
    strategy: str = ""
    metric: str = ""


def supervised_loss(logits: Tensor, batch: Batch, task_type: str) -> Tensor:
    """Masked task loss: BCE for classification, MSE for regression.

    Missing (nan) labels are excluded via the batch's label mask, matching
    multi-task MoleculeNet training.
    """
    mask = batch.label_mask().astype(np.float64)
    labels = batch.labels_filled()
    if task_type == "classification":
        return binary_cross_entropy_with_logits(logits, labels, mask)
    if task_type == "regression":
        diff = logits - Tensor(labels)
        denom = max(float(mask.sum()), 1.0)
        return (diff * diff * Tensor(mask)).sum() * (1.0 / denom)
    raise ValueError(f"unknown task type {task_type!r}")


def evaluate_model(model: Module, graphs: list[Graph], info: DatasetInfo,
                   batch_size: int = 64, allow_fallback: bool = False,
                   batch_cache=None) -> float:
    """Score a model on a graph list with the dataset's metric.

    With ``allow_fallback=True`` (used for per-epoch validation on tiny
    splits), a classification split whose labels are single-class — where
    ROC-AUC is undefined — falls back to a monotone surrogate (mean label
    likelihood in [0, 1]) so early stopping still has a consistent,
    higher-is-better signal.

    ``batch_cache`` (a :class:`~repro.serve.cache.BatchCacheRegistry`)
    serves the graphs from shared pre-collated batches — per-epoch
    validation then collates the split once per run instead of once per
    epoch, and reuses batches the search phase already built.  The
    forward runs in the shared eval sweep
    (:func:`~repro.graph.loader.eval_score`), under
    :class:`~repro.nn.inference`, so the model's train/eval mode is never
    touched.
    """
    if batch_cache is not None:
        loader = batch_cache.loader(graphs, batch_size)
    else:  # cached: eval_score sweeps the loader twice (labels, logits)
        loader = DataLoader(graphs, batch_size=batch_size, cache=True)
    return eval_score(loader, model, info.metric, allow_fallback=allow_fallback)


def finetune(
    model: Module,
    dataset: MolecularDataset,
    strategy: FineTuneStrategy | None = None,
    epochs: int = 30,
    batch_size: int = 32,
    lr: float = 1e-3,
    patience: int = 10,
    seed: int = 0,
    grad_clip: float = 5.0,
    batch_cache=None,
) -> FineTuneResult:
    """Fine-tune ``model`` on a dataset's scaffold split under a strategy.

    Early stopping tracks the validation metric; the reported test score is
    taken at the best-validation epoch (weights are snapshotted), matching
    the paper's protocol.

    ``batch_cache`` routes the per-epoch validation and final test
    evaluations through a shared
    :class:`~repro.serve.cache.BatchCacheRegistry`, so those splits are
    collated (and their segment plans built) once per run — shared with
    the search phase that populated the registry.  Training batches keep
    their fresh per-epoch shuffle.
    """
    strategy = strategy or FineTuneStrategy()
    model = strategy.prepare(model)
    train_graphs, valid_graphs, test_graphs = dataset.split()
    info = dataset.info

    params = strategy.trainable_parameters(model)
    optimizer = Adam(params, lr=lr)
    loader = DataLoader(
        train_graphs, batch_size=batch_size, shuffle=True,
        rng=np.random.default_rng((seed, 5)),
    )

    better = higher_is_better(info.metric)
    best_valid = -np.inf if better else np.inf
    best_state = model.state_dict()
    best_epoch = 0
    train_losses: list[float] = []
    valid_history: list[float] = []
    epoch_seconds: list[float] = []
    stale = 0

    for epoch in range(epochs):
        start = time.perf_counter()
        total, batches = 0.0, 0
        for batch in loader:
            outputs = model.forward_full(batch)
            loss = supervised_loss(outputs["logits"], batch, info.task_type)
            reg = strategy.regularizer(model, batch, outputs)
            if reg is not None:
                loss = loss + reg
            optimizer.zero_grad()
            loss.backward()
            clip_grad_norm(params, grad_clip)
            optimizer.step()
            total += loss.item()
            batches += 1
        epoch_seconds.append(time.perf_counter() - start)
        train_losses.append(total / max(batches, 1))

        valid_score = evaluate_model(model, valid_graphs, info, allow_fallback=True,
                                     batch_cache=batch_cache)
        valid_history.append(valid_score)
        improved = valid_score > best_valid if better else valid_score < best_valid
        if improved:
            best_valid = valid_score
            best_state = model.state_dict()
            best_epoch = epoch
            stale = 0
        else:
            stale += 1
            if stale >= patience:
                break

    model.load_state_dict(best_state)
    # The fallback only triggers on degenerate tiny test splits (undefined
    # ROC-AUC); bench-scale splits always use the primary metric.
    test_score = evaluate_model(model, test_graphs, info, allow_fallback=True,
                                batch_cache=batch_cache)
    return FineTuneResult(
        test_score=test_score,
        valid_score=best_valid,
        train_losses=train_losses,
        valid_history=valid_history,
        seconds_per_epoch=float(np.mean(epoch_seconds)) if epoch_seconds else 0.0,
        best_epoch=best_epoch,
        strategy=strategy.name,
        metric=info.metric,
    )
