"""Bi-level fine-tuning-strategy search (paper Sec. III-C, Eq. 15-16).

Alternating optimization:

* **theta step** (Eq. 16): sample a relaxed strategy from the controller,
  run the weight-sharing supernet on a *training* batch, update the shared
  GNN weights theta.
* **alpha step** (Eq. 15): sample again (Monte-Carlo estimate of the
  expectation, Eq. 18), evaluate on a *validation* batch, update the
  controller parameters alpha by backprop through the Gumbel-softmax.

The temperature anneals geometrically from ``tau_start`` to ``tau_end`` so
early epochs explore (soft mixtures) and late epochs commit (near one-hot),
ensuring the relaxation is asymptotically unbiased (paper's remark after
Eq. 18).  :func:`random_search` provides the brute-force comparison point
used in the search-algorithm ablation benchmarks.

Discrete candidates are scored under the shared weights with
:meth:`~repro.core.supernet.S2PGNNSupernet.forward_specs`: the derivation
step scores all of them in one prefix-shared sweep of the validation
split.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field

import numpy as np

from ..gnn.encoder import GNNEncoder
from ..graph.datasets import MolecularDataset
from ..graph.loader import DataLoader, eval_score
from ..metrics import higher_is_better
from ..nn import Adam, clip_grad_norm, no_grad
from .controller import StrategyController
from .space import DEFAULT_SPACE, FineTuneSpace, FineTuneStrategySpec
from .supernet import DerivedModel, S2PGNNSupernet, skip_threshold
from ..finetune.base import finetune, supervised_loss

__all__ = ["SearchConfig", "SearchResult", "S2PGNNSearcher", "random_search"]


@dataclass
class SearchConfig:
    """Hyper-parameters of the bi-level search."""

    epochs: int = 10
    batch_size: int = 32
    #: Batch size of the evaluation loaders (the derivation step and
    #: :meth:`S2PGNNSearcher.evaluate_spec`), drawn from the shared batch
    #: cache (after mutating graphs, call ``batch_cache.invalidate(graphs)``).
    eval_batch_size: int = 64
    theta_lr: float = 1e-3
    alpha_lr: float = 3e-3
    #: Annealed geometrically (:meth:`temperature`); the supernet's
    #: branch-skip threshold follows tau (``supernet.skip_threshold``).
    tau_start: float = 1.0
    tau_end: float = 0.1
    mc_samples: int = 1
    grad_clip: float = 5.0
    weight_sharing: bool = True
    alpha_batches_per_epoch: int = 4
    derive_candidates: int = 4
    seed: int = 0

    def __post_init__(self):
        if self.mc_samples < 1:
            raise ValueError(f"mc_samples must be >= 1, got {self.mc_samples}")
        if not self.tau_start > 0:
            raise ValueError(f"tau_start must be > 0, got {self.tau_start}")
        if not self.tau_end > 0:
            raise ValueError(f"tau_end must be > 0, got {self.tau_end}")

    def temperature(self, epoch: int) -> float:
        """Geometric annealing schedule tau(epoch)."""
        if self.epochs <= 1:
            return self.tau_end
        ratio = self.tau_end / self.tau_start
        return self.tau_start * ratio ** (epoch / (self.epochs - 1))


@dataclass
class SearchResult:
    """Outcome of a strategy search."""

    spec: FineTuneStrategySpec
    controller: StrategyController
    supernet: S2PGNNSupernet
    history: list[dict] = field(default_factory=list)
    seconds: float = 0.0


class S2PGNNSearcher:
    """Runs the bi-level optimization and derives the best strategy."""

    def __init__(
        self,
        encoder: GNNEncoder,
        dataset: MolecularDataset,
        space: FineTuneSpace = DEFAULT_SPACE,
        config: SearchConfig | None = None,
        batch_cache=None,
    ):
        self.config = config or SearchConfig()
        self.space = space
        self.dataset = dataset
        self.supernet = S2PGNNSupernet(
            encoder, space, num_tasks=dataset.num_tasks, seed=self.config.seed
        )
        self.controller = StrategyController(space, encoder.num_layers)
        # Shared evaluation-batch cache (see repro.serve.cache).  Passing a
        # run-wide registry lets the derivation phase, evolutionary fitness
        # and the fine-tune/serving phases collate each split exactly once.
        if batch_cache is None:
            from ..serve.cache import BatchCacheRegistry

            batch_cache = BatchCacheRegistry()
        self.batch_cache = batch_cache

    def search(self) -> SearchResult:
        cfg = self.config
        rng = np.random.default_rng((cfg.seed, 9))
        train_graphs, valid_graphs, _ = self.dataset.split()
        info = self.dataset.info

        theta_opt = Adam(self.supernet.theta_parameters(), lr=cfg.theta_lr)
        alpha_opt = Adam(self.controller.parameters(), lr=cfg.alpha_lr)
        # The search sweeps the same splits every epoch: collate each once
        # and reshuffle only the batch *order* per epoch.
        train_loader = DataLoader(
            train_graphs, batch_size=cfg.batch_size, shuffle=True,
            rng=np.random.default_rng((cfg.seed, 10)), cache=True,
        )
        valid_loader = DataLoader(
            valid_graphs, batch_size=cfg.batch_size, shuffle=True,
            rng=np.random.default_rng((cfg.seed, 11)), cache=True,
        )

        history: list[dict] = []
        start = time.perf_counter()  # repro: disable=REP002 (result timing metadata)
        for epoch in range(cfg.epochs):
            tau = cfg.temperature(epoch)
            self.supernet.mix_threshold = skip_threshold(
                tau, cfg.tau_start, cfg.tau_end)

            # --- theta step over the training split (Eq. 16) -------------
            train_loss, train_batches = 0.0, 0
            for batch in train_loader:
                # alpha is not updated here: sample it off the tape.
                with no_grad():
                    strategy = self.controller.sample(tau, rng)
                if not cfg.weight_sharing:
                    # Ablation: re-initialize theta per sampled strategy —
                    # approximates training each strategy from scratch and
                    # shows why weight sharing is needed.
                    self._reinitialize_theta(cfg.seed + epoch)
                outputs = self.supernet.forward_full(batch, strategy)
                loss = supervised_loss(outputs["logits"], batch, info.task_type)
                theta_opt.zero_grad()
                loss.backward()
                clip_grad_norm(self.supernet.theta_parameters(), cfg.grad_clip)
                theta_opt.step()
                train_loss += loss.item()
                train_batches += 1

            # --- alpha step over the validation split (Eq. 15, 18) -------
            alpha_loss, alpha_batches = 0.0, 0
            for batch in valid_loader:
                if alpha_batches >= cfg.alpha_batches_per_epoch:
                    break
                # theta is not updated here: it stays off the tape for the
                # forward and the backward (adjoints test requires_grad
                # when they run).
                with _off_tape(self.supernet.theta_parameters()):
                    loss = None
                    for _ in range(cfg.mc_samples):
                        strategy = self.controller.sample(tau, rng)
                        outputs = self.supernet.forward_full(batch, strategy)
                        sample_loss = supervised_loss(outputs["logits"], batch,
                                                      info.task_type)
                        loss = (sample_loss if loss is None
                                else loss + sample_loss)
                    loss = loss * (1.0 / cfg.mc_samples)
                    alpha_opt.zero_grad()
                    loss.backward()
                clip_grad_norm(self.controller.parameters(), cfg.grad_clip)
                alpha_opt.step()
                alpha_loss += loss.item()
                alpha_batches += 1

            history.append({
                "epoch": epoch,
                "tau": tau,
                "mix_threshold": self.supernet.mix_threshold,
                "train_loss": train_loss / max(train_batches, 1),
                "alpha_loss": alpha_loss / max(alpha_batches, 1),
                "derived": self.controller.derive().describe(),
            })

        spec = self._derive_by_validation(valid_graphs, rng)
        return SearchResult(
            spec=spec,
            controller=self.controller,
            supernet=self.supernet,
            history=history,
            seconds=time.perf_counter() - start,  # repro: disable=REP002 (result timing metadata)
        )

    def _derive_by_validation(self, valid_graphs, rng) -> FineTuneStrategySpec:
        """Pick the final strategy by validation under shared weights.

        The argmax of alpha plus ``derive_candidates`` hard samples from
        ``p_alpha`` are scored with the (already trained) supernet weights —
        no retraining — and the best validation performer wins.  This is the
        weight-sharing evaluation the paper's Sec. III-C2 enables: candidate
        strategies are compared without training each to convergence.
        All candidates are scored in one prefix-shared sweep; ties keep the
        first candidate in ``describe()`` order.
        """
        cfg = self.config
        candidates = {self.controller.derive()}
        # The vanilla strategy is a member of the search space (Tab. III:
        # zero_aug / last / mean); seeding it guarantees the search degrades
        # gracefully to vanilla when nothing better is found.
        k = self.supernet.encoder.num_layers
        if ("zero_aug" in self.space.identity and "last" in self.space.fusion
                and "mean" in self.space.readout):
            candidates.add(FineTuneStrategySpec(
                identity=("zero_aug",) * k, fusion="last", readout="mean"))
        for _ in range(max(cfg.derive_candidates, 0)):
            sampled = self.controller.sample(cfg.tau_end, rng, hard=True)
            candidates.add(_onehots_to_spec(sampled, self.space))
        metric = self.dataset.info.metric
        better = higher_is_better(metric)
        best_spec, best_score = None, -np.inf if better else np.inf
        # One cached loader and one prefix-shared sweep score every
        # candidate: the validation split is collated once, and each batch
        # runs the shared layers once, not once per spec.
        eval_loader = self._eval_loader(valid_graphs)
        ranked = sorted(candidates, key=lambda s: s.describe())
        try:
            scores = _sweep_scores(self.supernet, ranked, eval_loader, metric)
        except ValueError:
            # Every ValueError the sweep can raise (empty split, unknown
            # metric, shape mismatch) fails all candidates alike: a
            # degenerate split keeps the controller argmax.
            return self.controller.derive()
        for spec, score in zip(ranked, scores):
            improved = score > best_score if better else score < best_score
            if improved:
                best_spec, best_score = spec, score
        return best_spec or self.controller.derive()

    def _reinitialize_theta(self, seed: int) -> None:
        """Re-initialize non-pretrained supernet weights (no-weight-sharing
        ablation): draw *fresh values from the layer initializers* — not a
        small perturbation — so each sampled strategy really starts its
        candidate operators from scratch.  Fresh draws are cached per seed
        (the ablation calls this once per batch with a per-epoch seed), so
        the candidate-bank construction cost is paid once per epoch.
        """
        cache = getattr(self, "_fresh_theta_cache", None)
        if cache is None:
            cache = self._fresh_theta_cache = {}
        if seed not in cache:
            fresh = S2PGNNSupernet(self.supernet.encoder, self.space,
                                   self.supernet.num_tasks, seed=seed)
            cache.clear()  # past epochs' seeds are never looked up again
            cache[seed] = {
                name: p.data.copy() for name, p in fresh.named_parameters()
                if not name.startswith("encoder.")
            }
        fresh_values = cache[seed]
        for name, param in self.supernet.named_parameters():
            if not name.startswith("encoder."):
                param.data = fresh_values[name].copy()

    def _eval_loader(self, graphs) -> DataLoader:
        """Shared cached evaluation loader for a graph list.

        Delegates to the run-wide :class:`~repro.serve.cache.BatchCacheRegistry`
        (content-keyed, so fresh list objects over the same graphs — what
        ``dataset.split()`` returns on every call — still hit).  Repeated
        ``evaluate_spec`` calls on the same split (candidate derivation,
        evolutionary fitness, serving) collate its batches exactly once.
        """
        return self.batch_cache.loader(graphs, self.config.eval_batch_size)

    def evaluate_spec(self, spec: FineTuneStrategySpec, graphs,
                      loader: DataLoader | None = None) -> float:
        """Score a discrete spec using shared supernet weights (no retraining).

        Runs :meth:`S2PGNNSupernet.forward_specs` over ``[spec]``: one
        DerivedModel-shaped forward per batch, with no mixing weights, so
        the supernet's ``mix_threshold`` plays no part.
        """
        loader = loader if loader is not None else self._eval_loader(graphs)
        return _sweep_scores(self.supernet, [spec], loader,
                             self.dataset.info.metric)[0]


@contextlib.contextmanager
def _off_tape(params):
    """Set ``requires_grad=False`` on exactly ``params`` inside the block.

    Not ``Module.freeze``/``unfreeze``: those touch every parameter, so
    the exit would thaw parameters frozen before the search."""
    for param in params:
        param.requires_grad = False
    try:
        yield
    finally:
        for param in params:
            param.requires_grad = True


def _sweep_scores(supernet: S2PGNNSupernet, specs, loader: DataLoader,
                  metric: str) -> list[float]:
    """Scores of discrete ``specs`` over ``loader`` from one
    :meth:`S2PGNNSupernet.forward_specs` sweep (input order)."""
    return eval_score(loader, lambda batch: supernet.forward_specs(batch, specs),
                      metric, num_outputs=len(specs))


def _onehots_to_spec(sampled, space: FineTuneSpace) -> FineTuneStrategySpec:
    """Hard SampledStrategy -> discrete spec (argmax per dimension)."""
    ids = tuple(
        space.identity[int(np.argmax(w.data))] for w in sampled.identity
    )
    fuse = space.fusion[int(np.argmax(sampled.fusion.data))]
    read = space.readout[int(np.argmax(sampled.readout.data))]
    return FineTuneStrategySpec(identity=ids, fusion=fuse, readout=read)


def random_search(
    encoder_factory,
    dataset: MolecularDataset,
    space: FineTuneSpace = DEFAULT_SPACE,
    num_candidates: int = 5,
    finetune_epochs: int = 5,
    seed: int = 0,
) -> tuple[FineTuneStrategySpec, float, list]:
    """Brute-force baseline: train ``num_candidates`` random strategies to
    convergence and keep the best validation performer.

    This is the approach the paper argues is infeasible at scale (Remark 3:
    10,206 candidates x full training each); benchmarks use it to quantify
    the search-cost gap against the differentiable algorithm.
    """
    rng = np.random.default_rng((seed, 12))
    results = []
    better = higher_is_better(dataset.info.metric)
    best_spec, best_score = None, -np.inf if better else np.inf
    for i in range(num_candidates):
        spec = space.random_spec(encoder_factory().num_layers, rng)
        model = DerivedModel(encoder_factory(), spec, dataset.num_tasks, seed=seed + i)
        res = finetune(model, dataset, epochs=finetune_epochs, patience=finetune_epochs,
                       seed=seed + i)
        results.append((spec, res.valid_score))
        improved = res.valid_score > best_score if better else res.valid_score < best_score
        if improved:
            best_spec, best_score = spec, res.valid_score
    return best_spec, best_score, results
