"""Weight-sharing supernet and derived model (paper Sec. III-C2, Eq. 12-14).

The supernet holds *every* candidate operator of every dimension.  A sampled
(relaxed) strategy mixes candidate outputs:

``Z_out = sum_i phi[i] * O_i(Z_in)``

so all strategies share one set of GNN weights ``theta`` — evaluating a new
strategy never retrains from scratch (the paper's answer to the
10,206-strategy search cost).

Discrete specs are evaluated by :meth:`S2PGNNSupernet.forward_specs`, one
sweep for many specs: the embedding and layer 0 are shared by every spec,
and layer ``k`` by every spec with the same first ``k`` identity choices,
so each runs once per batch.  The ``mix_threshold`` branch skipping
governs relaxed (mixed) forwards only.

:class:`DerivedModel` instantiates one discrete strategy (post-search) with
the same candidate implementations, for final fine-tuning and inference.
"""

from __future__ import annotations

import numpy as np

from ..gnn.encoder import GNNEncoder
from ..gnn.fusion import make_fusion
from ..gnn.identity import make_identity_aug
from ..gnn.readout import make_readout
from ..graph.graph import Batch
from ..nn import Linear, Module, ModuleList, Tensor
from .controller import SampledStrategy
from .space import FineTuneSpace, FineTuneStrategySpec

__all__ = ["S2PGNNSupernet", "DerivedModel", "MIX_SKIP_THRESHOLD",
           "MIX_SKIP_THRESHOLD_FINAL"]

#: Mixing weights at or below this magnitude are treated as zero: their
#: candidate operator is never invoked.  At 1e-8 the dropped term is far
#: below float64 round-off of the surviving terms, so fast-path outputs
#: match the full mixture to well under 1e-9.
MIX_SKIP_THRESHOLD = 1e-8

#: End point of the temperature-aware threshold schedule
#: (:meth:`S2PGNNSupernet.update_mix_threshold`).  Near the annealed
#: temperature the Gumbel-softmax samples are close to one-hot, so losing
#: branches carry weights far below this and skipping them changes mixed
#: outputs only at the 1e-5-relative level while saving their full forward
#: cost.
MIX_SKIP_THRESHOLD_FINAL = 1e-5


class S2PGNNSupernet(Module):
    """All-candidates model with mixed-operator forward (Eq. 12-14).

    Parameters
    ----------
    encoder:
        The pre-trained backbone (its structure and weights are the
        ``pre_trained`` conv candidate and are fine-tuned jointly).
    space:
        Candidate sets; degraded spaces (ablations) shrink the banks.
    num_tasks:
        Downstream prediction width.
    """

    def __init__(self, encoder: GNNEncoder, space: FineTuneSpace, num_tasks: int,
                 seed: int = 0, mix_threshold: float | None = MIX_SKIP_THRESHOLD):
        super().__init__()
        rng = np.random.default_rng((seed, 3))
        self.encoder = encoder
        self.space = space
        self.num_tasks = num_tasks
        # ``None`` disables branch skipping (every candidate always runs);
        # benchmarks use that to time the pre-fast-path mixed forward.
        self.mix_threshold = mix_threshold
        # Base of the temperature-aware schedule; ``update_mix_threshold``
        # interpolates from here, so direct assignments to ``mix_threshold``
        # (benchmarks, tests) never leak into the schedule.
        self._mix_threshold_base = mix_threshold
        k, d = encoder.num_layers, encoder.emb_dim

        self.identity_banks = ModuleList([
            ModuleList([make_identity_aug(name, d, rng) for name in space.identity])
            for _ in range(k)
        ])
        self.fusion_bank = ModuleList(
            [make_fusion(name, k, d, rng) for name in space.fusion]
        )
        self.readout_bank = ModuleList(
            [make_readout(name, d, rng) for name in space.readout]
        )
        self.head = Linear(d, num_tasks, rng)

    # ------------------------------------------------------------------
    def update_mix_threshold(self, tau: float, tau_start: float = 1.0,
                             tau_end: float = 0.1,
                             final: float | None = MIX_SKIP_THRESHOLD_FINAL) -> float | None:
        """Temperature-aware skip-threshold schedule (set-and-return).

        Interpolates geometrically from the construction-time base
        threshold (at ``tau >= tau_start``) to ``final`` (at
        ``tau <= tau_end``), tracking the annealing in log-temperature.
        Early epochs therefore mix exactly as with the fixed base threshold
        (exploration is unbiased), while late near-one-hot epochs skip
        losing branches more aggressively — their weights decay like
        ``exp(-Delta/tau)``, far below ``final`` by the time it is reached.

        No-ops (returns the current threshold) when skipping is disabled —
        ``mix_threshold=None`` at construction *or* assigned at runtime
        (the documented full-mixture escape hatch) — or ``final`` is None.
        """
        base = self._mix_threshold_base
        if base is None or final is None or self.mix_threshold is None:
            return self.mix_threshold
        if tau >= tau_start or tau_start <= tau_end:
            progress = 0.0
        elif tau <= tau_end:
            progress = 1.0
        else:
            progress = np.log(tau_start / tau) / np.log(tau_start / tau_end)
        self.mix_threshold = float(base * (final / base) ** progress)
        return self.mix_threshold

    @staticmethod
    def _mix(weights: Tensor, outputs: list, threshold: float | None = MIX_SKIP_THRESHOLD) -> Tensor:
        """``sum_i w[i] * O_i`` with real branch skipping.

        ``outputs`` entries are either Tensors or zero-argument callables
        (lazy branches).  A branch whose mixing weight has magnitude at or
        below ``threshold`` is *never invoked* — in the low-temperature
        regime (near one-hot sample) or under exactly one-hot weights
        (evolution's warm-up), each dimension therefore does O(1) operator
        work instead of O(|candidates|).  Pass ``threshold=None`` to force
        the full mixture (every branch computed).

        Skipping a sub-threshold branch also drops its (negligible)
        contribution to the controller gradient; at the default threshold
        the dropped terms are below float64 round-off of the kept ones.
        """
        w = weights.data
        if threshold is None:
            active = range(len(outputs))
        else:
            active = np.flatnonzero(np.abs(w) > threshold)
            if len(active) == 0:  # degenerate all-zero sample: keep old path
                active = range(len(outputs))
        mixed = None
        for i in active:
            out = outputs[i]
            if callable(out):
                out = out()
            if out is None:
                continue
            term = out * weights[i]
            mixed = term if mixed is None else mixed + term
        return mixed

    def forward_full(self, batch: Batch, strategy: SampledStrategy) -> dict:
        """Mixed-operator forward pass under a relaxed strategy sample.

        Candidates are handed to :meth:`_mix` as thunks so skipped branches
        pay zero compute, not just zero weight.
        """
        threshold = self.mix_threshold
        h = self.encoder.embed_nodes(batch)
        layers: list[Tensor] = []
        for k in range(self.encoder.num_layers):
            z = self.encoder.layer_step(h, batch, k)
            candidates = [
                (lambda aug=aug, h=h, z=z: aug(h, z))
                for aug in self.identity_banks[k]
            ]
            h = self._mix(strategy.identity[k], candidates, threshold)
            layers.append(h)

        fused = self._mix(
            strategy.fusion,
            [(lambda fusion=fusion: fusion(layers)) for fusion in self.fusion_bank],
            threshold,
        )
        node_plan = batch.node_plan()
        graph_repr = self._mix(
            strategy.readout,
            [
                (lambda readout=readout: readout(fused, node_plan, batch.num_graphs))
                for readout in self.readout_bank
            ],
            threshold,
        )
        logits = self.head(graph_repr)
        return {"layers": layers, "node": fused, "graph": graph_repr, "logits": logits}

    def forward(self, batch: Batch, strategy: SampledStrategy) -> Tensor:
        return self.forward_full(batch, strategy)["logits"]

    def _spec_choices(self, spec: FineTuneStrategySpec) -> tuple:
        """``spec``'s bank indices ``(identity tuple, fusion, readout)``.

        Raises ``ValueError`` when the spec does not fit this supernet: a
        wrong number of identity choices, or a candidate name its space
        does not hold.
        """
        k = self.encoder.num_layers
        if len(spec.identity) != k:
            raise ValueError(
                f"spec has {len(spec.identity)} identity choices for {k} layers"
            )

        def index(dimension, options, name):
            if name not in options:
                raise ValueError(
                    f"unknown {dimension} candidate {name!r} in spec "
                    f"{spec.describe()}; allowed: {', '.join(options)}")
            return options.index(name)

        space = self.space
        return (tuple(index("identity", space.identity, name)
                      for name in spec.identity),
                index("fusion", space.fusion, spec.fusion),
                index("readout", space.readout, spec.readout))

    def forward_specs(self, batch: Batch, specs) -> list[Tensor]:
        """Logits of each discrete spec in ``specs`` on ``batch``, in order.

        The many-spec sweep every discrete-spec evaluation runs.  Every
        spec is validated (:meth:`_spec_choices`) before any compute.  The
        nodes are embedded once; then the trie of identity prefixes is
        walked depth-first, so layer ``k`` runs once per distinct choice
        of the first ``k`` identity candidates, and each chosen identity
        module once under it.  Only one root-to-leaf path of activations
        is alive at a time.  Each spec's fusion, readout and head run at
        its leaf.

        This is :meth:`DerivedModel.forward_full` per spec, bit for bit:
        no mixing weights are applied, so ``mix_threshold`` (which
        governs relaxed forwards only) is never read.
        """
        picks = [self._spec_choices(spec) for spec in specs]
        logits: list = [None] * len(specs)
        self._sweep_prefix(batch, picks, logits, self.encoder.embed_nodes(batch),
                           [], range(len(specs)))
        return logits

    def _sweep_prefix(self, batch: Batch, picks: list, logits: list, h: Tensor,
                      layers: list, members) -> None:
        """Depth-first step of :meth:`forward_specs`: run the specs
        ``members`` (indices into ``picks``), which share the identity
        prefix that produced ``layers``, from layer ``len(layers)`` with
        input ``h``, and store their logits into ``logits``."""
        k = len(layers)
        if k == self.encoder.num_layers:
            for i in members:
                _, fusion, readout = picks[i]
                fused = self.fusion_bank[fusion](layers)
                graph_repr = self.readout_bank[readout](
                    fused, batch.node_plan(), batch.num_graphs)
                logits[i] = self.head(graph_repr)
            return
        z = self.encoder.layer_step(h, batch, k)
        branches: dict = {}
        for i in members:
            branches.setdefault(picks[i][0][k], []).append(i)
        for choice, branch in branches.items():
            h_next = self.identity_banks[k][choice](h, z)
            self._sweep_prefix(batch, picks, logits, h_next, layers + [h_next],
                               branch)

    def theta_parameters(self) -> list:
        """Shared model weights theta (everything in the supernet; the
        controller's alpha lives outside this module)."""
        return [p for p in self.parameters() if p.requires_grad]


class DerivedModel(Module):
    """A discrete strategy instantiated as a standalone model.

    Mirrors :class:`~repro.gnn.prediction.GraphPredictionModel` (same
    ``forward_full`` contract) so every fine-tuning strategy and evaluator
    works on it unchanged.
    """

    def __init__(self, encoder: GNNEncoder, spec: FineTuneStrategySpec,
                 num_tasks: int, seed: int = 0):
        super().__init__()
        rng = np.random.default_rng((seed, 4))
        k, d = encoder.num_layers, encoder.emb_dim
        if len(spec.identity) != k:
            raise ValueError(
                f"spec has {len(spec.identity)} identity choices for {k} layers"
            )
        self.encoder = encoder
        self.spec = spec
        self.num_tasks = num_tasks
        self.identity_augs = ModuleList(
            [make_identity_aug(name, d, rng) for name in spec.identity]
        )
        self.fusion = make_fusion(spec.fusion, k, d, rng)
        self.readout = make_readout(spec.readout, d, rng)
        self.head = Linear(d, num_tasks, rng)

    def forward_full(self, batch: Batch) -> dict:
        h = self.encoder.embed_nodes(batch)
        layers: list[Tensor] = []
        for k in range(self.encoder.num_layers):
            z = self.encoder.layer_step(h, batch, k)
            h = self.identity_augs[k](h, z)
            layers.append(h)
        fused = self.fusion(layers)
        graph_repr = self.readout(fused, batch.node_plan(), batch.num_graphs)
        logits = self.head(graph_repr)
        return {"layers": layers, "node": fused, "graph": graph_repr, "logits": logits}

    def forward(self, batch: Batch) -> Tensor:
        return self.forward_full(batch)["logits"]

    def load_from_supernet(self, supernet: "S2PGNNSupernet") -> "DerivedModel":
        """Warm-start from searched supernet weights (paper Sec. III-C2).

        Weight sharing means the search phase already trained (a) the
        backbone and (b) every candidate operator.  The derived model copies
        the encoder plus exactly the candidate modules its spec selected, so
        post-search fine-tuning continues from the searched weights instead
        of re-adapting from the raw pre-trained checkpoint — this also keeps
        the validation-based spec selection (made with shared weights)
        consistent with the model that is finally trained.
        """
        space = supernet.space
        self.encoder.load_state_dict(supernet.encoder.state_dict())
        for k, name in enumerate(self.spec.identity):
            source = supernet.identity_banks[k][space.identity.index(name)]
            self.identity_augs[k].load_state_dict(source.state_dict())
        self.fusion.load_state_dict(
            supernet.fusion_bank[space.fusion.index(self.spec.fusion)].state_dict()
        )
        self.readout.load_state_dict(
            supernet.readout_bank[space.readout.index(self.spec.readout)].state_dict()
        )
        if supernet.num_tasks == self.num_tasks:
            self.head.load_state_dict(supernet.head.state_dict())
        return self
