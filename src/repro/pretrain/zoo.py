"""Pre-trained model zoo: build-on-demand, cached-on-disk checkpoints.

The paper fine-tunes *officially released* pre-trained models (Sec. IV-A4).
Offline, we instead pre-train each method on the synthetic ZINC-like corpus
and cache the encoder weights, content-addressed by the full configuration,
so every experiment that asks for ``(method, backbone, layers, dim)`` gets
the identical checkpoint — mirroring how released checkpoints behave.
"""

from __future__ import annotations

import hashlib
import json
import os

from ..gnn.encoder import GNNEncoder
from ..graph.datasets import zinc_corpus
from ..nn.serialization import load_checkpoint, save_checkpoint
from .attrmasking import AttrMaskingTask
from .base import PretrainTask, pretrain
from .contextpred import ContextPredTask
from .edgepred import EdgePredTask
from .graphcl import GraphCLTask
from .graphlog import GraphLoGTask
from .graphmae import GraphMAETask
from .infomax import InfomaxTask
from .mgssl import MGSSLTask
from .molebert import MoleBERTTask
from .simgrace import SimGRACETask

__all__ = ["PRETRAIN_METHODS", "PRETRAIN_CATEGORIES", "get_pretrained", "default_zoo_dir"]

PRETRAIN_METHODS: dict[str, type[PretrainTask]] = {
    "infomax": InfomaxTask,
    "edgepred": EdgePredTask,
    "contextpred": ContextPredTask,
    "attrmasking": AttrMaskingTask,
    "graphcl": GraphCLTask,
    "graphlog": GraphLoGTask,
    "mgssl": MGSSLTask,
    "simgrace": SimGRACETask,
    "graphmae": GraphMAETask,
    "molebert": MoleBERTTask,
}

PRETRAIN_CATEGORIES = {name: cls.category for name, cls in PRETRAIN_METHODS.items()}


def default_zoo_dir() -> str:
    """Checkpoint cache directory (override with REPRO_ZOO_DIR)."""
    return os.environ.get(
        "REPRO_ZOO_DIR", os.path.join(os.path.expanduser("~"), ".cache", "repro_zoo")
    )


def _config_key(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def get_pretrained(
    method: str,
    backbone: str = "gin",
    num_layers: int = 5,
    emb_dim: int = 64,
    corpus_size: int = 300,
    epochs: int = 3,
    batch_size: int = 32,
    lr: float = 1e-3,
    seed: int = 0,
    cache_dir: str | None = None,
    verbose: bool = False,
) -> GNNEncoder:
    """Return a pre-trained encoder for ``method`` (cached on disk).

    The MGSSL corpus is smaller than the others' (the paper uses ZINC15-250K
    for MGSSL vs. 2M otherwise); we scale the same way (half the corpus).
    """
    method = method.lower()
    if method not in PRETRAIN_METHODS:
        raise KeyError(f"unknown pre-training method {method!r}; known: {list(PRETRAIN_METHODS)}")

    effective_corpus = corpus_size // 2 if method == "mgssl" else corpus_size
    config = {
        "method": method,
        "backbone": backbone,
        "num_layers": num_layers,
        "emb_dim": emb_dim,
        "corpus_size": effective_corpus,
        "epochs": epochs,
        "batch_size": batch_size,
        "lr": lr,
        "seed": seed,
    }
    cache_dir = cache_dir or default_zoo_dir()
    path = os.path.join(cache_dir, f"{method}_{backbone}_{_config_key(config)}.npz")

    encoder_kwargs = dict(conv_type=backbone, num_layers=num_layers,
                          emb_dim=emb_dim, seed=seed)
    if not os.path.exists(path):
        encoder = GNNEncoder(**encoder_kwargs)
        corpus = zinc_corpus(size=effective_corpus, seed=101 + seed)
        task = PRETRAIN_METHODS[method](encoder, seed=seed)
        history = pretrain(
            task, corpus, epochs=epochs, batch_size=batch_size, lr=lr, seed=seed,
            verbose=verbose,
        )
        save_checkpoint(encoder.state_dict(), {**config, "loss_history": history}, path)
    # Miss or hit, return a fresh encoder loaded from the checkpoint: the
    # pretrained one carries stale grads and an advanced dropout RNG.
    encoder = GNNEncoder(**encoder_kwargs)
    encoder.load_state_dict(load_checkpoint(path)[0])
    return encoder
