"""Throughput benchmark for the fast-path supernet execution layer.

Times the three hot paths this layer optimizes and emits
``BENCH_search_throughput.json`` so future PRs can track the trajectory:

1. **Supernet forward, one-hot strategy** — branch-skipping fast path
   (default ``mix_threshold``) vs the pre-fast-path mixed forward
   (``mix_threshold=None``, every candidate branch computed).  The fast
   path must be >= 2x faster and numerically equivalent.
2. **DerivedModel equivalence** — fast-path one-hot logits must match a
   warm-started :class:`DerivedModel` on the same spec to atol 1e-9.
3. **DataLoader iteration** — cached collation (collate once, shuffle
   batch order) vs fresh per-epoch collation.

Run modes:

* ``python benchmarks/bench_search_throughput.py`` — full config, writes
  the JSON snapshot next to this file.
* ``pytest benchmarks/bench_search_throughput.py`` — quick config,
  asserts the speedup/equivalence contract, does not overwrite the
  snapshot (set ``REPRO_BENCH_WRITE=1`` to write it; set
  ``REPRO_BENCH_SKIP=1`` to skip entirely).
"""

import time

import numpy as np

from conftest import (
    result_path, run_contract, snapshot_main, write_if_requested)

RESULT_PATH = result_path("search_throughput")


def _build(num_layers, emb_dim, dataset_size, batch_size, seed=0):
    from repro.core import DEFAULT_SPACE
    from repro.core.space import FineTuneStrategySpec
    from repro.core.supernet import S2PGNNSupernet
    from repro.gnn import GNNEncoder
    from repro.graph import Batch, load_dataset

    dataset = load_dataset("bbbp", size=dataset_size)
    train_graphs, _, _ = dataset.split()
    batches = [
        Batch(train_graphs[i:i + batch_size])
        for i in range(0, len(train_graphs), batch_size)
    ]
    encoder = GNNEncoder("gin", num_layers=num_layers, emb_dim=emb_dim,
                         dropout=0.0, seed=seed)
    supernet = S2PGNNSupernet(encoder, DEFAULT_SPACE,
                              num_tasks=dataset.num_tasks, seed=seed)
    supernet.eval()
    spec = FineTuneStrategySpec(identity=("identity_aug",) * num_layers,
                                fusion="mean", readout="sum")
    return dataset, train_graphs, batches, supernet, spec


def _time_sweeps(fn, repeats):
    """Best-of-``repeats`` wall time of one full sweep (seconds)."""
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench_supernet_forward(num_layers=5, emb_dim=32, dataset_size=120,
                           batch_size=32, repeats=5, seed=0):
    """Fast-path vs mixed one-hot forward + DerivedModel equivalence."""
    from repro.core import DEFAULT_SPACE
    from repro.core.search import _spec_to_onehots
    from repro.core.supernet import MIX_SKIP_THRESHOLD, DerivedModel
    from repro.nn import no_grad

    dataset, _, batches, supernet, spec = _build(
        num_layers, emb_dim, dataset_size, batch_size, seed)
    one_hots = _spec_to_onehots(spec, DEFAULT_SPACE, num_layers)

    def sweep():
        with no_grad():
            for batch in batches:
                supernet.forward_full(batch, one_hots)

    supernet.mix_threshold = None  # pre-PR behavior: every branch computed
    mixed_s = _time_sweeps(sweep, repeats)
    supernet.mix_threshold = MIX_SKIP_THRESHOLD
    fast_s = _time_sweeps(sweep, repeats)

    derived = DerivedModel(supernet.encoder, spec, dataset.num_tasks, seed=seed)
    derived.load_from_supernet(supernet)
    derived.eval()
    max_diff = 0.0
    with no_grad():
        for batch in batches:
            fast = supernet.forward_full(batch, one_hots)["logits"].data
            ref = derived(batch).data
            max_diff = max(max_diff, float(np.abs(fast - ref).max()))

    return {
        "mixed_forward_s": mixed_s,
        "fastpath_forward_s": fast_s,
        "speedup": mixed_s / fast_s,
        "derived_equivalence_max_abs_diff": max_diff,
        "num_batches": len(batches),
    }


def bench_loader(dataset_size=120, batch_size=32, epochs=5, repeats=3, seed=0):
    """Cached vs fresh batch collation over ``epochs`` loader sweeps."""
    from repro.graph import DataLoader, load_dataset

    dataset = load_dataset("bbbp", size=dataset_size)
    train_graphs, _, _ = dataset.split()

    def sweep(cache):
        loader = DataLoader(train_graphs, batch_size=batch_size, shuffle=True,
                            rng=np.random.default_rng(seed), cache=cache)
        for _ in range(epochs):
            for batch in loader:
                batch.x.shape  # touch the collated arrays
        return loader

    fresh_s = _time_sweeps(lambda: sweep(cache=False), repeats)
    cached_s = _time_sweeps(lambda: sweep(cache=True), repeats)
    return {
        "epochs": epochs,
        "fresh_iteration_s": fresh_s,
        "cached_iteration_s": cached_s,
        "speedup": fresh_s / cached_s,
    }


def run_benchmark(num_layers=5, emb_dim=32, dataset_size=120, batch_size=32,
                  repeats=5, seed=0):
    config = {
        "num_layers": num_layers,
        "emb_dim": emb_dim,
        "dataset_size": dataset_size,
        "batch_size": batch_size,
        "repeats": repeats,
        "seed": seed,
    }
    return {
        "benchmark": "search_throughput",
        "config": config,
        "supernet_forward": bench_supernet_forward(
            num_layers, emb_dim, dataset_size, batch_size, repeats, seed),
        "loader": bench_loader(dataset_size, batch_size, repeats=max(repeats // 2, 1),
                               seed=seed),
    }


# ----------------------------------------------------------------------
# pytest entry point (quick tier)
# ----------------------------------------------------------------------
def test_fastpath_throughput_contract():
    results = run_contract(run_benchmark, num_layers=3, emb_dim=16,
                           dataset_size=60, batch_size=16, repeats=3)
    forward = results["supernet_forward"]
    assert forward["speedup"] >= 2.0, forward
    assert forward["derived_equivalence_max_abs_diff"] <= 1e-9, forward
    assert results["loader"]["speedup"] >= 1.0, results["loader"]
    write_if_requested(results, RESULT_PATH)


if __name__ == "__main__":
    snapshot_main(run_benchmark, RESULT_PATH)
