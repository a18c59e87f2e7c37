"""Batch serving: persistent models + shared batch caches for inference.

The search (PR 1) made a derived-strategy forward cost one model instead of
|candidates| models, and the segment-plan cache (PR 2) made repeated
inference over the same collated batches nearly free.  This walkthrough
shows the layer that exploits both for many-request / many-spec workloads:

1. search + fine-tune as usual — but every phase shares one
   ``BatchCacheRegistry``, so each split is collated exactly once;
2. wrap the fitted tuner in an ``InferenceService`` and answer repeated
   prediction requests from the persistent fine-tuned model;
3. score a set of candidate specs over the cached validation batches
   with ``score_specs`` — one supernet sweep for all of them, in which
   each batch runs its shared layers once per distinct identity prefix
   (not once per spec), no model construction, no re-collation;
4. inspect the cache counters that make the serving economics visible.

Run:  python examples/serving.py
"""

import numpy as np

from repro import InferenceService, S2PGNNFineTuner, SearchConfig
from repro.core.api import FineTuneConfig
from repro.graph import load_dataset
from repro.pretrain import get_pretrained


def main():
    # -- 1. search + fine-tune with a run-wide shared batch cache ---------
    dataset = load_dataset("bbbp", size=240)
    print(f"dataset: {dataset.info.name} | {len(dataset)} molecules")

    def pretrained_encoder():
        return get_pretrained(
            "contextpred", backbone="gin", num_layers=3, emb_dim=32,
            corpus_size=160, epochs=2,
        )

    tuner = S2PGNNFineTuner(
        pretrained_encoder,
        search_config=SearchConfig(epochs=4, seed=0),
        finetune_config=FineTuneConfig(epochs=10, patience=10),
    )
    result = tuner.fit(dataset)
    print(f"fitted: {tuner.best_spec_.describe()} | "
          f"test {dataset.info.metric} = {result.test_score:.3f}")
    print(f"shared batch cache after fit: {tuner.batch_cache.stats()}")

    # -- 2. a serving endpoint over the fitted run ------------------------
    # from_tuner shares the tuner's batch cache, attaches the searched
    # supernet, and registers the fine-tuned model under its spec.
    service = InferenceService.from_tuner(tuner)
    _, valid_graphs, test_graphs = dataset.split()
    service.warm(test_graphs)  # pre-pay collation + segment plans

    logits = service.predict(test_graphs, tuner.best_spec_)
    print(f"\nserved {logits.shape[0]} predictions "
          f"(mean logit {float(np.mean(logits)):+.3f})")
    # Repeated requests hit the persistent model and pre-built batches.
    for _ in range(3):
        service.predict(test_graphs, tuner.best_spec_)
    print(f"after 4 requests: {service.stats()['batches']}")

    # -- 3. many-spec scoring in one prefix-shared supernet sweep ---------
    rng = np.random.default_rng(7)
    candidates = [tuner.best_spec_] + [
        tuner.space.random_spec(3, rng) for _ in range(5)
    ]
    scores = service.score_specs(candidates, valid_graphs,
                                 metric=dataset.info.metric)
    print("\ncandidate specs on the validation split:")
    for entry in sorted(scores, key=lambda e: e.score, reverse=True):
        marker = " <- searched" if entry.spec == tuner.best_spec_ else ""
        print(f"  {entry.score:8.4f}  {entry.spec.describe()}{marker}")

    # -- 4. the serving economics -----------------------------------------
    stats = service.stats()
    print(f"\nmodel registry: {stats['models']}")
    print(f"batch cache:    {stats['batches']}")
    print("every split was collated once; all later requests were cache hits")


if __name__ == "__main__":
    main()
