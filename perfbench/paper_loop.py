"""``paper-loop``: the paper's Table XI loop, search then fine-tune.

``S2PGNNFineTuner.search`` then ``fit(dataset, spec=pinned)`` on the
synthetic ``bbbp`` dataset with the ``BENCH_SCALE`` encoder.  ``pinned``
is a random spec from a fixed seed: search outcomes are chaotic, and a
derived spec that flips between commits would change the fine-tune work.
Patience equals the epoch count, so every fit runs every epoch.  This is
grad-mode float64 work (autograd, segment kernels, optimizer,
collation) and never touches ``serve``.

A run fits as many times as its seconds allow and reports medians over
its fits.  Fit ``i`` of a run with ``--seed s`` seeds the search's
sampling and every loader's shuffle with ``s * 1000 + i``: which
candidates the search samples changes what an epoch costs, so each fit
draws anew and the run's median averages that out.
"""

from __future__ import annotations

import math
import time

import numpy as np

import common
import probes
from spans import Tracer, span_table

DATASET_SIZE = 240
SEARCH_EPOCHS = 3
FINETUNE_EPOCHS = 8
PINNED_SPEC_SEED = 1


def setup(seed: int, trace: bool) -> dict:
    from repro.core import DEFAULT_SPACE

    state = common.cold_setup(DATASET_SIZE)
    # One spec for every seed: specs differ widely in cost, and the seed
    # already varies the search's sampling and every loader's shuffle.
    rng = np.random.default_rng(PINNED_SPEC_SEED)
    state["spec"] = DEFAULT_SPACE.random_spec(common.ENCODER["num_layers"], rng)
    return state


def teardown(state: dict) -> None:
    common.remove_dirs(state["base"])


def _fit_once(state: dict, tracer: Tracer, seed: int):
    from repro.core import S2PGNNFineTuner, SearchConfig
    from repro.core.api import FineTuneConfig

    tuner = S2PGNNFineTuner(
        common.encoder_factory,
        search_config=SearchConfig(epochs=SEARCH_EPOCHS, seed=seed),
        finetune_config=FineTuneConfig(epochs=FINETUNE_EPOCHS,
                                       patience=FINETUNE_EPOCHS),
        seed=seed)
    dataset = state["dataset"]
    root = tracer.open("bench/paper-loop")
    start = time.perf_counter()
    tuner.search(dataset)
    middle = time.perf_counter()
    result = tuner.fit(dataset, spec=state["spec"])
    end = time.perf_counter()
    tracer.close(root)
    return tuner, result, {"loop_s": end - start, "fit_s": end - middle}


def _check_fit(state: dict, tuner, result) -> list[tuple]:
    from repro.serve import InferenceService

    history = tuner.search_result_.history
    losses = ([h["train_loss"] for h in history] + [h["alpha_loss"] for h in history]
              + list(result.train_losses))
    _, _, test = state["dataset"].split()
    served = InferenceService.from_tuner(tuner).predict(test, tuner.best_spec_)
    direct = tuner.predict(test)
    return [
        ("losses finite", all(math.isfinite(x) for x in losses), f"{len(losses)} losses"),
        ("test score defined", math.isfinite(result.test_score),
         f"{result.metric}={result.test_score:.4f}"),
        ("served logits == tuner.predict", bool(np.array_equal(served, direct)),
         f"{len(test)} test graphs, max |d|={float(np.max(np.abs(served - direct))):.3g}"),
    ]


def measure(state: dict, seconds: float, trace: bool, seed: int) -> dict:
    checks, fits = [], []
    untraced = Tracer(enabled=False)
    started = time.perf_counter()
    while True:
        tuner, result, times = _fit_once(state, untraced, seed * 1000 + len(fits))
        # The program's own timings: search wall time, and the mean
        # training-loop time of a fine-tune epoch (validation excluded).
        times["search_epoch_s"] = tuner.search_result_.seconds / SEARCH_EPOCHS
        times["finetune_epoch_s"] = result.seconds_per_epoch
        fits.append(times)
        checks += _check_fit(state, tuner, result)
        elapsed = time.perf_counter() - started
        if trace or elapsed + elapsed / len(fits) > seconds:
            break
    loop = [f["loop_s"] for f in fits]
    figures = {key: common.median([f[key] for f in fits])
               for key in ("search_epoch_s", "finetune_epoch_s", "fit_s", "loop_s")}
    figures["fits"] = len(fits)
    out = {
        "metrics": {
            "latency_p50_ms": 1000 * common.median(loop),
            "throughput_per_s": (SEARCH_EPOCHS + FINETUNE_EPOCHS) * len(fits) / sum(loop),
        },
        "figures": figures,
        "phases": {"fits": common.phase_counts(len(fits), len(fits), 0, 0)},
        "checks": checks,
        "attempted": len(fits),
        "failed": 0,
    }
    if trace:
        traced = Tracer()
        label = probes.install_training_all(traced)
        try:
            tuner, result, times = _fit_once(state, traced, seed * 1000)
        finally:
            traced.restore()
        checks += _check_fit(state, tuner, result)
        out["trace"] = {
            "table": span_table(traced.spans, roots={0}),
            "total_s": times["loop_s"],
            "label": label,
            "overhead_of": "one search + fine-tune loop",
            "overhead_s": times["loop_s"] - fits[0]["loop_s"],
            "overhead_base_s": fits[0]["loop_s"],
            "spans": traced.spans,
        }
    return out
