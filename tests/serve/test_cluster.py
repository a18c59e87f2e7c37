"""Shard-process tests: the spawn handshake and cross-process parity.

Every test spawns a real shard process and is marked ``cluster``.  The
service factories are module-level functions, so the spawned child can
unpickle them by name.
"""

import os

import numpy as np
import pytest

from repro.core import DEFAULT_SPACE
from repro.gnn import GNNEncoder
from repro.graph import load_dataset
from repro.serve import InferenceService, ShardProcess

pytestmark = pytest.mark.cluster

DATASET_SIZE = 40


def tiny_service():
    """The shard's service; the parent builds an identical reference."""
    data = load_dataset("bbbp", size=DATASET_SIZE)

    def encoder_factory():
        return GNNEncoder("gin", num_layers=2, emb_dim=12, dropout=0.0, seed=0)

    return InferenceService(encoder_factory, data.num_tasks, batch_size=8,
                            seed=0)


def unknown_dataset_service():
    """Raises in the child, which reports the error up the pipe."""
    return load_dataset("no-such-dataset", size=8)


def exits_before_handshake():
    """Leaves the child without reporting, as a crash in C would."""
    os._exit(3)


class TestRealShards:
    """Spawned shard processes: the ready handshake and parity."""

    def test_startup_failure_surfaces_through_handshake(self):
        shard = ShardProcess(unknown_dataset_service)
        with pytest.raises(RuntimeError, match="failed to start"):
            shard.start()
        assert not shard.alive

    def test_child_exit_before_handshake_is_a_startup_failure(self):
        shard = ShardProcess(exits_before_handshake)
        with pytest.raises(RuntimeError, match="failed to start.*code 3"):
            shard.start()
        assert not shard.alive
        # The dead child was reaped, so the shard can be started again.
        with pytest.raises(RuntimeError, match="failed to start"):
            shard.start()
        assert not shard.alive

    def test_one_shard_logits_bit_identical_to_serial_service(self):
        """Cross-process logits equal the serial path's, bit for bit."""
        data = load_dataset("bbbp", size=DATASET_SIZE)
        rng = np.random.default_rng(7)
        specs = [DEFAULT_SPACE.random_spec(2, rng) for _ in range(2)]
        reference = tiny_service()
        with ShardProcess(tiny_service, num_workers=1, max_batch_size=1,
                          tick_interval_s=0.002) as shard:
            client = shard.client(timeout_s=60)
            try:
                for i in range(4):
                    for spec in specs:
                        graph = data.graphs[i]
                        logits = client.predict(graph, spec, timeout_s=60)
                        ref = reference.predict([graph], spec, batch_size=1)
                        assert np.array_equal(logits, ref[0])
            finally:
                client.close()
        assert not shard.alive
