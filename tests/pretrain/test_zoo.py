"""Tests for the pre-trained model zoo (caching, content addressing)."""

import os

import numpy as np
import pytest

from repro.pretrain import get_pretrained


@pytest.fixture
def zoo_dir(tmp_path):
    return str(tmp_path / "zoo")


SMALL = dict(num_layers=2, emb_dim=8, corpus_size=24, epochs=1)


class TestZoo:
    def test_returns_encoder_with_config(self, zoo_dir):
        enc = get_pretrained("edgepred", "gin", cache_dir=zoo_dir, **SMALL)
        assert enc.num_layers == 2 and enc.emb_dim == 8 and enc.conv_type == "gin"

    def test_checkpoint_cached_on_disk(self, zoo_dir):
        get_pretrained("edgepred", "gin", cache_dir=zoo_dir, **SMALL)
        files = os.listdir(zoo_dir)
        assert any(f.endswith(".npz") for f in files)
        assert any(f.endswith(".json") for f in files)

    def test_cache_hit_returns_identical_weights(self, zoo_dir, batch):
        """A miss returns the same encoder a later hit does: equal weights,
        no stale grads from pretraining, the same dropout RNG state, so a
        train-mode forward matches."""
        a = get_pretrained("edgepred", "gin", cache_dir=zoo_dir, **SMALL)
        b = get_pretrained("edgepred", "gin", cache_dir=zoo_dir, **SMALL)
        for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
            assert np.array_equal(pa.data, pb.data)
            assert pa.grad is None and pb.grad is None
        assert a.dropout.rng.bit_generator.state == b.dropout.rng.bit_generator.state
        a.train()
        b.train()
        assert np.array_equal(a(batch)[-1].data, b(batch)[-1].data)

    def test_different_methods_different_checkpoints(self, zoo_dir):
        a = get_pretrained("edgepred", "gin", cache_dir=zoo_dir, **SMALL)
        b = get_pretrained("attrmasking", "gin", cache_dir=zoo_dir, **SMALL)
        diff = any(
            not np.array_equal(pa.data, pb.data)
            for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters())
        )
        assert diff

    def test_config_change_invalidates_cache(self, zoo_dir):
        get_pretrained("edgepred", "gin", cache_dir=zoo_dir, **SMALL)
        count_before = len(os.listdir(zoo_dir))
        get_pretrained("edgepred", "gin", cache_dir=zoo_dir,
                       num_layers=2, emb_dim=8, corpus_size=24, epochs=2)
        assert len(os.listdir(zoo_dir)) > count_before

    def test_unknown_method_raises(self, zoo_dir):
        with pytest.raises(KeyError):
            get_pretrained("bert", cache_dir=zoo_dir)

    def test_pretraining_changes_weights(self, zoo_dir):
        from repro.gnn import GNNEncoder

        trained = get_pretrained("attrmasking", "gin", cache_dir=zoo_dir, **SMALL)
        fresh = GNNEncoder("gin", num_layers=2, emb_dim=8, seed=0)
        diff = any(
            not np.allclose(pt.data, pf.data)
            for (_, pt), (_, pf) in zip(trained.named_parameters(), fresh.named_parameters())
        )
        assert diff

    def test_mgssl_uses_smaller_corpus(self, zoo_dir):
        import json

        get_pretrained("mgssl", "gin", cache_dir=zoo_dir, **SMALL)
        meta_file = [f for f in os.listdir(zoo_dir) if f.endswith(".json")][0]
        with open(os.path.join(zoo_dir, meta_file)) as fh:
            meta = json.load(fh)
        assert meta["corpus_size"] == SMALL["corpus_size"] // 2
