"""Tests for the DataLoader."""

import numpy as np
import pytest

from repro.graph import Batch, DataLoader


class TestDataLoader:
    def test_batch_count(self, molecules):
        loader = DataLoader(molecules, batch_size=8)
        assert len(loader) == (len(molecules) + 7) // 8
        assert len(list(loader)) == len(loader)

    def test_last_batch_partial(self, molecules):
        loader = DataLoader(molecules[:10], batch_size=4)
        batches = list(loader)
        assert batches[-1].num_graphs == 2

    def test_no_shuffle_preserves_order(self, molecules):
        loader = DataLoader(molecules, batch_size=len(molecules))
        batch = next(iter(loader))
        assert np.array_equal(batch.x, Batch(molecules).x)

    def test_shuffle_changes_order_between_epochs(self, molecules):
        loader = DataLoader(molecules, batch_size=len(molecules), shuffle=True,
                            rng=np.random.default_rng(0))
        first = next(iter(loader)).x.copy()
        second = next(iter(loader)).x.copy()
        assert not np.array_equal(first, second)

    def test_shuffle_deterministic_given_rng(self, molecules):
        a = DataLoader(molecules, batch_size=4, shuffle=True, rng=np.random.default_rng(1))
        b = DataLoader(molecules, batch_size=4, shuffle=True, rng=np.random.default_rng(1))
        assert np.array_equal(next(iter(a)).x, next(iter(b)).x)

    def test_all_graphs_covered_each_epoch(self, molecules):
        loader = DataLoader(molecules, batch_size=7, shuffle=True)
        total = sum(b.num_graphs for b in loader)
        assert total == len(molecules)

    def test_invalid_batch_size(self, molecules):
        with pytest.raises(ValueError):
            DataLoader(molecules, batch_size=0)


def assert_batches_equal(a, b):
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.edge_index, b.edge_index)
    assert np.array_equal(a.edge_attr, b.edge_attr)
    assert np.array_equal(a.batch, b.batch)
    if a.y is None or b.y is None:
        assert a.y is None and b.y is None
    else:
        assert np.array_equal(a.y, b.y)


class TestCachedDataLoader:
    def test_cached_batches_byte_identical_to_fresh_collation(self, molecules):
        """Every batch a cached loader yields — across two shuffled epochs
        with the same RNG — is byte-identical to collating its graphs fresh."""
        loader = DataLoader(molecules, batch_size=8, shuffle=True,
                            rng=np.random.default_rng(4), cache=True)
        for _ in range(2):
            for cached in loader:
                fresh = Batch([molecules[i] for i in cached.indices])
                assert_batches_equal(cached, fresh)

    def test_collates_each_batch_exactly_once(self, molecules):
        loader = DataLoader(molecules, batch_size=8, shuffle=True, cache=True)
        for _ in range(3):
            list(loader)
        assert loader.num_collations == len(loader)

    def test_fresh_mode_recollates_every_epoch(self, molecules):
        loader = DataLoader(molecules, batch_size=8, shuffle=True)
        for _ in range(3):
            list(loader)
        assert loader.num_collations == 3 * len(loader)

    def test_epochs_reuse_same_batch_objects(self, molecules):
        loader = DataLoader(molecules, batch_size=8, shuffle=True, cache=True)
        first = {id(b) for b in loader}
        second = {id(b) for b in loader}
        assert first == second

    def test_shuffle_permutes_batch_order(self, molecules):
        loader = DataLoader(molecules, batch_size=4, shuffle=True,
                            rng=np.random.default_rng(0), cache=True)
        epochs = [[id(b) for b in loader] for _ in range(4)]
        assert any(e != epochs[0] for e in epochs[1:])

    def test_no_shuffle_matches_uncached_loader(self, molecules):
        cached = DataLoader(molecules, batch_size=8, cache=True)
        fresh = DataLoader(molecules, batch_size=8)
        for a, b in zip(cached, fresh, strict=True):
            assert_batches_equal(a, b)

    def test_all_graphs_covered_each_epoch(self, molecules):
        loader = DataLoader(molecules, batch_size=7, shuffle=True, cache=True)
        covered = np.sort(np.concatenate([b.indices for b in loader]))
        assert np.array_equal(covered, np.arange(len(molecules)))

    def test_batch_indices_recorded(self, molecules):
        loader = DataLoader(molecules, batch_size=8, cache=True)
        batch = next(iter(loader))
        assert np.array_equal(batch.indices, np.arange(8))
        # Direct construction leaves indices unset.
        assert Batch(molecules[:3]).indices is None
