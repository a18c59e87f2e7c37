"""Tests for the synthetic molecule generator (valence, determinism, scaffolds)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import (
    ATOM_VALENCES,
    BOND_ORDER,
    DESCRIPTOR_DIM,
    NUM_ATOM_TAGS,
    NUM_ATOM_TYPES,
    NUM_BOND_TYPES,
    MoleculeGenerator,
    molecule_descriptors,
)


@pytest.fixture(scope="module")
def generator():
    return MoleculeGenerator(num_scaffolds=12, seed=0)


class TestGeneration:
    def test_deterministic_per_index(self, generator):
        a = generator.generate(5)
        b = MoleculeGenerator(num_scaffolds=12, seed=0).generate(5)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.edge_index, b.edge_index)
        assert np.array_equal(a.edge_attr, b.edge_attr)

    def test_different_indices_differ(self, generator):
        a, b = generator.generate(0), generator.generate(1)
        assert a.num_nodes != b.num_nodes or not np.array_equal(a.x, b.x)

    def test_different_seeds_differ(self):
        a = MoleculeGenerator(num_scaffolds=12, seed=0).generate(0)
        b = MoleculeGenerator(num_scaffolds=12, seed=1).generate(0)
        assert a.num_nodes != b.num_nodes or not np.array_equal(a.x, b.x)

    def test_undirected(self, generator):
        for i in range(10):
            assert generator.generate(i).is_undirected()

    def test_attribute_ranges(self, generator):
        for i in range(10):
            g = generator.generate(i)
            assert g.x[:, 0].max() < NUM_ATOM_TYPES
            assert g.x[:, 1].max() < NUM_ATOM_TAGS
            assert g.edge_attr[:, 0].max() < NUM_BOND_TYPES

    @given(index=st.integers(0, 200))
    @settings(max_examples=40, deadline=None)
    def test_valence_never_exceeded(self, index):
        g = MoleculeGenerator(num_scaffolds=10, seed=2).generate(index)
        order_used = np.zeros(g.num_nodes, dtype=np.int64)
        for (u, v), attr in zip(g.edge_index.T, g.edge_attr):
            if u < v:
                order_used[u] += BOND_ORDER[attr[0]]
                order_used[v] += BOND_ORDER[attr[0]]
        assert np.all(order_used <= ATOM_VALENCES[g.x[:, 0]])

    @given(index=st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_connected(self, index):
        nx = pytest.importorskip("networkx")

        g = MoleculeGenerator(num_scaffolds=10, seed=4).generate(index)
        assert nx.is_connected(g.to_networkx())

    def test_scaffold_id_recorded(self, generator):
        g = generator.generate(3)
        assert 0 <= g.meta["scaffold_id"] < 12

    def test_forced_scaffold_id(self, generator):
        g = generator.generate(3, scaffold_id=7)
        assert g.meta["scaffold_id"] == 7

    def test_scaffold_distribution_is_skewed(self, generator):
        mols = generator.generate_many(300)
        counts = np.bincount([m.meta["scaffold_id"] for m in mols], minlength=12)
        assert counts[0] > counts[-1]  # Zipf skew: rank-0 scaffold dominates

    def test_contains_rings(self, generator):
        nx = pytest.importorskip("networkx")

        mols = generator.generate_many(20)
        assert all(len(nx.cycle_basis(m.to_networkx())) >= 1 for m in mols)

    def test_generate_many_matches_individual(self, generator):
        batch = generator.generate_many(3, start=10)
        assert np.array_equal(batch[0].x, generator.generate(10).x)


class TestDescriptors:
    def test_dimension_constant(self, generator):
        d = molecule_descriptors(generator.generate(0))
        assert d.shape == (DESCRIPTOR_DIM,)

    def test_deterministic(self, generator):
        g = generator.generate(1)
        assert np.allclose(molecule_descriptors(g), molecule_descriptors(g))

    def test_atom_counts_correct(self, generator):
        g = generator.generate(2)
        d = molecule_descriptors(g)
        assert np.allclose(d[:NUM_ATOM_TYPES], np.bincount(g.x[:, 0], minlength=NUM_ATOM_TYPES))

    def test_size_feature(self, generator):
        g = generator.generate(3)
        d = molecule_descriptors(g)
        # First "extra" slot holds num_nodes.
        offset = DESCRIPTOR_DIM - 6
        assert d[offset] == g.num_nodes

    def test_ring_count_nonnegative(self, generator):
        for i in range(10):
            d = molecule_descriptors(generator.generate(i))
            assert d[DESCRIPTOR_DIM - 5] >= 0
