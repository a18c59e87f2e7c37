"""Tests for GraphCL augmentations: validity and semantic properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import MASK_ATOM_ID, MoleculeGenerator, transforms


@pytest.fixture(scope="module")
def mol():
    return MoleculeGenerator(num_scaffolds=6, seed=9).generate(0)


ALL_TRANSFORMS = [
    transforms.node_drop,
    transforms.edge_perturb,
    transforms.attribute_mask,
    transforms.subgraph_sample,
]


class TestValidity:
    @pytest.mark.parametrize("fn", ALL_TRANSFORMS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_output_is_valid_graph(self, mol, fn, seed):
        out = fn(mol, np.random.default_rng(seed))
        out.validate()
        assert out.num_nodes >= 1

    @pytest.mark.parametrize("fn", ALL_TRANSFORMS)
    def test_input_not_mutated(self, mol, fn):
        x_before = mol.x.copy()
        e_before = mol.edge_index.copy()
        fn(mol, np.random.default_rng(0))
        assert np.array_equal(mol.x, x_before)
        assert np.array_equal(mol.edge_index, e_before)

    @given(index=st.integers(0, 50), seed=st.integers(0, 50))
    @settings(max_examples=30, deadline=None)
    def test_random_augment_always_valid(self, index, seed):
        g = MoleculeGenerator(num_scaffolds=5, seed=6).generate(index)
        out = transforms.random_augment(g, np.random.default_rng(seed))
        out.validate()
        assert out.num_nodes >= 1


class TestSemantics:
    def test_node_drop_reduces_nodes(self, mol):
        out = transforms.node_drop(mol, np.random.default_rng(0), ratio=0.3)
        assert out.num_nodes == max(1, int(round(mol.num_nodes * 0.7)))

    def test_node_drop_edges_within_kept(self, mol):
        out = transforms.node_drop(mol, np.random.default_rng(0), ratio=0.3)
        assert out.num_edges <= mol.num_edges

    def test_edge_perturb_preserves_bond_count(self, mol):
        out = transforms.edge_perturb(mol, np.random.default_rng(0), ratio=0.2)
        # Bond count is approximately preserved (replaced, not only deleted).
        assert abs(out.num_edges - mol.num_edges) <= 2 * 2

    def test_edge_perturb_changes_topology(self, mol):
        out = transforms.edge_perturb(mol, np.random.default_rng(0), ratio=0.4)
        before = set(map(tuple, mol.edge_index.T))
        after = set(map(tuple, out.edge_index.T))
        assert before != after

    def test_attribute_mask_sets_mask_token(self, mol):
        out = transforms.attribute_mask(mol, np.random.default_rng(0), ratio=0.25)
        masked = np.sum(out.x[:, 0] == MASK_ATOM_ID)
        assert masked == max(1, int(round(mol.num_nodes * 0.25)))
        assert out.num_nodes == mol.num_nodes

    def test_subgraph_keeps_connected_region(self, mol):
        nx = pytest.importorskip("networkx")

        out = transforms.subgraph_sample(mol, np.random.default_rng(0), ratio=0.6)
        assert out.num_nodes <= mol.num_nodes
        if out.num_nodes > 1 and out.num_edges > 0:
            assert nx.is_connected(out.to_networkx())

    def test_labels_preserved_through_transforms(self, mol):
        labeled = mol.copy()
        labeled.y = np.array([1.0])
        for fn in ALL_TRANSFORMS:
            out = fn(labeled, np.random.default_rng(0))
            assert out.y is not None and out.y[0] == 1.0
