"""Tests for Graph and Batch containers."""

import numpy as np
import pytest

from repro.graph import Batch, Graph


def simple_graph(n=3, y=None):
    """A path graph 0-1-2 with both edge directions."""
    edge_index = np.array([[0, 1, 1, 2], [1, 0, 2, 1]])
    edge_attr = np.zeros((4, 2), dtype=np.int64)
    x = np.zeros((n, 2), dtype=np.int64)
    return Graph(x=x, edge_index=edge_index, edge_attr=edge_attr, y=y)


class TestGraph:
    def test_counts(self):
        g = simple_graph()
        assert g.num_nodes == 3 and g.num_edges == 4

    def test_num_tasks(self):
        assert simple_graph().num_tasks == 0
        assert simple_graph(y=np.array([1.0, 0.0])).num_tasks == 2

    def test_out_of_range_edge_raises(self):
        with pytest.raises(ValueError):
            Graph(
                x=np.zeros((2, 2)),
                edge_index=np.array([[0], [5]]),
                edge_attr=np.zeros((1, 2)),
            )

    def test_edge_attr_mismatch_raises(self):
        with pytest.raises(ValueError):
            Graph(
                x=np.zeros((2, 2)),
                edge_index=np.array([[0, 1], [1, 0]]),
                edge_attr=np.zeros((1, 2)),
            )

    def test_x_must_be_2d(self):
        with pytest.raises(ValueError):
            Graph(x=np.zeros(3), edge_index=np.zeros((2, 0)), edge_attr=np.zeros((0, 2)))

    def test_degrees(self):
        assert np.array_equal(simple_graph().degrees(), [1, 2, 1])

    def test_is_undirected(self):
        assert simple_graph().is_undirected()
        directed = Graph(
            x=np.zeros((2, 2)),
            edge_index=np.array([[0], [1]]),
            edge_attr=np.zeros((1, 2)),
        )
        assert not directed.is_undirected()

    def test_to_networkx_counts(self):
        pytest.importorskip("networkx")
        g = simple_graph().to_networkx()
        assert g.number_of_nodes() == 3 and g.number_of_edges() == 2

    def test_copy_is_deep(self):
        g = simple_graph(y=np.array([1.0]))
        c = g.copy()
        c.x[0, 0] = 9
        c.y[0] = 0.0
        assert g.x[0, 0] == 0 and g.y[0] == 1.0


class TestBatch:
    def test_disjoint_union_offsets(self, molecules):
        batch = Batch(molecules[:3])
        sizes = [m.num_nodes for m in molecules[:3]]
        assert batch.num_nodes == sum(sizes)
        assert np.array_equal(batch.node_offsets, np.cumsum([0] + sizes))

    def test_batch_vector_assignment(self, molecules):
        batch = Batch(molecules[:3])
        for i, mol in enumerate(molecules[:3]):
            assert np.sum(batch.batch == i) == mol.num_nodes

    def test_edge_indices_shifted_in_range(self, molecules):
        batch = Batch(molecules[:4])
        lo = batch.node_offsets[:-1][batch.batch[batch.edge_index[0]]]
        hi = batch.node_offsets[1:][batch.batch[batch.edge_index[0]]]
        assert np.all(batch.edge_index[0] >= lo) and np.all(batch.edge_index[0] < hi)

    def test_no_cross_graph_edges(self, molecules):
        batch = Batch(molecules[:4])
        assert np.array_equal(
            batch.batch[batch.edge_index[0]], batch.batch[batch.edge_index[1]]
        )

    def test_labels_stacked(self):
        graphs = [simple_graph(y=np.array([float(i)])) for i in range(3)]
        batch = Batch(graphs)
        assert batch.y.shape == (3, 1)
        assert np.allclose(batch.y.ravel(), [0, 1, 2])

    def test_label_widths_that_differ_give_no_label_matrix(self):
        # Collation must not raise: serving batches never read labels.
        graphs = [simple_graph(y=np.zeros(1)), simple_graph(y=np.zeros(3))]
        batch = Batch(graphs)
        assert batch.y is None and batch.num_graphs == 2
        with pytest.raises(ValueError, match="label widths differ"):
            batch.label_mask()

    def test_unlabeled_batch_has_no_y(self, molecules):
        assert Batch(molecules[:2]).y is None

    def test_label_mask_and_fill(self):
        graphs = [simple_graph(y=np.array([1.0, np.nan])) for _ in range(2)]
        batch = Batch(graphs)
        assert np.array_equal(batch.label_mask(), [[True, False], [True, False]])
        assert np.allclose(batch.labels_filled(), [[1.0, 0.0], [1.0, 0.0]])

    def test_label_access_without_labels_raises(self, molecules):
        batch = Batch(molecules[:2])
        with pytest.raises(ValueError):
            batch.label_mask()

    def test_empty_batch_raises(self):
        with pytest.raises(ValueError):
            Batch([])

    def test_single_graph_batch(self, molecules):
        batch = Batch([molecules[0]])
        assert batch.num_graphs == 1
        assert np.all(batch.batch == 0)
