"""networkx as the oracle of the scaffold key and the ring-atom count.

The program computes both without networkx: :func:`scaffold_key` is a
3-iteration Weisfeiler-Lehman hash written out, and the ring-atom count
of :func:`molecule_descriptors` counts the endpoints of non-bridge bonds.
Here each must equal networkx's own computation — ``weisfeiler_lehman_graph_hash``
over the Murcko subgraph, and the union of ``cycle_basis`` cycles — on
every built-in dataset, the pre-training corpus, hand-built structures
and random multigraphs.
"""

import numpy as np
import pytest

from repro.graph import Graph, murcko_scaffold_nodes, scaffold_key
from repro.graph.datasets import DOWNSTREAM_DATASETS, load_dataset, zinc_corpus
from repro.graph.molecule import _count_cycle_atoms

nx = pytest.importorskip("networkx")


def nx_scaffold_key(graph: Graph) -> str:
    keep = set(murcko_scaffold_nodes(graph).tolist())
    if not keep:
        return "acyclic"
    g = nx.Graph()
    for i in keep:
        g.add_node(i, atom=str(int(graph.x[i, 0])))
    for (u, v), attr in zip(graph.edge_index.T, graph.edge_attr):
        if u < v and int(u) in keep and int(v) in keep:
            g.add_edge(int(u), int(v), bond=str(int(attr[0])))
    return nx.weisfeiler_lehman_graph_hash(
        g, node_attr="atom", edge_attr="bond", iterations=3)


def nx_ring_atoms(graph: Graph) -> float:
    nodes: set[int] = set()
    for cycle in nx.cycle_basis(graph.to_networkx()):
        nodes.update(cycle)
    return float(len(nodes))


def bonded(num_atoms, bonds, atoms=None, bond_types=None) -> Graph:
    """An undirected graph: each ``(u, v)`` bond stored both ways."""
    bonds = list(bonds)
    src = [u for u, v in bonds] + [v for u, v in bonds]
    dst = [v for u, v in bonds] + [u for u, v in bonds]
    types = list(bond_types or [0] * len(bonds)) * 2
    x = np.zeros((num_atoms, 2), dtype=np.int64)
    if atoms is not None:
        x[:, 0] = atoms
    attr = np.zeros((len(src), 2), dtype=np.int64)
    attr[:, 0] = types
    return Graph(x=x, edge_index=np.array([src, dst]).reshape(2, -1),
                 edge_attr=attr)


def ring(start, size):
    return [(start + i, start + (i + 1) % size) for i in range(size)]


#: name -> (graph, atoms on a ring)
STRUCTURES = {
    "acyclic_tree": (bonded(6, [(0, 1), (1, 2), (1, 3), (3, 4), (3, 5)]), 0),
    "single_atom": (bonded(1, []), 0),
    "disconnected": (bonded(10, ring(0, 3) + ring(3, 5) + [(8, 9)],
                            atoms=[0, 1, 0, 2, 0, 0, 0, 0, 4, 4]), 8),
    "fused_rings": (bonded(10, ring(0, 6) + [(0, 6), (6, 7), (7, 8),
                                             (8, 9), (9, 1)]), 10),
    "rings_joined_by_a_bridge": (bonded(12, ring(0, 6) + ring(6, 6)
                                        + [(0, 6)]), 12),
    "rings_joined_by_a_chain": (bonded(9, ring(0, 3) + ring(3, 3)
                                       + [(0, 6), (6, 7), (7, 3), (7, 8)],
                                       bond_types=[0, 1, 0, 0, 1, 0, 3, 3, 3,
                                                   0]), 6),
    "spiro": (bonded(7, ring(0, 4) + [(0, 4), (4, 5), (5, 6), (6, 0)]), 7),
}


class TestStructures:
    @pytest.mark.parametrize("name", STRUCTURES)
    def test_ring_atoms(self, name):
        graph, expected = STRUCTURES[name]
        assert _count_cycle_atoms(graph) == expected == nx_ring_atoms(graph)

    @pytest.mark.parametrize("name", STRUCTURES)
    def test_scaffold_key(self, name):
        graph, _ = STRUCTURES[name]
        assert scaffold_key(graph) == nx_scaffold_key(graph)

    def test_bond_labels_enter_the_key(self):
        plain = bonded(6, ring(0, 6))
        double = bonded(6, ring(0, 6), bond_types=[1, 0, 0, 0, 0, 0])
        assert scaffold_key(plain) != scaffold_key(double)
        assert scaffold_key(double) == nx_scaffold_key(double)


@pytest.mark.parametrize("name", DOWNSTREAM_DATASETS)
def test_every_builtin_dataset(name):
    for graph in load_dataset(name, size=200).graphs:
        assert scaffold_key(graph) == nx_scaffold_key(graph)
        assert _count_cycle_atoms(graph) == nx_ring_atoms(graph)


def test_zinc_corpus():
    for graph in zinc_corpus():
        assert scaffold_key(graph) == nx_scaffold_key(graph)
        assert _count_cycle_atoms(graph) == nx_ring_atoms(graph)


@pytest.mark.parametrize("seed", range(4))
def test_random_multigraphs(seed):
    """Random labelled multigraphs: self-loops, repeated bonds, one-way
    edges, isolated atoms and several components."""
    rng = np.random.default_rng(seed)
    for _ in range(150):
        n = int(rng.integers(1, 16))
        m = int(rng.integers(0, 2 * n + 1))
        u, v = rng.integers(0, n, m), rng.integers(0, n, m)
        edge_index = np.stack([u, v])
        if rng.random() < 0.7:  # mostly both directions, as molecules are
            edge_index = np.concatenate([edge_index, edge_index[::-1]], axis=1)
        e = edge_index.shape[1]
        graph = Graph(
            x=np.stack([rng.integers(0, 10, n), rng.integers(0, 4, n)], axis=1),
            edge_index=edge_index,
            edge_attr=np.stack([rng.integers(0, 4, e), rng.integers(0, 3, e)],
                               axis=1))
        assert scaffold_key(graph) == nx_scaffold_key(graph)
        assert _count_cycle_atoms(graph) == nx_ring_atoms(graph)
