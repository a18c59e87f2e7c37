"""Tests for Murcko-like scaffolds and the scaffold split."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import (
    Graph,
    MoleculeGenerator,
    murcko_scaffold_nodes,
    scaffold_key,
    scaffold_split,
)
from repro.graph import datasets
from repro.graph.datasets import DOWNSTREAM_DATASETS, load_dataset


def ring_with_tail():
    """Triangle 0-1-2 plus tail 2-3-4."""
    pairs = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)]
    src = [u for u, v in pairs] + [v for u, v in pairs]
    dst = [v for u, v in pairs] + [u for u, v in pairs]
    return Graph(
        x=np.zeros((5, 2), dtype=np.int64),
        edge_index=np.array([src, dst]),
        edge_attr=np.zeros((10, 2), dtype=np.int64),
    )


class TestMurcko:
    def test_strips_tail_keeps_ring(self):
        assert set(murcko_scaffold_nodes(ring_with_tail()).tolist()) == {0, 1, 2}

    def test_acyclic_graph_empty_scaffold(self):
        path = Graph(
            x=np.zeros((3, 2), dtype=np.int64),
            edge_index=np.array([[0, 1, 1, 2], [1, 0, 2, 1]]),
            edge_attr=np.zeros((4, 2), dtype=np.int64),
        )
        assert len(murcko_scaffold_nodes(path)) == 0
        assert scaffold_key(path) == "acyclic"

    def test_linker_between_rings_kept(self):
        # Two triangles connected by a 1-node linker: 0-1-2, 3, 4-5-6.
        pairs = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 6), (6, 4)]
        src = [u for u, v in pairs] + [v for u, v in pairs]
        dst = [v for u, v in pairs] + [u for u, v in pairs]
        g = Graph(
            x=np.zeros((7, 2), dtype=np.int64),
            edge_index=np.array([src, dst]),
            edge_attr=np.zeros((16, 2), dtype=np.int64),
        )
        assert set(murcko_scaffold_nodes(g).tolist()) == {0, 1, 2, 3, 4, 5, 6}

    def test_key_permutation_invariant(self):
        g = ring_with_tail()
        perm = np.array([4, 2, 0, 1, 3])  # relabel nodes
        inv = np.argsort(perm)
        g2 = Graph(
            x=g.x[perm],
            edge_index=inv[g.edge_index],
            edge_attr=g.edge_attr.copy(),
        )
        assert scaffold_key(g) == scaffold_key(g2)

    def test_key_sensitive_to_ring_size(self):
        def cycle(n):
            pairs = [(i, (i + 1) % n) for i in range(n)]
            src = [u for u, v in pairs] + [v for u, v in pairs]
            dst = [v for u, v in pairs] + [u for u, v in pairs]
            return Graph(
                x=np.zeros((n, 2), dtype=np.int64),
                edge_index=np.array([src, dst]),
                edge_attr=np.zeros((2 * n, 2), dtype=np.int64),
            )

        assert scaffold_key(cycle(5)) != scaffold_key(cycle(6))

    def test_key_sensitive_to_atom_types(self):
        a = ring_with_tail()
        b = ring_with_tail()
        b.x[0, 0] = 2  # substitute a ring atom
        assert scaffold_key(a) != scaffold_key(b)

    @given(index=st.integers(0, 60))
    @settings(max_examples=20, deadline=None)
    def test_same_scaffold_id_same_key_modulo_sidechains(self, index):
        # Molecules forced onto the same template share the scaffold subgraph,
        # so their keys must agree.
        gen = MoleculeGenerator(num_scaffolds=6, seed=1)
        a = gen.generate(index, scaffold_id=2)
        b = gen.generate(index + 1000, scaffold_id=2)
        assert scaffold_key(a) == scaffold_key(b)


class TestScaffoldSplit:
    @pytest.fixture(scope="class")
    def graphs(self):
        return MoleculeGenerator(num_scaffolds=10, seed=5).generate_many(120)

    def test_partition_covers_everything(self, graphs):
        tr, va, te = scaffold_split(graphs)
        assert sorted(tr + va + te) == list(range(len(graphs)))

    def test_no_scaffold_leakage(self, graphs):
        tr, va, te = scaffold_split(graphs)
        keys = lambda idx: {graphs[i].meta["scaffold_key"] for i in idx}
        assert not (keys(tr) & keys(te))
        assert not (keys(tr) & keys(va))

    def test_fractions_approximate(self, graphs):
        tr, va, te = scaffold_split(graphs, 0.8, 0.1, 0.1)
        n = len(graphs)
        assert abs(len(tr) / n - 0.8) < 0.15
        assert len(va) > 0 and len(te) > 0

    def test_invalid_fractions_raise(self, graphs):
        with pytest.raises(ValueError):
            scaffold_split(graphs, 0.5, 0.1, 0.1)

    def test_deterministic(self, graphs):
        assert scaffold_split(graphs) == scaffold_split(graphs)

    def test_common_scaffolds_in_train(self, graphs):
        tr, va, te = scaffold_split(graphs)
        from collections import Counter

        counts = Counter(g.meta["scaffold_key"] for g in graphs)
        most_common_key = counts.most_common(1)[0][0]
        assert all(
            graphs[i].meta["scaffold_key"] != most_common_key for i in te
        )
        assert any(graphs[i].meta["scaffold_key"] == most_common_key for i in tr)


#: ``load_dataset(name, size).split()`` as computed when scaffold keys
#: came from networkx 3.6.1's ``weisfeiler_lehman_graph_hash``: the
#: (train, valid, test) sizes, then sha256 prefixes (16 hex digits) of
#: ``json.dumps([train, valid, test])`` and of
#: ``json.dumps([scaffold_key(g) for g in dataset.graphs])``.  The
#: paper-size cases are tier-2 (``slow``): ~36k graphs in all.
GOLDEN_SPLITS = {
    ("bbbp", None): (1631, 205, 203, "b6926ac1213218d6", "c1ca19557cc7854d"),
    ("tox21", None): (6264, 783, 784, "a02a678b433594b0", "f7fe2c4942d4efd9"),
    ("toxcast", None): (6860, 857, 858, "d8de133d0241db0e",
                        "5ab7498631efb473"),
    ("sider", None): (1141, 148, 138, "330c48ceaa46aacb", "aeeef49ac24f782e"),
    ("clintox", None): (1182, 150, 146, "f2d6adfa873d8205",
                        "181506c5710b26ed"),
    ("bace", None): (1210, 159, 144, "bc3e549ad06d3f66", "bdc2f21a7db8e55c"),
    ("esol", None): (902, 113, 113, "4ffd7ed288363cac", "deef797e1c622225"),
    ("lipo", None): (3360, 421, 419, "f211a328586580c4", "c00af27985648b79"),
    ("bbbp", 200): (160, 20, 20, "d238ed9fb5eeba6c", "768d9ffe7552a0ed"),
    ("tox21", 200): (159, 17, 24, "d7e738b8e92abef6", "8cd35945cc29b576"),
    ("toxcast", 200): (159, 23, 18, "06b3ba818d8a522f", "b04a27d3dc641c9f"),
    ("sider", 200): (159, 21, 20, "c40b4341e60eafd7", "53c1382c746fabd5"),
    ("clintox", 200): (160, 23, 17, "9c6e3b3f288a3a23", "8774603dd4c436e7"),
    ("bace", 200): (160, 21, 19, "8d0776bda36e3e92", "311f15a071e5747f"),
    ("esol", 200): (158, 25, 17, "1256b5b435da951e", "ad6c051a5050ceac"),
    ("lipo", 200): (160, 19, 21, "5a600698250bc75e", "56d81b5a782e8671"),
}


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()[:16]


def _golden_cases(size, marks=()):
    return [pytest.param(name, size, id=f"{name}-{size or 'paper'}",
                         marks=marks) for name in DOWNSTREAM_DATASETS]


class TestGoldenSplits:
    """Every built-in split and scaffold key is pinned: a change to the
    scaffold hash or the Murcko peel that moves one index fails here."""

    @pytest.mark.parametrize(
        "name,size", _golden_cases(200)
        + _golden_cases(None, marks=pytest.mark.slow))
    def test_split_matches_golden(self, name, size):
        dataset = load_dataset(name, size=size)
        try:
            dataset.split()
            train, valid, test = dataset.splits[(0.8, 0.1, 0.1)]
            keys = [g.meta["scaffold_key"] for g in dataset.graphs]
        finally:
            if size is None:  # paper-size datasets are large: do not cache
                with datasets._dataset_cache_lock:
                    datasets._DATASET_CACHE.pop(
                        (name, len(dataset), dataset.num_tasks,
                         dataset.info.seed), None)
        assert (len(train), len(valid), len(test), _digest([train, valid, test]),
                _digest(keys)) == GOLDEN_SPLITS[(name, size)]
