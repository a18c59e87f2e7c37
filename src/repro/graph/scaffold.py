"""Murcko-like scaffold extraction and scaffold splitting.

The paper evaluates under scaffold split (Sec. IV-A3, following Hu et al.
and MoleculeNet): molecules are grouped by their Bemis-Murcko scaffold and
entire scaffold groups are assigned to train/valid/test, so test molecules
carry scaffolds unseen during training — a realistic out-of-distribution
protocol.  Without RDKit we implement the same idea directly on the graph:

1. *Scaffold subgraph*: iteratively strip non-ring leaves (degree-1 nodes
   outside every cycle) until only ring systems and their linkers remain —
   exactly the Murcko "remove side chains" rule.
2. *Canonical key*: a 3-iteration Weisfeiler-Lehman hash of the scaffold
   subgraph with atom/bond labels (Shervashidze et al., JMLR 2011), which
   is permutation invariant.  It reproduces networkx's
   ``weisfeiler_lehman_graph_hash`` string for string, so keys (and every
   split) match the ones networkx computes.
3. *Split*: sort scaffold groups by descending size and greedily fill the
   train, then valid, then test buckets (the standard deterministic scaffold
   split), so the largest scaffolds land in train and rare ones in test.
"""

from __future__ import annotations

from collections import Counter
from hashlib import blake2b

import numpy as np

from .graph import Graph

__all__ = ["murcko_scaffold_nodes", "scaffold_key", "scaffold_split"]


def murcko_scaffold_nodes(graph: Graph) -> np.ndarray:
    """Return indices of nodes in the Murcko scaffold (rings + linkers).

    Implemented by repeatedly deleting nodes of degree at most 1; what
    survives are the cycles and the paths that connect them.  An acyclic
    molecule has an empty scaffold (by convention its scaffold key is
    ``"acyclic"``, grouping all acyclic molecules together, as RDKit does
    for Murcko scaffolds).
    """
    n = graph.num_nodes
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in graph.edge_index.T.tolist():
        adj[u].add(v)
        adj[v].add(u)
    # Peel to the 2-core: a node with at most one live neighbour goes,
    # and its neighbours' counts drop.  The 2-core is unique, so the
    # peeling order does not matter.
    degree = [len(nbrs) for nbrs in adj]
    alive = [True] * n
    stack = [node for node in range(n) if degree[node] <= 1]
    while stack:
        node = stack.pop()
        if not alive[node]:
            continue
        alive[node] = False
        for nbr in adj[node]:
            if alive[nbr]:
                degree[nbr] -= 1
                if degree[nbr] <= 1:
                    stack.append(nbr)
    return np.flatnonzero(alive)


def _wl_hash(label: str) -> str:
    return blake2b(label.encode("ascii"), digest_size=16).hexdigest()


def scaffold_key(graph: Graph) -> str:
    """Canonical (permutation-invariant) identifier of a graph's scaffold.

    Each of 3 Weisfeiler-Lehman rounds relabels a node with the hash of
    its label followed by its neighbours' sorted ``bond + label``
    strings; the key hashes the sorted per-round label counts.
    """
    keep = set(murcko_scaffold_nodes(graph).tolist())
    if not keep:
        return "acyclic"
    bonds: dict[int, dict[int, str]] = {node: {} for node in keep}
    for (u, v), bond in zip(graph.edge_index.T.tolist(),
                            graph.edge_attr[:, 0].tolist()):
        if u < v and u in keep and v in keep:
            bonds[u][v] = bonds[v][u] = str(bond)
    labels = {node: str(int(graph.x[node, 0])) for node in keep}
    counts: list = []
    for _ in range(3):
        labels = {node: _wl_hash(labels[node] + "".join(sorted(
                      bond + labels[nbr] for nbr, bond in nbrs.items())))
                  for node, nbrs in bonds.items()}
        counts.extend(sorted(Counter(labels.values()).items()))
    return _wl_hash(str(tuple(counts)))


def scaffold_split(
    graphs: list[Graph],
    frac_train: float = 0.8,
    frac_valid: float = 0.1,
    frac_test: float = 0.1,
) -> tuple[list[int], list[int], list[int]]:
    """Deterministic scaffold split; returns (train, valid, test) index lists.

    Groups by :func:`scaffold_key`, sorts groups by (descending size,
    lexicographic key) and fills train first — the protocol of MoleculeNet's
    deterministic scaffold splitter, which concentrates common scaffolds in
    train and pushes rare scaffolds to valid/test.
    """
    if abs(frac_train + frac_valid + frac_test - 1.0) > 1e-8:
        raise ValueError("split fractions must sum to 1")
    groups: dict[str, list[int]] = {}
    for i, graph in enumerate(graphs):
        key = graph.meta.get("scaffold_key")
        if key is None:
            key = scaffold_key(graph)
            graph.meta["scaffold_key"] = key
        groups.setdefault(key, []).append(i)

    ordered = sorted(groups.values(), key=lambda idx: (-len(idx), idx[0]))
    n = len(graphs)
    train_cap = frac_train * n
    valid_cap = (frac_train + frac_valid) * n

    train: list[int] = []
    valid: list[int] = []
    test: list[int] = []
    for group in ordered:
        if len(train) + len(group) <= train_cap or not train:
            train.extend(group)
        elif len(train) + len(valid) + len(group) <= valid_cap or not valid:
            valid.extend(group)
        else:
            test.extend(group)
    if not test:  # degenerate tiny datasets: steal the tail of valid
        test = valid[len(valid) // 2:]
        valid = valid[: len(valid) // 2]
    return train, valid, test
