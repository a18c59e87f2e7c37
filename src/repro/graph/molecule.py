"""Synthetic molecular graph generator (ZINC15 / MoleculeNet stand-in).

The execution environment has no network access and no RDKit, so neither the
paper's pre-training corpus (ZINC15) nor its downstream datasets can be
downloaded.  This module generates *molecule-like* attributed graphs that
preserve the statistical properties the paper's pipeline depends on:

* valence-respecting atom/bond structure with realistic ring systems;
* a library of recurring scaffolds shared across molecules with a skewed
  (Zipf-like) frequency distribution — this is what makes scaffold splitting
  produce the out-of-distribution train/test shift the paper evaluates under;
* deterministic generation from explicit seeds (content-addressed datasets).

The generator does not attempt chemical fidelity (no aromaticity perception,
no stereochemistry); it only needs to exercise the same code paths and give
substructure-dependent learning signal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph

__all__ = [
    "ATOM_SYMBOLS",
    "ATOM_VALENCES",
    "NUM_ATOM_TYPES",
    "NUM_ATOM_TAGS",
    "NUM_BOND_TYPES",
    "NUM_BOND_TAGS",
    "MASK_ATOM_ID",
    "MASK_BOND_ID",
    "BOND_ORDER",
    "ScaffoldSpec",
    "MoleculeGenerator",
    "molecule_descriptors",
    "DESCRIPTOR_DIM",
]

# Atom vocabulary: (symbol, max valence). Weighted toward carbon as in ZINC.
ATOM_SYMBOLS = ["C", "N", "O", "F", "S", "Cl", "Br", "P", "I", "B"]
ATOM_VALENCES = np.array([4, 3, 2, 1, 2, 1, 1, 3, 1, 3], dtype=np.int64)
ATOM_WEIGHTS = np.array([0.55, 0.12, 0.12, 0.05, 0.05, 0.04, 0.02, 0.02, 0.01, 0.02])

NUM_ATOM_TYPES = len(ATOM_SYMBOLS)
NUM_ATOM_TAGS = 4  # chirality-like tag
NUM_BOND_TYPES = 4  # single, double, triple, aromatic
NUM_BOND_TAGS = 3  # stereo-like tag

# Extra vocabulary slots for masked-component pre-training (AttrMasking,
# GraphMAE, Mole-BERT): embedding tables are sized with one mask id.
MASK_ATOM_ID = NUM_ATOM_TYPES
MASK_BOND_ID = NUM_BOND_TYPES

# Valence consumed per bond type (aromatic approximated as 1).
BOND_ORDER = np.array([1, 2, 3, 1], dtype=np.int64)

_HETERO_RING_ATOMS = [1, 2, 4]  # N, O, S can substitute ring carbons


@dataclass(frozen=True)
class ScaffoldSpec:
    """A reusable ring-system template.

    ``ring_sizes`` lists the member rings (5- or 6-cycles); ``fusion``
    decides edge-fusion vs. single-bond linkage between consecutive rings;
    ``hetero_positions`` substitutes carbons with heteroatoms.
    """

    ring_sizes: tuple
    fusion: tuple
    hetero_positions: tuple
    aromatic: tuple


class MoleculeGenerator:
    """Deterministic generator of molecule-like :class:`Graph` objects.

    Parameters
    ----------
    num_scaffolds:
        Size of the scaffold library.  Molecules sample a scaffold with a
        Zipf-like skew, so a handful of scaffolds dominate (as in real
        libraries) while a long tail supplies OOD test scaffolds.
    seed:
        Root seed; the same (seed, index) always yields the same molecule.
    """

    def __init__(self, num_scaffolds: int = 40, seed: int = 0,
                 side_chain_atoms: tuple = (0, 8)):
        self.seed = seed
        self.num_scaffolds = num_scaffolds
        self.side_chain_atoms = side_chain_atoms
        rng = np.random.default_rng(seed)
        self.scaffolds = [self._sample_scaffold_spec(rng) for _ in range(num_scaffolds)]
        ranks = np.arange(1, num_scaffolds + 1, dtype=np.float64)
        weights = 1.0 / ranks ** 1.2
        self.scaffold_probs = weights / weights.sum()

    # ------------------------------------------------------------------
    # scaffold templates
    # ------------------------------------------------------------------
    @staticmethod
    def _sample_scaffold_spec(rng: np.random.Generator) -> ScaffoldSpec:
        num_rings = int(rng.integers(1, 4))
        ring_sizes = tuple(int(rng.choice([5, 6], p=[0.35, 0.65])) for _ in range(num_rings))
        fusion = tuple(bool(rng.random() < 0.5) for _ in range(max(num_rings - 1, 0)))
        hetero = []
        for size in ring_sizes:
            subs = []
            for pos in range(size):
                if rng.random() < 0.18:
                    subs.append((pos, int(rng.choice(_HETERO_RING_ATOMS))))
            hetero.append(tuple(subs))
        aromatic = tuple(bool(rng.random() < 0.6) for _ in ring_sizes)
        return ScaffoldSpec(ring_sizes, fusion, tuple(hetero), aromatic)

    def _build_scaffold(self, spec: ScaffoldSpec):
        """Materialize a spec into (atom_types, bonds) where bonds are
        (u, v, bond_type) tuples over scaffold-local node ids."""
        atoms: list[int] = []
        bonds: list[tuple[int, int, int]] = []

        def add_ring(size, hetero, aromatic, attach_edge=None, attach_node=None):
            base = len(atoms)
            ring_atoms = [0] * size  # carbon default
            for pos, atom in hetero:
                ring_atoms[pos] = atom
            start = 0
            ids = []
            if attach_edge is not None:
                # Edge fusion: reuse two existing adjacent atoms as ring members.
                ids = [attach_edge[0], attach_edge[1]]
                start = 2
            for i in range(start, size):
                atoms.append(ring_atoms[i])
                ids.append(base + i - start)
            bond_type = 3 if aromatic else 0
            for i in range(size):
                u, v = ids[i], ids[(i + 1) % size]
                if attach_edge is not None and {u, v} == set(attach_edge):
                    continue  # the fused edge already exists
                bonds.append((u, v, bond_type))
            if attach_node is not None:
                bonds.append((attach_node, ids[0], 0))
            return ids

        prev_ring = None
        for i, size in enumerate(spec.ring_sizes):
            aromatic = spec.aromatic[i]
            hetero = spec.hetero_positions[i]
            if prev_ring is None:
                prev_ring = add_ring(size, hetero, aromatic)
            elif spec.fusion[i - 1]:
                # Fuse on the *newest* edge of the previous ring so chained
                # fusions never pile multiple rings onto the same atom pair.
                edge = (prev_ring[-2], prev_ring[-1])
                prev_ring = add_ring(size, hetero, aromatic, attach_edge=edge)
            else:
                prev_ring = add_ring(
                    size, hetero, aromatic, attach_node=prev_ring[len(prev_ring) // 2]
                )

        # Valence repair: fusion/linker atoms accumulate up to 4 bonds, which
        # can exceed a substituted heteroatom's valence.  Reassign any
        # over-bonded atom to the lightest type whose valence suffices
        # (carbon covers every case produced by the construction above).
        used = np.zeros(len(atoms), dtype=np.int64)
        for u, v, b in bonds:
            used[u] += BOND_ORDER[b]
            used[v] += BOND_ORDER[b]
        for i, atom in enumerate(atoms):
            if used[i] > ATOM_VALENCES[atom]:
                atoms[i] = 0  # carbon, valence 4
        return atoms, bonds

    # ------------------------------------------------------------------
    # molecules
    # ------------------------------------------------------------------
    def generate(self, index: int, scaffold_id: int | None = None) -> Graph:
        """Generate molecule ``index`` (deterministic in (seed, index))."""
        rng = np.random.default_rng((self.seed, index))
        if scaffold_id is None:
            scaffold_id = int(rng.choice(self.num_scaffolds, p=self.scaffold_probs))
        spec = self.scaffolds[scaffold_id]
        atoms, bonds = self._build_scaffold(spec)
        atoms = list(atoms)
        bonds = list(bonds)

        # Remaining valence bookkeeping.
        used = np.zeros(len(atoms), dtype=np.int64)
        for u, v, b in bonds:
            used[u] += BOND_ORDER[b]
            used[v] += BOND_ORDER[b]

        def remaining(i):
            return ATOM_VALENCES[atoms[i]] - used[i]

        # Attach side chains (small trees) to atoms with spare valence.
        lo, hi = self.side_chain_atoms
        target_extra = int(rng.integers(lo, hi + 1))
        frontier = list(range(len(atoms)))
        added = 0
        guard = 0
        while added < target_extra and guard < 200:
            guard += 1
            anchors = [i for i in frontier if remaining(i) >= 1]
            if not anchors:
                break
            anchor = int(rng.choice(anchors))
            atom = int(rng.choice(NUM_ATOM_TYPES, p=ATOM_WEIGHTS))
            max_order = min(int(remaining(anchor)), int(ATOM_VALENCES[atom]), 3)
            order_choices = [0] + ([1] if max_order >= 2 else []) + ([2] if max_order >= 3 else [])
            bond_type = int(rng.choice(order_choices)) if order_choices else 0
            new_id = len(atoms)
            atoms.append(atom)
            used = np.append(used, BOND_ORDER[bond_type])
            used[anchor] += BOND_ORDER[bond_type]
            bonds.append((anchor, new_id, bond_type))
            frontier.append(new_id)
            added += 1

        n = len(atoms)
        x = np.zeros((n, 2), dtype=np.int64)
        x[:, 0] = atoms
        x[:, 1] = rng.integers(0, NUM_ATOM_TAGS, size=n)

        src, dst, etype = [], [], []
        for u, v, b in bonds:
            src += [u, v]
            dst += [v, u]
            etype += [b, b]
        edge_index = np.array([src, dst], dtype=np.int64)
        edge_attr = np.zeros((len(src), 2), dtype=np.int64)
        edge_attr[:, 0] = etype
        edge_attr[:, 1] = rng.integers(0, NUM_BOND_TAGS, size=len(src))

        return Graph(
            x=x,
            edge_index=edge_index,
            edge_attr=edge_attr,
            meta={"scaffold_id": scaffold_id, "index": index},
        )

    def generate_many(self, count: int, start: int = 0) -> list[Graph]:
        return [self.generate(start + i) for i in range(count)]


# ----------------------------------------------------------------------
# structural descriptors (hidden label-generating features)
# ----------------------------------------------------------------------
_PAIR_ATOMS = [0, 1, 2, 4]  # C, N, O, S adjacency pair counts
_PAIRS = [(a, b) for i, a in enumerate(_PAIR_ATOMS) for b in _PAIR_ATOMS[i:]]

DESCRIPTOR_DIM = NUM_ATOM_TYPES + NUM_BOND_TYPES + len(_PAIRS) + 6


def molecule_descriptors(graph: Graph) -> np.ndarray:
    """Deterministic structural descriptor vector used to synthesize labels.

    Contains atom-type counts, bond-type counts, adjacent heteroatom pair
    counts, size, cyclomatic ring count, degree statistics, and ring-atom
    fraction.  Downstream labels are hidden (per-dataset, per-task) functions
    of these descriptors, so learnable signal depends on multi-scale
    structure — the property S2PGNN's fusion/readout search exploits.
    """
    n = graph.num_nodes
    atom_counts = np.bincount(graph.x[:, 0], minlength=NUM_ATOM_TYPES).astype(np.float64)
    bond_counts = np.bincount(
        graph.edge_attr[:, 0], minlength=NUM_BOND_TYPES
    ).astype(np.float64) / 2.0  # directed edges double-count bonds

    pair_index = {pair: i for i, pair in enumerate(_PAIRS)}
    pair_counts = np.zeros(len(_PAIRS), dtype=np.float64)
    for (u, v) in graph.edge_index.T:
        if u < v:
            a, b = sorted((int(graph.x[u, 0]), int(graph.x[v, 0])))
            key = (a, b)
            if key in pair_index:
                pair_counts[pair_index[key]] += 1.0

    degrees = graph.degrees().astype(np.float64)
    num_bonds = graph.num_edges / 2.0
    # Cyclomatic number = bonds - nodes + components; our molecules are connected.
    ring_count = max(num_bonds - n + 1.0, 0.0)
    ring_atoms = _count_cycle_atoms(graph)

    extras = np.array([
        float(n),
        ring_count,
        degrees.mean() if n else 0.0,
        degrees.max() if n else 0.0,
        ring_atoms / max(n, 1),
        num_bonds,
    ])
    return np.concatenate([atom_counts, bond_counts, pair_counts, extras])


def _count_cycle_atoms(graph: Graph) -> float:
    """Number of atoms on at least one ring: the endpoints of the bonds
    that are not bridges (a bond lies on a cycle exactly when it is not a
    bridge).  Bridges come from one iterative DFS (Tarjan's low-link)."""
    n = graph.num_nodes
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in {(u, v) for u, v in graph.edge_index.T.tolist() if u < v}:
        adj[u].append(v)
        adj[v].append(u)
    disc = [-1] * n  # DFS discovery time
    low = [0] * n    # earliest discovery time reachable by one back edge
    on_ring: set[int] = set()
    clock = 0
    for root in range(n):
        if disc[root] >= 0:
            continue
        disc[root] = low[root] = clock
        clock += 1
        stack = [(root, -1, iter(adj[root]))]
        while stack:
            node, parent, neighbours = stack[-1]
            for nbr in neighbours:
                if disc[nbr] < 0:
                    disc[nbr] = low[nbr] = clock
                    clock += 1
                    stack.append((nbr, node, iter(adj[nbr])))
                    break
                if nbr != parent:  # a back edge closes a ring
                    low[node] = min(low[node], disc[nbr])
                    on_ring.update((node, nbr))
            else:
                stack.pop()
                if parent >= 0:
                    low[parent] = min(low[parent], low[node])
                    if low[node] <= disc[parent]:  # not a bridge
                        on_ring.update((node, parent))
    return float(len(on_ring))
