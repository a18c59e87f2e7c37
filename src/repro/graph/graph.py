"""Graph and Batch containers (struct-of-arrays, PyG-style).

A :class:`Graph` stores one attributed molecule-like graph:

* ``x`` — ``(num_nodes, 2)`` int64 node attributes ``[atom_type, atom_tag]``
  (the two-slot layout mirrors Hu et al. 2019's atom-type + chirality input).
* ``edge_index`` — ``(2, num_edges)`` int64 directed edge list; undirected
  molecular bonds are stored as both directions.
* ``edge_attr`` — ``(num_edges, 2)`` int64 ``[bond_type, bond_tag]``.
* ``y`` — ``(num_tasks,)`` float64 labels; ``nan`` marks a missing label
  (multi-task MoleculeNet datasets have sparse label matrices).

:class:`Batch` is the disjoint union of many graphs with a ``batch`` vector
mapping each node to its source graph — the representation every
aggregation / readout primitive in :mod:`repro.nn.segment` consumes.  Its
float payloads (``y``, the GCN degree norms) are materialized **once, at
collation time, in the active**
:class:`~repro.nn.policy.ExecutionPolicy` **dtype** — a batch collated
under ``use_dtype("float32")`` feeds float32 forwards with no per-step casts,
while training batches stay float64.  A batch is treated as immutable
after collation, which lets it lazily build
and cache the encoder-invariant precomputation every forward pass needs:
the edge-destination :class:`~repro.nn.segment.SegmentPlan`, the
node->graph plan, and GCN's symmetric degree norms.  Combined with
``DataLoader(cache=True)`` these are computed once per split and reused
across every epoch and every search/evolution/finetune phase.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from ..nn.policy import active_dtype
from ..nn.segment import SegmentPlan

__all__ = ["Graph", "Batch"]


@dataclass
class Graph:
    """One attributed graph with optional labels and metadata."""

    x: np.ndarray
    edge_index: np.ndarray
    edge_attr: np.ndarray
    y: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.int64)
        self.edge_index = np.asarray(self.edge_index, dtype=np.int64).reshape(2, -1)
        self.edge_attr = np.asarray(self.edge_attr, dtype=np.int64)
        if self.edge_attr.ndim == 1:
            self.edge_attr = self.edge_attr.reshape(-1, 1)
        if self.y is not None:
            # Dataset-level labels stay float64 regardless of policy: one
            # Graph may feed both training and serving collations, and the
            # Batch casts at collation time.
            self.y = np.asarray(self.y, dtype=np.float64).reshape(-1)
        self.validate()

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return int(self.x.shape[0])

    @property
    def num_edges(self) -> int:
        """Number of *directed* edges (2x the bond count)."""
        return int(self.edge_index.shape[1])

    @property
    def num_tasks(self) -> int:
        return 0 if self.y is None else int(self.y.shape[0])

    def validate(self) -> None:
        """Raise ``ValueError`` on structurally inconsistent data."""
        if self.x.ndim != 2:
            raise ValueError(f"x must be 2-D, got shape {self.x.shape}")
        if self.num_edges:
            lo, hi = self.edge_index.min(), self.edge_index.max()
            if lo < 0 or hi >= self.num_nodes:
                raise ValueError(
                    f"edge_index out of range [0, {self.num_nodes}): ({lo}, {hi})"
                )
        if self.edge_attr.shape[0] != self.num_edges:
            raise ValueError(
                f"edge_attr rows ({self.edge_attr.shape[0]}) != num_edges ({self.num_edges})"
            )

    def degrees(self) -> np.ndarray:
        """In-degree per node under the directed edge list."""
        return np.bincount(self.edge_index[1], minlength=self.num_nodes)

    def is_undirected(self) -> bool:
        """True if every directed edge has its reverse present."""
        fwd = set(map(tuple, self.edge_index.T))
        return all((v, u) in fwd for (u, v) in fwd)

    def to_networkx(self):
        """Convert to ``networkx.Graph`` with atom/bond labels (interop and
        test oracles; networkx is imported only here)."""
        import networkx as nx

        g = nx.Graph()
        for i in range(self.num_nodes):
            g.add_node(i, atom=int(self.x[i, 0]))
        for (u, v), attr in zip(self.edge_index.T, self.edge_attr):
            if u < v:
                g.add_edge(int(u), int(v), bond=int(attr[0]))
        return g

    def copy(self) -> "Graph":
        return Graph(
            x=self.x.copy(),
            edge_index=self.edge_index.copy(),
            edge_attr=self.edge_attr.copy(),
            y=None if self.y is None else self.y.copy(),
            meta=dict(self.meta),
        )


class Batch:
    """Disjoint union of graphs with per-node graph assignment.

    Parameters
    ----------
    graphs:
        The member graphs, collated eagerly (one numpy concatenation per
        array field).
    indices:
        Optional positions of the member graphs in their source dataset;
        recorded by the caching :class:`~repro.graph.loader.DataLoader` so
        a pre-collated batch stays traceable to the split it came from.
    """

    def __init__(self, graphs: list[Graph], indices: np.ndarray | None = None):
        if not graphs:
            raise ValueError("cannot batch zero graphs")
        self.graphs = list(graphs)
        self.num_graphs = len(graphs)
        self.indices = None if indices is None else np.asarray(indices, dtype=np.int64)

        node_offsets = np.cumsum([0] + [g.num_nodes for g in graphs])
        self.node_offsets = node_offsets
        self.x = np.concatenate([g.x for g in graphs], axis=0)
        self.edge_index = np.concatenate(
            [g.edge_index + off for g, off in zip(graphs, node_offsets[:-1])], axis=1
        ) if any(g.num_edges for g in graphs) else np.zeros((2, 0), dtype=np.int64)
        self.edge_attr = np.concatenate([g.edge_attr for g in graphs], axis=0) if any(
            g.num_edges for g in graphs
        ) else np.zeros((0, graphs[0].edge_attr.shape[1] or 2), dtype=np.int64)
        self.batch = np.concatenate(
            [np.full(g.num_nodes, i, dtype=np.int64) for i, g in enumerate(graphs)]
        )
        # Collation dtype: captured once from the active execution policy,
        # so every float payload of the batch (labels, degree norms) is
        # materialized in it exactly once.
        self.dtype = active_dtype()
        # A label matrix only when every member carries labels of one
        # width.  Serving never reads labels, so a request whose labels
        # differ in width must not fail the micro-batch it joined.
        labeled = [g.y for g in graphs if g.y is not None]
        if (len(labeled) == self.num_graphs
                and len({y.shape for y in labeled}) == 1):
            self.y = np.stack(labeled, axis=0).astype(self.dtype, copy=False)
        else:
            self.y = None
        # Lazy per-batch precomputation (built on first use, then reused
        # for the lifetime of the batch — i.e. every epoch under a caching
        # loader).  Valid because collated arrays are never mutated.  The
        # lock only guards the one-time builds: concurrent serving workers
        # sharing a cached batch must not each build (and race to publish)
        # their own plan.
        self._plan_lock = threading.Lock()
        self._edge_plan: SegmentPlan | None = None
        self._edge_src_plan: SegmentPlan | None = None
        self._node_plan: SegmentPlan | None = None
        self._gcn_inv_sqrt_deg: np.ndarray | None = None

    @property
    def num_nodes(self) -> int:
        return int(self.x.shape[0])

    @property
    def num_edges(self) -> int:
        return int(self.edge_index.shape[1])

    def edge_plan(self) -> SegmentPlan:
        """Cached reduction plan over edge destinations (``edge_index[1]``).

        This is the plan every convolution's neighborhood aggregation and
        attention softmax reduces with (segments = target nodes).
        """
        if self._edge_plan is None:
            with self._plan_lock:
                if self._edge_plan is None:
                    self._edge_plan = SegmentPlan(self.edge_index[1], self.num_nodes)
        return self._edge_plan

    def edge_src_plan(self) -> SegmentPlan:
        """Cached reduction plan over edge sources (``edge_index[0]``).

        Message passing gathers source-node features along this index on
        every layer; the plan makes the gather's scatter-add adjoint run
        through the fast segment-sum kernel.
        """
        if self._edge_src_plan is None:
            with self._plan_lock:
                if self._edge_src_plan is None:
                    self._edge_src_plan = SegmentPlan(self.edge_index[0],
                                                      self.num_nodes)
        return self._edge_src_plan

    def node_plan(self) -> SegmentPlan:
        """Cached reduction plan over the node->graph ``batch`` vector.

        This is the plan every readout pools with (segments = graph ids).
        """
        if self._node_plan is None:
            with self._plan_lock:
                if self._node_plan is None:
                    self._node_plan = SegmentPlan(self.batch, self.num_graphs)
        return self._node_plan

    def gcn_inv_sqrt_deg(self) -> np.ndarray:
        """Cached ``1/sqrt(deg + 1)`` per node (GCN's symmetric norm).

        Degrees come from the edge plan's counts (in-degree under the
        directed edge list, plus the implicit self-loop).
        """
        if self._gcn_inv_sqrt_deg is None:
            counts = self.edge_plan().counts  # outside the lock: re-entrant build
            with self._plan_lock:
                if self._gcn_inv_sqrt_deg is None:
                    # float64 compute, then a no-copy cast to the collation
                    # dtype — bit-identical under the default policy.
                    self._gcn_inv_sqrt_deg = (
                        1.0 / np.sqrt(counts + 1.0)).astype(self.dtype,
                                                            copy=False)
        return self._gcn_inv_sqrt_deg

    def require_y(self) -> np.ndarray:
        """``y``, shape (num_graphs, tasks); ``ValueError`` if absent."""
        if self.y is None:
            raise ValueError("batch has no labels (a graph is unlabeled or "
                             "label widths differ)")
        return self.y

    def label_mask(self) -> np.ndarray:
        """Boolean mask of present (non-nan) labels, shape (num_graphs, tasks)."""
        return ~np.isnan(self.require_y())

    def labels_filled(self, fill: float = 0.0) -> np.ndarray:
        """Labels with nans replaced by ``fill`` (pairs with :meth:`label_mask`)."""
        y = self.require_y()
        return np.where(np.isnan(y), fill, y)
