"""Message-passing convolutions: GCN, GraphSAGE, GIN, GAT (paper Sec. II-A1).

All four follow the molecular-GNN convention of Hu et al. (2019): bond
(edge) features are embedded per layer and *added* to the source node's
message before aggregation.  Each convolution maps

``(h: (N, d) Tensor, edge_index: (2, E), edge_attr: (E, 2)) -> (N, d) Tensor``

so layers are interchangeable inside the encoder — which is what lets the
paper treat ``phi_conv`` as a transferred black box (Table III: the backbone
convolution candidate set is exactly ``{pre_trained}``).

Every layer aggregates through the plan-backed segment kernels in
:mod:`repro.nn.segment`.  Callers that hold a :class:`~repro.graph.graph.Batch`
pass it as ``ctx`` so the batch's cached edge-destination plan (and GCN's
cached degree norms) are reused across layers, candidates and epochs;
standalone calls build one throwaway plan per forward, shared by every
segment op inside that forward.
"""

from __future__ import annotations

import numpy as np

from ..graph.molecule import MASK_BOND_ID, NUM_BOND_TAGS, NUM_BOND_TYPES
from ..nn import (
    Embedding,
    Linear,
    MLP,
    Module,
    Parameter,
    SegmentPlan,
    Tensor,
    concatenate,
    gather,
    gather_segments,
    gin_message,
    segment_mean,
    segment_softmax,
    segment_sum,
)

__all__ = ["BondEncoder", "GINConv", "GCNConv", "SAGEConv", "GATConv", "make_conv",
           "CONV_TYPES", "segment_softmax"]

CONV_TYPES = ["gin", "gcn", "sage", "gat"]


def _edge_plan(ctx, edge_index: np.ndarray, num_nodes: int) -> SegmentPlan:
    """The batch's cached destination plan, or a fresh standalone one."""
    if ctx is not None:
        return ctx.edge_plan()
    return SegmentPlan(edge_index[1], num_nodes)


def _gather_src(h, edge_index: np.ndarray, ctx):
    """Gather source-node features, scatter-adjoint through the batch's
    cached source plan when one is available."""
    if ctx is not None:
        return gather_segments(h, ctx.edge_src_plan())
    return gather(h, edge_index[0])


class BondEncoder(Module):
    """Embed bond type + bond tag into the node feature space (summed)."""

    def __init__(self, dim: int, rng: np.random.Generator):
        super().__init__()
        # +1 slot for the mask token used by masked-component pre-training.
        self.type_embedding = Embedding(NUM_BOND_TYPES + 1, dim, rng)
        self.tag_embedding = Embedding(NUM_BOND_TAGS, dim, rng)

    def forward(self, edge_attr: np.ndarray) -> Tensor:
        return self.type_embedding(edge_attr[:, 0]) + self.tag_embedding(edge_attr[:, 1])


class GINConv(Module):
    """Graph Isomorphism Network layer (Xu et al., 2019).

    ``M_v = SUM(h_u + e_uv); h_v = MLP((1 + eps) h_v + M_v)`` with a
    learnable scalar ``eps`` balancing self vs. neighbor messages.  The
    bond embedding, message add and sum run as the one-node
    ``gin_message`` op over the bond encoder's two tables.
    """

    def __init__(self, dim: int, rng: np.random.Generator):
        super().__init__()
        self.dim = dim
        self.bond_encoder = BondEncoder(dim, rng)
        self.mlp = MLP([dim, 2 * dim, dim], rng)
        self.eps = Parameter(np.zeros(1))

    def forward(self, h: Tensor, edge_index: np.ndarray, edge_attr: np.ndarray,
                ctx=None) -> Tensor:
        if edge_index.shape[1]:
            bonds = self.bond_encoder
            agg = gin_message(h, edge_index, edge_attr,
                              bonds.type_embedding.weight,
                              bonds.tag_embedding.weight,
                              plan=ctx.edge_plan() if ctx is not None else None)
        else:
            agg = Tensor(np.zeros_like(h.data))
        return self.mlp(h * (self.eps + 1.0) + agg)


class GCNConv(Module):
    """GCN layer (Kipf & Welling) with symmetric degree normalization.

    ``h_v = ReLU(W * sum_u 1/sqrt(d_u d_v) (h_u + e_uv))`` with implicit
    self-loops (a degree-normalized self term, no bond embedding).
    """

    def __init__(self, dim: int, rng: np.random.Generator):
        super().__init__()
        self.dim = dim
        self.bond_encoder = BondEncoder(dim, rng)
        self.linear = Linear(dim, dim, rng)

    def forward(self, h: Tensor, edge_index: np.ndarray, edge_attr: np.ndarray,
                ctx=None) -> Tensor:
        num_nodes = h.shape[0]
        plan = _edge_plan(ctx, edge_index, num_nodes)
        if ctx is not None:
            inv_sqrt = ctx.gcn_inv_sqrt_deg()
        else:
            inv_sqrt = 1.0 / np.sqrt(plan.counts + 1.0)
        if edge_index.shape[1]:
            norm = inv_sqrt[edge_index[0]] * inv_sqrt[edge_index[1]]
            messages = (_gather_src(h, edge_index, ctx) + self.bond_encoder(edge_attr))
            messages = messages * Tensor(norm[:, None])
            agg = segment_sum(messages, plan)
        else:
            agg = Tensor(np.zeros_like(h.data))
        self_term = h * Tensor(inv_sqrt[:, None] ** 2)
        return self.linear(agg + self_term).relu()


class SAGEConv(Module):
    """GraphSAGE layer: mean-aggregate neighbors, concat with self, project."""

    def __init__(self, dim: int, rng: np.random.Generator):
        super().__init__()
        self.dim = dim
        self.bond_encoder = BondEncoder(dim, rng)
        self.linear = Linear(2 * dim, dim, rng)

    def forward(self, h: Tensor, edge_index: np.ndarray, edge_attr: np.ndarray,
                ctx=None) -> Tensor:
        num_nodes = h.shape[0]
        if edge_index.shape[1]:
            messages = _gather_src(h, edge_index, ctx) + self.bond_encoder(edge_attr)
            agg = segment_mean(messages, _edge_plan(ctx, edge_index, num_nodes))
        else:
            agg = Tensor(np.zeros_like(h.data))
        return self.linear(concatenate([h, agg], axis=-1)).relu()


class GATConv(Module):
    """Graph attention layer (Velickovic et al.) with ``num_heads`` heads.

    Head outputs are averaged (not concatenated) so the layer maps d -> d
    and stays interchangeable with the other convolutions.
    """

    def __init__(self, dim: int, rng: np.random.Generator, num_heads: int = 2,
                 negative_slope: float = 0.2):
        super().__init__()
        self.dim = dim
        self.num_heads = num_heads
        self.negative_slope = negative_slope
        self.bond_encoder = BondEncoder(dim, rng)
        self.proj = Linear(dim, dim * num_heads, rng, bias=False)
        self.att_src = Parameter(np.asarray(
            rng.normal(0.0, 0.1, size=(num_heads, dim))))
        self.att_dst = Parameter(np.asarray(
            rng.normal(0.0, 0.1, size=(num_heads, dim))))
        self.bias = Parameter(np.zeros(dim))

    def forward(self, h: Tensor, edge_index: np.ndarray, edge_attr: np.ndarray,
                ctx=None) -> Tensor:
        num_nodes = h.shape[0]
        heads, dim = self.num_heads, self.dim
        # (N, heads*d) -> (N, H, d); slice k of the flat layout is head k.
        projected = self.proj(h).reshape(num_nodes, heads, dim)
        if not edge_index.shape[1]:
            # No messages to attend over: average all heads' projections
            # (the same head-mean the attention path applies).
            return projected.mean(axis=1) + self.bias
        # One destination plan serves the softmax (max + sum) and the
        # final aggregation — three segment reductions, one sort.
        plan = _edge_plan(ctx, edge_index, num_nodes)
        bond = self.bond_encoder(edge_attr)  # (E, d), shared across heads
        src_feat = _gather_src(projected, edge_index, ctx) + bond.reshape(-1, 1, dim)
        dst_feat = gather_segments(projected, plan)  # both (E, H, d)
        scores = (src_feat * self.att_src).sum(axis=-1) \
            + (dst_feat * self.att_dst).sum(axis=-1)  # (E, H)
        scores = scores.leaky_relu(self.negative_slope)
        attn = segment_softmax(scores, plan)
        weighted = src_feat * attn.reshape(-1, heads, 1)
        agg = segment_sum(weighted, plan)  # (N, H, d)
        return agg.mean(axis=1) + self.bias


def make_conv(conv_type: str, dim: int, rng: np.random.Generator) -> Module:
    """Factory over :data:`CONV_TYPES`."""
    conv_type = conv_type.lower()
    if conv_type == "gin":
        return GINConv(dim, rng)
    if conv_type == "gcn":
        return GCNConv(dim, rng)
    if conv_type == "sage":
        return SAGEConv(dim, rng)
    if conv_type == "gat":
        return GATConv(dim, rng)
    raise ValueError(f"unknown conv type {conv_type!r}; known: {CONV_TYPES}")
