"""``repro.nn`` — numpy autograd + neural-net substrate (PyTorch stand-in)."""

from . import functional, init
from .layers import (
    BatchNorm1d,
    Bottleneck,
    Dropout,
    Embedding,
    Identity,
    Linear,
    MLP,
    StochNorm1d,
)
from .module import Module, ModuleDict, ModuleList, Parameter, Sequential
from .optim import Adam, clip_grad_norm
from .policy import ExecutionPolicy, active_dtype, active_policy, cast_module, use_dtype
from .ops import (
    OP_REGISTRY,
    OpRegistry,
    gather_segments,
    gin_message,
    scatter_add,
    segment_max,
    segment_mean,
    segment_softmax,
    segment_sum,
)
from .rnn import LSTM, LSTMCell
from .segment import SegmentPlan, as_plan
from .serialization import load_checkpoint, load_state_dict, save_checkpoint, save_state_dict
from .tensor import (
    Tensor,
    as_tensor,
    concatenate,
    gather,
    inference,
    is_grad_enabled,
    is_inference,
    no_grad,
    stack,
    where,
)

__all__ = [
    "functional",
    "init",
    "Tensor",
    "as_tensor",
    "no_grad",
    "is_grad_enabled",
    "inference",
    "is_inference",
    "concatenate",
    "stack",
    "where",
    "gather",
    "gather_segments",
    "gin_message",
    "scatter_add",
    "SegmentPlan",
    "as_plan",
    "segment_sum",
    "segment_mean",
    "segment_max",
    "segment_softmax",
    "OpRegistry",
    "OP_REGISTRY",
    "ExecutionPolicy",
    "active_policy",
    "active_dtype",
    "use_dtype",
    "cast_module",
    "Module",
    "ModuleDict",
    "ModuleList",
    "Parameter",
    "Sequential",
    "Linear",
    "Embedding",
    "MLP",
    "Dropout",
    "BatchNorm1d",
    "StochNorm1d",
    "Bottleneck",
    "Identity",
    "LSTM",
    "LSTMCell",
    "Adam",
    "clip_grad_norm",
    "save_state_dict",
    "load_state_dict",
    "save_checkpoint",
    "load_checkpoint",
]
