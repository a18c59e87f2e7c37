"""Optional differential leg: the op registry vs. PyTorch.

Replays every registered op's deterministic sample inputs through a
hand-written torch equivalent and checks forward values *and* gradients
against the repro autodiff within the op's declared tolerance.  The
whole module is skipped when torch is not installed — the CI image does
not ship it — so this is a free extra oracle on machines that have it,
never a dependency.

The torch equivalents deliberately use small, version-stable ops
(``index_add``, ``bincount``, a per-segment loop for max) rather than
``scatter_reduce``: the samples are tiny and robustness beats speed.
"""

import numpy as np
import pytest

try:
    import torch
except ImportError:  # pragma: no cover - exercised only without torch
    torch = None

pytestmark = pytest.mark.skipif(torch is None, reason="torch not installed")

from repro.nn import Tensor  # noqa: E402
from repro.nn.ops import OP_REGISTRY  # noqa: E402
from tests.conftest import KERNEL_LEGS, kernel_leg, leg_op  # noqa: E402

#: forward/grad agreement threshold in float64 (beyond the op's own
#: declared oracle tolerance, which is 0 for the exact ops).
ATOL = 1e-9


def _torch_segment_sum(x, ids, n):
    out = torch.zeros((n,) + tuple(x.shape[1:]), dtype=x.dtype)
    return out.index_add(0, ids, x)


def _torch_segment_mean(x, ids, n):
    counts = torch.bincount(ids, minlength=n).clamp(min=1).to(x.dtype)
    if x.dim() > 1:
        counts = counts.reshape((n,) + (1,) * (x.dim() - 1))
    return _torch_segment_sum(x, ids, n) / counts


def _torch_segment_max(x, ids, n):
    rows = []
    for segment in range(n):
        mask = ids == segment
        if bool(mask.any()):
            rows.append(x[mask].max(dim=0).values)
        else:  # empty segments yield zeros, matching the repro kernels
            rows.append(torch.zeros(tuple(x.shape[1:]), dtype=x.dtype))
    return torch.stack(rows)


def _torch_segment_softmax(scores, ids, n):
    # Mirror the repro composition exactly, including the detached max
    # shift and the 1e-16 denominator guard.
    seg_max = _torch_segment_max(scores, ids, n).detach()
    exp = (scores - seg_max[ids]).exp()
    denom = _torch_segment_sum(exp, ids, n)
    return exp / (denom[ids] + 1e-16)


def _torch_gather_rows(x, ids, n=None):
    return x[ids]


_TORCH_OPS = {
    "segment_sum": _torch_segment_sum,
    "segment_mean": _torch_segment_mean,
    "segment_max": _torch_segment_max,
    "segment_softmax": _torch_segment_softmax,
    "gather_segments": _torch_gather_rows,
    "gather": _torch_gather_rows,
    "exp": lambda x: torch.exp(x),
    "log": lambda x: torch.log(x),
    "sqrt": lambda x: torch.sqrt(x),
    "tanh": lambda x: torch.tanh(x),
    "sigmoid": lambda x: torch.sigmoid(x),
    "relu": lambda x: torch.relu(x),
    "abs": lambda x: torch.abs(x),
}

DIFFERENTIABLE = sorted(_TORCH_OPS)


def _torch_args(args):
    return tuple(torch.from_numpy(np.asarray(a)).long()
                 if isinstance(a, np.ndarray) else a for a in args)


def _run_repro(op_name, backend, sample):
    dispatch = leg_op(backend, op_name)
    with kernel_leg(backend):
        x = Tensor(sample.data.copy(), requires_grad=True)
        out = dispatch(x, *sample.args)
        out.backward(np.ones_like(out.data))
    return out.data, x.grad


def _run_torch(op_name, sample):
    x = torch.from_numpy(sample.data.copy()).requires_grad_(True)
    out = _TORCH_OPS[op_name](x, *_torch_args(sample.args))
    out.backward(torch.ones_like(out))
    return out.detach().numpy(), x.grad.numpy()


class TestTorchParity:
    def test_every_differentiable_op_has_a_torch_equivalent(self):
        registered = {name for name in OP_REGISTRY.ops()
                      if OP_REGISTRY.get(name).differentiable}
        assert registered == set(_TORCH_OPS)

    @pytest.mark.parametrize("backend", KERNEL_LEGS)
    @pytest.mark.parametrize("op_name", DIFFERENTIABLE)
    def test_forward_and_gradient_match(self, op_name, backend):
        entry = OP_REGISTRY.get(op_name)
        tol = max(entry.tolerance, ATOL)
        for sample in entry.samples(np.float64):
            out_repro, grad_repro = _run_repro(op_name, backend, sample)
            out_torch, grad_torch = _run_torch(op_name, sample)
            assert np.abs(out_repro - out_torch).max(initial=0.0) <= tol, \
                (op_name, backend, sample.label)
            assert np.abs(grad_repro - grad_torch).max(initial=0.0) <= tol, \
                (op_name, backend, sample.label)

    @pytest.mark.parametrize("backend", KERNEL_LEGS)
    def test_scatter_add_forward_matches(self, backend):
        entry = OP_REGISTRY.get("scatter_add")
        dispatch = leg_op(backend, "scatter_add")
        for sample in entry.samples(np.float64):
            with kernel_leg(backend):
                out_repro = dispatch(sample.data, *sample.args)
            ids, n = sample.args
            out_torch = _torch_segment_sum(
                torch.from_numpy(sample.data.copy()),
                torch.from_numpy(np.asarray(ids)).long(), n).numpy()
            assert np.abs(out_repro - out_torch).max(initial=0.0) <= ATOL, \
                (backend, sample.label)
