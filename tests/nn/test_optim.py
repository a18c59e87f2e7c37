"""Tests for the Adam optimizer (convergence, skip rules) and grad clipping."""

import numpy as np
import pytest

from repro.nn import Adam, Parameter, Tensor, clip_grad_norm


def quadratic_step(opt, p, target):
    loss = ((p - Tensor(target)) ** 2).sum()
    opt.zero_grad()
    loss.backward()
    opt.step()
    return loss.item()


class TestAdam:
    def test_converges_on_quadratic(self):
        p = Parameter(np.array([5.0, -3.0, 2.0]))
        opt = Adam([p], lr=0.1)
        for _ in range(200):
            last = quadratic_step(opt, p, np.array([1.0, 1.0, 1.0]))
        assert last < 1e-6
        assert np.allclose(p.data, 1.0, atol=1e-3)

    def test_first_step_magnitude_is_lr(self):
        # Bias correction makes the first Adam step ~lr regardless of grad scale.
        p = Parameter(np.array([100.0]))
        opt = Adam([p], lr=0.5)
        quadratic_step(opt, p, np.zeros(1))
        assert abs((100.0 - p.data[0]) - 0.5) < 1e-6

    def test_state_tracks_multiple_params(self):
        a, b = Parameter(np.array([1.0])), Parameter(np.array([2.0]))
        opt = Adam([a, b], lr=0.1)
        loss = (a * a).sum() + (b * b).sum()
        opt.zero_grad()
        loss.backward()
        opt.step()
        assert a.data[0] < 1.0 and b.data[0] < 2.0

    def test_skips_frozen_params(self):
        p = Parameter(np.array([1.0]))
        opt = Adam([p], lr=0.1)
        (p * 2.0).backward()
        p.requires_grad = False
        opt.step()
        assert p.data[0] == 1.0
        assert not opt._m[0].any() and not opt._v[0].any()

    def test_skips_gradless_params(self):
        """A parameter with no grad keeps its data and moments byte for
        byte through a step that moves another parameter."""
        a, b = Parameter(np.array([1.0, -2.0])), Parameter(np.array([3.0]))
        opt = Adam([a, b], lr=0.1)
        for _ in range(2):  # non-zero moments for ``b`` first
            quadratic_step(opt, a, np.zeros(2))
            quadratic_step(opt, b, np.zeros(1))
        b.zero_grad()
        assert b.grad is None
        data, m, v = b.data.tobytes(), opt._m[1].tobytes(), opt._v[1].tobytes()
        assert opt._m[1].any() and opt._v[1].any()
        a_before = a.data.copy()
        quadratic_step(opt, a, np.zeros(2))
        assert not np.array_equal(a.data, a_before)
        assert b.data.tobytes() == data
        assert opt._m[1].tobytes() == m and opt._v[1].tobytes() == v

    def test_empty_params_raises(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)


class TestClipGradNorm:
    def test_no_clip_below_threshold(self):
        p = Parameter(np.array([1.0]))
        p.grad = np.array([0.5])
        norm = clip_grad_norm([p], max_norm=10.0)
        assert abs(norm - 0.5) < 1e-12
        assert p.grad[0] == 0.5

    def test_clips_to_max_norm(self):
        p = Parameter(np.zeros(2))
        p.grad = np.array([3.0, 4.0])  # norm 5
        clip_grad_norm([p], max_norm=1.0)
        assert abs(np.linalg.norm(p.grad) - 1.0) < 1e-9

    def test_handles_missing_grads(self):
        p = Parameter(np.zeros(2))
        assert clip_grad_norm([p], 1.0) == 0.0

    def test_global_norm_across_params(self):
        a, b = Parameter(np.zeros(1)), Parameter(np.zeros(1))
        a.grad, b.grad = np.array([3.0]), np.array([4.0])
        norm = clip_grad_norm([a, b], max_norm=5.0)
        assert abs(norm - 5.0) < 1e-9
