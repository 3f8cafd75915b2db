"""Tests for the additive angular margin loss, gradients, and head training."""

import math
import tracemalloc

import numpy as np
import pytest

from svkit import aam, tensorio

CFG = aam.AamConfig(30.0, 0.2)


def finite_difference_error(embs, labels, head, cfg, step=1e-4):
    """Norm-wise relative error between analytic and central-difference grads."""
    _, grad_w, grad_e = aam.aam_grad(embs, labels, head, cfg)
    fd_w = np.zeros_like(head)
    fd_e = np.zeros_like(embs)
    for arr, fd in ((head, fd_w), (embs, fd_e)):
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + step
            up = aam.aam_loss(embs, labels, head, cfg)
            arr[idx] = orig - step
            down = aam.aam_loss(embs, labels, head, cfg)
            arr[idx] = orig
            fd[idx] = (up - down) / (2.0 * step)
    diff = np.concatenate([(fd_w - grad_w).ravel(), (fd_e - grad_e).ravel()])
    denom = max(
        np.linalg.norm(np.concatenate([fd_w.ravel(), fd_e.ravel()])),
        np.linalg.norm(np.concatenate([grad_w.ravel(), grad_e.ravel()])),
    )
    return float(np.linalg.norm(diff) / denom)


def random_case(seed, force_far_branch):
    """Batch of 3 embeddings over 5 classes; optionally one surrogate-branch item."""
    rng = np.random.default_rng(seed)
    head = rng.standard_normal((5, 8))
    embs = rng.standard_normal((3, 8))
    labels = rng.integers(0, 5, size=3)
    if force_far_branch:
        labels[0] = 2
        embs[0] = -head[2] * 1.3 + 0.02 * rng.standard_normal(8)
    return embs, labels, head


def true_class_cosines(embs, labels, head):
    e = embs / np.linalg.norm(embs, axis=1, keepdims=True)
    w = head / np.linalg.norm(head, axis=1, keepdims=True)
    return (e @ w.T)[np.arange(len(labels)), labels]


@pytest.mark.parametrize("scale", [float("nan"), float("inf"), 0.0])
def test_config_rejects_bad_scale(scale):
    with pytest.raises(ValueError, match="scale must be positive and finite"):
        aam.AamConfig(scale=scale)


@pytest.mark.parametrize("num_classes, dim", [(3, 0), (0, 4)])
def test_init_head_rejects_empty_shape(num_classes, dim):
    with pytest.raises(ValueError, match="at least one class and one dimension"):
        aam.init_head(num_classes, dim, 0)


class TestAamLogits:
    def test_margin_off_gives_scaled_cosines(self):
        rng = np.random.default_rng(0)
        head = rng.standard_normal((4, 6))
        emb = rng.standard_normal(6)
        logits = aam.aam_logits(emb, head, 1, aam.AamConfig(30.0, 0.0))
        e = emb / np.linalg.norm(emb)
        w = head / np.linalg.norm(head, axis=1, keepdims=True)
        np.testing.assert_allclose(logits, 30.0 * (w @ e), atol=1e-12)

    def test_parallel_embedding(self):
        head = np.eye(2)
        logits = aam.aam_logits(np.array([2.5, 0.0]), head, 0, CFG)
        np.testing.assert_allclose(logits[0], 30.0 * math.cos(0.2), atol=1e-12)
        np.testing.assert_allclose(logits[1], 0.0, atol=1e-12)

    def test_antiparallel_uses_surrogate(self):
        head = np.eye(2)
        logits = aam.aam_logits(np.array([-1.0, 0.0]), head, 0, CFG)
        np.testing.assert_allclose(logits[0], 30.0 * (-1.0 - 0.2 * math.sin(0.2)), atol=1e-12)

    def test_zero_embedding_rejected(self):
        head = np.eye(2)
        with pytest.raises(ValueError, match="degenerate norm"):
            aam.aam_logits(np.zeros(2), head, 0, CFG)

    def test_scale_invariance_of_input(self):
        rng = np.random.default_rng(3)
        head = rng.standard_normal((4, 5))
        emb = rng.standard_normal(5)
        base = aam.aam_logits(emb, head, 2, CFG)
        for alpha in (1e-3, 0.5, 7.0, 1e4):
            np.testing.assert_allclose(aam.aam_logits(alpha * emb, head, 2, CFG),
                                       base, atol=1e-12)

    def test_margin_monotonicity(self):
        rng = np.random.default_rng(4)
        head = rng.standard_normal((3, 4))
        emb = rng.standard_normal(4)
        margins = np.linspace(0.0, 1.5, 40)
        values = [aam.aam_logits(emb, head, 0, aam.AamConfig(30.0, m))[0] for m in margins]
        assert np.all(np.diff(values) <= 1e-12)

    def test_branch_continuity_in_theta_within_branches(self):
        # The modified logit is continuous on each side of the branch point;
        # at the switch the surrogate sits strictly below cos(theta + m),
        # with the analytic gap cos(m) + m sin(m) - 1.
        m = CFG.margin
        tau = math.cos(math.pi - m)
        phi_up, _ = aam._margin_terms(np.array([tau + 1e-12]), CFG)
        phi_down, _ = aam._margin_terms(np.array([tau - 1e-12]), CFG)
        np.testing.assert_allclose(phi_up[0], -1.0, atol=1e-6)
        gap = math.cos(m) + m * math.sin(m) - 1.0
        np.testing.assert_allclose(phi_up[0] - phi_down[0], gap, atol=1e-6)
        for center in (0.5, -0.5, tau + 0.05, tau - 0.005):
            lo, _ = aam._margin_terms(np.array([center - 1e-9]), CFG)
            hi, _ = aam._margin_terms(np.array([center + 1e-9]), CFG)
            assert abs(hi[0] - lo[0]) < 1e-7


class TestAamLoss:
    def test_single_class_zero_loss(self):
        head = np.ones((1, 3))
        loss = aam.aam_loss(np.ones((4, 3)), np.zeros(4, dtype=int), head, CFG)
        assert loss == 0.0

    def test_reduces_to_softmax_cross_entropy(self):
        rng = np.random.default_rng(5)
        embs = rng.standard_normal((6, 7))
        labels = rng.integers(0, 3, size=6)
        head = rng.standard_normal((3, 7))
        loss = aam.aam_loss(embs, labels, head, aam.AamConfig(1.0, 0.0))
        e = embs / np.linalg.norm(embs, axis=1, keepdims=True)
        w = head / np.linalg.norm(head, axis=1, keepdims=True)
        z = e @ w.T
        expected = float(np.mean(np.log(np.exp(z).sum(axis=1)) - z[np.arange(6), labels]))
        assert abs(loss - expected) < 1e-10

    def test_matches_scalar_recompute(self):
        rng = np.random.default_rng(6)
        embs = rng.standard_normal((5, 4))
        labels = rng.integers(0, 3, size=5)
        head = rng.standard_normal((3, 4))
        loss = aam.aam_loss(embs, labels, head, CFG)
        total = 0.0
        for i in range(5):
            z = aam.aam_logits(embs[i], head, int(labels[i]), CFG)
            total += math.log(sum(math.exp(v) for v in z)) - z[labels[i]]
        assert abs(loss - total / 5.0) < 1e-10

    def test_empty_batch_rejected(self):
        head = np.eye(2)
        with pytest.raises(ValueError, match="empty batch"):
            aam.aam_loss(np.zeros((0, 2)), np.zeros(0, dtype=int), head, CFG)


class TestAamGrad:
    def test_gradcheck_100_cases_both_branches(self):
        tau = -math.cos(CFG.margin)
        far_branch_hits = 0
        worst = 0.0
        for seed in range(100):
            embs, labels, head = random_case(seed, force_far_branch=seed % 2 == 0)
            far_branch_hits += int(np.sum(true_class_cosines(embs, labels, head) <= tau))
            worst = max(worst, finite_difference_error(embs, labels, head, CFG))
        assert far_branch_hits >= 25  # both margin regimes exercised
        assert worst < 1e-5

    def test_margin_off_matches_plain_softmax_gradients(self):
        rng = np.random.default_rng(7)
        embs = rng.standard_normal((4, 5))
        labels = rng.integers(0, 3, size=4)
        head = rng.standard_normal((3, 5))
        _, grad_w, grad_e = aam.aam_grad(embs, labels, head, aam.AamConfig(1.0, 0.0))

        e_norm = np.linalg.norm(embs, axis=1, keepdims=True)
        w_norm = np.linalg.norm(head, axis=1, keepdims=True)
        e, w = embs / e_norm, head / w_norm
        z = e @ w.T
        p = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
        p[np.arange(4), labels] -= 1.0
        p /= 4.0
        ref_w = (p.T @ e - np.sum((p.T @ e) * w, axis=1, keepdims=True) * w) / w_norm
        ref_e = (p @ w - np.sum((p @ w) * e, axis=1, keepdims=True) * e) / e_norm
        np.testing.assert_allclose(grad_w, ref_w, atol=1e-8)
        np.testing.assert_allclose(grad_e, ref_e, atol=1e-8)

    def test_duplicated_batch_same_gradient(self):
        rng = np.random.default_rng(8)
        embs = rng.standard_normal((5, 6))
        labels = rng.integers(0, 4, size=5)
        head = rng.standard_normal((4, 6))
        loss1, gw1, ge1 = aam.aam_grad(embs, labels, head, CFG)
        loss2, gw2, ge2 = aam.aam_grad(
            np.concatenate([embs, embs]), np.concatenate([labels, labels]), head, CFG
        )
        assert abs(loss1 - loss2) < 1e-12
        np.testing.assert_allclose(gw1, gw2, atol=1e-12)
        # each copy carries half of the per-item embedding gradient
        np.testing.assert_allclose(ge1, 2.0 * ge2[:5], atol=1e-12)
        np.testing.assert_allclose(ge2[:5], ge2[5:], atol=1e-15)


class TestFinetuneHead:
    def separable_set(self, n=30, seed=1):
        rng = np.random.default_rng(seed)
        a0 = rng.uniform(-0.3, 0.3, n)
        a1 = math.pi + rng.uniform(-0.3, 0.3, n)
        embs = np.concatenate([
            np.stack([np.cos(a0), np.sin(a0)], axis=1),
            np.stack([np.cos(a1), np.sin(a1)], axis=1),
        ])
        return embs, np.array([0] * n + [1] * n)

    def test_linearly_separable_reaches_full_accuracy(self):
        embs, labels = self.separable_set()
        for seed in range(3):
            head, _ = aam.finetune_head(embs, labels, CFG, epochs=50,
                                        learning_rate=0.5, seed=seed)
            assert np.all(aam.head_predict(embs, head) == labels)

    def test_zero_epochs_returns_init(self):
        embs, labels = self.separable_set()
        head, trace = aam.finetune_head(embs, labels, CFG, epochs=0, seed=3)
        assert trace.shape == (0,)
        np.testing.assert_array_equal(head, aam.init_head(2, 2, 3))

    def test_loss_trace_improves_over_seeds(self):
        for seed in range(20):
            rng = np.random.default_rng(200 + seed)
            embs = rng.standard_normal((40, 8))
            labels = rng.integers(0, 5, size=40)
            _, trace = aam.finetune_head(embs, labels, CFG, epochs=30,
                                         learning_rate=1e-2, seed=seed)
            assert trace[-1] <= trace[0]

    def test_deterministic(self):
        embs, labels = self.separable_set()
        h1, t1 = aam.finetune_head(embs, labels, CFG, epochs=10, seed=5)
        h2, t2 = aam.finetune_head(embs, labels, CFG, epochs=10, seed=5)
        assert np.array_equal(h1, h2)
        assert np.array_equal(t1, t2)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="two classes"):
            aam.finetune_head(np.ones((3, 2)), np.zeros(3, dtype=int), CFG)

    @pytest.mark.parametrize("epochs", [0, 3])
    @pytest.mark.parametrize("spoil, message", [
        ("nan_row", "non-finite embedding"),
        ("float_labels", "labels must be integers"),
        ("zero_row", "degenerate norm: zero embedding"),
    ])
    def test_bad_input_rejected_before_training(self, spoil, message, epochs):
        embs, labels = self.separable_set()
        if spoil == "nan_row":
            embs[4] = np.nan
        elif spoil == "zero_row":
            embs[4] = 0.0
        else:
            labels = labels + 0.7
        with pytest.raises(ValueError, match=message):
            aam.finetune_head(embs, labels, CFG, epochs=epochs)

    def test_matches_reference_loop_over_aam_grad(self):
        rng = np.random.default_rng(11)
        n, dim, classes, epochs, lr, seed = 400, 16, 20, 25, 0.3, 4
        labels = np.arange(n) % classes
        embs = rng.standard_normal((n, dim))
        init = aam.init_head(classes, dim, seed)
        far = rng.choice(n, size=40, replace=False)
        embs[far] = -init[labels[far]] + 0.02 * rng.standard_normal((40, dim))
        assert np.sum(true_class_cosines(embs, labels, init) <= -math.cos(CFG.margin)) >= 30

        head, trace = aam.finetune_head(embs, labels, CFG, epochs=epochs,
                                        learning_rate=lr, seed=seed)
        ref, ref_trace = init, []
        for _ in range(epochs):
            loss, grad_w, _ = aam.aam_grad(embs, labels, ref, CFG)
            ref_trace.append(loss)
            ref -= lr * grad_w
        assert np.array_equal(trace, ref_trace)
        assert np.array_equal(head, ref)

    def test_peak_memory_bounded_by_score_matrix(self):
        # Full-batch training needs one (batch, classes) float64 buffer;
        # a fresh temporary per softmax step would multiply the peak.
        rng = np.random.default_rng(12)
        n, classes = 2000, 150
        embs = rng.standard_normal((n, 32))
        labels = np.arange(n) % classes
        tracemalloc.start()
        try:
            aam.finetune_head(embs, labels, CFG, epochs=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * n * classes * 8


class TestHeadFile:
    def test_roundtrip(self, tmp_path):
        head = aam.init_head(4, 6, 0).astype(np.float32).astype(np.float64)
        aam.save_head(head, tmp_path / "h.svw")
        back = tensorio.read_tensors(tmp_path / "h.svw")
        assert list(back) == ["aam.weight"]
        np.testing.assert_array_equal(back["aam.weight"].astype(np.float64), head)
