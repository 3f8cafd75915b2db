"""Tests for centering, LDA, length norm, PLDA training/scoring, cosine."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.stats

from svkit import backend as bk
from svkit import synthdata as sd
from svkit import tensorio
from svkit.trials import TrialList


def fisher_ratio(direction, x, labels):
    direction = direction / np.linalg.norm(direction)
    proj = x @ direction
    classes = np.unique(labels)
    mu = proj.mean()
    between = sum((proj[labels == c].mean() - mu) ** 2 * np.sum(labels == c) for c in classes)
    within = sum(((proj[labels == c] - proj[labels == c].mean()) ** 2).sum() for c in classes)
    return between / within


def two_class_2d(seed=0, n=200, separation=4.0, angle=0.0):
    rng = np.random.default_rng(seed)
    axis = np.array([np.cos(angle), np.sin(angle)])
    x0 = rng.standard_normal((n, 2)) * 0.5 + separation * axis / 2
    x1 = rng.standard_normal((n, 2)) * 0.5 - separation * axis / 2
    return np.vstack([x0, x1]), np.array([0] * n + [1] * n)


class TestCenter:
    def test_single_embedding_centers_to_zero(self):
        e = np.array([[1.0, -2.0, 3.0]])
        backend = bk.Backend("cosine", bk.estimate_center(e))
        assert np.all(bk.preprocess(backend, e[0]) == 0.0)

    def test_symmetric_pair(self):
        v = np.array([2.0, -1.0])
        mean = bk.estimate_center(np.vstack([v, -v]))
        np.testing.assert_allclose(mean, 0.0, atol=1e-15)
        np.testing.assert_allclose(bk.preprocess(bk.Backend("cosine", mean), v), v, atol=1e-15)

    def test_matches_accumulate_oracle(self):
        x = np.random.default_rng(0).standard_normal((500, 6))
        mean = bk.estimate_center(x)
        acc = np.zeros(6)
        for row in x:
            acc += row
        np.testing.assert_allclose(mean, acc / 500.0, atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bk.estimate_center(np.zeros((0, 3)))

    @pytest.mark.parametrize("n, d", [(1, 3), (500, 1), (9000, 2), (3161, 64)])
    def test_float32_mean_is_that_of_a_float64_copy(self, n, d):
        x = (np.random.default_rng(n).standard_normal((n, d)) * 30.0).astype(np.float32)
        assert np.array_equal(bk.estimate_center(x), x.astype(np.float64).mean(axis=0))


def add_at_sums(x, labels):
    """Per-speaker sums by ``np.add.at``, which adds each row in row order: the
    reference whose bits ``speaker_sums`` keeps."""
    _, spk, counts = np.unique(np.asarray(labels), return_inverse=True, return_counts=True)
    sums = np.zeros((len(counts), x.shape[1]))
    np.add.at(sums, spk, x)
    return spk, counts, sums


class TestSpeakerSums:
    def assert_same_bits(self, x, labels):
        got, ref = bk.speaker_sums(x, labels), add_at_sums(x, labels)
        for a, b in zip(got, ref):
            assert a.shape == b.shape and np.array_equal(a, b)
        assert np.array_equal(np.signbit(got[2]), np.signbit(ref[2]))

    def test_bits_of_add_at_on_random_sets(self):
        rng = np.random.default_rng(2024)
        for case in range(120):
            n, d = int(rng.integers(1, 400)), int(rng.integers(1, 17))
            speakers = int(rng.integers(1, n + 1))
            codes = rng.integers(0, speakers, n)  # unsorted, with one-row speakers
            # magnitudes over 12 decades, so that the order of the additions shows
            x = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-6, 7, (n, 1))
            x[rng.random((n, d)) < 0.1] = -0.0
            if case % 3 == 2:
                x = x.astype(np.float32)
            labels = [f"spk{c}" for c in codes] if case % 2 else 1000 - 7 * codes
            self.assert_same_bits(x, labels)

    def test_negative_zeros_and_one_row_speakers(self):
        x = np.array([[-0.0, 1.0], [-0.0, -0.0], [-0.0, 2.0], [3.0, -0.0], [-0.0, -0.0]])
        labels = ["b", "a", "b", "c", "c"]
        self.assert_same_bits(x, labels)
        _, counts, sums = bk.speaker_sums(x, labels)
        assert counts.tolist() == [1, 2, 2]
        assert not np.signbit(sums).any()  # 0.0 + -0.0 is 0.0

    def test_one_label_per_row(self):
        with pytest.raises(ValueError, match="2 labels for 3 rows"):
            bk.speaker_sums(np.zeros((3, 2)), ["a", "b"])


@pytest.mark.parametrize("kind", ["plda", "cosine"])
def test_train_backend_returns_the_rows_preprocess_makes(kind):
    spec = sd.SynthSpec(seed=3, dim=8, num_speakers=12, utts_per_speaker=5,
                        rank_speaker=2, rank_channel=2)
    x, labels, _ = sd.gen_plda_data(spec)
    x = x.astype(np.float32)
    backend, rows = bk.train_backend(x, labels, bk.BackendConfig(
        kind=kind, rank_speaker=2, rank_channel=2, em_iters=2))
    assert np.array_equal(rows, bk.preprocess(backend, x))


class TestLda:
    def test_fisher_direction_on_axis_separated_classes(self):
        x, labels = two_class_2d(seed=1, angle=0.0)
        lda = bk.train_lda(x, labels)
        lead = lda[0] / np.linalg.norm(lda[0])
        assert abs(lead @ np.array([1.0, 0.0])) > 0.99

    def test_square_shape(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((60, 7))
        labels = rng.integers(0, 4, size=60)
        assert bk.train_lda(x, labels).shape == (7, 7)

    def test_leading_direction_beats_random_sweep(self):
        x, labels = two_class_2d(seed=3, angle=0.5)
        lda = bk.train_lda(x, labels)
        best = fisher_ratio(lda[0], x, labels)
        rng = np.random.default_rng(4)
        angles = rng.uniform(0, np.pi, 10000)
        dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        ratios = [fisher_ratio(d, x, labels) for d in dirs]
        assert best >= max(ratios) - 1e-9

    def test_beats_best_coordinate_axis(self):
        # separation direction tilted so no axis is optimal
        x, labels = two_class_2d(seed=5, angle=np.pi / 6)
        lda = bk.train_lda(x, labels)
        axis_best = max(fisher_ratio(np.eye(2)[i], x, labels) for i in range(2))
        assert fisher_ratio(lda[0], x, labels) > axis_best

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="two classes"):
            bk.train_lda(np.ones((5, 3)), np.zeros(5))

    def test_directions_are_sw_orthonormal(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((80, 5))
        labels = rng.integers(0, 5, size=80)
        lda = bk.train_lda(x, labels)
        # generalized eigenvectors satisfy V^T S_w V = I (full-rank basis)
        classes = np.unique(labels)
        s_w = np.zeros((5, 5))
        for c in classes:
            xc = x[labels == c] - x[labels == c].mean(axis=0)
            s_w += xc.T @ xc
        s_w /= len(x)
        s_w += 1e-6 * np.trace(s_w) / 5 * np.eye(5)
        np.testing.assert_allclose(lda @ s_w @ lda.T, np.eye(5), atol=1e-8)

    @pytest.mark.parametrize("speakers,max_sessions,d", [(400, 3, 128), (20, 5, 16), (60, 9, 32)])
    def test_matches_mask_loop_reference(self, speakers, max_sessions, d):
        # S_b has full rank in each case: directions beyond its rank are an
        # arbitrary basis of a degenerate eigenspace and are not compared
        rng = np.random.default_rng(speakers + d)
        sessions = rng.integers(1, max_sessions + 1, size=speakers)
        labels = np.repeat([f"spk{s}" for s in range(speakers)], sessions)
        x = (rng.standard_normal((speakers, d)) * 2.0)[np.repeat(np.arange(speakers), sessions)]
        x += rng.standard_normal(x.shape)
        perm = rng.permutation(len(x))  # interleave the speakers
        x, labels = x[perm], labels[perm]

        n = len(x)
        mu = x.mean(axis=0)
        s_w = np.zeros((d, d))
        s_b = np.zeros((d, d))
        for c in np.unique(labels):
            xc = x[labels == c]
            diff = xc - xc.mean(axis=0)
            s_w += diff.T @ diff
            gap = xc.mean(axis=0) - mu
            s_b += len(xc) * np.outer(gap, gap)
        s_w, s_b = s_w / n, s_b / n
        s_w += (1e-6 * np.trace(s_w) / d) * np.eye(d)
        vals, vecs = scipy.linalg.eigh(s_b, s_w)
        ref = vecs[:, np.argsort(vals)[::-1]].T

        lda = bk.train_lda(x, labels)
        assert np.abs(lda - ref).max() <= 1e-10 * np.abs(ref).max()


class TestLengthNormalize:
    def test_three_four_five(self):
        np.testing.assert_allclose(bk.length_normalize(np.array([3.0, 4.0])), [0.6, 0.8])

    def test_unit_vector_unchanged(self):
        v = np.array([1.0, 0.0, 0.0])
        np.testing.assert_allclose(bk.length_normalize(v), v, atol=1e-12)

    def test_unit_norm_output(self):
        v = np.random.default_rng(1).standard_normal(9)
        assert abs(np.linalg.norm(bk.length_normalize(v)) - 1.0) < 1e-12

    def test_zero_rejected(self):
        with pytest.raises(ValueError, match="degenerate norm"):
            bk.length_normalize(np.zeros(4))


def uneven_sessions(seed=7, d=5):
    """Six speakers with 1-4 sessions each."""
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(6), [1, 2, 3, 4, 2, 1])
    x = rng.standard_normal((len(labels), d)) + 2.0 * rng.standard_normal((6, d))[labels]
    return x, labels


def dense_joint_posterior_em(x, labels, rs, rc, iters, seed):
    """Reference EM, one speaker at a time: the stacked sessions are
    vec X_s = [1 (x) V, I (x) U] (h, w_1..w_n) + noise, and the joint
    posterior of (h, w_1..w_n) is formed and inverted densely."""
    n, d = x.shape
    xc = x - x.mean(axis=0)
    rng = np.random.default_rng(seed)
    avg_var = float(np.mean(np.var(xc, axis=0)))
    v = rng.standard_normal((d, rs)) * np.sqrt(avg_var / rs)
    u = rng.standard_normal((d, rc)) * np.sqrt(avg_var / rc)
    psi = np.var(xc, axis=0) + 1e-6 * avg_var
    for _ in range(iters):
        r_zz = np.zeros((rs + rc, rs + rc))
        r_zx = np.zeros((rs + rc, d))
        for spk in np.unique(labels):
            xs = xc[labels == spk]
            m = len(xs)
            load = np.hstack([np.tile(v, (m, 1)), np.kron(np.eye(m), u)])
            noise_prec = 1.0 / np.tile(psi, m)
            cov = np.linalg.inv(np.eye(load.shape[1]) + load.T @ (load * noise_prec[:, None]))
            mean = cov @ load.T @ (xs.ravel() * noise_prec)
            for i in range(m):
                sel = np.r_[0:rs, rs + i * rc:rs + (i + 1) * rc]
                r_zz += cov[np.ix_(sel, sel)] + np.outer(mean[sel], mean[sel])
                r_zx += np.outer(mean[sel], xs[i])
        a = np.linalg.solve(r_zz, r_zx).T
        psi = np.maximum((np.sum(xc * xc, axis=0) - np.sum(a * r_zx.T, axis=1)) / n,
                         1e-10 * avg_var)
        v, u = a[:, :rs], a[:, rs:]
    return v, u, psi


def scipy_factored_em(x, labels, cfg):
    """``train_plda``'s EM with the ``scipy.linalg`` factorizations it used before it
    ran on ``numpy.linalg``: one Cholesky of Sigma_w per iteration, solved against V and
    the scatter, and a positive definite solve for the M-step. Returns
    ``(V, U, psi, loglik trace)``."""
    n, d = x.shape
    rs, rc = cfg.rank_speaker, cfg.rank_channel
    mu = x.mean(axis=0)
    xc = x - mu
    _, counts, sums = bk.speaker_sums(xc, labels)
    scatter = xc.T @ xc
    var = np.diag(scatter) / n
    rng = np.random.default_rng(cfg.seed)
    avg_var = float(np.mean(var)) or 1.0
    v = rng.standard_normal((d, rs)) * np.sqrt(avg_var / rs)
    u = rng.standard_normal((d, rc)) * np.sqrt(avg_var / rc)
    psi = var + 1e-6 * avg_var
    trace = np.zeros(cfg.em_iters)
    for it in range(cfg.em_iters):
        ut_lam = u.T / psi
        cov_w = scipy.linalg.cho_solve(scipy.linalg.cho_factor(np.eye(rc) + ut_lam @ u),
                                       np.eye(rc))
        gain = cov_w @ ut_lam
        cho = scipy.linalg.cho_factor(u @ u.T + np.diag(psi))
        sw_v = scipy.linalg.cho_solve(cho, v)
        lam, q = scipy.linalg.eigh(v.T @ sw_v)
        shrink = 1.0 / (1.0 + np.outer(counts, lam))
        b = sums @ sw_v
        h = ((b @ q) * shrink) @ q.T
        cov_h = (q * (counts @ shrink)) @ q.T
        trace[it] = -0.5 * (n * d * np.log(2.0 * np.pi)
                            + 2.0 * n * np.sum(np.log(np.diag(cho[0])))
                            - np.sum(np.log(shrink))
                            + np.trace(scipy.linalg.cho_solve(cho, scatter))
                            - np.sum(b * h))
        kv = gain @ v
        r_hh = cov_h + (h.T * counts) @ h
        r_hx = h.T @ sums
        r_wx = gain @ scatter - kv @ r_hx
        r_hw = r_hx @ gain.T - r_hh @ kv.T
        r_ww = n * cov_w + r_wx @ gain.T - r_hw.T @ kv.T
        r_zz = np.block([[r_hh, r_hw], [r_hw.T, r_ww]])
        r_zx = np.vstack([r_hx, r_wx])
        a = scipy.linalg.solve(r_zz, r_zx, assume_a="pos").T
        psi = np.maximum((np.diag(scatter) - np.einsum("dq,qd->d", a, r_zx)) / n,
                         1e-10 * avg_var)
        v, u = a[:, :rs], a[:, rs:]
    return v, u, psi, trace


class TestPldaTraining:
    def test_loglik_monotone_and_subspace_recovery(self):
        for seed in range(5):
            spec = sd.SynthSpec(seed=seed, dim=16, num_speakers=50, utts_per_speaker=10,
                                rank_speaker=2, rank_channel=2,
                                speaker_scale=3.0, channel_scale=1.0, noise_scale=0.5)
            x, labels, model = sd.gen_plda_data(spec)
            est = bk.train_plda(x, labels, bk.BackendConfig(
                rank_speaker=2, rank_channel=2, em_iters=25, seed=seed))
            trace = est.loglik_trace
            assert np.all(np.diff(trace) >= -1e-8 * np.abs(trace[:-1]))
            angle = np.rad2deg(scipy.linalg.subspace_angles(est.V, model.V).max())
            assert angle < 10.0

    def test_single_utterance_per_speaker_terminates(self):
        spec = sd.SynthSpec(seed=1, dim=6, num_speakers=10, utts_per_speaker=1,
                            rank_speaker=2, rank_channel=2)
        x, labels, _ = sd.gen_plda_data(spec)
        est = bk.train_plda(x, labels, bk.BackendConfig(rank_speaker=2, rank_channel=2,
                                                        em_iters=5))
        for tensor in (est.V, est.U, est.psi, est.mu):
            assert np.all(np.isfinite(tensor))
        assert np.all(est.psi > 0)

    def test_rank_above_dim_rejected(self):
        x = np.random.default_rng(0).standard_normal((20, 4))
        labels = np.repeat(np.arange(4), 5)
        with pytest.raises(ValueError, match="rank"):
            bk.train_plda(x, labels, bk.BackendConfig(rank_speaker=5, rank_channel=2))

    @pytest.mark.parametrize("ranks", [(0, 2), (2, 0), (-1, 2)])
    def test_nonpositive_rank_rejected(self, ranks):
        with pytest.raises(ValueError, match="ranks must be >= 1"):
            bk.BackendConfig(rank_speaker=ranks[0], rank_channel=ranks[1])

    def test_single_speaker_rejected(self):
        x = np.random.default_rng(0).standard_normal((5, 4))
        with pytest.raises(ValueError, match="two speakers"):
            bk.train_plda(x, np.zeros(5), bk.BackendConfig(rank_speaker=2, rank_channel=2))

    def test_trace_equals_dense_marginal_density(self):
        # trace[k] of a (k+1)-iteration run is the log-density of the data
        # under the k-iteration model, computed on every speaker's stacked
        # sessions: vec X_s ~ N(1 (x) mu, I (x) (U U^T + Psi) + J (x) V V^T)
        x, labels = uneven_sessions()
        for k in (1, 2, 3):
            model = bk.train_plda(x, labels, bk.BackendConfig(
                rank_speaker=2, rank_channel=2, em_iters=k, seed=3))
            trace = bk.train_plda(x, labels, bk.BackendConfig(
                rank_speaker=2, rank_channel=2, em_iters=k + 1, seed=3)).loglik_trace
            within = model.U @ model.U.T + np.diag(model.psi)
            between = model.V @ model.V.T
            dense = 0.0
            for spk in np.unique(labels):
                n = int(np.sum(labels == spk))
                cov = np.kron(np.eye(n), within) + np.kron(np.ones((n, n)), between)
                dense += scipy.stats.multivariate_normal.logpdf(
                    x[labels == spk].ravel(), np.tile(model.mu, n), cov)
            assert trace[k] == pytest.approx(dense, rel=1e-10)

    def test_matches_dense_joint_posterior_em(self):
        x, labels = uneven_sessions()
        est = bk.train_plda(x, labels, bk.BackendConfig(
            rank_speaker=2, rank_channel=2, em_iters=4, seed=3))
        v, u, psi = dense_joint_posterior_em(x, labels, 2, 2, iters=4, seed=3)
        np.testing.assert_allclose(est.V, v, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(est.U, u, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(est.psi, psi, rtol=1e-10)

    @pytest.mark.parametrize("d, rank, speakers", [(64, 32, 120), (128, 100, 200)])
    def test_matches_scipy_factored_em(self, d, rank, speakers):
        spec = sd.SynthSpec(seed=d, dim=d, num_speakers=speakers, utts_per_speaker=12,
                            rank_speaker=rank // 2, rank_channel=rank // 2,
                            speaker_scale=1.4, noise_scale=1.0)
        x, labels, _ = sd.gen_plda_data(spec)
        keep = np.arange(len(x)) % 12 < 2 + np.arange(len(x)) // 12 % 11  # 2-12 sessions
        x, labels = x[keep], np.asarray(labels)[keep]
        cfg = bk.BackendConfig(rank_speaker=rank, rank_channel=rank, em_iters=6, seed=4)
        est = bk.train_plda(x, labels, cfg)
        for got, ref in zip((est.V, est.U, est.psi, est.loglik_trace),
                            scipy_factored_em(x, labels, cfg)):
            assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()

    def test_memory_independent_of_sessions_per_speaker(self):
        rng = np.random.default_rng(0)
        labels = np.repeat([0, 1], 300)
        x = rng.standard_normal((600, 8)) + 3.0 * rng.standard_normal((2, 8))[labels]
        cfg = bk.BackendConfig(rank_speaker=8, rank_channel=8, em_iters=2)
        tracemalloc.start()
        try:
            bk.train_plda(x, labels, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_peak_memory_below_one_and_a_half_inputs(self):
        rng = np.random.default_rng(1)
        labels = np.repeat(np.arange(200), 20)
        x = rng.standard_normal((4000, 64)) + 2.0 * rng.standard_normal((200, 64))[labels]
        cfg = bk.BackendConfig(rank_speaker=16, rank_channel=16, em_iters=2)
        tracemalloc.start()
        try:
            bk.train_plda(x, labels, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * x.nbytes

    @staticmethod
    def avg_var(x):
        """``train_plda``'s variance scale: the mean over dimensions of the
        training set's variance, in its order of operations."""
        xc = x - x.mean(axis=0)
        return float(np.mean(np.diag(xc.T @ xc) / len(x)))

    def test_constant_dimension_drives_psi_to_its_floor(self):
        x, labels = uneven_sessions()
        x[:, 2] = 1.5  # no variance at all along one axis
        est = bk.train_plda(x, labels, bk.BackendConfig(rank_speaker=2, rank_channel=2,
                                                        em_iters=3))
        assert est.psi.min() == 1e-10 * self.avg_var(x)

    def test_small_residual_variance_is_kept_above_the_floor(self):
        x, labels = uneven_sessions()
        x[:, 2] = 1.5 + 1e-3 * np.random.default_rng(0).standard_normal(len(x))
        est = bk.train_plda(x, labels, bk.BackendConfig(rank_speaker=2, rank_channel=2,
                                                        em_iters=3))
        # about 1e-7 of the variance scale, which a floor at 1e-3 of it would hide
        assert 1e-10 * self.avg_var(x) < est.psi.min() < 1e-3 * self.avg_var(x)

    def test_deterministic_given_seed(self):
        spec = sd.SynthSpec(seed=2, dim=8, num_speakers=12, utts_per_speaker=4,
                            rank_speaker=2, rank_channel=2)
        x, labels, _ = sd.gen_plda_data(spec)
        cfg = bk.BackendConfig(rank_speaker=2, rank_channel=2, em_iters=5, seed=9)
        a = bk.train_plda(x, labels, cfg)
        b = bk.train_plda(x, labels, cfg)
        assert np.array_equal(a.V, b.V)
        assert np.array_equal(a.psi, b.psi)


class TestPldaLlr:
    def test_no_speaker_variability_gives_zero(self):
        model = bk.PldaModel(np.zeros(4), np.zeros((4, 1)), np.eye(4)[:, :2], np.ones(4))
        rng = np.random.default_rng(0)
        for _ in range(20):
            assert bk.plda_llr(model, rng.standard_normal(4), rng.standard_normal(4)) == 0.0

    def test_matches_scalar_density_oracle(self):
        model = bk.PldaModel(np.array([0.3]), np.array([[1.2]]), np.array([[0.4]]),
                             np.array([0.25]))
        between = 1.2**2
        within = 0.4**2 + 0.25
        total = between + within

        def direct(e, t):
            same = np.array([[total, between], [between, total]])
            diff = np.diag([total, total])
            v = np.array([e - 0.3, t - 0.3])

            def log_gauss(vec, cov):
                return -0.5 * (2 * np.log(2 * np.pi) + np.linalg.slogdet(cov)[1]
                               + vec @ np.linalg.solve(cov, vec))

            return log_gauss(v, same) - log_gauss(v, diff)

        rng = np.random.default_rng(1)
        for _ in range(1000):
            e, t = rng.standard_normal(2) * 2.0
            got = bk.plda_llr(model, np.array([e]), np.array([t]))
            assert abs(got - direct(e, t)) < 1e-9

    def test_symmetry(self):
        spec = sd.SynthSpec(seed=3, dim=8, num_speakers=20, utts_per_speaker=5,
                            rank_speaker=3, rank_channel=3)
        x, _, model = sd.gen_plda_data(spec)
        rng = np.random.default_rng(2)
        for _ in range(1000):
            i, j = rng.integers(0, len(x), size=2)
            assert abs(bk.plda_llr(model, x[i], x[j])
                       - bk.plda_llr(model, x[j], x[i])) < 1e-10

    def test_nonpositive_within_rejected(self):
        model = bk.PldaModel(np.zeros(2), np.eye(2), np.eye(2), np.array([1.0, -0.5]))
        with pytest.raises(ValueError, match="positive definite"):
            bk.plda_llr(model, np.ones(2), np.ones(2))

    def test_model_is_frozen(self):
        model = bk.PldaModel(np.zeros(2), np.eye(2), np.eye(2), np.ones(2))
        before = bk.plda_llr(model, np.ones(2), -np.ones(2))
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.psi = model.psi * 4  # would leave a cached scorer stale
        assert bk.plda_llr(model, np.ones(2), -np.ones(2)) == before

    def test_scorer_built_once(self):
        model = bk.PldaModel(np.zeros(3), np.eye(3)[:, :1], np.eye(3)[:, 1:], np.ones(3))
        assert model.scorer is model.scorer

    @pytest.mark.parametrize("shapes", [
        ((3,), (3, 1), (3, 1), (2,)),
        ((3,), (2, 1), (3, 1), (3,)),
        ((3,), (3, 1), (3,), (3,)),
        ((3, 1), (3, 1), (3, 1), (3,)),
    ])
    def test_inconsistent_shapes_rejected(self, shapes):
        with pytest.raises(ValueError, match="inconsistent PLDA shapes"):
            bk.PldaModel(*(np.ones(shape) for shape in shapes))

    # With psi down to 1e-4 the speaker factors are scaled down, so that the
    # LLRs stay O(10) and 1e-9 absolute is a test of the scorer, not of the oracle.
    @pytest.mark.parametrize("psi_min, v_scale", [(0.2, 1.2), (1e-4, 0.1)])
    def test_matches_joint_gaussian_oracle_at_d12(self, psi_min, v_scale):
        d = 12
        gen = np.random.default_rng(12)
        v = gen.standard_normal((d, 3)) * v_scale
        u = gen.standard_normal((d, 3)) * 0.5
        mu = gen.standard_normal(d) * 0.3
        psi = np.geomspace(psi_min, 1.0, d)[gen.permutation(d)]
        model = bk.PldaModel(mu, v, u, psi)
        between = v @ v.T
        total = between + u @ u.T + np.diag(psi)
        same = scipy.stats.multivariate_normal(
            np.concatenate([mu, mu]), np.block([[total, between], [between, total]]))
        diff = scipy.stats.multivariate_normal(
            np.concatenate([mu, mu]), scipy.linalg.block_diag(total, total))
        rng = np.random.default_rng(0)
        for _ in range(200):
            h = rng.standard_normal((2, 3))[: rng.integers(1, 3)]  # same or two speakers
            a, b = (mu + v @ h[k % len(h)] + u @ rng.standard_normal(3)
                    + np.sqrt(psi) * rng.standard_normal(d) for k in range(2))
            pair = np.concatenate([a, b])
            expected = same.logpdf(pair) - diff.logpdf(pair)
            assert abs(bk.plda_llr(model, a, b) - expected) < 1e-9


def dense_scorer(model):
    """``(quad, h, const)`` of the two-covariance LLR from the inverses of the
    within, total and sum-channel covariances (d x d each)."""

    def inverse_logdet(mat):
        cho = scipy.linalg.cho_factor(mat)
        inv = scipy.linalg.cho_solve(cho, np.eye(len(mat)))
        return inv, 2.0 * float(np.sum(np.log(np.diag(cho[0]))))

    between = model.V @ model.V.T
    within = model.U @ model.U.T + np.diag(model.psi)
    total = between + within
    within_inv, within_logdet = inverse_logdet(within)
    total_inv, total_logdet = inverse_logdet(total)
    sum_inv, sum_logdet = inverse_logdet(total + between)
    quad = 0.5 * (total_inv - 0.5 * (sum_inv + within_inv))
    h = 0.5 * (sum_inv - within_inv)
    return quad, h, total_logdet - 0.5 * sum_logdet - 0.5 * within_logdet


class TestSubspaceScorer:
    """The speaker-subspace scorer against the dense three-inverse form."""

    @pytest.mark.parametrize("d, r, pairs, repeated", [
        (128, 32, 200, False),
        (48, 48, 200, False),  # full rank: r = d
        (64, 16, 200, True),  # a repeated column of V, so one lambda is 0
        (512, 312, 4, False),  # the paper's operating point
    ])
    def test_matches_dense_three_inverse_scorer(self, d, r, pairs, repeated):
        gen = np.random.default_rng(d + r)
        v = gen.standard_normal((d, r)) * (2.0 / np.sqrt(d))
        if repeated:
            v[:, 1] = v[:, 0]
        u = gen.standard_normal((d, r)) / np.sqrt(d)
        model = bk.PldaModel(gen.standard_normal(d) * 0.1, v, u, gen.uniform(0.2, 1.0, d))
        quad, h, const = dense_scorer(model)
        rng = np.random.default_rng(1)
        for _ in range(pairs):
            a, b = rng.standard_normal((2, d)) / np.sqrt(d)
            ca, cb = a - model.mu, b - model.mu
            expected = float(ca @ quad @ ca + cb @ quad @ cb - ca @ h @ cb + const)
            assert abs(bk.plda_llr(model, a, b) - expected) <= 1e-9 * abs(expected)

    def test_rank_deficient_speaker_subspace_has_a_zero_eigenvalue(self):
        v = np.random.default_rng(0).standard_normal((6, 3))
        v[:, 2] = v[:, 0]
        model = bk.PldaModel(np.zeros(6), v, np.eye(6)[:, :2], np.ones(6))
        plus, plus_mu, minus, const = model.scorer
        assert plus.shape == minus.shape == (3, 6) and plus.flags.c_contiguous
        # the null direction of V projects every vector to (almost) zero
        assert min(np.abs(plus).sum(axis=1)) < 1e-12
        assert np.isfinite(const)


class TestCosine:
    def test_identical_vectors(self):
        v = np.array([1.0, 2.0, -1.0])
        assert abs(bk.cosine_score(v, v) - 1.0) < 1e-12

    def test_orthogonal_vectors(self):
        assert bk.cosine_score(np.array([1.0, 0.0]), np.array([0.0, 2.0])) == 0.0

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a, b = rng.standard_normal((2, 6))
            naive = sum(x * y for x, y in zip(a, b)) / (
                np.sqrt(sum(x * x for x in a)) * np.sqrt(sum(y * y for y in b)))
            assert abs(bk.cosine_score(a, b) - naive) < 1e-12

    def test_positive_scaling_invariance(self):
        rng = np.random.default_rng(4)
        a, b = rng.standard_normal((2, 5))
        base = bk.cosine_score(a, b)
        assert abs(bk.cosine_score(3.0 * a, b) - base) < 1e-12
        assert abs(bk.cosine_score(a, 0.01 * b) - base) < 1e-12

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="degenerate norm"):
            bk.cosine_score(np.zeros(3), np.ones(3))


class TestScoreTrials:
    def make_backend(self):
        spec = sd.SynthSpec(seed=5, dim=8, num_speakers=10, utts_per_speaker=4,
                            rank_speaker=2, rank_channel=2)
        x, labels, _ = sd.gen_plda_data(spec)
        backend, _ = bk.train_backend(x, labels, bk.BackendConfig(
            kind="plda", rank_speaker=2, rank_channel=2, em_iters=5))
        by_id = {u: x[i] for i, u in enumerate(sd.utt_ids(len(x)))}
        return backend, by_id

    def test_empty_trials(self):
        backend, by_id = self.make_backend()
        out = bk.score_trials(backend, by_id, TrialList([], []))
        assert len(out) == 0

    def test_cosine_identical_embedding_scores_one(self):
        emb = {"a": np.array([1.0, 2.0]), "b": np.array([1.0, 2.0])}
        backend = bk.Backend("cosine", np.zeros(2))
        out = bk.score_trials(backend, emb, TrialList(["a"], ["b"]))
        assert abs(out.scores[0] - 1.0) < 1e-12

    def test_matches_per_pair_scorer(self):
        backend, by_id = self.make_backend()
        ids = sorted(by_id)
        rng = np.random.default_rng(6)
        enroll = [ids[i] for i in rng.integers(0, len(ids), 100)]
        test = [ids[i] for i in rng.integers(0, len(ids), 100)]
        pairs = list(dict.fromkeys(zip(enroll, test)))  # unique, order kept
        trials = TrialList([p[0] for p in pairs], [p[1] for p in pairs])
        out = bk.score_trials(backend, by_id, trials)
        for (e, t), s in zip(trials.pairs(), out.scores):
            direct = bk.score_pair(backend, bk.preprocess(backend, by_id[e]),
                                   bk.preprocess(backend, by_id[t]))
            assert s == direct

    def test_missing_id_named(self):
        backend, by_id = self.make_backend()
        with pytest.raises(ValueError, match="u999999"):
            bk.score_trials(backend, by_id, TrialList(["u999999"], ["u000000"]))

    def test_preprocess_by_id_once_per_id_in_first_seen_order(self, monkeypatch):
        backend, by_id = self.make_backend()
        seen = []

        def counting(b, emb):
            seen.append(emb)
            return bk.length_normalize(np.asarray(emb) @ b.lda.T)

        monkeypatch.setattr(bk, "preprocess", counting)
        out = bk.preprocess_by_id(backend, by_id, ["u000003", "u000001", "u000003", "u000002"])
        assert list(out) == ["u000003", "u000001", "u000002"]
        assert len(seen) == 3 and seen[0] is by_id["u000003"]
        with pytest.raises(ValueError, match="unknown utterance id: u999998$"):
            bk.preprocess_by_id(backend, by_id, ["u000001", "u999998", "u999999"])

    def test_plda_preprocessing_is_center_lda_lengthnorm(self):
        backend, by_id = self.make_backend()
        emb = by_id["u000001"]
        manual = bk.length_normalize(backend.lda @ (emb - backend.mean))
        np.testing.assert_allclose(bk.preprocess(backend, emb), manual, atol=1e-12)

    def test_cosine_preprocessing_is_center_only(self):
        emb = np.array([2.0, 3.0])
        backend = bk.Backend("cosine", np.array([1.0, 1.0]))
        np.testing.assert_allclose(bk.preprocess(backend, emb), [1.0, 2.0], atol=1e-15)


class TestBackendDiscrimination:
    def test_plda_beats_cosine_and_tracks_oracle(self):
        from svkit import metrics as mt

        spec = sd.SynthSpec(seed=42, dim=32, num_speakers=100, utts_per_speaker=12,
                            rank_speaker=4, rank_channel=8,
                            speaker_scale=1.8, channel_scale=1.4, noise_scale=0.7)
        x, labels, model = sd.gen_plda_data(spec)
        trials = sd.gen_trials(labels, 2000, 2000, seed=7)
        by_id = {u: x[i] for i, u in enumerate(sd.utt_ids(len(x)))}

        oracle = sd.oracle_scores(model, x, trials)
        eer_oracle = mt.eer_from_tar_non(oracle.scores[trials.labels],
                                         oracle.scores[~trials.labels])
        plda, _ = bk.train_backend(x, labels, bk.BackendConfig(
            kind="plda", rank_speaker=4, rank_channel=8, em_iters=25, seed=0))
        s = bk.score_trials(plda, by_id, trials)
        eer_plda = mt.eer_from_tar_non(s.scores[trials.labels], s.scores[~trials.labels])
        cos, _ = bk.train_backend(x, labels, bk.BackendConfig(kind="cosine"))
        s = bk.score_trials(cos, by_id, trials)
        eer_cos = mt.eer_from_tar_non(s.scores[trials.labels], s.scores[~trials.labels])

        assert eer_plda <= eer_cos
        assert abs(eer_plda - eer_oracle) <= 2.0
        assert eer_plda >= eer_oracle - 0.5  # Bayes bound up to sampling noise


class TestBackendFile:
    def test_plda_roundtrip(self, tmp_path):
        spec = sd.SynthSpec(seed=8, dim=6, num_speakers=8, utts_per_speaker=4,
                            rank_speaker=2, rank_channel=2)
        x, labels, _ = sd.gen_plda_data(spec)
        backend, _ = bk.train_backend(x, labels, bk.BackendConfig(
            kind="plda", rank_speaker=2, rank_channel=2, em_iters=3))
        cohort = np.random.default_rng(0).standard_normal((8, 6))
        bk.save_backend(tmp_path / "b.svw", backend, cohort)
        loaded, cohort_back = bk.load_backend(tmp_path / "b.svw")
        assert loaded.kind == "plda"
        np.testing.assert_allclose(loaded.mean, backend.mean, atol=1e-6)
        np.testing.assert_allclose(loaded.plda.V, backend.plda.V, atol=1e-5)
        np.testing.assert_allclose(cohort_back, cohort, atol=1e-6)

    def test_cosine_roundtrip(self, tmp_path):
        backend = bk.Backend("cosine", np.array([0.5, -1.0]))
        cohort = np.array([[0.6, -0.8], [-1.0, 0.0], [0.0, 1.0]])
        bk.save_backend(tmp_path / "b.svw", backend, cohort)
        loaded, cohort_back = bk.load_backend(tmp_path / "b.svw")
        assert loaded.kind == "cosine"
        np.testing.assert_allclose(cohort_back, cohort, atol=1e-6)

    @pytest.mark.parametrize("kind", ["cosine", "plda"])
    @pytest.mark.parametrize("rows", [0, 1])
    def test_cohort_of_fewer_than_two_rows_rejected(self, tmp_path, kind, rows):
        backend = (bk.Backend("cosine", np.zeros(2)) if kind == "cosine" else bk.Backend(
            "plda", np.zeros(2), np.eye(2),
            bk.PldaModel(np.zeros(2), np.ones((2, 1)), np.ones((2, 1)), np.ones(2))))
        bk.save_backend(tmp_path / "b.svw", backend, np.ones((rows, 2)))
        with pytest.raises(ValueError, match=rf"^bad backend file: cohort.means has {rows} "
                                             r"row\(s\), not >= 2$"):
            bk.load_backend(tmp_path / "b.svw")

    def test_zero_cohort_row_rejected_for_cosine_only(self, tmp_path):
        cohort = np.array([[0.5, -0.75], [0.0, 0.0], [0.0, 0.0]])
        bk.save_backend(tmp_path / "cos.svw", bk.Backend("cosine", np.zeros(2)), cohort)
        with pytest.raises(ValueError, match=r"^bad backend file: cohort.means row 1 is a zero "
                                             r"vector$"):
            bk.load_backend(tmp_path / "cos.svw")
        plda = bk.Backend("plda", np.zeros(2), np.eye(2),
                          bk.PldaModel(np.zeros(2), np.ones((2, 1)), np.ones((2, 1)), np.ones(2)))
        bk.save_backend(tmp_path / "plda.svw", plda, cohort)  # PLDA scores a zero vector
        np.testing.assert_array_equal(bk.load_backend(tmp_path / "plda.svw")[1], cohort)

    @pytest.mark.parametrize("drop, replace, message", [
        ("center.mean", {}, "center.mean must be a vector"),
        (None, {"center.mean": np.zeros((6, 1))}, "center.mean must be a vector"),
        ("plda.mu", {}, "missing plda.mu"),
        ("lda.mat", {}, "missing lda.mat"),
        (None, {"lda.mat": np.ones((3, 6))}, r"lda.mat \(3, 6\)"),
        (None, {"lda.mat": np.ones((6, 5))}, r"lda.mat \(6, 5\)"),
        (None, {"plda.psi": np.ones(5)}, "inconsistent PLDA shapes"),
        (None, {"cohort.means": np.ones((8, 5))}, r"cohort.means is \(8, 5\)"),
        (None, {"plda.V": np.full((6, 2), np.nan)}, "non-finite values in plda.V"),
        ("cohort.means", {}, "missing cohort.means"),
    ])
    def test_malformed_file_rejected(self, tmp_path, drop, replace, message):
        backend = bk.Backend("plda", np.zeros(6), np.eye(6), bk.PldaModel(
            np.zeros(6), np.ones((6, 2)), np.ones((6, 2)), np.ones(6)))
        bk.save_backend(tmp_path / "b.svw", backend, np.zeros((8, 6)))
        tensors = tensorio.read_tensors(tmp_path / "b.svw")
        tensors.pop(drop, None)
        tensorio.write_tensors(tmp_path / "b.svw", tensors | replace)
        with pytest.raises(ValueError, match=f"bad backend file: {message}"):
            bk.load_backend(tmp_path / "b.svw")
