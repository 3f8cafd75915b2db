"""Scoring backends: centering, full-dimension LDA, length normalization,
two-subspace PLDA trained by EM, and cosine scoring.

The PLDA model is x = mu + V h + U w + eps with a per-speaker factor h,
a per-utterance factor w, and diagonal residual variance psi. Pairs are
scored with the two-covariance likelihood ratio using between-class
covariance V V^T and within-class covariance U U^T + diag(psi). The ratio
is computed in the r-dimensional speaker subspace where V^T Sigma_w^-1 V
is diagonal (Brummer & de Villiers, "The speaker partitioning problem",
Odyssey 2010): all d - r other directions cancel, so a pair costs two
r x d matrix-vector products once the model is factored (``PldaModel.scorer``).

EM integrates w out (within-class covariance Sigma_w = U U^T + psi) and
needs one Cholesky and one inverse of Sigma_w and one eigendecomposition
of V^T Sigma_w^-1 V per iteration. The utterances are read once, into
per-speaker sums and a d x d scatter matrix, so an iteration costs O(d^3)
plus GEMMs over the speakers, independent of the sessions per speaker.

Preprocessing order is fixed: center, LDA, length-normalize for the PLDA
path; centering only for the cosine path. ``train_backend`` preprocesses
the training set once and hands those rows back, so the cohort is built
from the rows PLDA was trained on. Per-speaker sums add each speaker's
rows in row order (``speaker_sums``), the order of a row-by-row scatter-add
(the ``at`` method of ``np.add``), so the sums, and the float32 backend file
written from them, keep its bits; a segmented pairwise reduction (the
``reduceat`` method) does not.

Every factorization is ``numpy.linalg``, which does not check its input
for NaNs and infinities; ``_cholesky`` does, and names the matrix.
"""

import functools
from dataclasses import dataclass

import numpy as np

from . import tensorio
from .trials import ScoreSet, TrialList

LDA_EPSILON = 1e-6  # within-class scatter regularizer, relative to trace(S_w)/d


@dataclass(frozen=True)
class BackendConfig:
    kind: str = "plda"  # "plda" or "cosine"
    rank_speaker: int = 312
    rank_channel: int = 312
    em_iters: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("plda", "cosine"):
            raise ValueError(f"unknown backend kind: {self.kind}")
        if self.em_iters < 1:
            raise ValueError("need at least one EM iteration")
        if self.rank_speaker < 1 or self.rank_channel < 1:
            raise ValueError("PLDA subspace ranks must be >= 1")


@dataclass(frozen=True, eq=False)
class PldaModel:
    mu: np.ndarray
    V: np.ndarray
    U: np.ndarray
    psi: np.ndarray
    loglik_trace: np.ndarray | None = None

    def __post_init__(self):
        for name in ("mu", "V", "U", "psi"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        d = len(self.mu) if self.mu.ndim == 1 else -1
        if self.psi.shape != (d,) or any(m.ndim != 2 or len(m) != d for m in (self.V, self.U)):
            raise ValueError(f"inconsistent PLDA shapes: mu {self.mu.shape}, V {self.V.shape}, "
                             f"U {self.U.shape}, psi {self.psi.shape}")

    @property
    def dim(self) -> int:
        return len(self.mu)

    @functools.cached_property
    def scorer(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        """``(plus, plus_mu, minus, const)`` of the two-covariance log-likelihood
        ratio, in the speaker subspace where V^T Sigma_w^-1 V = Q diag(lambda) Q^T.

        With y = P (x - mu) and P = (Sigma_w^-1 V Q)^T (r x d), a pair scores
        alpha . (y_a^2 + y_b^2) + beta . (y_a y_b) + const, where
        alpha = 1/(2 (1 + 2 lambda)) - 1/(2 (1 + lambda)), beta = 1/(1 + 2 lambda)
        and const = sum log(1 + lambda) - 1/2 sum log(1 + 2 lambda). In sums and
        differences that is |g+ (y_a + y_b)|^2 - |g- (y_a - y_b)|^2 + const with
        g+ = 1/(2 sqrt((1 + lambda)(1 + 2 lambda))) and g- = 1/(2 sqrt(1 + lambda)),
        so ``plus`` and ``minus`` are the rows of P scaled by g+ and g-, and
        ``plus_mu`` = 2 plus mu. Directions with lambda = 0 have P = 0 and add
        nothing. A model whose within covariance is not positive definite
        raises ValueError at first use."""
        if np.any(self.psi <= 0.0):
            raise ValueError("within covariance not positive definite")
        within = self.U @ self.U.T + np.diag(self.psi)
        sw_v = _inverse(within, "within covariance")[0] @ self.V
        lam, q = np.linalg.eigh(self.V.T @ sw_v)
        lam = np.maximum(lam, 0.0)
        g_plus = 0.5 / np.sqrt((1.0 + lam) * (1.0 + 2.0 * lam))
        g_minus = 0.5 / np.sqrt(1.0 + lam)
        plus = np.ascontiguousarray((sw_v @ (q * g_plus)).T)
        minus = np.ascontiguousarray((sw_v @ (q * g_minus)).T)
        const = float(np.sum(np.log1p(lam)) - 0.5 * np.sum(np.log1p(2.0 * lam)))
        return plus, 2.0 * plus.dot(self.mu), minus, const


def _cholesky(mat: np.ndarray, what: str) -> np.ndarray:
    """Lower Cholesky factor of a symmetric matrix; a non-finite or not positive
    definite one is a ValueError that names it."""
    if not np.all(np.isfinite(mat)):
        raise ValueError(f"non-finite {what}")
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"{what} not positive definite") from exc


def _inverse(mat: np.ndarray, what: str) -> tuple[np.ndarray, float]:
    """Inverse and log-determinant of a symmetric positive definite matrix; the
    Cholesky factor that checks it gives the log-determinant."""
    chol = _cholesky(mat, what)
    return np.linalg.inv(mat), 2.0 * float(np.sum(np.log(np.diag(chol))))


def estimate_center(embeddings: np.ndarray) -> np.ndarray:
    """Training-data mean used for centering, accumulated in float64 without a
    float64 copy of the embeddings."""
    embeddings = np.asarray(embeddings)
    if embeddings.ndim != 2 or embeddings.shape[0] == 0:
        raise ValueError("need at least one embedding")
    return embeddings.mean(axis=0, dtype=np.float64)


def _normalize_rows(x: np.ndarray) -> np.ndarray:
    """Divide a float64 array by its norms along the last axis, in place."""
    norm = np.linalg.norm(x, axis=-1, keepdims=True)
    if np.any(norm == 0.0):
        raise ValueError("degenerate norm: zero vector")
    x /= norm
    return x


def length_normalize(emb: np.ndarray) -> np.ndarray:
    return _normalize_rows(np.array(emb, dtype=np.float64))


def cosine_score(a: np.ndarray, b: np.ndarray) -> float:
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise ValueError("degenerate norm: zero vector")
    return float(np.dot(a, b) / (na * nb))


def speaker_sums(x: np.ndarray, labels) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each row's speaker index, rows per speaker and per-speaker sums of ``x``, in label order.

    Every speaker's rows are added in row order, starting from zero: pass j adds
    the j-th row of each speaker that has one. That is the order in which the
    ``at`` method of ``np.add`` scatters rows one by one, so the sums keep its
    bits, with one gathered block per pass instead of one scatter per row.
    Summing the speaker-sorted rows with the ``reduceat`` method is not the same:
    it moves sums by an ulp, and a backend file stored in float32 with them.
    """
    _, spk, counts = np.unique(np.asarray(labels), return_inverse=True, return_counts=True)
    if len(spk) != len(x):
        raise ValueError(f"{len(spk)} labels for {len(x)} rows")
    by_count = np.argsort(-counts, kind="stable")  # speakers with the most rows first
    rows = np.argsort(spk, kind="stable")  # grouped by speaker, each speaker in row order
    first = (np.cumsum(counts) - counts)[by_count]  # each speaker's first entry in rows
    sizes = counts[by_count]
    sums = np.zeros((len(counts), x.shape[1]))  # in ``by_count`` order
    for j in range(counts.max(initial=0)):
        k = np.count_nonzero(sizes > j)  # the speakers with a j-th row lead ``by_count``
        sums[:k] += x[rows[first[:k] + j]]
    return spk, counts, sums[np.argsort(by_count)]


def train_lda(embeddings: np.ndarray, labels) -> np.ndarray:
    """Full-dimension LDA; rows are directions sorted by discriminability.

    Solves the generalized eigenproblem S_b v = lambda S_w v with the
    within-class scatter regularized by LDA_EPSILON * trace(S_w)/d. All d
    eigenvectors are kept; directions beyond rank(S_b) come out of the
    same S_w-orthogonal basis. With S_w = L L^T the problem is the symmetric
    one of L^-1 S_b L^-T, whose eigenvectors y give v = L^-T y.
    """
    x = np.asarray(embeddings, dtype=np.float64)
    n, d = x.shape
    cls, counts, sums = speaker_sums(x, labels)
    if len(counts) < 2:
        raise ValueError("LDA needs at least two classes")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is named below
        means = sums / counts[:, None]
        diff = means[cls]
        np.subtract(x, diff, out=diff)  # x - means[cls], in the gathered buffer
        gap = means - x.mean(axis=0)
        s_w = diff.T @ diff / n
        s_b = (gap.T * counts) @ gap / n
        s_w[np.diag_indices(d)] += LDA_EPSILON * np.trace(s_w) / d
    l_inv = np.linalg.inv(_cholesky(s_w, "within-class scatter"))
    if not np.all(np.isfinite(s_b)):
        raise ValueError("non-finite between-class scatter")
    y = np.linalg.eigh(l_inv @ s_b @ l_inv.T)[1]  # ascending eigenvalues
    return y[:, ::-1].T @ l_inv


def train_plda(embeddings: np.ndarray, labels, cfg: BackendConfig = BackendConfig()) -> PldaModel:
    """Fit the two-subspace model by EM.

    The caller is expected to pass preprocessed embeddings. The returned
    model carries the marginal log-likelihood trace of the training set,
    one entry per iteration, evaluated on the parameters entering that
    iteration; EM makes it non-decreasing.

    The E-step works on the model's block structure. Integrating w out
    leaves x = mu + V h + e with e ~ N(0, Sigma_w), Sigma_w = U U^T + psi,
    and with V^T Sigma_w^-1 V = Q diag(lambda) Q^T the h-posterior of a
    speaker with n sessions has covariance Q diag(1/(1 + n lambda)) Q^T.
    Given h, each w_i has the shared gain K = (I + U^T psi^-1 U)^-1 U^T
    psi^-1, so E[w_i] = K (x_i - V E[h]). The M-step statistics follow from
    the per-speaker sums and the scatter matrix, so one iteration costs
    O(d^3) plus GEMMs over the speakers, whatever the sessions per speaker.
    """
    x = np.asarray(embeddings, dtype=np.float64)
    n, d = x.shape
    rs, rc = cfg.rank_speaker, cfg.rank_channel
    if rs > d or rc > d:
        raise ValueError("subspace rank exceeds embedding dimension")
    mu = x.mean(axis=0)
    xc = x - mu
    _, counts, sums = speaker_sums(xc, labels)  # of centered data
    if len(counts) < 2:
        raise ValueError("PLDA needs at least two speakers")
    scatter = xc.T @ xc
    del xc  # EM needs only the speaker sums and the scatter
    var = np.diag(scatter) / n

    rng = np.random.default_rng(cfg.seed)
    avg_var = float(np.mean(var)) or 1.0
    v = rng.standard_normal((d, rs)) * np.sqrt(avg_var / rs)
    u = rng.standard_normal((d, rc)) * np.sqrt(avg_var / rc)
    psi = var + 1e-6 * avg_var
    const = n * d * np.log(2.0 * np.pi)

    trace = np.zeros(cfg.em_iters)
    for it in range(cfg.em_iters):
        ut_lam = u.T / psi
        cov_w = _inverse(np.eye(rc) + ut_lam @ u, "w-posterior precision")[0]
        gain = cov_w @ ut_lam  # K, (rc, d)
        sw_inv, logdet = _inverse(u @ u.T + np.diag(psi), "within covariance")
        sw_v = sw_inv @ v
        lam, q = np.linalg.eigh(v.T @ sw_v)
        shrink = 1.0 / (1.0 + np.outer(counts, lam))  # (speakers, rs)
        b = sums @ sw_v
        h = ((b @ q) * shrink) @ q.T  # E[h] per speaker
        cov_h = (q * (counts @ shrink)) @ q.T  # sum over utterances of Cov[h]

        # log N(vec X_s; 0, I (x) Sigma_w + J (x) V V^T) summed over speakers;
        # its log-determinant is n_s log|Sigma_w| + sum log(1 + n_s lambda)
        trace[it] = -0.5 * (
            const
            + n * logdet
            - float(np.sum(np.log(shrink)))
            + float(np.vdot(sw_inv, scatter))  # tr(Sigma_w^-1 scatter), both symmetric
            - float(np.sum(b * h))
        )

        # sums over utterances of E[z z^T] and E[z] x^T for z = (h, w_i),
        # from the speaker sums and the scatter: E[w_i] = K (x_i - V E[h])
        kv = gain @ v
        r_hh = cov_h + (h.T * counts) @ h
        r_hx = h.T @ sums
        r_wx = gain @ scatter - kv @ r_hx
        r_hw = r_hx @ gain.T - r_hh @ kv.T
        r_ww = n * cov_w + r_wx @ gain.T - r_hw.T @ kv.T
        r_zz = np.block([[r_hh, r_hw], [r_hw.T, r_ww]])
        r_zx = np.vstack([r_hx, r_wx])

        a = np.linalg.solve(r_zz, r_zx).T  # (d, rs + rc)
        psi = (np.diag(scatter) - np.einsum("dq,qd->d", a, r_zx)) / n
        psi = np.maximum(psi, 1e-10 * avg_var)
        v = a[:, :rs]
        u = a[:, rs:]

    return PldaModel(mu, v, u, psi, loglik_trace=trace)


def plda_llr(model: PldaModel, enroll: np.ndarray, test: np.ndarray) -> float:
    """Log-likelihood ratio of same speaker versus different speakers."""
    plus, plus_mu, minus, const = model.scorer
    a = np.asarray(enroll, dtype=np.float64)
    b = np.asarray(test, dtype=np.float64)
    s = plus.dot(a + b) - plus_mu
    t = minus.dot(a - b)
    return float(s.dot(s) - t.dot(t) + const)


@dataclass(frozen=True, eq=False)
class Backend:
    """Trained scorer state: centering mean plus the model for its kind."""

    kind: str
    mean: np.ndarray
    lda: np.ndarray | None = None
    plda: PldaModel | None = None


def train_backend(embeddings: np.ndarray, labels, cfg: BackendConfig = BackendConfig(),
                  mean: np.ndarray | None = None) -> tuple[Backend, np.ndarray]:
    """Center estimation plus, for PLDA, LDA and EM training on the embeddings
    as ``preprocess`` prepares them for scoring. Returns the backend and those
    preprocessed rows, which ``scorenorm.build_cohort`` averages per speaker.
    A caller that has taken ``estimate_center`` of the embeddings passes it as
    ``mean``."""
    if mean is None:
        mean = estimate_center(embeddings)
    if cfg.kind == "cosine":
        backend = Backend("cosine", mean)
        return backend, preprocess(backend, embeddings)
    lda = train_lda(np.subtract(embeddings, mean, dtype=np.float64), labels)
    rows = preprocess(Backend("plda", mean, lda), embeddings)
    return Backend("plda", mean, lda, train_plda(rows, labels, cfg)), rows


def preprocess(backend: Backend, embeddings: np.ndarray) -> np.ndarray:
    """Apply the backend's preprocessing chain to one or more embeddings."""
    x = np.subtract(embeddings, backend.mean, dtype=np.float64)  # no float64 copy of the input
    if backend.kind == "cosine":
        return x
    x = x @ backend.lda.T  # the centered rows are freed before normalizing: fewer fresh pages
    return _normalize_rows(x)


def score_pair(backend: Backend, a: np.ndarray, b: np.ndarray) -> float:
    """Score a preprocessed pair with the backend's scorer."""
    if backend.kind == "cosine":
        return cosine_score(a, b)
    return plda_llr(backend.plda, a, b)


def check_finite(ids, rows: np.ndarray) -> None:
    """Raise the ValueError that names the first of ``ids`` whose row is not finite."""
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():
        raise ValueError(f"utterance {ids[np.argmin(finite)]} has a non-finite embedding")


def check_off_mean(ids, rows: np.ndarray, mean: np.ndarray) -> None:
    """Raise the ValueError that names the first of ``ids`` whose row is ``mean``."""
    at_mean = (rows == mean).all(axis=1)
    if at_mean.any():
        raise ValueError(f"utterance {ids[np.argmax(at_mean)]}: degenerate norm: zero vector")


def preprocess_by_id(backend: Backend, embeddings_by_id, ids) -> dict[str, np.ndarray]:
    """Preprocessed vector of each distinct id, in first-seen order, from one
    ``preprocess`` call per id, so it is the same whichever command asks. Each
    vector must have the shape of the backend's mean, be finite and differ from it."""
    out: dict[str, np.ndarray] = {}
    for utt in ids:
        if utt not in out:
            if utt not in embeddings_by_id:
                raise ValueError(f"unknown utterance id: {utt}")
            emb = np.asarray(embeddings_by_id[utt])
            if emb.shape != backend.mean.shape:
                raise ValueError(f"utterance {utt} has an embedding of shape {emb.shape}, "
                                 f"but the backend scores shape {backend.mean.shape}")
            check_finite((utt,), emb[None])
            check_off_mean((utt,), emb[None], backend.mean)
            out[utt] = preprocess(backend, emb)
    return out


def score_trials(backend: Backend, embeddings_by_id, trials: TrialList) -> ScoreSet:
    """One backend score per trial, in trial order."""
    pairs = trials.pairs()
    prepped = preprocess_by_id(backend, embeddings_by_id, (u for pair in pairs for u in pair))
    return trials.with_scores([score_pair(backend, prepped[e], prepped[t]) for e, t in pairs])


# in file order, so that saved backends stay byte-identical
PLDA_TENSORS = ("lda.mat", "plda.mu", "plda.V", "plda.U", "plda.psi")


def save_backend(path, backend: Backend, cohort: np.ndarray) -> None:
    tensors = {"center.mean": backend.mean}
    if backend.kind == "plda":
        p = backend.plda
        tensors.update(zip(PLDA_TENSORS, (backend.lda, p.mu, p.V, p.U, p.psi)))
    tensors["cohort.means"] = cohort
    tensorio.write_tensors(path, tensors)


def load_backend(path) -> tuple[Backend, np.ndarray]:
    """Read a backend file; a missing, misshapen or non-finite tensor, or a PLDA
    model that cannot be factored for scoring, is an error."""
    tensors = {k: v.astype(np.float64) for k, v in tensorio.read_tensors(path).items()}
    nonfinite = [name for name, value in tensors.items() if not np.all(np.isfinite(value))]
    if nonfinite:
        raise ValueError(f"bad backend file: non-finite values in {nonfinite[0]}")
    mean = tensors.get("center.mean")
    if mean is None or mean.ndim != 1:
        raise ValueError("bad backend file: center.mean must be a vector")
    backend, dim = Backend("cosine", mean), len(mean)  # dim: of the vectors that are scored
    if any(name in tensors for name in PLDA_TENSORS):
        missing = [name for name in PLDA_TENSORS if name not in tensors]
        if missing:
            raise ValueError(f"bad backend file: missing {missing[0]}")
        lda, *params = (tensors[name] for name in PLDA_TENSORS)
        try:
            model = PldaModel(*params)
            model.scorer  # factored here, so a model that cannot score is a bad file
        except ValueError as exc:
            raise ValueError(f"bad backend file: {exc}") from exc
        if lda.shape != (model.dim, len(mean)):
            raise ValueError(f"bad backend file: lda.mat {lda.shape} is not (plda dim, mean dim)")
        backend, dim = Backend("plda", mean, lda, model), model.dim
    cohort = tensors.get("cohort.means")
    if cohort is None:
        raise ValueError("bad backend file: missing cohort.means")
    if cohort.ndim != 2 or cohort.shape[1] != dim:
        raise ValueError(f"bad backend file: cohort.means is {cohort.shape}, not (n, {dim})")
    if len(cohort) < 2:  # S-norm takes statistics over at least two cohort speakers
        raise ValueError(f"bad backend file: cohort.means has {len(cohort)} row(s), not >= 2")
    zero = np.flatnonzero(~cohort.any(axis=1))
    if backend.kind == "cosine" and len(zero):
        raise ValueError(f"bad backend file: cohort.means row {zero[0]} is a zero vector")
    return backend, cohort
