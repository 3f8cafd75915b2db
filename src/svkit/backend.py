"""Scoring backends: centering, full-dimension LDA, length normalization,
two-subspace PLDA trained by EM, and cosine scoring.

The PLDA model is x = mu + V h + U w + eps with a per-speaker factor h,
a per-utterance factor w, and diagonal residual variance psi. Pairs are
scored with the two-covariance likelihood ratio using between-class
covariance V V^T and within-class covariance U U^T + diag(psi).

EM integrates w out (within-class covariance Sigma_w = U U^T + psi) and
needs one Cholesky of Sigma_w and one eigendecomposition of
V^T Sigma_w^-1 V per iteration. The utterances are read once, into
per-speaker sums and a d x d scatter matrix, so an iteration costs O(d^3)
plus GEMMs over the speakers, independent of the sessions per speaker.

Preprocessing order is fixed: center, LDA, length-normalize for the PLDA
path; centering only for the cosine path.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import tensorio
from .trials import ScoreSet, TrialList


@dataclass(frozen=True)
class BackendConfig:
    kind: str = "plda"  # "plda" or "cosine"
    rank_speaker: int = 312
    rank_channel: int = 312
    em_iters: int = 10
    lda_epsilon: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("plda", "cosine"):
            raise ValueError(f"unknown backend kind: {self.kind}")
        if self.em_iters < 1:
            raise ValueError("need at least one EM iteration")


@dataclass(eq=False)
class PldaModel:
    mu: np.ndarray
    V: np.ndarray
    U: np.ndarray
    psi: np.ndarray
    loglik_trace: np.ndarray | None = None
    _scorer: tuple | None = field(default=None, repr=False)

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=np.float64)
        self.V = np.asarray(self.V, dtype=np.float64)
        self.U = np.asarray(self.U, dtype=np.float64)
        self.psi = np.asarray(self.psi, dtype=np.float64)

    @property
    def dim(self) -> int:
        return len(self.mu)


def estimate_center(embeddings: np.ndarray) -> np.ndarray:
    """Training-data mean used for centering."""
    embeddings = np.asarray(embeddings, dtype=np.float64)
    if embeddings.ndim != 2 or embeddings.shape[0] == 0:
        raise ValueError("need at least one embedding")
    return embeddings.mean(axis=0)


def apply_center(emb: np.ndarray, mean: np.ndarray) -> np.ndarray:
    return np.asarray(emb, dtype=np.float64) - mean


def length_normalize(emb: np.ndarray) -> np.ndarray:
    emb = np.asarray(emb, dtype=np.float64)
    norm = np.linalg.norm(emb, axis=-1, keepdims=True)
    if np.any(norm == 0.0):
        raise ValueError("degenerate norm: zero vector")
    return emb / norm


def cosine_score(a: np.ndarray, b: np.ndarray) -> float:
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise ValueError("degenerate norm: zero vector")
    return float(np.dot(a, b) / (na * nb))


def train_lda(embeddings: np.ndarray, labels, epsilon: float = 1e-6) -> np.ndarray:
    """Full-dimension LDA; rows are directions sorted by discriminability.

    Solves the generalized eigenproblem S_b v = lambda S_w v with the
    within-class scatter regularized by epsilon * trace(S_w)/d. All d
    eigenvectors are kept; directions beyond rank(S_b) come out of the
    same S_w-orthogonal basis.
    """
    x = np.asarray(embeddings, dtype=np.float64)
    labels = np.asarray(labels)
    classes = np.unique(labels)
    if len(classes) < 2:
        raise ValueError("LDA needs at least two classes")
    n, d = x.shape
    mu = x.mean(axis=0)
    s_w = np.zeros((d, d))
    s_b = np.zeros((d, d))
    for c in classes:
        xc = x[labels == c]
        mc = xc.mean(axis=0)
        diff = xc - mc
        s_w += diff.T @ diff
        gap = mc - mu
        s_b += len(xc) * np.outer(gap, gap)
    s_w /= n
    s_b /= n
    s_w += (epsilon * np.trace(s_w) / d) * np.eye(d)
    try:
        eigvals, eigvecs = scipy.linalg.eigh(s_b, s_w)
    except np.linalg.LinAlgError as exc:
        raise ValueError("singular within-class scatter") from exc
    order = np.argsort(eigvals)[::-1]
    return eigvecs[:, order].T


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
    _, spk, counts = np.unique(np.asarray(labels), return_inverse=True, return_counts=True)
    if len(counts) < 2:
        raise ValueError("PLDA needs at least two speakers")

    mu = x.mean(axis=0)
    xc = x - mu
    rng = np.random.default_rng(cfg.seed)
    avg_var = float(np.mean(np.var(xc, axis=0))) or 1.0
    v = rng.standard_normal((d, rs)) * np.sqrt(avg_var / rs)
    u = rng.standard_normal((d, rc)) * np.sqrt(avg_var / rc)
    psi = np.var(xc, axis=0) + 1e-6 * avg_var

    sums = np.zeros((len(counts), d))  # per-speaker sums of centered data
    np.add.at(sums, spk, xc)
    scatter = xc.T @ xc
    const = n * d * np.log(2.0 * np.pi)

    trace = np.zeros(cfg.em_iters)
    for it in range(cfg.em_iters):
        ut_lam = u.T / psi
        cov_w = scipy.linalg.inv(np.eye(rc) + ut_lam @ u)  # w-posterior given h
        gain = cov_w @ ut_lam  # K, (rc, d)
        cho = scipy.linalg.cho_factor(u @ u.T + np.diag(psi))
        sw_v = scipy.linalg.cho_solve(cho, v)  # Sigma_w^-1 V
        lam, q = scipy.linalg.eigh(v.T @ sw_v)
        shrink = 1.0 / (1.0 + np.outer(counts, lam))  # (speakers, rs)
        b = sums @ sw_v
        h = ((b @ q) * shrink) @ q.T  # E[h] per speaker
        cov_h = (q * (counts @ shrink)) @ q.T  # sum over utterances of Cov[h]

        # log N(vec X_s; 0, I (x) Sigma_w + J (x) V V^T) summed over speakers;
        # its log-determinant is n_s log|Sigma_w| + sum log(1 + n_s lambda)
        trace[it] = -0.5 * (
            const
            + 2.0 * n * float(np.sum(np.log(np.diag(cho[0]))))
            - float(np.sum(np.log(shrink)))
            + float(np.trace(scipy.linalg.cho_solve(cho, scatter)))
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

        a = scipy.linalg.solve(r_zz, r_zx, assume_a="pos").T  # (d, rs + rc)
        psi = (np.diag(scatter) - np.einsum("dq,qd->d", a, r_zx)) / n
        psi = np.maximum(psi, 1e-10 * avg_var)
        v = a[:, :rs]
        u = a[:, rs:]

    return PldaModel(mu, v, u, psi, loglik_trace=trace)


def _two_cov_scorer(model: PldaModel):
    if model._scorer is not None:
        return model._scorer
    if np.any(model.psi <= 0.0):
        raise ValueError("within covariance not positive definite")
    d = model.dim
    between = model.V @ model.V.T
    within = model.U @ model.U.T + np.diag(model.psi)
    try:
        scipy.linalg.cholesky(within)
    except np.linalg.LinAlgError as exc:
        raise ValueError("within covariance not positive definite") from exc
    total = between + within
    sum_cov = total + between  # covariance of the shared-factor sum channel
    total_inv = scipy.linalg.inv(total)
    sum_inv = scipy.linalg.inv(sum_cov)
    within_inv = scipy.linalg.inv(within)
    f = 0.5 * (sum_inv + within_inv)
    h = 0.5 * (sum_inv - within_inv)
    quad = 0.5 * (total_inv - f)
    const = (
        float(np.linalg.slogdet(total)[1])
        - 0.5 * float(np.linalg.slogdet(sum_cov)[1])
        - 0.5 * float(np.linalg.slogdet(within)[1])
    )
    model._scorer = (quad, h, const)
    return model._scorer


def plda_llr(model: PldaModel, enroll: np.ndarray, test: np.ndarray) -> float:
    """Log-likelihood ratio of same speaker versus different speakers."""
    quad, h, const = _two_cov_scorer(model)
    a = np.asarray(enroll, dtype=np.float64) - model.mu
    b = np.asarray(test, dtype=np.float64) - model.mu
    return float(a @ quad @ a + b @ quad @ b - a @ h @ b + const)


@dataclass(eq=False)
class Backend:
    """Trained scorer state: centering mean plus the model for its kind."""

    kind: str
    mean: np.ndarray
    lda: np.ndarray | None = None
    plda: PldaModel | None = None


def train_backend(embeddings: np.ndarray, labels, cfg: BackendConfig = BackendConfig()) -> Backend:
    """Center estimation plus, for PLDA, LDA and EM training."""
    mean = estimate_center(embeddings)
    if cfg.kind == "cosine":
        return Backend("cosine", mean)
    centered = embeddings - mean
    lda = train_lda(centered, labels, cfg.lda_epsilon)
    projected = length_normalize(centered @ lda.T)
    plda = train_plda(projected, labels, cfg)
    return Backend("plda", mean, lda, plda)


def preprocess(backend: Backend, embeddings: np.ndarray) -> np.ndarray:
    """Apply the backend's preprocessing chain to one or more embeddings."""
    x = np.asarray(embeddings, dtype=np.float64) - backend.mean
    if backend.kind == "cosine":
        return x
    return length_normalize(x @ backend.lda.T)


def score_pair(backend: Backend, a: np.ndarray, b: np.ndarray) -> float:
    """Score a preprocessed pair with the backend's scorer."""
    if backend.kind == "cosine":
        return cosine_score(a, b)
    return plda_llr(backend.plda, a, b)


def average_embeddings(embeddings) -> np.ndarray:
    """Multi-session enrollment by plain averaging (off by default upstream)."""
    x = np.asarray(embeddings, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("need at least one embedding")
    return x.mean(axis=0)


def score_trials(backend: Backend, embeddings_by_id, trials: TrialList) -> ScoreSet:
    """One backend score per trial, in trial order."""
    cache: dict[str, np.ndarray] = {}

    def prepped(utt: str) -> np.ndarray:
        if utt not in cache:
            if utt not in embeddings_by_id:
                raise ValueError(f"unknown utterance id: {utt}")
            cache[utt] = preprocess(backend, np.asarray(embeddings_by_id[utt]))
        return cache[utt]

    scores = np.array([
        score_pair(backend, prepped(e), prepped(t))
        for e, t in zip(trials.enroll, trials.test)
    ])
    return ScoreSet(list(trials.enroll), list(trials.test), scores)


def save_backend(path, backend: Backend, cohort: np.ndarray | None = None) -> None:
    tensors = {"center.mean": backend.mean}
    if backend.kind == "plda":
        tensors["lda.mat"] = backend.lda
        tensors["plda.mu"] = backend.plda.mu
        tensors["plda.V"] = backend.plda.V
        tensors["plda.U"] = backend.plda.U
        tensors["plda.psi"] = backend.plda.psi
    if cohort is not None:
        tensors["cohort.means"] = cohort
    tensorio.write_tensors(path, tensors)


def load_backend(path) -> tuple[Backend, np.ndarray | None]:
    tensors = tensorio.read_tensors(path)
    if "center.mean" not in tensors:
        raise ValueError("bad weight file: missing center.mean")
    mean = tensors["center.mean"].astype(np.float64)
    cohort = tensors.get("cohort.means")
    if cohort is not None:
        cohort = cohort.astype(np.float64)
    if "plda.V" in tensors:
        model = PldaModel(
            tensors["plda.mu"], tensors["plda.V"], tensors["plda.U"], tensors["plda.psi"]
        )
        return Backend("plda", mean, tensors["lda.mat"].astype(np.float64), model), cohort
    return Backend("cosine", mean), cohort
