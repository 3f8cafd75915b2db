"""Additive angular margin softmax: logits, loss, exact gradients, and
head-only fine-tuning on frozen embeddings.

Embeddings and class weights are unit-normalized before the cosine is
taken. The true-class cosine cos(theta) becomes cos(theta + m) while
cos(theta) > cos(pi - m); past that point the monotone surrogate
cos(theta) - m*sin(m) takes over. Everything is scaled by s.

The head is its (classes, dim) float64 weight matrix, one row per class.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import tensorio


@dataclass(frozen=True)
class AamConfig:
    scale: float = 30.0
    margin: float = 0.2

    def __post_init__(self):
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ValueError("scale must be positive and finite")
        if not (0.0 <= self.margin < math.pi / 2):
            raise ValueError("margin must be in [0, pi/2)")


def init_head(num_classes: int, dim: int, seed: int) -> np.ndarray:
    if num_classes < 1 or dim < 1:
        raise ValueError("head needs at least one class and one dimension")
    rng = np.random.default_rng(seed)
    bound = np.sqrt(6.0 / dim)
    return rng.uniform(-bound, bound, size=(num_classes, dim))


def _normalize_rows(x: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    norms = np.linalg.norm(x, axis=1)
    if np.any(norms == 0.0):
        raise ValueError(f"degenerate norm: zero {what}")
    return x / norms[:, None], norms


def _cosines(e_hat: np.ndarray, head: np.ndarray, out: np.ndarray | None = None):
    """Cosines of unit embeddings against the head rows, written to ``out``
    when it is given, plus the unit rows and their norms."""
    w_hat, w_norm = _normalize_rows(head, "weight row")
    return np.matmul(e_hat, w_hat.T, out=out), w_hat, w_norm


def _margin_terms(cos_true: np.ndarray, cfg: AamConfig):
    """Margin-modified true-class cosine and its derivative wrt cos(theta)."""
    cos_m, sin_m = math.cos(cfg.margin), math.sin(cfg.margin)
    tau = math.cos(math.pi - cfg.margin)
    branch = cos_true > tau
    sin_true = np.sqrt(np.maximum(1.0 - cos_true * cos_true, 0.0))
    phi = np.where(branch, cos_true * cos_m - sin_true * sin_m,
                   cos_true - cfg.margin * sin_m)
    safe_sin = np.maximum(sin_true, 1e-32)
    dphi = np.where(branch, cos_m + cos_true * sin_m / safe_sin, 1.0)
    return phi, dphi


def _margin_logits(cos: np.ndarray, labels: np.ndarray, cfg: AamConfig) -> np.ndarray:
    """Turn ``cos`` in place into scaled logits with the margin on each
    true class; returns d(phi)/d(cos) of the true classes."""
    idx = np.arange(len(labels))
    phi, dphi = _margin_terms(cos[idx, labels], cfg)
    cos *= cfg.scale
    cos[idx, labels] = cfg.scale * phi
    return dphi


def _softmax_grad(cos: np.ndarray, labels: np.ndarray, cfg: AamConfig):
    """Mean AAM loss and d(loss)/d(cos) from a batch of cosines.

    Works in place: the gradient returned is ``cos`` itself, so one
    (batch, classes) buffer holds logits, exponentials, probabilities and
    gradient in turn.
    """
    n = len(labels)
    idx = np.arange(n)
    dphi = _margin_logits(cos, labels, cfg)
    cos -= cos.max(axis=1, keepdims=True)
    shifted_true = cos[idx, labels]
    np.exp(cos, out=cos)
    total = cos.sum(axis=1)
    loss = float(np.mean(np.log(total)) - np.mean(shifted_true))
    cos /= total[:, None]
    cos[idx, labels] -= 1.0
    cos *= cfg.scale / n
    cos[idx, labels] *= dphi
    return loss, cos


def _head_grad(g, e_hat, w_hat, w_norm) -> np.ndarray:
    """Gradient wrt the raw head weights from d(loss)/d(cos)."""
    gw_hat = g.T @ e_hat  # (classes, dim), gradient wrt normalized rows
    row_dot = np.sum(gw_hat * w_hat, axis=1, keepdims=True)
    return (gw_hat - row_dot * w_hat) / w_norm[:, None]


def aam_logits(emb: np.ndarray, head: np.ndarray, label: int, cfg: AamConfig = AamConfig()) -> np.ndarray:
    """Margin-modified scaled cosine logits for one embedding."""
    emb = np.asarray(emb, dtype=np.float64)
    if not 0 <= label < len(head):
        raise ValueError("label out of range")
    e_hat, _ = _normalize_rows(emb[None, :], "embedding")
    cos, _, _ = _cosines(e_hat, head)
    _margin_logits(cos, np.array([label]), cfg)
    return cos[0]


def _batch_arrays(embs, labels):
    """Float64 embeddings and int64 labels, checked for shape, finiteness
    and label type; the caller checks labels against its number of classes."""
    embs = np.asarray(embs, dtype=np.float64)
    labels = np.asarray(labels)
    if embs.ndim != 2 or embs.shape[0] == 0:
        raise ValueError("empty batch")
    if labels.shape != (embs.shape[0],):
        raise ValueError("labels must align with the batch")
    if not np.issubdtype(labels.dtype, np.integer):
        raise ValueError("labels must be integers")
    if labels.min() < 0:
        raise ValueError("label out of range")
    if not np.all(np.isfinite(embs)):
        raise ValueError("non-finite embedding")
    return embs, labels.astype(np.int64, copy=False)


def _batch_softmax(embs, labels, head: np.ndarray, cfg: AamConfig):
    """Loss, d(loss)/d(cos) and the normalized factors of one checked batch."""
    embs, labels = _batch_arrays(embs, labels)
    if labels.max() >= len(head):
        raise ValueError("label out of range")
    e_hat, e_norm = _normalize_rows(embs, "embedding")
    cos, w_hat, w_norm = _cosines(e_hat, head)
    loss, g = _softmax_grad(cos, labels, cfg)
    return loss, g, e_hat, e_norm, w_hat, w_norm


def aam_loss(embs, labels, head: np.ndarray, cfg: AamConfig = AamConfig()) -> float:
    """Mean softmax cross-entropy over margin-modified logits."""
    return _batch_softmax(embs, labels, head, cfg)[0]


def aam_grad(embs, labels, head: np.ndarray, cfg: AamConfig = AamConfig()):
    """Loss plus exact gradients wrt head weights and embeddings."""
    loss, g, e_hat, e_norm, w_hat, w_norm = _batch_softmax(embs, labels, head, cfg)
    grad_w = _head_grad(g, e_hat, w_hat, w_norm)
    ge_hat = g @ w_hat  # (batch, dim), gradient wrt normalized embeddings
    e_dot = np.sum(ge_hat * e_hat, axis=1, keepdims=True)
    grad_e = (ge_hat - e_dot * e_hat) / e_norm[:, None]
    return loss, grad_w, grad_e


def finetune_head(embs, labels, cfg: AamConfig = AamConfig(), epochs: int = 50,
                  learning_rate: float = 0.1, seed: int = 0):
    """Full-batch gradient descent on the head; embeddings stay frozen.

    Returns the trained head and the per-epoch loss trace (loss measured
    before each update, so epochs=0 returns the seeded initialization).
    The embeddings are checked and unit-normalized once; each epoch
    computes the head gradient only, in one (batch, classes) buffer.
    """
    embs, labels = _batch_arrays(embs, labels)
    if len(np.unique(labels)) < 2:
        raise ValueError("need at least two classes")
    head = init_head(int(labels.max()) + 1, embs.shape[1], seed)
    e_hat, _ = _normalize_rows(embs, "embedding")
    cos = np.empty((len(labels), len(head)))
    trace = np.zeros(epochs)
    for epoch in range(epochs):
        _, w_hat, w_norm = _cosines(e_hat, head, out=cos)
        trace[epoch], g = _softmax_grad(cos, labels, cfg)
        head = head - learning_rate * _head_grad(g, e_hat, w_hat, w_norm)
    return head, trace


def head_predict(embs, head: np.ndarray) -> np.ndarray:
    """Class decisions by plain cosine argmax (no margin at test time)."""
    embs = np.asarray(embs, dtype=np.float64)
    e_hat, _ = _normalize_rows(embs, "embedding")
    return np.argmax(_cosines(e_hat, head)[0], axis=1)


def save_head(head: np.ndarray, path) -> None:
    tensorio.write_tensors(path, {"aam.weight": head})

