"""svkit: a desk-scale speaker verification toolkit.

Acoustic front end (FBank/PLP, short-time mean normalization, energy VAD)
on a fixed 16 kHz recipe, TDNN and ResNet34 embedding extractors with
statistics pooling, additive-angular-margin head training, PLDA and cosine
backends, adaptive symmetric score normalization, calibration/fusion, and
EER / minDCF evaluation, all verifiable on synthetic data.
"""

from .aam import AamConfig, AamHead, aam_grad, aam_logits, aam_loss, finetune_head
from .backend import (
    Backend,
    BackendConfig,
    PldaModel,
    cosine_score,
    estimate_center,
    length_normalize,
    plda_llr,
    score_trials,
    train_backend,
    train_lda,
    train_plda,
)
from .calibration import (
    FusionModel,
    apply_fusion,
    calibrate_pipeline,
    fuse_weighted,
    train_logreg,
)
from .config import PipelineConfig, load_config, parse_config
from .frontend import (
    FeatureMatrix,
    Waveform,
    apply_vad,
    energy_vad,
    fbank,
    plp,
    read_wav,
    stmn,
    write_wav,
)
from .metrics import DcfParams, compute_eer, compute_min_dcf
from .nnet import (
    Network,
    NetworkSpec,
    ResnetSpec,
    TdnnSpec,
    forward_resnet,
    forward_tdnn,
    init_weights,
    make_spec,
    prepare,
    resnet_spec,
    splice,
    stats_pooling,
    tdnn_spec,
)
from .scorenorm import SnormConfig, adapt_snorm, build_cohort, snorm_scores
from .synthdata import SynthSpec, gen_plda_data, gen_toy_corpus, gen_trials
from .trials import ScoreSet, TrialList, parse_scores, parse_trials

__version__ = "0.1.0"
