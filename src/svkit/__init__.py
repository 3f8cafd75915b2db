"""svkit: a desk-scale speaker verification toolkit.

Acoustic front end (FBank/PLP, short-time mean normalization, energy VAD)
on a fixed 16 kHz recipe, TDNN and ResNet34 embedding extractors with
statistics pooling, additive-angular-margin head training, PLDA and cosine
backends, adaptive symmetric score normalization, calibration/fusion, and
EER / minDCF evaluation, all verifiable on synthetic data.

The Python API is the modules: ``from svkit import frontend, backend``.
"""

__version__ = "0.1.0"
