"""Contextual-bias mitigation toolkit for multi-label classifiers.

Submodules:
    diffcore  float64 coercion, the sigmoid, SGD, gradient checking
    data      synthetic biased dataset generation, stores, manifests
    bias      pair splits, directional bias score, biased-pair selection
    model     channel mixer + GAP + linear head, checkpoints
    losses    training objectives, each owning its loss and gradient numerics
    train     two-stage training for all methods and baselines
    eval      exclusive/co-occur splits, AP, recall, cosine, heatmaps
    cli       command-line entry point
"""

__version__ = "0.1.0"
