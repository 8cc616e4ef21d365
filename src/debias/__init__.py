"""Contextual-bias mitigation toolkit for multi-label classifiers.

Submodules:
    diffcore  fused BCE and map-normalization VJPs, SGD, gradient checking
    data      synthetic biased dataset generation, stores, manifests
    bias      directional bias score and biased-pair selection
    model     channel mixer + GAP + linear head, checkpoints
    losses    training objectives with closed-form gradients, CAMs
    train     two-stage training for all methods and baselines
    eval      exclusive/co-occur splits, AP, recall, cosine, heatmaps
    cli       command-line entry point
"""

__version__ = "0.1.0"
