"""Dual-coupled plug-and-play ADMM with spectral homogenization.

Solver library and benchmark harness for linear imaging inverse problems
(sparse-view / limited-angle CT, accelerated MRI) with pluggable denoiser
priors, ablation variants, and whitening / fixed-point diagnostics.
"""
