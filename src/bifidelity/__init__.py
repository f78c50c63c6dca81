"""Bi-fidelity low-rank surrogates with kernel-based column selection."""
