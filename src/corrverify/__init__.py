"""corrverify: dense pixel correspondence matching with geometric
verification (cyclic consistency + RANSAC homography) and the staged
similarity re-ranking it supports.

The package is organized as a numpy library; numpy is its only runtime
dependency:

* :mod:`corrverify.core` -- value types, bilinear sampling, file I/O
* :mod:`corrverify.pyramid` -- dense descriptor pyramid, hypercolumns,
  global descriptors
* :mod:`corrverify.verify` -- RANSAC + cyclic consistency + similarity scores
* :mod:`corrverify.synth` -- synthetic warps, ground-truth maps, benchmarks
* :mod:`corrverify.rng` -- hash-derived seeds and a portable LCG

Callers import the submodules (``from corrverify import core``); the package
root re-exports nothing.
"""
