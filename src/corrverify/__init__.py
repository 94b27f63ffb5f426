"""corrverify: dense pixel correspondence matching with geometric
verification (cyclic consistency + RANSAC homography) and the staged
similarity re-ranking it supports.

The package is organized as a numpy library:

* :mod:`corrverify.core` -- value types, bilinear sampling, file I/O
* :mod:`corrverify.pyramid` -- dense descriptor pyramid, hypercolumns,
  global descriptors
* :mod:`corrverify.verify` -- RANSAC + cyclic consistency + similarity scores
* :mod:`corrverify.synth` -- synthetic warps, ground-truth maps, benchmarks
* :mod:`corrverify.rng` -- hash-derived seeds and a portable LCG
"""

from .core import (
    CorrespondenceMap,
    FeatureMap,
    GlobalDescriptor,
    Image,
    InvalidSampleError,
    Mask,
    ParseError,
    bilinear_sample,
    identity_map,
    load_image,
    read_cmap,
    read_fmap,
    read_gdsc,
    resample_map,
    resize_image,
    save_image,
    to_grayscale,
    write_cmap,
    write_fmap,
    write_gdsc,
)

__version__ = "0.1.0"

__all__ = [
    "CorrespondenceMap",
    "FeatureMap",
    "GlobalDescriptor",
    "Image",
    "InvalidSampleError",
    "Mask",
    "ParseError",
    "bilinear_sample",
    "identity_map",
    "load_image",
    "read_cmap",
    "read_fmap",
    "read_gdsc",
    "resample_map",
    "resize_image",
    "save_image",
    "to_grayscale",
    "write_cmap",
    "write_fmap",
    "write_gdsc",
    "__version__",
]
