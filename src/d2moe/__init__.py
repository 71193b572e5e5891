"""Compress mixture-of-experts models into a shared base plus low-rank deltas.

Pipeline: capture calibration statistics, merge experts into a base weight
(Fisher-weighted by default), factorize each expert's residual with a
truncation-aware SVD whitened by its activation Gram, prune base columns
semi-dynamically, and run the compressed model with the same routing.

The package exports the entry points and the error taxonomy; everything
else is imported from its module (`d2moe.factorize`, `d2moe.runtime`, ...).
"""

from .config import CompressionConfig
from .container import (container_load, container_save, load_any, save_compressed_model,
                        save_model)
from .errors import (BadMagicError, ConfigError, ContainerError, D2MoeError,
                     DegenerateInputError, ManifestError, NonFinitePayloadError,
                     NotPositiveDefiniteError, NumericalError, OverlappingPayloadError,
                     ParameterError, ShapeError, TruncatedPayloadError)
from .fixtures import gen_fixture
from .moe import moe_forward_dense
from .pipeline import compress, evaluate, ratio_frontier
from .runtime import compressed_model_forward

__version__ = "0.1.0"
