"""rangenull: exact range/null-space decompositions for linear image
degradations.

Any linear observation with an exact pseudo-inverse splits an image into
the part the observation determines and the part it cannot see.  Keeping
the determined part fixed while taking the unseen part from an arbitrary
prediction yields a reconstruction whose degradation reproduces the
observation analytically.  This package implements that recipe for
block-mean pooling (with replication as the exact pseudo-inverse),
per-pixel channel mean, block compressed sensing, and arbitrary dense
matrices, together with resampling-based degradation synthesis, error
metrics, lossless tensor I/O, and a CLI.
"""

from .linop import (
    DenseOperator,
    LinearOperator,
    MoorePenroseResiduals,
    SvdFactors,
    lift,
    load_matrix,
    measure,
    mp_residuals,
    null_project,
    pinv_from_svd,
    range_project,
    reconstruct,
    save_matrix,
    svd,
)
from .metrics import PSNR_CAP, ConsistencyReport, compare, error_map
from .pooling import (
    IdentityOperator,
    PoolingOp,
    extract_highfreq,
    pd_combine,
    pool_down,
    pool_up,
    verify_consistency,
)
from .resample import FILTERS, PREDICTORS, ResampleSpec, open_prediction, predict_raw, resample
from .restore import (
    BlockSenseOp,
    ColorMeanOp,
    color_to_gray,
    cs_build,
    cs_measure,
    cs_pinv,
    generic_pd,
    gray_to_color,
    load_sense_op,
    measurement_count,
    save_sense_op,
)
from .rng import Stream, derive
from .tensor import (
    ImageTensor,
    RawReader,
    load_png,
    load_tensor,
    open_stripes,
    quantize,
    read_raw,
    save_png,
    save_tensor,
    write_raw,
)

__version__ = "0.1.0"

__all__ = [
    "BlockSenseOp",
    "ColorMeanOp",
    "ConsistencyReport",
    "DenseOperator",
    "FILTERS",
    "IdentityOperator",
    "ImageTensor",
    "LinearOperator",
    "MoorePenroseResiduals",
    "PREDICTORS",
    "PSNR_CAP",
    "PoolingOp",
    "RawReader",
    "ResampleSpec",
    "Stream",
    "SvdFactors",
    "color_to_gray",
    "compare",
    "cs_build",
    "cs_measure",
    "cs_pinv",
    "derive",
    "error_map",
    "extract_highfreq",
    "generic_pd",
    "gray_to_color",
    "lift",
    "load_matrix",
    "load_png",
    "load_sense_op",
    "load_tensor",
    "measure",
    "measurement_count",
    "mp_residuals",
    "null_project",
    "open_prediction",
    "open_stripes",
    "pd_combine",
    "pinv_from_svd",
    "pool_down",
    "pool_up",
    "predict_raw",
    "quantize",
    "range_project",
    "read_raw",
    "reconstruct",
    "resample",
    "save_matrix",
    "save_png",
    "save_sense_op",
    "save_tensor",
    "svd",
    "verify_consistency",
    "write_raw",
]
