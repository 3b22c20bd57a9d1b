"""tenkit: dense tensor algebra, decompositions, robust tensor PCA, and
factorized neural building blocks, with a reproducible CLI."""

from .core import (
    fold,
    frobenius,
    generalized_inner,
    hadamard,
    inner,
    khatri_rao,
    kronecker,
    mode_n_conv1d,
    mode_n_product,
    mode_n_vec_product,
    mttkrp,
    multi_mode_product,
    norm_l0,
    norm_lp,
    nuclear,
    outer,
    schatten,
    unfold,
    vectorize,
)
from .decomp import (
    DecompOptions,
    KruskalTensor,
    MpcaResult,
    TTTensor,
    TuckerTensor,
    cp_als,
    kruskal_to_tensor,
    mpca,
    multifactor_analysis,
    tt_svd,
    tt_to_tensor,
    tucker_hooi,
    tucker_hosvd,
    tucker_to_tensor,
)
from .io import FormatError, read_tnsr, write_tnsr
from .linalg import SVDResult, lstsq, soft_threshold, svd, svt, truncated_svd
from .robust import RpcaResult, default_lambda, trpca
from .serialize import load_model, save_model

__version__ = "0.1.0"
