"""permlin: rank-bounded invariant and equivariant linear maps under
permutation actions — component census, closed-form squared-error fits, and
weight-shared encoder/decoder factorizations.

PERMLIN_THREADS, when set, is the default of the OpenMP, OpenBLAS and MKL
thread counts; it is read here, before the first import of numpy, since BLAS
fixes its thread count when it loads."""

import os as _os

if _os.environ.get("PERMLIN_THREADS"):
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _os.environ["PERMLIN_THREADS"])

from .perms import (
    Permutation,
    CycleDecomposition,
    Partition,
    parse_permutation,
    cycle_decomposition,
    induced_partition,
    permutation_matrix,
    finest_common_coarsening,
    replication_matrix,
)
from .linalg import svd, numeric_rank, realize
from .spectral import (
    BlockSpectrum,
    BaseChange,
    eigen_multiplicities,
    commutant_dimension,
    real_base_change,
)
from .invariant import (
    InvariantSpace,
    invariant_space,
    psi_compress,
    psi_expand,
    invariant_dimension,
    invariant_degree,
    is_singular_point,
    fit_invariant,
    invariant_autoencoder,
    invariant_project,
)
from .equivariant import (
    RankVector,
    ComponentDescriptor,
    Parameterization,
    WeightSharingReport,
    equivariant_project,
    is_equivariant,
    count_components,
    enumerate_components,
    describe_component,
    component_dimension,
    component_degree_complex,
    classify_component,
    parameterize_component,
    factor_component,
    make_rank_vector,
    free_parameter_count,
)
from .optimize import (
    Factors,
    FitResult,
    fit_rank_bounded,
    autoencoder_loss,
    chunked_gram,
    solve_equivariant,
    solve_equivariant_gram,
    fit_equivariant,
    ed_degrees,
)
from .datasets import demo_shift_chunks, demo_shift_dataset, horizontal_shift_permutation

__version__ = "0.1.0"
