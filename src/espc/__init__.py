"""Equal-split piecewise-constant learned index for rank queries.

A lookup predicts the rank of a key with one stored estimate per
equal-length interval, then corrects the prediction exactly with an
exponential search.  The package also ships the matching error-bound
calculators, an estimator for the density norm that drives those
bounds, dataset tooling, and a benchmark harness.
"""

from .bench import (
    BenchConfig,
    BenchRecord,
    bound_violations,
    emit_csv,
    measure_space,
    run_error_experiment,
)
from .core import (
    FLOAT_MODE,
    INT_MODE,
    KeyArray,
    Rank,
    rank_bruteforce,
    validate_key_array,
)
from .data import (
    DatasetSpec,
    generate,
    read_sosd,
    rescale_unit,
    subsample,
    write_sosd,
)
from .index import (
    EspcIndex,
    HierIndex,
    SizingPolicy,
    build_equal_probability,
    build_espc,
    choose_k,
    deserialize_index,
    evaluate_rank,
    evaluate_rank_hier,
    evaluate_rank_many,
    load_index,
    locate_interval,
    predict,
    predict_many,
    save_index,
    serialize_index,
)
from .search import SearchOutcome, binary_search_rank, exponential_search, exponential_search_many
from .stats import (
    DensityEstimate,
    PartitionProfile,
    RhoEstimate,
    error_bound_partition,
    error_bound_query_dist,
    error_bound_rho,
    estimate_rho,
    fd_bin_width,
    histogram_density,
    kde_density,
    log_error_entropy_bound,
    partition_probabilities,
    renyi_entropy_2,
)

__version__ = "0.1.0"
