"""Every parameter that cannot be read raises a typed error.

Integer parameters follow one rule (``espc.core._integer``): a Python or numpy
integer, not a bool, in the parameter's range.  Real-valued ones follow another
(``espc.core._real``): a real number, not a bool, in the parameter's range, which
NaN is never in.  A table holds one row for every integer parameter and field that
``espc`` exports, and another for every real-valued one; guards walk the exports so
that a new one cannot go unchecked.
"""

import dataclasses
import inspect
import math
import re
import typing
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import espc
from espc.bench import CSV_COLUMNS, BenchConfig, run_error_experiment
from espc.core import FLOAT_MODE, INT_MODE, rank_bruteforce, validate_key_array
from espc.data import DatasetSpec, generate, subsample
from espc.errors import (
    InvalidK,
    InvalidM,
    InvalidParams,
    InvalidPolicyParams,
    InvalidWidth,
    StartOutOfRange,
)
from espc.index import (
    MAX_KEYS,
    EspcIndex,
    HierIndex,
    SizingPolicy,
    build_equal_probability,
    build_espc,
    choose_k,
    evaluate_rank,
    evaluate_rank_hier,
    locate_interval,
    predict,
    serialize_index,
)
from espc.search import binary_search_rank, exponential_search, exponential_search_many
from espc.stats import (
    KERNEL,
    error_bound_partition,
    error_bound_query_dist,
    error_bound_rho,
    estimate_rho,
    histogram_density,
    kde_density,
    log_error_entropy_bound,
    partition_probabilities,
    renyi_entropy_2,
)

A = validate_key_array(np.linspace(0.0, 1.0, 50), FLOAT_MODE)
PROFILE = partition_probabilities(A, 0.0, 1.0, 4)
IDX = build_espc(A, 8)
HIER = build_equal_probability(A, 5, 3)
INT_A = validate_key_array([1, 2, 3], INT_MODE)
SLOTS = np.array([1, 3], dtype=np.uint32)
# Made by the package, never passed in.
OUTPUT_RECORDS = {"BenchRecord", "SearchOutcome", "RhoEstimate", "DensityEstimate"}


def _bench(**fields) -> list:
    """The bench rows' CSV cells, without the wall-clock columns."""
    cfg = {"dataset": DatasetSpec("uniform", n=400), "n_sub": 300, "k_grid": (16,),
           "queries": 64, **fields}
    return [[str(getattr(r, c)) for c in CSV_COLUMNS if c not in ("build_ms", "query_ns")]
            for r in run_error_experiment(BenchConfig(**cfg))]


def _hier(h: HierIndex) -> tuple:
    ranks = [evaluate_rank_hier(h, A, q) for q in A.keys[::3]]
    return h.boundaries.keys.tobytes(), serialize_index(h.top), repr(ranks)


# "<export>.<parameter>": (call with the value, typed error, an out-of-range value, a valid value)
ROWS = {
    "build_espc.k": (lambda v: serialize_index(build_espc(A, v)), InvalidK, 0, 7),
    "build_equal_probability.k": (lambda v: _hier(build_equal_probability(A, v, 3)), InvalidK,
                                  A.n + 1, 5),
    "build_equal_probability.k_top": (lambda v: _hier(build_equal_probability(A, 5, v)),
                                      InvalidK, 0, 3),
    "choose_k.n": (lambda v: repr(choose_k(SizingPolicy("sublinear"), v)),
                   InvalidPolicyParams, 1, 1000),
    "subsample.m": (lambda v: subsample(A, v).keys.tobytes(), InvalidM, A.n + 1, 10),
    "subsample.seed": (lambda v: subsample(A, 10, seed=v).keys.tobytes(), InvalidParams, -1, 3),
    "exponential_search.i": (lambda v: repr(exponential_search(A, v, 0.5)), StartOutOfRange,
                             A.n + 1, 10),
    "partition_probabilities.k": (lambda v: partition_probabilities(A, 0.0, 1.0, v).p.tobytes(),
                                  InvalidK, 0, 4),
    "error_bound_partition.n": (lambda v: repr(error_bound_partition(v, PROFILE)),
                                InvalidParams, 0, 50),
    "error_bound_rho.n": (lambda v: repr(error_bound_rho(v, 4, 0.0, 1.0, 1.2)),
                          InvalidParams, 0, 50),
    "error_bound_rho.k": (lambda v: repr(error_bound_rho(50, v, 0.0, 1.0, 1.2)), InvalidK, 0, 4),
    "error_bound_query_dist.n": (lambda v: repr(error_bound_query_dist(v, 4, 0.0, 1.0, 1.2, 2.0)),
                                 InvalidParams, 0, 50),
    "error_bound_query_dist.k": (lambda v: repr(error_bound_query_dist(50, v, 0.0, 1.0, 1.2, 2.0)),
                                 InvalidK, 0, 4),
    "log_error_entropy_bound.n": (lambda v: repr(log_error_entropy_bound(v, PROFILE)),
                                  InvalidParams, 0, 50),
    "DatasetSpec.n": (lambda v: generate(DatasetSpec("uniform", n=v)).keys.tobytes(),
                      InvalidParams, 0, 20),
    "DatasetSpec.seed": (lambda v: generate(DatasetSpec("uniform", n=20, seed=v)).keys.tobytes(),
                         InvalidParams, -1, 2),
    "BenchConfig.n_sub": (lambda v: _bench(n_sub=v), InvalidParams, -1, 300),
    "BenchConfig.k_grid": (lambda v: _bench(k_grid=(v,)), InvalidK, 0, 16),  # each entry
    "BenchConfig.queries": (lambda v: _bench(queries=v), InvalidParams, 0, 64),
    "BenchConfig.seed": (lambda v: _bench(seed=v), InvalidParams, -1, 5),
    "EspcIndex.n": (lambda v: serialize_index(EspcIndex(x_first=0.0, x_last=1.0, n=v,
                                                        t=np.array([1, 3], dtype=np.uint32))),
                    InvalidParams, MAX_KEYS + 1, 2),
    "HierIndex.n": (lambda v: _hier(HierIndex(HIER.boundaries, HIER.top, v)), InvalidK,
                    HIER.K - 1, A.n),
}


@pytest.mark.parametrize("row", sorted(ROWS))
def test_integer_parameter_refuses_what_is_not_an_integer_in_range(row):
    call, error, out_of_range, _ = ROWS[row]
    for bad in (2.5, "3", None, True, out_of_range):
        with pytest.raises(error, match=f"must be an integer in .*, got {re.escape(repr(bad))}$"):
            call(bad)


@pytest.mark.parametrize("row", sorted(ROWS))
def test_integer_parameter_reads_numpy_integers_as_python_ints(row):
    call, _, _, valid = ROWS[row]
    expected = call(valid)
    for kind in (np.int64, np.uint32):
        assert call(kind(valid)) == expected


def _exported_parameters(hints_of_kind) -> set:
    """"<export>.<parameter>" for each parameter or field of an export annotated as one of
    ``hints_of_kind``."""
    found = set()
    for name in dir(espc):
        obj = getattr(espc, name)
        if name.startswith("_") or name in OUTPUT_RECORDS:
            continue
        if not getattr(obj, "__module__", "").startswith("espc."):  # e.g. Rank, which is int
            continue
        if not (inspect.isfunction(obj) or dataclasses.is_dataclass(obj)):
            continue
        hints = typing.get_type_hints(obj)
        hints.pop("return", None)
        found |= {f"{name}.{p}" for p, hint in hints.items() if hint in hints_of_kind}
    return found


def test_every_exported_integer_parameter_has_a_row():
    found = _exported_parameters((int, tuple[int, ...]))
    assert found >= {"build_espc.k", "BenchConfig.k_grid", "EspcIndex.n"}  # the walk sees them
    assert found - set(ROWS) == set(), "add a row for each new integer parameter"
    assert set(ROWS) - found == set(), "a row names no exported integer parameter"


# "<export>.<parameter>": (call with the value, typed error, an out-of-range value, a valid value)
REAL_ROWS = {
    "partition_probabilities.a": (lambda v: partition_probabilities(A, v, 1.0, 4).p.tobytes(),
                                  InvalidParams, -math.inf, 0.0),
    "partition_probabilities.b": (lambda v: partition_probabilities(A, 0.0, v, 4).p.tobytes(),
                                  InvalidParams, math.inf, 1.0),
    "error_bound_rho.a": (lambda v: repr(error_bound_rho(50, 4, v, 1.0, 1.2)),
                          InvalidParams, -math.inf, 0.0),
    "error_bound_rho.b": (lambda v: repr(error_bound_rho(50, 4, 0.0, v, 1.2)),
                          InvalidParams, math.inf, 1.0),
    "error_bound_rho.rho": (lambda v: repr(error_bound_rho(50, 4, 0.0, 1.0, v)),
                            InvalidParams, -1.0, 1.2),
    "error_bound_query_dist.a": (lambda v: repr(error_bound_query_dist(50, 4, v, 1.0, 1.2, 2.0)),
                                 InvalidParams, -math.inf, 0.0),
    "error_bound_query_dist.b": (lambda v: repr(error_bound_query_dist(50, 4, 0.0, v, 1.2, 2.0)),
                                 InvalidParams, math.inf, 1.0),
    "error_bound_query_dist.rho_keys": (
        lambda v: repr(error_bound_query_dist(50, 4, 0.0, 1.0, v, 2.0)), InvalidParams, -1.0, 1.2),
    "error_bound_query_dist.rho_queries": (
        lambda v: repr(error_bound_query_dist(50, 4, 0.0, 1.0, 1.2, v)), InvalidParams, -1.0, 2.0),
    "histogram_density.width": (lambda v: histogram_density(A, v).heights.tobytes(),
                                InvalidWidth, 0.0, 0.1),
    "kde_density.bandwidth": (lambda v: kde_density(A, v).heights.tobytes(),
                              InvalidParams, math.inf, 0.1),
    "estimate_rho.bandwidth": (lambda v: repr(estimate_rho(A, method=KERNEL, bandwidth=v)),
                               InvalidParams, 0.0, 0.1),
    "renyi_entropy_2.base": (lambda v: repr(renyi_entropy_2(PROFILE, base=v)),
                             InvalidParams, -2.0, 2.0),
    "log_error_entropy_bound.base": (lambda v: repr(log_error_entropy_bound(A.n, PROFILE, base=v)),
                                     InvalidParams, math.inf, 2.0),
    "EspcIndex.x_first": (lambda v: serialize_index(EspcIndex(x_first=v, x_last=1.0, n=2, t=SLOTS)),
                          InvalidParams, -math.inf, 0.0),
    "EspcIndex.x_last": (lambda v: serialize_index(EspcIndex(x_first=0.0, x_last=v, n=2, t=SLOTS)),
                         InvalidParams, math.inf, 1.0),
    "EspcIndex.shift": (lambda v: serialize_index(EspcIndex(x_first=0.0, x_last=1.0, n=2, t=SLOTS,
                                                            shift=v)),
                        InvalidParams, 0.0, -1.0),  # below x_first
}
OPTIONAL = _exported_parameters((float | None,))  # None is a valid value of these


@pytest.mark.parametrize("row", sorted(REAL_ROWS))
def test_real_parameter_refuses_what_is_not_a_real_number_in_range(row):
    call, error, out_of_range, _ = REAL_ROWS[row]
    refused = ["0.5", 1j, True, math.nan, out_of_range] + ([] if row in OPTIONAL else [None])
    for bad in refused:
        message = f"must be a real number in .*, got {re.escape(repr(bad))}$"
        with pytest.raises(error, match=message):
            call(bad)


@pytest.mark.parametrize("row", sorted(REAL_ROWS))
def test_real_parameter_reads_numpy_and_integer_values_as_floats(row):
    call, _, _, valid = REAL_ROWS[row]
    expected = call(valid)
    for kind in (np.float64, np.float32):
        if float(kind(valid)) == valid:  # 0.1 is no float32
            assert call(kind(valid)) == expected
    if valid == int(valid):
        assert call(int(valid)) == expected


def test_every_exported_real_parameter_has_a_row():
    found = _exported_parameters((float, float | None))
    assert found >= {"error_bound_rho.rho", "kde_density.bandwidth"}  # the walk sees them
    assert found - set(REAL_ROWS) == set(), "add a row for each new real-valued parameter"
    assert set(REAL_ROWS) - found == set(), "a row names no exported real-valued parameter"


class TestTypedFields:
    """A field whose value is not of its type is refused when its structure is made."""

    BENCH = {"dataset": DatasetSpec("uniform", n=400), "n_sub": 300, "k_grid": (16,),
             "queries": 64}

    @pytest.mark.parametrize("field, bad", [
        ("dataset", "uniform"), ("dataset", None), ("query_dist", "uniform"),
        ("rho_method", "histogramm"), ("rho_method", 5), ("rho_method", None),
        ("rescale", "no"), ("rescale", 0), ("rescale", None),
        ("output", 1), ("output", b"rows.csv"),  # 1: a file descriptor, which would be closed
    ])
    def test_bench_config_refuses_a_field_of_another_type(self, field, bad):
        message = f"^{field} must be .*, got {re.escape(repr(bad))}$"
        with pytest.raises(InvalidParams, match=message):
            BenchConfig(**{**self.BENCH, field: bad})

    def test_bench_config_takes_each_type_its_fields_allow(self, tmp_path):
        cfg = BenchConfig(**self.BENCH, query_dist=DatasetSpec("beta22"), rho_method=KERNEL,
                          rescale=False, output=tmp_path / "rows.csv")
        assert len(run_error_experiment(cfg)) == 1
        assert (tmp_path / "rows.csv").read_text().startswith(",".join(CSV_COLUMNS))
        for output in (None, str(tmp_path / "other.csv")):
            assert BenchConfig(**self.BENCH, output=output).output == output

    def test_hier_index_refuses_a_layer_of_another_type(self):
        with pytest.raises(InvalidParams, match="^boundaries must be KeyArray, got array"):
            HierIndex(HIER.boundaries.keys, HIER.top, HIER.n)
        with pytest.raises(InvalidParams, match="^top must be EspcIndex, got HierIndex"):
            HierIndex(HIER.boundaries, HIER, HIER.n)


class TestContainers:
    def test_k_grid_that_is_not_a_sequence_raises_invalid_k(self):
        with pytest.raises(InvalidK, match="k_grid must be a tuple of integers, got 5$"):
            BenchConfig(DatasetSpec("uniform", n=400), k_grid=5)

    def test_dataset_params_that_are_not_a_mapping_raise_invalid_params(self):
        for params in (None, [("mu", 1.0)], "mu"):
            with pytest.raises(InvalidParams, match="params must be a mapping"):
                DatasetSpec("uniform", params=params)

    @pytest.mark.parametrize("name", ["mu", "sigma"])
    def test_distribution_params_follow_the_real_rule(self, name):
        for bad in ("1", None, True, math.nan, math.inf):
            with pytest.raises(InvalidParams, match=f"^{name} must be a real number in"):
                generate(DatasetSpec("lognormal", n=10, params={name: bad}))
        assert (generate(DatasetSpec("lognormal", n=10, params={name: np.float32(1.0)})).keys
                == generate(DatasetSpec("lognormal", n=10, params={name: 1})).keys).all()


class TestScalarQueries:
    INT_IDX, INT_HIER = build_espc(INT_A, 2), build_equal_probability(INT_A, 2, 1)
    CALLS = {
        "evaluate_rank": lambda q: evaluate_rank(IDX, A, q),
        "evaluate_rank_hier": lambda q: evaluate_rank_hier(HIER, A, q),
        "binary_search_rank": lambda q: binary_search_rank(A, q),
        "exponential_search": lambda q: exponential_search(A, 0, q),
        "predict": lambda q: predict(IDX, q),
        "locate_interval": lambda q: locate_interval(IDX, q),
        "rank_bruteforce": lambda q: rank_bruteforce(A, q),
        # Integer keys compare a query as it is given.
        "int_evaluate_rank": lambda q: evaluate_rank(TestScalarQueries.INT_IDX, INT_A, q),
        "int_evaluate_rank_hier": lambda q: evaluate_rank_hier(TestScalarQueries.INT_HIER,
                                                               INT_A, q),
        "int_binary_search_rank": lambda q: binary_search_rank(INT_A, q),
        "int_exponential_search": lambda q: exponential_search(INT_A, 0, q),
        "int_rank_bruteforce": lambda q: rank_bruteforce(INT_A, q),
    }

    @pytest.mark.parametrize("path", sorted(CALLS))
    def test_a_query_that_is_not_a_number_raises_invalid_params(self, path):
        # float() reads "0.5", b"0.5" and, with a ComplexWarning, np.complex128(0.5).
        for q in (None, 1j, "x", [0.5], "0.5", np.str_("0.5"), b"0.5", bytearray(b"0.5"),
                  np.complex128(0.5), np.complex64(0.5)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(InvalidParams, match="is not a number"):
                    self.CALLS[path](q)

    KEYS = {
        "float": validate_key_array([0.0, 1.0, 2.0, 3.0, 10.0], FLOAT_MODE),
        "int": validate_key_array([0, 1, 2, 3, 10], INT_MODE),
        "int_past_int64": validate_key_array([0, 1, 2, 3, 2**63 + 5], INT_MODE),
    }
    QUERIES = {"np.True_": np.True_, "np.False_": np.False_, "True": True,
               "Decimal": Decimal("2.5"), "Fraction": Fraction(5, 2),
               "float16": np.float16(2.5), "float32": np.float32(0.1), "int8": np.int8(2)}

    @pytest.mark.parametrize("query", sorted(QUERIES))
    @pytest.mark.parametrize("keys", sorted(KEYS))
    def test_every_path_gives_the_oracle_answer(self, keys, query):
        # A Decimal is no numbers.Real, so integer keys refuse it; float keys read float(q).
        A, q = self.KEYS[keys], self.QUERIES[query]
        idx, hier = build_espc(A, 3), build_equal_probability(A, 2, 1)
        paths = (lambda: rank_bruteforce(A, q), lambda: evaluate_rank(idx, A, q).rank,
                 lambda: evaluate_rank_hier(hier, A, q).rank,
                 lambda: binary_search_rank(A, q).rank, lambda: exponential_search(A, 2, q).rank)
        answers = []
        for path in paths:
            try:
                answers.append(path())
            except InvalidParams as exc:
                answers.append(str(exc))
        assert answers == [answers[0]] * len(paths)
        assert (answers[0] == f"query {q!r} is not a number") == (query == "Decimal"
                                                                  and keys != "float")

    def test_every_exported_scalar_query_path_has_a_call(self):
        # By parameter name, since q has no annotation.
        found = {name for name in dir(espc) if not name.startswith("_")
                 and inspect.isfunction(getattr(espc, name))
                 and "q" in inspect.signature(getattr(espc, name)).parameters}
        assert found >= {"evaluate_rank", "rank_bruteforce"}  # the walk sees them
        assert found - set(self.CALLS) == set(), "add a CALLS entry for each new scalar query path"

    def test_integer_keys_compare_a_fraction_exactly(self):
        # 2^60 + 1 has no float64; the refusal of non-numbers must not round it.
        keys = validate_key_array([2**60, 2**60 + 1], INT_MODE)
        q = Fraction(2**60 + 1)
        idx, hier = build_espc(keys, 2), build_equal_probability(keys, 2, 1)
        assert rank_bruteforce(keys, q) == 2
        for out in (evaluate_rank(idx, keys, q), evaluate_rank_hier(hier, keys, q),
                    binary_search_rank(keys, q), exponential_search(keys, 0, q)):
            assert out.rank == 2


class TestFloatParameters:
    def test_width_and_bandwidth_must_be_numbers(self):
        with pytest.raises(InvalidWidth):
            histogram_density(A, "0.1")
        with pytest.raises(InvalidParams, match="bandwidth"):
            kde_density(A, "0.1")
        with pytest.raises(InvalidParams, match="bandwidth"):
            estimate_rho(A, method=KERNEL, bandwidth="0.1")

    @pytest.mark.parametrize("base", [1, 0, -1, math.nan, math.inf, "2", True])
    def test_log_base_must_be_positive_finite_and_not_one(self, base):
        with pytest.raises(InvalidParams, match="log base"):
            renyi_entropy_2(PROFILE, base=base)
        with pytest.raises(InvalidParams, match="log base"):
            log_error_entropy_bound(A.n, PROFILE, base=base)

    def test_log_base_two_reads_bits(self):
        bits = renyi_entropy_2(PROFILE, base=2)
        assert bits == renyi_entropy_2(PROFILE) / math.log(2) == renyi_entropy_2(PROFILE, 2.0)
        assert log_error_entropy_bound(A.n, PROFILE, base=np.float64(2.0)) == (
            math.log(1.5 * A.n) / math.log(2) - bits)

    def test_rho_must_be_a_number_at_least_zero(self):
        for rho in (math.nan, -1.0, "1"):
            with pytest.raises(InvalidParams, match="rho"):
                error_bound_rho(50, 4, 0.0, 1.0, rho)
            for pair in ((rho, 1.0), (1.0, rho)):
                with pytest.raises(InvalidParams, match="rho"):
                    error_bound_query_dist(50, 4, 0.0, 1.0, *pair)


class TestBatchedStarts:
    @pytest.mark.parametrize("starts", [[2.7], ["3"], [True], [math.nan], np.array([1.0])],
                             ids=["fraction", "text", "bool", "nan", "float_array"])
    def test_starts_must_be_an_integer_array(self, starts):
        with pytest.raises(StartOutOfRange, match="integer array"):
            exponential_search_many(A, starts, [0.5])

    def test_integer_arrays_of_any_width_agree(self):
        qs = A.keys[::7]
        starts = np.arange(len(qs)) * 5
        ranks, counts = exponential_search_many(A, starts, qs)
        for dtype in (np.uint8, np.int32, np.uint64):
            got = exponential_search_many(A, starts.astype(dtype), qs)
            assert got[0].tolist() == ranks.tolist() and got[1].tolist() == counts.tolist()
        scalar = [exponential_search(A, int(i), q) for i, q in zip(starts, qs)]
        assert ranks.tolist() == [out.rank for out in scalar]
        assert exponential_search_many(A, [], [])[0].size == 0
