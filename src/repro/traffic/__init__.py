"""Workload generation: flow specs, arrival processes, size distributions."""

from .distributions import (
    DATA_MINING_CDF,
    EmpiricalCDF,
    WEB_SEARCH_CDF,
    bounded_pareto,
    data_mining_flow_sizes,
    exponential,
    pareto,
    sample_many,
    web_search_flow_sizes,
)
from .flows import FlowSpec
from .generators import (
    backlogged_arrivals,
    cbr_arrivals,
    flow_arrivals,
    merge_arrivals,
    onoff_arrivals,
    poisson_arrivals,
    total_bytes,
)

__all__ = [
    "FlowSpec",
    "cbr_arrivals",
    "poisson_arrivals",
    "onoff_arrivals",
    "backlogged_arrivals",
    "flow_arrivals",
    "merge_arrivals",
    "total_bytes",
    "EmpiricalCDF",
    "WEB_SEARCH_CDF",
    "DATA_MINING_CDF",
    "web_search_flow_sizes",
    "data_mining_flow_sizes",
    "exponential",
    "pareto",
    "bounded_pareto",
    "sample_many",
]
