"""Exact chromatic symmetric function computations for incomparability
graphs of finite posets: monomial and Schur expansions, chain-partition
counting, and the nice property with certificates.

The exports resolve on first use (PEP 562): ``import chromaposet`` loads
only the exception types, and any other name imports its module when it
is first looked up."""

import importlib

from .errors import DomainError, DslParseError, InternalInvariantError

__version__ = "0.1.0"

_EXPORTS = {
    "errors": ("DomainError", "DslParseError", "InternalInvariantError"),
    "counting": (
        "ChainPartitionCounter",
        "StablePartitionCounter",
        "proof_case_closed_forms",
        "scp_closed_form",
        "staircase_delta",
        "staircase_type",
    ),
    "nice": (
        "ChainPartitionCertificate",
        "NiceVerdict",
        "chain_partition_exists",
        "is_nice",
        "ordinal_sum_chain_partition",
    ),
    "partitions": (
        "Partition",
        "as_partition",
        "dominance_leq",
        "format_partition",
        "parse_partition",
        "partitions_of",
        "rearrangement_count",
        "sorted_partition",
    ),
    "posets": (
        "B3",
        "Boolean",
        "Chain",
        "Graph",
        "OrdinalSum",
        "Poset",
        "PosetSpec",
        "Product",
        "build_poset",
        "incomparability_graph",
        "parse_poset_spec",
        "verify_distributive_lattice",
    ),
    "rimhooks": (
        "SpecialRimHookTabloid",
        "TabloidFamily",
        "enumerate_srht",
        "inverse_kostka",
        "kostka_number",
        "render_tabloid",
        "signed_contents",
    ),
    "schur": (
        "count_colorings_by_type",
        "count_proper_colorings",
        "monomial_expansion",
        "rho_shape",
        "schur_at_ones",
        "schur_coefficient",
        "schur_expansion",
        "theorem41_coefficient",
        "witness_coefficient_from_cases",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
