"""Exact combinatorics of noncrossing partition lattices, a distinguished
sublattice on the PE family, Moebius computations by three independent
methods, and exhaustive shellability verification."""

from .builders import (BuildError, build_nc, build_pe_dref, build_pi, catalan,
                       distinguished_chain, enumerate_noncrossing,
                       enumerate_partitions, is_pe_member, pe_join, pe_members)
from .labelings import (EdgeLabeling, LabelingError, left_modular_labeling,
                        parking_label, parking_labeling, usual_labeling,
                        verify_el, verify_sn_el)
from .nbb import (Atom, classification_census, classify_base,
                  enumerate_nbb_bases_top, moebius_via_nbb)
from .parking import build_pe_pchn, count_D
from .partitions import PartitionError, SetPartition, nc_join, parse_partition
from .posets import FinitePoset, PosetError

__version__ = "1.0.0"

__all__ = [
    "Atom", "BuildError", "EdgeLabeling", "FinitePoset", "LabelingError",
    "PartitionError", "PosetError", "SetPartition", "build_nc",
    "build_pe_dref", "build_pe_pchn", "build_pi", "catalan",
    "classification_census", "classify_base", "count_D",
    "distinguished_chain", "enumerate_nbb_bases_top", "enumerate_noncrossing",
    "enumerate_partitions", "is_pe_member", "left_modular_labeling",
    "moebius_via_nbb", "nc_join", "parking_label", "parking_labeling",
    "parse_partition", "pe_join", "pe_members", "usual_labeling", "verify_el",
    "verify_sn_el",
]
