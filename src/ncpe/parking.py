"""The chain-defined order on the PE family.

The parking labeling sends each maximal chain of the noncrossing
lattice to a parking function of length n-1 (bijectively).  By
definition, the chain-defined order is the cover union of the chains
whose word avoids n-1; it is built here as the dual refinement order
on PE minus its covers labeled n-1, so the avoiding chains are its
maximal chains.  The definition itself (enumerate the chains of the
noncrossing lattice and keep the avoiding ones) is the test oracle.
The order is graded but not a lattice for n >= 5, its Moebius value
between bottom and top is 0, and the restricted left-modular labeling
is still an EL-labeling.
"""

from __future__ import annotations

from .builders import build_pe_dref, check_size
from .labelings import parking_label
from .posets import FinitePoset


def build_pe_pchn(n: int, pe: FinitePoset | None = None) -> FinitePoset:
    """The chain-defined order on the PE ground set: the covers of the
    PE-dref poset `pe` (built here if not given) whose parking label is
    not n-1, closed transitively."""
    check_size("pe-pchn", n)
    pe = build_pe_dref(n) if pe is None else pe
    return FinitePoset.from_covers(
        pe.keys, [(i, j) for i, j in pe.covers
                  if parking_label(pe.keys[i], pe.keys[j]) != n - 1])


def count_D(n: int) -> int:
    """Size of the avoiding-chain family without storing chains: path
    count from bottom to top of the chain-defined order."""
    return build_pe_pchn(n).maximal_chain_count()
