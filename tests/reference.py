"""Definitions that only the tests use: the full Moebius table of a poset
and the unique rising maximal chain of an edge labeling."""

from ncpe.labelings import EdgeLabeling, is_rising
from ncpe.posets import FinitePoset


def moebius_table(p: FinitePoset) -> dict[tuple[int, int], int]:
    """mu(x, y) for every comparable pair, keyed by element positions."""
    return {(x, y): v for y in range(len(p.keys))
            for x, v in p._moebius_to(y).items()}


def unique_rising_chain(p: FinitePoset, labeling: EdgeLabeling) -> tuple[int, ...]:
    """The one maximal chain whose label word strictly increases."""
    rising = [c for c in p.iter_maximal_chains() if is_rising(labeling.word(c))]
    assert len(rising) == 1, f"expected one rising maximal chain, found {len(rising)}"
    return rising[0]
