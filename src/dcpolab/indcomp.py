"""Directed families over a finite poset, the exceeds preorder, and its quotient.

Quantifiers over "all directed families" range over all directed subsets of
the host: every directed family in a finite poset exceeds, and is exceeded by,
the family carried by its image, so the subsets are a complete set of
representatives (README, "finite semantics").

Everything below reads one fact of every preorder: family a exceeds family b
exactly when a's down-closure (the host elements below some member of a) lies
inside b's, by reflexivity one way and transitivity the other.  So a family
travels as the bitmask of its image, and each check is a mask operation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotDirected
from .finposet import FinPoset, _bits, directed_sup, is_directed
from .waybelow import approximates


@dataclass(frozen=True)
class DirectedFamily:
    """An index list plus a map into the host poset, required directed."""

    poset: FinPoset
    labels: tuple
    mapping: dict

    def __post_init__(self):
        if not is_directed(self.poset, self.image_names()):
            raise NotDirected(f"family image {self.image_names()} is not directed")

    @classmethod
    def from_names(cls, poset, names) -> "DirectedFamily":
        names = tuple(names)
        return cls(poset, names, {x: x for x in names})

    def value(self, label):
        return self.mapping[label]

    def image_names(self):
        return tuple(self.mapping[i] for i in self.labels)

    def sup(self):
        return directed_sup(self.poset, self.image_names())


def _image(poset: FinPoset, fam) -> int:
    """The bitmask of the host elements a family takes as values."""
    return poset.mask_of(fam.image_names())


def _down(poset: FinPoset, fam) -> int:
    """The bitmask of the host elements below some member of a family: those
    whose up-set meets its image."""
    image = _image(poset, fam)
    return sum(1 << u for u, up in enumerate(poset.up_masks) if up & image)


def exceeds(poset: FinPoset, low: DirectedFamily, high: DirectedFamily) -> bool:
    """Every member of the low family sits below some member of the high one."""
    high_image, up = _image(poset, high), poset.up_masks
    return all(up[v] & high_image for v in _bits(_image(poset, low)))


def mutually_exceed(poset, a, b) -> bool:
    return exceeds(poset, a, b) and exceeds(poset, b, a)


def ind_sup(poset: FinPoset, families: dict) -> DirectedFamily:
    """Supremum of a directed family of families: the disjoint-union family.

    ``families`` maps outer labels to DirectedFamily values; the outer family
    must be directed with respect to exceeds: the down-closures of every two
    inner families lie inside the down-closure of a third.
    """
    if not families:
        raise NotDirected("no inner families given")
    closures = {_down(poset, fam) for fam in families.values()}
    for a in closures:
        for b in closures:
            if not any(not (a | b) & ~c for c in closures):
                raise NotDirected("outer family is not directed under exceeds")
    labels = tuple((i, j) for i, fam in families.items() for j in fam.labels)
    mapping = {(i, j): families[i].value(j) for (i, j) in labels}
    return DirectedFamily(poset, labels, mapping)


def sup_map_monotone_check(poset: FinPoset, low: DirectedFamily, high: DirectedFamily) -> bool:
    """Exceeding families have comparable suprema."""
    if not exceeds(poset, low, high):
        return True
    return poset.le(low.sup(), high.sup())


def all_directed_subset_families(poset: FinPoset):
    """Every directed subset of the host, as a family; canonical order."""
    dmasks, _ = poset.directed_table
    return [DirectedFamily.from_names(poset, poset.names_of(int(m))) for m in dmasks]


def is_left_adjunct(poset: FinPoset, fam: DirectedFamily, x) -> bool:
    """fam <= beta exactly when x is below sup(beta), for every directed beta.

    Decided for every directed subset of ``directed_table`` at once: beta
    exceeds fam when it meets the up-set of each member of fam.
    """
    xi = poset.index(x)
    dmasks, sups = poset.directed_table
    exceeded = np.ones(len(dmasks), dtype=bool)
    for v in _bits(_image(poset, fam)):
        exceeded &= (dmasks & poset.up_masks[v]) != 0
    return bool((exceeded == poset.leq[xi, sups]).all())


def poset_reflection(poset: FinPoset, families) -> tuple:
    """Quotient the given families by mutual exceeds.

    Two families share a class exactly when their down-closures are equal,
    and one class is below another when its closure lies inside the other's.
    Returns the quotient FinPoset (ordered by exceeds) together with the list
    of class names, parallel to the input.  Class representatives are the
    lexicographically least sorted image among the members.
    """
    families = list(families)
    closures = [_down(poset, fam) for fam in families]
    reps: dict[int, tuple] = {}
    for fam, closure in zip(families, closures):
        image = tuple(sorted(fam.image_names()))
        reps[closure] = min(reps.get(closure, image), image)
    names = {closure: "{" + ",".join(rep) + "}" for closure, rep in reps.items()}
    order = sorted(names, key=names.get)
    leq = [[not a & ~b for b in order] for a in order]
    quotient = FinPoset(tuple(names[c] for c in order), leq)
    return quotient, [names[c] for c in closures]


def approximating_class_is_unique_adjunct(poset: FinPoset, families, x) -> bool:
    """In the quotient, approximating families of x form exactly one class and
    it is the only one left adjunct to x."""
    adjunct_classes = set()
    approx_classes = set()
    _, class_names = poset_reflection(poset, families)
    for fam, cname in zip(families, class_names):
        if is_left_adjunct(poset, fam, x):
            adjunct_classes.add(cname)
        if approximates(poset, fam, x):
            approx_classes.add(cname)
    return adjunct_classes == approx_classes and len(adjunct_classes) <= 1
