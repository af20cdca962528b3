"""Towers of section/retraction pairs and their finite bilimits.

A linear tower D0 <| D1 <| ... <| Dn generates a bilimit whose elements are
the compatible tuples; for a finite linear tower that poset is isomorphic to
the top stage, and the isomorphism is constructed and verified rather than
assumed.

The function-space tower starts from the two-point chain and iterates the
exponential, with the standard pair recursion fixed bit-for-bit: the base
embedding sends a point to the constant map at it, the base projection
evaluates at bottom, and each next pair conjugates by the previous one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .canonex import sierpinski
from .errors import IncompatibleTower, NotABasis, NotApproximating, StageTooLarge
from .finposet import EpPair, FinPoset, MonoMap, componentwise_leq, is_order_isomorphism
from .finposet import _pulled_back, mono_compose, validate_ep_pair
from .indcomp import DirectedFamily
from .waybelow import (
    BasisMap,
    approximates,
    check_small_basis,
    check_small_compact_basis,
    way_below_matrix,
)


@dataclass(frozen=True)
class Tower:
    """Stages with a validated section/retraction pair between neighbours."""

    stages: tuple
    pairs: tuple

    def __post_init__(self):
        if len(self.pairs) != max(len(self.stages) - 1, 0):
            raise IncompatibleTower("need exactly one pair per neighbouring stage")
        for k, pair in enumerate(self.pairs):
            if pair.embed.source != self.stages[k] or pair.embed.target != self.stages[k + 1]:
                raise IncompatibleTower(f"pair {k} does not join stages {k} and {k + 1}")
            if not validate_ep_pair(pair):
                raise IncompatibleTower(f"pair {k} fails the section/deflation laws")

    @property
    def top(self) -> FinPoset:
        return self.stages[-1]

    def embed_between(self, i: int, j: int) -> MonoMap:
        out = MonoMap.identity(self.stages[i])
        for k in range(i, j):
            out = mono_compose(self.pairs[k].embed, out)
        return out

    def project_between(self, j: int, i: int) -> MonoMap:
        out = MonoMap.identity(self.stages[j])
        for k in range(j - 1, i - 1, -1):
            out = mono_compose(self.pairs[k].project, out)
        return out


def scott_tower(n: int, *, unsafe: bool = False) -> Tower:
    """The function-space tower over the two-point chain, up to stage n."""
    from .expo import exponential

    if n > 2 and not unsafe:
        raise StageTooLarge("stage 3 and beyond exceed desk scale; pass unsafe to attempt")
    base, _ = sierpinski()
    stages = [base]
    pairs = []
    prev_pair = None
    for _ in range(n):
        below = stages[-1]
        expo = exponential(below, below)
        if prev_pair is None:
            embed = MonoMap(base, expo.poset, [expo.index_of((x,) * base.n) for x in range(base.n)])
            project = MonoMap(expo.poset, base, expo.graphs[:, base.bottom].tolist())
        else:
            e, p = np.asarray(prev_pair.embed.graph), np.asarray(prev_pair.project.graph)
            up = [expo.index_of(g) for g in e[prev_expo.graphs[:, p]].tolist()]
            down = [prev_expo.index_of(g) for g in p[expo.graphs[:, e]].tolist()]
            embed = MonoMap(prev_expo.poset, expo.poset, up)
            project = MonoMap(expo.poset, prev_expo.poset, down)
        pair = EpPair(embed=embed, project=project)
        stages.append(expo.poset)
        pairs.append(pair)
        prev_pair, prev_expo = pair, expo
    return Tower(tuple(stages), tuple(pairs))


@dataclass(frozen=True)
class Bilimit:
    """Compatible tuples over a tower, with the verified top-stage isomorphism."""

    tower: Tower
    poset: FinPoset
    tuples: tuple
    iso_from_top: MonoMap

    def component(self, name, i: int):
        return self.tuples[self.poset.index(name)][i]

    def embed_infinity(self, i: int) -> MonoMap:
        """The stage-i elements inside the bilimit."""
        top_index = len(self.tower.stages) - 1
        up = self.tower.embed_between(i, top_index)
        return mono_compose(self.iso_from_top, up)

    def project_infinity(self, i: int) -> MonoMap:
        """The stage-i entry of each tuple; tuple x lies over top element x."""
        top_index = len(self.tower.stages) - 1
        down = self.tower.project_between(top_index, i)
        return MonoMap(self.poset, down.target, down.graph)


def finite_bilimit(tower: Tower) -> Bilimit:
    """Materialise the compatible tuples and verify the top-stage isomorphism.

    A tuple is compatible when each neighbour projection sends entry i+1 to
    entry i; every composite projection is built from those, so no other
    pair needs checking.  The tuples grow a stage at a time: each partial
    tuple is extended by every next-stage element that projects onto its
    last entry.  Each element projects onto one element, so by induction each
    element of a stage ends exactly one tuple: sorted by last entry, the
    compatible tuples are exactly the top stage, and a check of that can
    never fail.
    """
    stages = tower.stages
    rows = np.arange(stages[0].n)[:, None]
    for pair in tower.pairs:
        r, x = np.nonzero(rows[:, -1:] == np.asarray(pair.project.graph, dtype=np.intp))
        rows = np.column_stack([rows[r], x])
    rows = rows[np.argsort(rows[:, -1])]
    columns = [[s.elements[x] for x in col] for s, col in zip(stages, rows.T.tolist())]
    tuples = tuple(zip(*columns))
    poset = FinPoset(tuple(map(";".join, tuples)), componentwise_leq(stages, rows))
    iso = MonoMap(tower.top, poset, range(tower.top.n), check=False)
    if not is_order_isomorphism(iso):
        raise IncompatibleTower("tuple order disagrees with the top stage")
    return Bilimit(tower, poset, tuples, iso)


def _pushed_up(bilim: Bilimit, families):
    """The labels (stage, label) and their values in the bilimit, for
    per-stage families of labelled values (directed families or bases)."""
    labels, values = [], {}
    for i, fam in enumerate(families):
        eps = bilim.embed_infinity(i)
        for label in fam.labels:
            labels.append((i, label))
            values[i, label] = eps.apply(fam.value(label))
    return tuple(labels), values


def alpha_infinity(bilim: Bilimit, families, sigma) -> DirectedFamily:
    """Combine per-stage approximating families of sigma's components into one
    family on the bilimit, indexed by (stage, inner label)."""
    tower = bilim.tower
    for i, fam in enumerate(families):
        if not approximates(tower.stages[i], fam, bilim.component(sigma, i)):
            raise NotApproximating(f"stage-{i} family does not approximate the component")
    out = DirectedFamily(bilim.poset, *_pushed_up(bilim, families))
    if not approximates(bilim.poset, out, sigma):
        raise NotApproximating("combined family fails to approximate")
    return out


def bilimit_basis(bilim: Bilimit, stage_bases) -> BasisMap:
    """Push every stage basis up into the bilimit, indexed by (stage, label)."""
    tower = bilim.tower
    for i, beta in enumerate(stage_bases):
        if not check_small_basis(tower.stages[i], beta):
            raise NotABasis(f"stage-{i} input is not a small basis")
    return BasisMap(bilim.poset, *_pushed_up(bilim, stage_bases))


def embedding_preserves_way_below_check(tower: Tower, i: int, j: int) -> bool:
    """The stage embedding preserves and reflects way-below; the diagonal
    says the same of compactness."""
    eps = tower.embed_between(i, j)
    low, high = tower.stages[i], tower.stages[j]
    return bool((way_below_matrix(low) == _pulled_back(way_below_matrix(high), eps.graph)).all())


def dinfty_demo(stages: int = 2, *, unsafe: bool = False) -> dict:
    """The desk-scale witness for the function-space tower having a small
    compact basis on its bilimit; returns a machine-readable report.

    Every law is computed for every stage count; ``unsafe`` is passed on to
    ``scott_tower`` for stages past 2.  The ``ep_pairs`` law was checked
    where the tower was built: ``Tower.__post_init__`` validates every pair
    and raises ``IncompatibleTower`` on the first that fails, so a tower
    that exists has passed it.  Each stage's step basis reads the
    exponential ``scott_tower`` built (``exponential`` keeps it on the
    stage).
    """
    from .expo import step_basis

    tower = scott_tower(stages, unsafe=unsafe)
    base, base_basis = sierpinski()
    bases = [base_basis]
    for k in range(stages):
        below = tower.stages[k]
        bases.append(step_basis(below, bases[k], below, bases[k]))
    bilim = finite_bilimit(tower)
    binf = bilimit_basis(bilim, bases)
    indices = range(len(tower.stages))
    laws = {
        "ep_pairs": True,  # validated by Tower.__post_init__, which raises otherwise
        "embeddings_transfer_way_below": all(
            embedding_preserves_way_below_check(tower, i, j) for i in indices for j in indices[i:]
        ),
        "bilimit_iso_top_stage": is_order_isomorphism(bilim.iso_from_top),
        "stage_bases_compact": all(
            check_small_compact_basis(tower.stages[i], bases[i]) for i in indices
        ),
        "bilimit_small_compact_basis": check_small_compact_basis(bilim.poset, binf),
    }
    return {
        "stage_sizes": [s.n for s in tower.stages],
        "basis_sizes": [len(b.labels) for b in bases],
        "bilimit_size": bilim.poset.n,
        "bilimit_basis_size": len(binf.labels),
        "laws": laws,
    }
