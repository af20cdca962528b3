"""Seeded inputs for the benchmark workloads, generated without dcpolab.

Everything here is plain data (names, cover lists, relation pairs, constructor
strings) built from ``random.Random(seed)``, so a change to dcpolab's own
corpus generators cannot change what the benchmark measures.  Sizes are
stratified (every seed gets the same grid of carrier sizes and densities, with
random structure inside each cell) so that the cost of a pass moves little
from seed to seed.
"""

from __future__ import annotations

import hashlib
import json
import random

import numpy as np

# dcpolab's recursive dy_prec and dy_interpolant exceed Python's default
# recursion limit past about 490 constructors (a known defect).  Timed dyadic
# items stay at or below DYADIC_TIMED_DEPTH, so that no timed item fails, and
# a separate probe over DYADIC_PROBE_DEPTHS reports the defect.
DYADIC_TIMED_DEPTH = 400
DYADIC_PROBE_DEPTHS = tuple(range(0, 1201, 100))


# ---------------------------------------------------------------- order helpers

def order_matrix(elements, pairs) -> np.ndarray:
    """Reflexive-transitive closure of a relation, as a boolean matrix."""
    index = {x: i for i, x in enumerate(elements)}
    n = len(elements)
    mat = np.eye(n, dtype=bool)
    for a, b in pairs:
        mat[index[a], index[b]] = True
    for k in range(n):
        mat[mat[:, k]] |= mat[k]
    return mat


def hasse(elements, leq) -> list:
    """Cover pairs of a partial order given as a boolean matrix."""
    n = len(elements)
    lt = leq & ~np.eye(n, dtype=bool)
    mid = (lt.astype(np.int64) @ lt.astype(np.int64)) > 0
    return [[elements[i], elements[j]] for i in range(n) for j in range(n) if lt[i, j] and not mid[i, j]]


def monotone_graphs(leq_d, leq_e) -> np.ndarray:
    """Every monotone map between two small posets whose index order is a
    linear extension, as graph rows in sorted order."""
    if np.tril(leq_d, -1).any():
        raise ValueError("source index order is not a linear extension")
    nd, ne = len(leq_d), len(leq_e)
    graphs = np.zeros((1, 0), dtype=np.int64)
    for j in range(nd):
        graphs = np.hstack([np.repeat(graphs, ne, axis=0), np.tile(np.arange(ne), len(graphs))[:, None]])
        for a in np.flatnonzero(leq_d[:j, j]):
            graphs = graphs[leq_e[graphs[:, a], graphs[:, j]]]
    return graphs


def ideal_masks(prec) -> list:
    """Ideals of a finite abstract basis (nonempty subsets that are lower and
    directed for the relation), as bitmasks in ascending order."""
    n = len(prec)
    masks = np.arange(1, 1 << n, dtype=np.int64)
    has = [(masks >> i) & 1 == 1 for i in range(n)]
    ok = np.ones(len(masks), dtype=bool)
    for a, b in zip(*np.nonzero(prec)):
        ok &= ~has[b] | has[a]
    up = [sum(1 << int(c) for c in np.flatnonzero(prec[b])) for b in range(n)]
    for b1 in range(n):
        for b2 in range(b1, n):
            ok &= ~(has[b1] & has[b2]) | ((masks & (up[b1] & up[b2])) != 0)
    return masks[ok].tolist()


def inclusion_order(masks) -> np.ndarray:
    return np.array([[a & ~b == 0 for b in masks] for a in masks], dtype=bool)


def directed_count(leq) -> int:
    """Directed subsets of a finite poset: each has a greatest element g and
    is any subset of the down-set of g that contains g."""
    return sum(1 << (int(k) - 1) for k in leq.sum(axis=0))


# ---------------------------------------------------------------- generators

def random_poset(rng, n, density, prefix="e"):
    """A random DAG on index-ordered elements; its closure is the poset."""
    elements = [f"{prefix}{i}" for i in range(n)]
    covers = [
        [elements[i], elements[j]]
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < density
    ]
    return {"elements": elements, "covers": covers}


def banded_posets(rng, n, lo, hi, count=1, prefix="e"):
    """Random posets on n elements with between lo and hi directed subsets.

    The directed-subset count drives the cost of every enumerated query, so
    holding it in a band keeps an item's cost alike across seeds; the cover
    density is nudged toward the band after each miss.
    """
    out, density, step = [], 0.3, 0.1
    while len(out) < count:
        poset = random_poset(rng, n, density, prefix)
        found = directed_count(order_matrix(poset["elements"], poset["covers"]))
        if lo <= found <= hi:
            out.append(poset)
            continue
        density = min(max(density + (step if found < lo else -step), 0.02), 0.95)
        step = max(0.7 * step, 0.02)
    return out


def share_band(n, share):
    """Directed-subset counts within 5% of share * 2**n."""
    return int(0.95 * share * 2**n), int(1.05 * share * 2**n)


def random_lattice(rng, lo, hi, prefix="l"):
    """A union-closed family of subsets (with the empty set) of size lo..hi,
    ordered by inclusion: a finite lattice with joins given by union."""
    while True:
        ground = rng.randint(2, 4)
        gens = [rng.randrange(1, 1 << ground) for _ in range(rng.randint(1, hi))]
        family = {0}
        for g in gens:
            family |= {m | g for m in family}
        if lo <= len(family) <= hi:
            masks = sorted(family, key=lambda m: (bin(m).count("1"), m))
            return _family_poset(masks, prefix)


def _family_poset(masks, prefix):
    elements = [f"{prefix}{m}" for m in masks]
    leq = inclusion_order(masks)
    return {"elements": elements, "covers": hasse(elements, leq), "masks": list(masks)}


def valid_abstract_basis(prec) -> bool:
    """Transitivity plus nullary and binary interpolation."""
    p = prec.astype(np.int64)
    if ((p @ p > 0) & ~prec).any():
        return False
    if not prec.any(axis=0).all():
        return False
    n = len(prec)
    for b in range(n):
        under = np.flatnonzero(prec[:, b])
        mid = prec[:, b]
        for a1 in under:
            for a2 in under:
                if not (prec[a1] & prec[a2] & mid).any():
                    return False
    return True


def abstract_basis(rng, n, share, reflexive):
    """A random partial order with about share * 2**n directed subsets, or
    one with reflexivity stripped from some elements and the interpolation
    axioms still holding, with its ideals (at most 16) as bitmasks."""
    lo, hi = share_band(n, share)
    while True:
        poset = banded_posets(rng, n, lo, hi, prefix="b")[0]
        leq = order_matrix(poset["elements"], poset["covers"])
        for _ in range(1 if reflexive else 20):
            prec = leq.copy()
            if not reflexive:
                strip = [i for i in range(n) if rng.random() < 0.5]
                prec[strip, strip] = False
                if not strip or not valid_abstract_basis(prec):
                    continue
            ideals = ideal_masks(prec)
            if len(ideals) > 16:
                continue
            pairs = [[poset["elements"][i], poset["elements"][j]] for i, j in zip(*np.nonzero(prec))]
            return {"elements": poset["elements"], "pairs": pairs, "reflexive": reflexive,
                    "covers": poset["covers"], "ideals": ideals}


def retract_tower(rng, sizes):
    """A linear tower of join-closed sub-families of a union-closed lattice.

    Stage k-1 is the join closure of a random part of stage k; the retraction
    sends a set to the union of the stage-(k-1) sets inside it, which is the
    greatest of them, so every pair is an idempotent deflation split by the
    inclusion.
    """
    while True:
        top = random_lattice(rng, sizes[-1], sizes[-1], prefix="m")
        stages = [top["masks"]]
        for want in reversed(sizes[:-1]):
            above = stages[0]
            for _ in range(50):
                family = {0}
                for g in rng.sample(above[1:], want - 1):
                    family |= {m | g for m in family}
                if len(family) == want:
                    break
            else:
                break
            stages.insert(0, sorted(family, key=lambda m: (bin(m).count("1"), m)))
        else:
            out = [_family_poset(masks, "m") for masks in stages]
            for small, big in zip(out, out[1:]):
                small["section"] = [big["masks"].index(m) for m in small["masks"]]
                small["retraction"] = [
                    max(
                        (i for i, s in enumerate(small["masks"]) if s & ~m == 0),
                        key=lambda i: small["masks"][i],
                    )
                    for m in big["masks"]
                ]
            return out


def dyadic(rng, depth) -> str:
    return "".join(rng.choice("LR") for _ in range(depth)) + "M"


# ---------------------------------------------------------------- workloads

def share_levels(lo, hi, count):
    """Geometrically spaced shares of 2**n, so that item costs form a
    continuum and a latency percentile never falls into a gap between cells."""
    return [lo * (hi / lo) ** (k / (count - 1)) for k in range(count)]


def corpus_inputs(rng):
    posets = [
        banded_posets(rng, n, *share_band(n, share))[0]
        for n in range(12, 17)
        for share in share_levels(0.005, 0.6, 12)
    ]
    small = [random_poset(rng, n, rng.uniform(0.2, 0.6)) for n in (4, 5, 5, 6, 6, 6)]
    files = [banded_posets(rng, n, *share_band(n, 0.1))[0] for n in (10, 12, 14)]
    return {
        "posets": posets,
        "powerset": [2, 3, 4],
        "lifting": [3, 4, 5, 6],
        "adjunct_posets": small,
        "adjunct_seed": rng.randrange(2**31),
        "cli_posets": files,
    }


def tower_inputs(rng):
    want = {maps: 6 for maps in (20, 36, 49, 64, 68, 84)}
    pairs = []
    while any(want.values()):
        d, e = random_lattice(rng, 2, 5, "d"), random_lattice(rng, 2, 5, "e")
        count = len(monotone_graphs(_leq(d), _leq(e)))
        if want.get(count):
            want[count] -= 1
            pairs.append({"D": d, "E": e, "maps": count})
    pairs.sort(key=lambda p: p["maps"])
    sizes = ([3, 5, 8, 12], [3, 4, 6, 9, 12], [2, 4, 7, 10, 13], [3, 5, 7, 10, 14], [2, 3, 5, 8, 12], [3, 4, 6, 8, 11])
    return {"pairs": pairs, "towers": [retract_tower(rng, s) for s in sizes], "cli_pair": pairs[len(pairs) // 2]}


def completion_inputs(rng):
    # Most carriers stay at n <= 9, so that many items of similar cost sit at
    # every latency percentile; strict bases stay at n <= 8, because past that
    # their cost (a scan of all 2**n subsets for ideals) varies threefold at
    # equal size.
    bases = (
        [abstract_basis(rng, n, share, True) for n in range(6, 10) for share in share_levels(0.15, 0.45, 4)]
        + [abstract_basis(rng, n, share, False) for n in range(6, 9) for share in share_levels(0.15, 0.45, 5)]
        + [abstract_basis(rng, 10, 0.2, True)]
    )
    iso = [
        banded_posets(rng, n, *share_band(n, share))[0] for n in range(6, 10) for share in share_levels(0.15, 0.45, 8)
    ] + banded_posets(rng, 10, *share_band(10, 0.2))
    lattices = [random_lattice(rng, n, n, "l") for n in (6, 6, 7, 7, 8, 8)]
    deep = []
    for band in range(8):
        shared = band * (DYADIC_TIMED_DEPTH // 8) + rng.randrange(DYADIC_TIMED_DEPTH // 8 - 5)
        prefix = dyadic(rng, shared)[:-1]
        deep.append([prefix + dyadic(rng, rng.randint(0, 4)), prefix + dyadic(rng, rng.randint(0, 4))])
    streams = [dyadic(rng, depth) for depth in (3, 20, 60, 120, 200)]
    cli = dyadic(rng, 150)[:-1]
    return {
        "bases": bases,
        "iso_posets": iso,
        "lattices": lattices,
        "directify_seed": rng.randrange(2**31),
        "validate_depths": [3, 4],
        "deep_pairs": deep,
        "streams": streams,
        "fuel": 8,
        "cli_basis": [b for b in bases if b["reflexive"]][2],
        "cli_poset": iso[4],
        "cli_dyadics": [cli + "LM", cli + "RM"],
    }


GENERATORS = {"corpus": corpus_inputs, "tower": tower_inputs, "completion": completion_inputs}


def _leq(poset) -> np.ndarray:
    return order_matrix(poset["elements"], poset["covers"])


def make_inputs(workload: str, seed: int) -> dict:
    """The workload's inputs for a seed; the same seed gives the same inputs."""
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"))


def fingerprint(inputs: dict) -> str:
    text = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]
