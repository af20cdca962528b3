"""Command-line front end, file grammars, DOT export and corpus generation.

Exit codes: 0 when the command succeeds and any checked property holds, 1 when
a checked property fails (a counterexample goes to standard output), 2 for
usage or parse errors.  Standard output is the only result channel.
"""

from __future__ import annotations

import argparse
import random
import sys

import numpy as np

from . import bilimit as _bilimit
from . import canonex, dyadics, expo, idealcomp, indcomp, waybelow
from .errors import CycleDetected, DuplicateElement, OrderTheoryError, ParseError, UnknownElement
from .finposet import EpPair, FinPoset, MonoMap, closure_from_covers, subposet
from .waybelow import BasisMap


# ---------------------------------------------------------------- file formats

def _parse_three_lines(text: str, header: str, relation: str, token_kind: str):
    """The grammar both file kinds share: line 1 the header, line 2
    'elements: ...', optional line 3 '<relation>: a<b ...', and nothing after.
    Blank lines are skipped and not counted.  Returns the element names and
    the (a, b) pairs."""
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines or lines[0] != header:
        raise ParseError(f"expected header '{header}'", line=1)
    if len(lines) < 2 or not lines[1].startswith("elements:"):
        raise ParseError("expected 'elements: ...'", line=2)
    elements = lines[1][len("elements:"):].split()
    pairs = []
    if len(lines) > 3:
        raise ParseError("unexpected line after the relation", line=4)
    if len(lines) == 3:
        key = f"{relation}:"
        if not lines[2].startswith(key):
            raise ParseError(f"expected '{key} ...'", line=3)
        for token in lines[2][len(key):].split():
            if "<" not in token:
                raise ParseError(f"malformed {token_kind} {token!r}", line=3)
            pairs.append(tuple(token.split("<", 1)))
    return elements, pairs


def parse_poset_file(text: str) -> FinPoset:
    """Poset grammar: line 1 'poset', line 2 'elements: ...', line 3 'covers: ...'."""
    return closure_from_covers(*_parse_three_lines(text, "poset", "covers", "cover"))


def emit_poset_file(poset: FinPoset) -> str:
    covers = " ".join(f"{lo}<{hi}" for lo, hi in poset.covers())
    return f"poset\nelements: {' '.join(poset.elements)}\ncovers: {covers}\n"


def parse_basis_file(text: str) -> idealcomp.AbstractBasis:
    """Basis grammar: line 1 'basis', line 2 'elements: ...', line 3 'rel: a<b ...'."""
    return idealcomp.AbstractBasis.from_pairs(*_parse_three_lines(text, "basis", "rel", "pair"))


def emit_dot(poset: FinPoset) -> str:
    """Hasse diagram only: one node per element, cover edges bottom-to-top."""
    out = ["digraph poset {"]
    for name in poset.elements:
        out.append(f'  "{name}";')
    for lo, hi in poset.covers():
        out.append(f'  "{lo}" -> "{hi}";')
    out.append("}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------- corpora

def _random_dag_poset(rng: random.Random, max_size: int, densities) -> FinPoset:
    """A random DAG on 2 to ``max_size`` index-ordered elements, each forward
    pair an edge with one density drawn from the range ``densities``, closed
    up to a partial order."""
    n = rng.randint(2, max_size)
    elements = [f"e{i}" for i in range(n)]
    density = rng.uniform(*densities)
    covers = [
        (elements[i], elements[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < density
    ]
    return closure_from_covers(elements, covers)


def generate_corpus(seed: int, count: int, max_size: int):
    """Reproducible random posets, random DAGs closed up to partial orders."""
    rng = random.Random(seed)
    return [_random_dag_poset(rng, max_size, (0.15, 0.5)) for _ in range(count)]


def generate_lattice_corpus(seed: int, count: int, max_size: int):
    """Reproducible random finite lattices (bottom plus all binary joins)."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        poset = _random_dag_poset(rng, max_size, (0.2, 0.6))
        if poset.is_lattice():
            out.append(poset)
    return out


def generate_ep_corpus(seed: int, count: int, max_size: int):
    """Reproducible section/retraction pairs.

    Every monotone idempotent deflation of a poset splits into one: the small
    side is the induced sub-poset on the image, the section is the inclusion
    and the retraction is the deflation itself.
    """
    rng = random.Random(seed)
    posets = generate_corpus(seed + 1, count * 3, max_size)
    out = []
    for big in posets:
        if len(out) >= count:
            break
        graphs = expo.monotone_graphs(big, big)
        deflating = big.leq[graphs, np.arange(big.n)].all(axis=1)
        idempotent = (np.take_along_axis(graphs, graphs, axis=1) == graphs).all(axis=1)
        deflation = rng.choice(graphs[deflating & idempotent].tolist())
        small = subposet(big, [big.elements[i] for i in sorted(set(deflation))])
        section = MonoMap.from_mapping(small, big, {x: x for x in small.elements})
        retraction = MonoMap(big, small, [small.index(big.elements[g]) for g in deflation])
        out.append(EpPair(embed=section, project=retraction))
    return out


def generate_basis_corpus(seed: int, count: int, max_carrier: int):
    """Reproducible abstract bases with small carriers, half of them reflexive.

    The non-reflexive half strips reflexivity from some elements of a random
    partial order and keeps only candidates that still satisfy the axioms.
    """
    rng = random.Random(seed)
    reflexive_target = count // 2
    reflexive, strict = [], []
    while len(reflexive) < reflexive_target or len(strict) < count - reflexive_target:
        poset = generate_corpus(rng.randrange(2**30), 1, max_carrier)[0]
        mat = poset.leq.copy()
        basis = idealcomp.AbstractBasis(poset.elements, mat)
        ok, _ = idealcomp.validate_abstract_basis(basis)
        if ok and len(reflexive) < reflexive_target:
            reflexive.append(basis)
            continue
        strip = [i for i in range(poset.n) if rng.random() < 0.5]
        if not strip:
            continue
        stripped = poset.leq.copy()
        for i in strip:
            stripped[i, i] = False
        candidate = idealcomp.AbstractBasis(poset.elements, stripped)
        ok, _ = idealcomp.validate_abstract_basis(candidate)
        if ok and not candidate.is_reflexive() and len(strict) < count - reflexive_target:
            strict.append(candidate)
    return reflexive + strict


# ---------------------------------------------------------------- verbs

def _read(path: str, parse):
    """Parse a file; an unreadable or malformed file is a parse error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(str(exc)) from exc
    try:
        return parse(text)
    except (CycleDetected, DuplicateElement, UnknownElement) as exc:
        raise ParseError(f"{type(exc).__name__}: {exc}") from exc


def _read_poset(path: str) -> FinPoset:
    return _read(path, parse_poset_file)


def _bool_exit(value: bool, true_msg="true", false_msg="false") -> int:
    print(true_msg if value else false_msg)
    return 0 if value else 1


def _require_elements(poset: FinPoset, names) -> None:
    """Element names given on the command line; an unknown one is a parse error."""
    for name in names:
        try:
            poset.index(name)
        except UnknownElement as exc:
            raise ParseError(f"{type(exc).__name__}: {exc}") from exc


def _basis_from_args(poset: FinPoset, pairs) -> BasisMap:
    if not pairs:
        return BasisMap.identity(poset)
    into = {}
    labels = []
    for token in pairs:
        if "=" not in token:
            raise ParseError(f"expected LABEL=ELEMENT, got {token!r}")
        label, element = token.split("=", 1)
        labels.append(label)
        into[label] = element
    _require_elements(poset, into.values())
    return BasisMap(poset, tuple(labels), into)


def cmd_check(args) -> int:
    _read_poset(args.file)
    print("valid")
    return 0


def cmd_waybelow(args) -> int:
    poset = _read_poset(args.file)
    _require_elements(poset, (args.x, args.y))
    return _bool_exit(waybelow.way_below(poset, args.x, args.y))


def cmd_compacts(args) -> int:
    poset = _read_poset(args.file)
    print(" ".join(waybelow.compacts(poset)))
    return 0


def cmd_basis_check(args) -> int:
    poset = _read_poset(args.file)
    basis = _basis_from_args(poset, args.pairs)
    small = waybelow.check_small_basis(poset, basis)
    compact = small and waybelow.check_small_compact_basis(poset, basis)
    print(f"small-basis: {'true' if small else 'false'}")
    print(f"small-compact-basis: {'true' if compact else 'false'}")
    return 0 if small else 1


def cmd_interpolate(args) -> int:
    poset = _read_poset(args.file)
    basis = _basis_from_args(poset, args.pairs)
    _require_elements(poset, (a for a in (args.x, args.y, args.z) if a is not None))
    if args.z is None:
        b = waybelow.interpolate_unary(poset, basis, args.x, args.y)
    else:
        b = waybelow.interpolate_binary(poset, basis, args.x, args.y, args.z)
    print(b)
    return 0


def cmd_idl(args) -> int:
    basis = _read(args.file, parse_basis_file)
    ok, witness = idealcomp.validate_abstract_basis(basis)
    if not ok:
        print(f"not an abstract basis: {' '.join(map(str, witness))}")
        return 1
    completion = idealcomp.idl_poset(basis)
    sys.stdout.write(emit_poset_file(completion.poset))
    if args.dot:
        sys.stdout.write(emit_dot(completion.poset))
    return 0


def cmd_idl_iso(args) -> int:
    poset = _read_poset(args.file)
    basis = _basis_from_args(poset, args.pairs)
    continuous = idealcomp.idl_iso_continuous_check(poset, basis)
    algebraic = idealcomp.idl_iso_algebraic_check(poset, basis)
    print(f"idl-iso-continuous: {'true' if continuous else 'false'}")
    print(f"idl-iso-algebraic: {'true' if algebraic else 'false'}")
    return 0 if continuous and algebraic else 1


def cmd_exp(args) -> int:
    D = _read_poset(args.d_file)
    E = _read_poset(args.e_file)
    ex = expo.exponential(D, E)
    sys.stdout.write(emit_poset_file(ex.poset))
    for name, m in zip(ex.poset.elements, ex.maps):
        graph = " ".join(f"{x}->{m.apply(x)}" for x in D.elements)
        print(f"# {name}: {graph}")
    if args.step_basis:
        basis = ex.step_basis(BasisMap.identity(D), BasisMap.identity(E))
        ok = waybelow.check_small_compact_basis(ex.poset, basis)
        print(f"step-basis-size: {len(basis.labels)}")
        print(f"step-basis-compact: {'true' if ok else 'false'}")
        if not ok:
            return 1
    if args.dot:
        sys.stdout.write(emit_dot(ex.poset))
    return 0


def cmd_tower(args) -> int:
    if args.stages < 0:
        print("--stages must be 0 or more")
        return 2
    if args.stages > 2 and not args.unsafe_stage_3:
        print("stage > 2 needs --unsafe-stage-3")
        return 2
    report = _bilimit.dinfty_demo(args.stages, unsafe=args.unsafe_stage_3)
    lines = [
        "stage_sizes: " + " ".join(str(s) for s in report["stage_sizes"]),
        "basis_sizes: " + " ".join(str(s) for s in report["basis_sizes"]),
        f"bilimit_size: {report['bilimit_size']}",
        f"bilimit_basis_size: {report['bilimit_basis_size']}",
    ]
    ok = True
    for law, passed in report["laws"].items():
        lines.append(f"law_{law}: {'pass' if passed else 'fail'}")
        ok = ok and passed
    text = "\n".join(lines) + "\n"
    if args.report:
        try:
            with open(args.report, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ParseError(str(exc)) from exc
    sys.stdout.write(text)
    return 0 if ok else 1


def cmd_dyadic(args) -> int:
    if args.b is None and args.action != "rat":
        raise ParseError(f"dyadic {args.action} needs a second operand")
    if args.b is not None and args.action == "rat":
        raise ParseError("dyadic rat takes one operand")
    if args.action == "cmp":
        x, y = dyadics.parse_path(args.a), dyadics.parse_path(args.b)
        if dyadics.dy_prec(x, y):
            print("lt")
        elif dyadics.dy_eq(x, y):
            print("eq")
        else:
            print("gt")
        return 0
    if args.action == "interp":
        x, y = dyadics.parse_path(args.a), dyadics.parse_path(args.b)
        print(dyadics.format_path(dyadics.dy_interpolant(x, y)))
        return 0
    if args.action == "rat":
        q = dyadics.to_rational(dyadics.parse_path(args.a))
        print(f"{q.numerator}/{q.denominator}")
        return 0
    if args.action == "ideal-member":
        chain_arg = args.a
        if not chain_arg.startswith("principal:"):
            raise ParseError("chain argument must look like principal:L.M")
        ideal = dyadics.principal_stream(dyadics.parse_path(chain_arg[len("principal:"):]))
        answer = dyadics.stream_member(ideal, dyadics.parse_path(args.b), args.fuel)
        print(answer.value)
        return 0 if answer is dyadics.FuelAnswer.YES else 1
    raise ParseError(f"unknown dyadic action {args.action!r}")


def _example_size(name: str) -> int:
    """The N of an example named 'kind:N', a non-negative integer."""
    size = name.split(":", 1)[1]
    if not size.isdecimal():
        raise ParseError(f"expected a non-negative integer after ':' in {name!r}")
    return int(size)


def cmd_example(args) -> int:
    name = args.name
    if name == "sierpinski":
        poset, basis = canonex.sierpinski()
    elif name.startswith("lifting:"):
        poset, basis = canonex.lifting(_example_size(name))
    elif name.startswith("powerset:"):
        lattice, lists = canonex.powerset(_example_size(name))
        poset, basis = lattice.poset, lists.basis
    else:
        raise ParseError(f"unknown example {name!r}")
    if args.emit == "poset":
        sys.stdout.write(emit_poset_file(poset))
    elif args.emit == "dot":
        sys.stdout.write(emit_dot(poset))
    else:
        for label in basis.labels:
            print(f"{label} -> {basis.value(label)}")
    return 0


def cmd_ind_reflect(args) -> int:
    poset = _read_poset(args.file)
    families = indcomp.all_directed_subset_families(poset)
    quotient, classes = indcomp.poset_reflection(poset, families)
    sys.stdout.write(emit_poset_file(quotient))
    for fam, cls in zip(families, classes):
        print(f"# {','.join(fam.image_names())} ~ {cls}")
    return 0


def cmd_corpus(args) -> int:
    if args.max_size < 2:
        raise ParseError("--max-size must be 2 or more")
    for poset in generate_corpus(args.seed, args.count, args.max_size):
        sys.stdout.write(emit_poset_file(poset))
        print()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dcpolab", description="Finite domain-theory workbench."
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("check", help="validate a poset file")
    p.add_argument("file")
    p.set_defaults(run=cmd_check)

    p = sub.add_parser("waybelow", help="decide way-below between two elements")
    p.add_argument("file")
    p.add_argument("x")
    p.add_argument("y")
    p.set_defaults(run=cmd_waybelow)

    p = sub.add_parser("compacts", help="list the compact elements")
    p.add_argument("file")
    p.set_defaults(run=cmd_compacts)

    p = sub.add_parser("basis-check", help="check a basis map (default: identity)")
    p.add_argument("file")
    p.add_argument("pairs", nargs="*", metavar="LABEL=ELEMENT")
    p.set_defaults(run=cmd_basis_check)

    p = sub.add_parser("interpolate", help="find a basis interpolant")
    p.add_argument("file")
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("z", nargs="?", default=None)
    p.add_argument("--basis", dest="pairs", nargs="*", default=[])
    p.set_defaults(run=cmd_interpolate)

    p = sub.add_parser("idl", help="ideal completion of a basis file")
    p.add_argument("file")
    p.add_argument("--dot", action="store_true")
    p.set_defaults(run=cmd_idl)

    p = sub.add_parser("idl-iso", help="presentation checks for a poset with a basis")
    p.add_argument("file")
    p.add_argument("pairs", nargs="*", metavar="LABEL=ELEMENT")
    p.set_defaults(run=cmd_idl_iso)

    p = sub.add_parser("exp", help="exponential of two poset files")
    p.add_argument("d_file")
    p.add_argument("e_file")
    p.add_argument("--step-basis", action="store_true")
    p.add_argument("--dot", action="store_true")
    p.set_defaults(run=cmd_exp)

    p = sub.add_parser("tower", help="function-space tower report")
    p.add_argument("--stages", type=int, default=2)
    p.add_argument("--report", default=None)
    p.add_argument("--unsafe-stage-3", action="store_true")
    p.set_defaults(run=cmd_tower)

    p = sub.add_parser("dyadic", help="dyadic order queries")
    p.add_argument("action", choices=["cmp", "interp", "rat", "ideal-member"])
    p.add_argument("a")
    p.add_argument("b", nargs="?", default=None)
    p.add_argument("--fuel", type=int, default=dyadics.DEFAULT_FUEL)
    p.set_defaults(run=cmd_dyadic)

    p = sub.add_parser("example", help="emit a canonical example")
    p.add_argument("name", help="sierpinski | lifting:N | powerset:N")
    p.add_argument("--emit", choices=["poset", "dot", "basis"], default="poset")
    p.set_defaults(run=cmd_example)

    p = sub.add_parser("ind-reflect", help="poset reflection of all directed families")
    p.add_argument("file")
    p.set_defaults(run=cmd_ind_reflect)

    p = sub.add_parser("corpus", help="emit a reproducible poset corpus")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--max-size", type=int, default=7)
    p.set_defaults(run=cmd_corpus)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except ParseError as exc:
        print(f"parse error: {exc}")
        return 2
    except OrderTheoryError as exc:
        print(f"{type(exc).__name__}: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
