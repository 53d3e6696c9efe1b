"""Command-line driver: closed-form Möbius values, cross-verification sweeps,
Hasse-diagram export, and Möbius values of posets and inverse semigroups.

Subcommands: mu-cm, mu-dm, verify, interval-dot, poset-mu, semigroup.
Identical inputs produce byte-identical output; exit code 0 means every check
of the invoked command passed.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .category import IncidenceFunction, convolve, find_slice_violation, moebius_of_slice
from .cm_dm import (
    CmMorphism,
    DmMorphism,
    cm_moebius_closed_form,
    cm_slice,
    cm_source,
    dm_moebius_closed_form,
    dm_source,
    validate_cm_morphism,
    validate_dm_morphism,
)
from .errors import MucatError
from .lawvere import (
    _both_routes,
    _lawvere_sweep,
    interval_as_poset,
    lawvere_interval,
    moebius_via_lawvere,
)
from .poset import FinitePoset
from .semigroups import (
    InverseSemigroup,
    check_combinatorial,
    division_category,
    find_semigroup_violation,
    moebius_via_idempotent_lattice,
    moebius_via_quotients,
)


def _parse_ints(spec: str, count: int, what: str) -> list[int]:
    parts = spec.split(",")
    if len(parts) != count:
        raise ValueError(f"{what} must be {count} comma-separated integers, got {spec!r}")
    try:
        return [int(p) for p in parts]
    except ValueError as exc:
        raise ValueError(f"{what} must be integers: {exc}") from None


def parse_cm_spec(m: int, spec: str) -> CmMorphism:
    a, x, i, j = _parse_ints(spec, 4, "morphism spec 'a,x,i,j'")
    f = CmMorphism(a, x, i, j)
    validate_cm_morphism(m, f)
    return f


def parse_dm_spec(m: int, spec: str) -> DmMorphism:
    alpha, x = _parse_ints(spec, 2, "morphism spec 'alpha,x'")
    f = DmMorphism(alpha, x)
    validate_dm_morphism(m, f)
    return f


def _emit(args, text_lines, payload) -> None:
    if getattr(args, "format", "text") == "json":
        import json  # here, not at import: only --format json prints JSON
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _agreement(args, values: dict) -> int:
    """Report routes that should give the same value: their values and AGREE
    or DISAGREE on one line, or one JSON object with ``agree``; exit 0 iff
    they agree."""
    first, *rest = values.values()
    agree = all(value == first for value in rest)
    verdict = "AGREE" if agree else "DISAGREE"
    _emit(args, [" ".join(map(str, [*values.values(), verdict]))], {**values, "agree": agree})
    return 0 if agree else 1


def cmd_mu(args) -> int:
    """The closed-form value of one morphism; with --verify, compared against
    the interval and convolution values, read off the category's rules with
    no table: f's factorizations and its right factors' factorizations."""
    parse, closed_form, source = args.routes
    f = parse(args.m, args.spec)
    closed = closed_form(f)
    if not args.verify:
        _emit(args, [str(closed)], {"mu": closed})
        return 0
    law, conv = _both_routes(source(args.m), f)
    return _agreement(args, {"closed_form": closed, "lawvere": law, "convolution": conv})


def cmd_verify(args) -> int:
    c = cm_slice(args.m, args.level_min)
    # factor_slice marks a window only after the law check's identity pass,
    # totality count and Light's test pass on it, so the mark is its verdict
    slice_ok = c._associative or find_slice_violation(c) is None
    lattices = agree = 0
    mu = moebius_of_slice(c)
    for f, (law, lattice) in zip(c.morphisms, _lawvere_sweep(c)):
        lattices += lattice
        agree += cm_moebius_closed_form(f) == law == mu[f]
    zeta, delta = IncidenceFunction.zeta(c), IncidenceFunction.delta(c)
    conv_ok = all(convolve(c, mu, zeta, f) == delta[f] == convolve(c, zeta, mu, f)
                  for f in c.morphisms)

    n = len(c.morphisms)
    checks = [  # (name, how many morphisms passed or None, passed)
        ("slice-valid", None, slice_ok),
        ("moebius-test", n, True),  # the route raised on any interval not one-way
        ("intervals-lattice", lattices, lattices == n),
        ("mu-agreement", agree, agree == n),
        ("convolution-identity", None, conv_ok),
    ]
    ok = all(passed for _, _, passed in checks)
    lines = [f"objects {len(c.objects)}", f"morphisms {n}"]
    payload = {"m": args.m, "level_min": args.level_min, "objects": len(c.objects), "morphisms": n}
    for name, count, passed in checks:
        counted = "" if count is None else f" {count}/{n}"
        lines.append(f"{name}{counted} {'PASS' if passed else 'FAIL'}")
        payload[name.replace("-", "_")] = passed
    lines.append(f"RESULT {'PASS' if ok else 'FAIL'}")
    _emit(args, lines, {**payload, "pass": ok})
    return 0 if ok else 1


def cmd_interval_dot(args) -> int:
    f = parse_cm_spec(args.m, args.spec)
    poset = interval_as_poset(lawvere_interval(cm_source(args.m), f))
    dot = poset.to_dot(label=lambda fac: f"({fac.right.a},{fac.right.j})")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(dot)
    else:
        print(dot, end="")
    return 0


def cmd_poset_mu(args) -> int:
    with open(args.path, encoding="utf-8") as handle:
        poset = FinitePoset.from_json(handle.read())
    value = poset.moebius(args.x, args.y)
    _emit(args, [str(value)], {"mu": value})
    return 0


def cmd_semigroup(args) -> int:
    with open(args.path, encoding="utf-8") as handle:
        s = InverseSemigroup.from_json(handle.read())
    violation = find_semigroup_violation(s)
    if violation is not None:
        raise MucatError(f"not an inverse semigroup: {violation}")
    check_combinatorial(s)  # first: a transversal check would blame another cause
    names = set(s.elements)
    transversal = (None if args.transversal is None
                   else _split_names(args.transversal, names, "transversal"))
    c = division_category(s, transversal)
    spec = _split_names(args.spec, names, "morphism spec", 2)
    if len(spec) != 2:
        raise ValueError(f"morphism spec must be 's,e', got {args.spec!r}")
    morphism = tuple(spec)
    return _agreement(args, {
        "quotient_rule": moebius_via_quotients(c, morphism),
        "idempotent_rule": moebius_via_idempotent_lattice(s, morphism),
        "lawvere_rule": moebius_via_lawvere(c, morphism),
    })


def _split_names(text: str, names, what: str, count=None) -> list[str]:
    """Split comma-separated element names (``count`` of them, if given), where
    names may hold commas: the split at every comma if its parts all name
    elements, else the one split into element names, else, for the caller's
    own checks to report, the split at every comma."""
    parts = text.split(",")
    if count in (None, len(parts)) and all(p in names for p in parts):
        return parts
    longest = 1 + max((name.count(",") for name in names), default=0)
    # fits[k][used]: (splits of parts[:k] into `used` names, up to 2; the first); no count: used 0
    fits = [{0: (1, [])}]
    for k in range(1, len(parts) + 1):
        fits.append({})
        for i in range(max(0, k - longest), k):
            name = ",".join(parts[i:k])
            for used, (ways, first) in fits[i].items() if name in names else ():
                key = used + 1 if count else 0
                seen, kept = fits[k].get(key, (0, None))
                fits[k][key] = (min(2, seen + ways), kept or first + [name])
    ways, split = fits[-1].get(count or 0, (0, parts))
    if ways > 1:
        raise ValueError(f"{what} {text!r} is ambiguous: more than one split into element names fits")
    return split


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on the first call: parsing
    leaves a parser unchanged, so ``main`` and every later call reuse it."""
    parser = argparse.ArgumentParser(
        prog="mucat",
        description="Exact Möbius functions of posets, category slices, and inverse semigroups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, morphism_help):
        p.add_argument("--m", type=int, required=True, help="modulus (>= 2)")
        p.add_argument("spec", help=morphism_help)
        p.add_argument("--verify", action="store_true",
                       help="also compute interval and convolution values from the "
                            "morphism's factorizations and compare")
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("mu-cm", help="Möbius value of a level-category morphism a,x,i,j")
    add_common(p, "morphism as 'a,x,i,j'")
    p.add_argument("--level-min", type=int, default=None,
                   help="accepted and ignored: --verify reads factorizations with no window")
    p.set_defaults(handler=cmd_mu, routes=(parse_cm_spec, cm_moebius_closed_form, cm_source))

    p = sub.add_parser("mu-dm", help="Möbius value of a residue-category morphism alpha,x")
    add_common(p, "morphism as 'alpha,x'")
    p.add_argument("--alpha-max", type=int, default=None,
                   help="accepted and ignored: --verify reads factorizations with no window")
    p.set_defaults(handler=cmd_mu, routes=(parse_dm_spec, dm_moebius_closed_form, dm_source))

    p = sub.add_parser("verify", help="cross-verification sweep over a level-category window")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--level-min", type=int, default=-8, help="window floor (default -8)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("interval-dot", help="DOT Hasse diagram of a morphism's interval")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("spec", help="morphism as 'a,x,i,j'")
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.set_defaults(handler=cmd_interval_dot)

    p = sub.add_parser("poset-mu", help="Möbius value of a poset interval from a JSON file")
    p.add_argument("path")
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=cmd_poset_mu)

    p = sub.add_parser("semigroup", help="three-rule Möbius values for a division-category morphism")
    p.add_argument("path", help="semigroup JSON file")
    p.add_argument("spec", help="morphism as 's,e'")
    p.add_argument("--transversal", default=None,
                   help="comma-separated idempotent transversal (default: derived)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=cmd_semigroup)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (MucatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
