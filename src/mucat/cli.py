"""Command-line driver: closed-form Möbius values, cross-verification sweeps,
Hasse-diagram export, and Möbius values of posets and inverse semigroups.

Subcommands: mu-cm, mu-dm, verify, interval-dot, poset-mu, semigroup.
Identical inputs produce byte-identical output; exit code 0 means every check
of the invoked command passed.
"""

from __future__ import annotations

import argparse
import json
import sys

from .category import IncidenceFunction, convolve, moebius_of_slice, validate_slice
from .cm_dm import (
    CmMorphism,
    DmMorphism,
    cm_factor_slice,
    cm_moebius_closed_form,
    cm_slice,
    dm_factor_slice,
    dm_moebius_closed_form,
    validate_cm_morphism,
    validate_dm_morphism,
)
from .errors import MucatError
from .lawvere import (
    interval_as_poset,
    interval_moebius,
    is_one_way,
    lawvere_interval,
    moebius_via_lawvere,
)
from .poset import FinitePoset
from .semigroups import (
    InverseSemigroup,
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
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def cmd_mu(args) -> int:
    """The closed-form value of one morphism; with --verify, compared against
    the interval and convolution values on its factor slice."""
    parse, closed_form, factor_slice = args.routes
    f = parse(args.m, args.spec)
    closed = closed_form(f)
    if not args.verify:
        _emit(args, [str(closed)], {"mu": closed})
        return 0
    c = factor_slice(args.m, f)
    law = moebius_via_lawvere(c, f)
    conv = moebius_of_slice(c)[f]
    agree = closed == law == conv
    verdict = "AGREE" if agree else "DISAGREE"
    _emit(
        args,
        [f"{closed} {law} {conv} {verdict}"],
        {"closed_form": closed, "lawvere": law, "convolution": conv, "agree": agree},
    )
    return 0 if agree else 1


def cmd_verify(args) -> int:
    level_min = args.level_min if args.level_min is not None else -8
    c = cm_slice(args.m, level_min)
    slice_ok = validate_slice(c)

    one_way = 0
    lattices = 0
    agree = 0
    mu = moebius_of_slice(c)
    for f in c.morphisms:
        iv = lawvere_interval(c, f)
        if is_one_way(iv):
            one_way += 1
        poset = interval_as_poset(iv)
        if poset.is_lattice():
            lattices += 1
        closed = cm_moebius_closed_form(f)
        if closed == interval_moebius(c, f, poset) == mu[f]:
            agree += 1

    zeta = IncidenceFunction.zeta(c)
    delta = IncidenceFunction.delta(c)
    conv_ok = all(
        convolve(c, mu, zeta, f) == delta[f] == convolve(c, zeta, mu, f)
        for f in c.morphisms
    )

    n = len(c.morphisms)
    checks = {
        "slice_valid": slice_ok,
        "moebius_test": one_way == n,
        "intervals_lattice": lattices == n,
        "mu_agreement": agree == n,
        "convolution_identity": conv_ok,
    }
    ok = all(checks.values())
    lines = [
        f"objects {len(c.objects)}",
        f"morphisms {n}",
        f"slice-valid {'PASS' if slice_ok else 'FAIL'}",
        f"moebius-test {one_way}/{n} {'PASS' if checks['moebius_test'] else 'FAIL'}",
        f"intervals-lattice {lattices}/{n} {'PASS' if checks['intervals_lattice'] else 'FAIL'}",
        f"mu-agreement {agree}/{n} {'PASS' if checks['mu_agreement'] else 'FAIL'}",
        f"convolution-identity {'PASS' if conv_ok else 'FAIL'}",
        f"RESULT {'PASS' if ok else 'FAIL'}",
    ]
    payload = {
        "m": args.m,
        "level_min": level_min,
        "objects": len(c.objects),
        "morphisms": n,
        **checks,
        "pass": ok,
    }
    _emit(args, lines, payload)
    return 0 if ok else 1


def cmd_interval_dot(args) -> int:
    f = parse_cm_spec(args.m, args.spec)
    c = cm_factor_slice(args.m, f)
    poset = interval_as_poset(lawvere_interval(c, f))
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
    names = set(s.elements)
    transversal = _split_names(args.transversal, names, "transversal") if args.transversal else None
    c = division_category(s, transversal)
    spec = _split_names(args.spec, names, "morphism spec", 2)
    if len(spec) != 2:
        raise ValueError(f"morphism spec must be 's,e', got {args.spec!r}")
    morphism = x, e = tuple(spec)
    if morphism not in c.dom:
        raise MucatError(f"({x!r}, {e!r}) is not a morphism of the division category")
    r_quot = moebius_via_quotients(c, morphism)
    r_idem = moebius_via_idempotent_lattice(s, morphism)
    r_law = moebius_via_lawvere(c, morphism)
    agree = r_quot == r_idem == r_law
    verdict = "AGREE" if agree else "DISAGREE"
    _emit(
        args,
        [f"{r_quot} {r_idem} {r_law} {verdict}"],
        {
            "quotient_rule": r_quot,
            "idempotent_rule": r_idem,
            "lawvere_rule": r_law,
            "agree": agree,
        },
    )
    return 0 if agree else 1


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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mucat",
        description="Exact Möbius functions of posets, category slices, and inverse semigroups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, morphism_help):
        p.add_argument("--m", type=int, required=True, help="modulus (>= 2)")
        p.add_argument("spec", help=morphism_help)
        p.add_argument("--verify", action="store_true",
                       help="also compute interval and convolution values on the "
                            "morphism's factor closure and compare")
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("mu-cm", help="Möbius value of a level-category morphism a,x,i,j")
    add_common(p, "morphism as 'a,x,i,j'")
    p.add_argument("--level-min", type=int, default=None,
                   help="accepted and ignored: --verify works on the factor closure")
    p.set_defaults(handler=cmd_mu, routes=(parse_cm_spec, cm_moebius_closed_form, cm_factor_slice))

    p = sub.add_parser("mu-dm", help="Möbius value of a residue-category morphism alpha,x")
    add_common(p, "morphism as 'alpha,x'")
    p.add_argument("--alpha-max", type=int, default=None,
                   help="accepted and ignored: --verify works on the factor closure")
    p.set_defaults(handler=cmd_mu, routes=(parse_dm_spec, dm_moebius_closed_form, dm_factor_slice))

    p = sub.add_parser("verify", help="cross-verification sweep over a level-category window")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--level-min", type=int, default=None, help="window floor (default -8)")
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
