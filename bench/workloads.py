"""The benchmark workloads as passes of operations over mucat's public API.

One pass does a workload's whole input once, set-up steps included (window
builds, semigroup loads), so every pass does the same work and a run is a
whole number of passes.  Each call into a ``mucat`` module sits in a span
named after the ROADMAP stage it belongs to; with a ``NullRecorder`` the
spans cost nothing and the pass is the untraced end-to-end path.
"""

from __future__ import annotations

import gc
import io
import traceback
from contextlib import redirect_stdout
from time import perf_counter

from mucat import (
    CmMorphism,
    Factorization,
    IncidenceFunction,
    InverseSemigroup,
    check_transversal,
    cm_moebius_closed_form,
    cm_slice,
    convolve,
    default_transversal,
    division_category,
    dm_moebius_closed_form,
    dm_slice,
    find_semigroup_violation,
    interval_as_poset,
    is_one_way,
    lawvere_interval,
    moebius_of_slice,
    moebius_via_idempotent_lattice,
    moebius_via_lawvere,
    moebius_via_quotients,
)
from mucat.cli import build_parser, main, parse_cm_spec, parse_dm_spec

MAX_ERRORS_KEPT = 5

# Seconds one pass takes on the reference machine (2 shared cores, Python
# 3.11); a run does round(seconds / this) passes, at least one.
NOMINAL_PASS_S = {"cm_sweep": 11.0, "cli_verify": 3.6, "semigroup_rules": 4.3}


def pass_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_PASS_S[workload]))


class Tally:
    """Failure accounting: every operation is wrapped and never aborts the run.

    ``after_op``, if given, is called with each operation's latency once it
    has been recorded; the timed run hangs the speed calibration there.
    """

    def __init__(self, after_op=None):
        self.after_op = after_op
        self.latencies: list[float] = []
        self.starts: list[float] = []
        self.shapes: list[str] = []
        self.loads: list[tuple[str, float]] = []
        self.load_starts: list[float] = []
        self.results: list = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def _note(self, what: str) -> None:
        if len(self.errors) < MAX_ERRORS_KEPT:
            self.errors.append(what)

    def op(self, rec, fn, *args) -> None:
        """Run fn(rec, *args); the last argument is the operation's input.

        The operation fails if it raises or returns ok=False.
        """
        rec.op = self.attempted
        self.attempted += 1
        start = perf_counter()
        try:
            with rec.span("bench.op"):
                ok, result = fn(rec, *args)
        except Exception:
            ok, result = False, None
            self._note(traceback.format_exc(limit=3))
        latency = perf_counter() - start
        self.latencies.append(latency)
        self.starts.append(start)
        self.shapes.append(args[-1]["shape"])
        if not ok:
            self.failed += 1
            self._note(f"operation {rec.op} {args[-1]!r} gave {result!r}")
        self.results.append(result)
        if self.after_op is not None:
            self.after_op(latency)

    def load(self, rec, key: str, fn, *args):
        """Run a set-up step of a pass; returns None if it raised."""
        rec.op = None
        start = perf_counter()
        try:
            with rec.span("bench.load"):
                return fn(rec, *args)
        except Exception:
            self._note(traceback.format_exc(limit=3))
            return None
        finally:
            self.loads.append((key, perf_counter() - start))
            self.load_starts.append(start)

    def skip(self, ops: list, reason: str) -> None:
        """Count the operations a failed set-up step left undone as failed."""
        self.attempted += len(ops)
        self.failed += len(ops)
        self.results.extend([None] * len(ops))
        self._note(reason)


def _count_slice(rec, c) -> None:
    rec.count("cm_dm.morphisms", len(c.morphisms))
    rec.count("cm_dm.compose_entries", len(c.compose))


def _fact_index(rec, c) -> None:
    with rec.span("category.fact_index"):
        pairs = sum(len(c.factorizations(f)) for f in c.morphisms)
    rec.count("category.factorization_pairs", pairs)


def _interval_mu(rec, c, f):
    """The Lawvere route staged: interval build -> interval poset -> poset mu."""
    with rec.span("lawvere.interval_build"):
        iv = lawvere_interval(c, f)
    if rec.enabled:
        rec.count("lawvere.interval_objects", len(iv.objects))
        rec.count("lawvere.hom_hits", sum(len(hs) for hs in iv.homs.values()))
        rec.count("lawvere.hom_candidates", sum(
            len(c.hom(c.cod[a.right], c.cod[b.right])) for a in iv.objects for b in iv.objects
        ))
    with rec.span("lawvere.interval_poset"):
        poset = interval_as_poset(iv)
    bottom = Factorization(f, c.identities[c.dom[f]], f)
    top = Factorization(c.identities[c.cod[f]], f, f)
    with rec.span("poset.moebius"):
        value = poset.moebius(bottom, top)
    return iv, poset, value


# -- cm_sweep ---------------------------------------------------------------

def _cm_window(rec, inputs):
    with rec.span("cm_dm.slice_build"):
        c = cm_slice(inputs["m"], inputs["level_min"])
    _count_slice(rec, c)
    _fact_index(rec, c)
    with rec.span("category.conv_inverse"):
        mu = moebius_of_slice(c)
    return c, mu, IncidenceFunction.zeta(c)


def _cm_check(rec, c, mu, zeta, op):
    f = CmMorphism(*op["spec"])
    iv, poset, law = _interval_mu(rec, c, f)
    with rec.span("lawvere.one_way"):
        one_way = is_one_way(iv)
    with rec.span("poset.is_lattice"):
        lattice = poset.is_lattice()
    delta = 1 if c.is_identity(f) else 0
    with rec.span("category.convolve"):
        left = convolve(c, mu, zeta, f)
        right = convolve(c, zeta, mu, f)
    with rec.span("cm_dm.closed_form"):
        closed = cm_moebius_closed_form(f)
    ok = one_way and lattice and left == delta == right and closed == law == mu[f] == op["mu"]
    return ok, (closed, law, mu[f], one_way, lattice, left, right)


def cm_sweep_pass(rec, inputs, tally: Tally) -> None:
    window = tally.load(rec, "window", _cm_window, inputs)
    if window is None:
        tally.skip(inputs["ops"], "window build failed")
        return
    for op in inputs["ops"]:
        tally.op(rec, _cm_check, *window, op)


# -- cli_verify -------------------------------------------------------------

def _cli_staged(rec, argv):
    """What ``mu-cm``/``mu-dm --verify`` compute, as the ROADMAP stage sequence."""
    with rec.span("cli.parse"):
        args = build_parser().parse_args(argv)
        cm = args.command == "mu-cm"
        f = parse_cm_spec(args.m, args.spec) if cm else parse_dm_spec(args.m, args.spec)
    with rec.span("cm_dm.closed_form"):
        closed = cm_moebius_closed_form(f) if cm else dm_moebius_closed_form(f)
    with rec.span("cm_dm.slice_build"):
        if cm:
            c = cm_slice(args.m, min(args.level_min, f.j))
        else:
            c = dm_slice(args.m, max(args.alpha_max, f.alpha, args.m - 1))
    _count_slice(rec, c)
    _fact_index(rec, c)
    with rec.span("category.conv_inverse"):
        conv = moebius_of_slice(c)[f]
    law = _interval_mu(rec, c, f)[2]
    return closed, law, conv


def _cli_call(rec, op):
    out = io.StringIO()
    with rec.span("cli.main"), redirect_stdout(out):
        code = main(op["argv"])
    mu = op["mu"]
    ok = code == 0 and out.getvalue() == f"{mu} {mu} {mu} AGREE\n"
    values = tuple(int(v) for v in out.getvalue().split()[:3]) if ok else None
    if rec.enabled:
        staged = _cli_staged(rec, op["argv"])
        ok = ok and staged == values
        values = staged
    return ok, values


def cli_verify_pass(rec, inputs, tally: Tally) -> None:
    for op in inputs["ops"]:
        # Each call stands for one mucat process: collect the previous call's
        # cyclic garbage first, so peak RSS is the largest single call's and
        # does not depend on when the collector happens to run.
        gc.collect()
        tally.op(rec, _cli_call, op)


# -- semigroup_rules --------------------------------------------------------

def _load_semigroup(rec, entry):
    with rec.span("semigroups.parse"):
        s = InverseSemigroup.from_json(entry["json"])
    with rec.span("semigroups.validate"):
        violation = find_semigroup_violation(s)
    if violation is not None:
        raise ValueError(f"{entry['name']}: {violation}")
    with rec.span("semigroups.d_classes"):
        if entry["transversal"] is None:
            reps = default_transversal(s)
        else:
            reps = check_transversal(s, entry["transversal"])
    with rec.span("semigroups.division_category"):
        c = division_category(s, reps)
    return s, c


def _three_rules(rec, s, c, op):
    morphism = tuple(op["spec"])
    with rec.span("semigroups.quotient_rule"):
        quot = moebius_via_quotients(c, morphism)
    with rec.span("semigroups.idempotent_rule"):
        idem = moebius_via_idempotent_lattice(s, morphism)
    if rec.enabled:
        law = _interval_mu(rec, c, morphism)[2]
    else:
        law = moebius_via_lawvere(c, morphism)
    return quot == idem == law == op["mu"], (quot, idem, law)


def semigroup_rules_pass(rec, inputs, tally: Tally) -> None:
    for entry in inputs["semigroups"]:
        loaded = tally.load(rec, entry["name"], _load_semigroup, entry)
        if loaded is None:
            tally.skip(entry["ops"], f"loading {entry['name']} failed")
            continue
        for op in entry["ops"]:
            tally.op(rec, _three_rules, *loaded, op)


PASSES = {
    "cm_sweep": cm_sweep_pass,
    "cli_verify": cli_verify_pass,
    "semigroup_rules": semigroup_rules_pass,
}
