import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mucat import (
    FinitePoset,
    IncidenceFunction,
    chain,
    cli,
    cm_moebius_closed_form,
    cm_slice,
    default_transversal,
    dm_moebius_closed_form,
    dm_slice,
    interval_as_poset,
    lawvere_interval,
    moebius_of_slice,
    moebius_via_lawvere,
)
import mucat.lawvere
from mucat.cli import main

from helpers import (
    boolean_lattice,
    divisor_poset,
    meet_semilattice,
    partial_identities,
    poset_json,
    semigroup_json,
    symmetric_inverse_monoid,
)

from test_category import _calls, idempotent_endo_category, iso_pair_category


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- mu-cm ---------------------------------------------------------------------

def test_mu_cm_closed_form(capsys):
    code, out, _ = run_cli(capsys, "mu-cm", "--m", "3", "1,1,0,-2")
    assert code == 0
    assert out == "1\n"


def test_mu_cm_identity(capsys):
    code, out, _ = run_cli(capsys, "mu-cm", "--m", "2", "0,0,0,0")
    assert code == 0
    assert out == "1\n"


def test_mu_cm_verify(capsys):
    code, out, _ = run_cli(capsys, "mu-cm", "--m", "3", "2,0,0,-2", "--verify")
    assert code == 0
    assert out == "0 0 0 AGREE\n"


def test_mu_cm_verify_json_round_trips(capsys):
    code, out, _ = run_cli(
        capsys, "mu-cm", "--m", "3", "1,1,0,-2", "--verify", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload == {"closed_form": 1, "lawvere": 1, "convolution": 1, "agree": True}


def test_mu_cm_rejects_bad_spec(capsys):
    code, _, err = run_cli(capsys, "mu-cm", "--m", "3", "1,1,0")
    assert code == 2
    assert "error" in err


def test_mu_cm_rejects_a_spec_that_is_not_integers(capsys):
    assert run_cli(capsys, "mu-cm", "--m", "3", "1,x,0,0") == (
        2, "", "error: morphism spec 'a,x,i,j' must be integers: "
               "invalid literal for int() with base 10: 'x'\n",
    )


def test_mu_cm_rejects_invalid_morphism(capsys):
    code, _, err = run_cli(capsys, "mu-cm", "--m", "2", "3,0,0,-1")
    assert code == 2
    assert "error" in err


# -- mu-dm ---------------------------------------------------------------------

def test_mu_dm_values(capsys):
    assert run_cli(capsys, "mu-dm", "--m", "3", "3,2")[1] == "-1\n"
    assert run_cli(capsys, "mu-dm", "--m", "3", "2,2")[1] == "1\n"
    assert run_cli(capsys, "mu-dm", "--m", "5", "9,2")[1] == "0\n"


def test_mu_dm_verify(capsys):
    code, out, _ = run_cli(capsys, "mu-dm", "--m", "3", "3,2", "--verify")
    assert code == 0
    assert out == "-1 -1 -1 AGREE\n"


def test_single_morphism_commands_build_no_window(capsys, monkeypatch):
    def no_window(*args):
        raise AssertionError("a single-morphism command built a window")

    for name in ("cm_slice", "dm_slice"):
        monkeypatch.setattr(f"mucat.cli.{name}", no_window, raising=False)
        monkeypatch.setattr(f"mucat.cm_dm.{name}", no_window)
    assert run_cli(capsys, "mu-cm", "--m", "3", "1,2,0,-2", "--verify", "--level-min", "-9")[:2] == (
        0, "1 1 1 AGREE\n"
    )
    assert run_cli(capsys, "mu-dm", "--m", "3", "13,1", "--verify", "--alpha-max", "40")[:2] == (
        0, "0 0 0 AGREE\n"
    )
    code, out, _ = run_cli(capsys, "interval-dot", "--m", "3", "2,0,0,-3")
    assert code == 0 and out.count("->") == 7


PARITY_WINDOWS = [
    *(("mu-cm", m, cm_slice(m, -6), cm_moebius_closed_form) for m in (2, 3, 4)),
    *(("mu-dm", m, dm_slice(m, 20), dm_moebius_closed_form) for m in (2, 3, 4, 5)),
]


@pytest.mark.parametrize(
    "command, m, window, closed_form", PARITY_WINDOWS,
    ids=[f"{command}-m{m}" for command, m, _, _ in PARITY_WINDOWS],
)
def test_single_morphism_commands_print_the_window_route_values(
    capsys, command, m, window, closed_form
):
    mu = moebius_of_slice(window)
    for f in window.morphisms:
        closed, law, conv = closed_form(f), moebius_via_lawvere(window, f), mu[f]
        agree = closed == law == conv
        argv = [command, "--m", str(m), str(f), "--verify"]
        assert run_cli(capsys, *argv) == (
            0 if agree else 1, f"{closed} {law} {conv} {'AGREE' if agree else 'DISAGREE'}\n", ""
        )
        payload = {"closed_form": closed, "lawvere": law, "convolution": conv, "agree": agree}
        assert run_cli(capsys, *argv, "--format", "json") == (
            0 if agree else 1, json.dumps(payload, sort_keys=True) + "\n", ""
        )
        if command == "mu-cm":
            poset = interval_as_poset(lawvere_interval(window, f))
            dot = poset.to_dot(label=lambda fac: f"({fac.right.a},{fac.right.j})")
            assert run_cli(capsys, "interval-dot", "--m", str(m), str(f)) == (0, dot, "")


# -- verify ----------------------------------------------------------------------

def test_verify_small_window(capsys):
    code, out, _ = run_cli(capsys, "verify", "--m", "2", "--level-min", "-3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "objects 8"
    assert lines[-1] == "RESULT PASS"
    assert all("FAIL" not in line for line in lines)


def test_verify_identities_only(capsys):
    code, out, _ = run_cli(capsys, "verify", "--m", "3", "--level-min", "0")
    assert code == 0
    assert "morphisms 3" in out
    assert "RESULT PASS" in out


def test_verify_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "--m", "2", "--level-min", "-2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["m"] == 2
    assert payload["morphisms"] == 20


def test_verify_is_deterministic(capsys):
    _, first, _ = run_cli(capsys, "verify", "--m", "2", "--level-min", "-3")
    _, second, _ = run_cli(capsys, "verify", "--m", "2", "--level-min", "-3")
    assert first == second


def test_verify_walks_each_interval_once(capsys, monkeypatch):
    # where no object has an order (as on a window no check marked), verify
    # falls back to one walk per interval
    monkeypatch.setattr(mucat.lawvere, "_object_order", lambda c, x: None)
    walked, walk = [], mucat.lawvere._walk

    def counting(c, root, found=None, eta=None):
        walked.append(root)
        return walk(c, root, found, eta)

    def staged(*args):
        raise AssertionError("verify builds a staged interval")

    monkeypatch.setattr(mucat.lawvere, "_walk", counting)
    for module in (mucat.lawvere, cli):
        monkeypatch.setattr(module, "lawvere_interval", staged)
        monkeypatch.setattr(module, "interval_as_poset", staged)
    code, out, _ = run_cli(capsys, "verify", "--m", "2", "--level-min", "-3")
    assert code == 0
    morphisms = int(out.splitlines()[1].split()[1])
    assert len(walked) == len(set(walked)) == morphisms


def test_verify_reads_one_order_per_object_and_walks_no_interval(capsys, monkeypatch):
    calls = {name: [] for name in ("_walk", "_object_order", "_is_lattice", "_moebius_to")}
    for name, log in calls.items():
        real = getattr(mucat.lawvere, name)
        monkeypatch.setattr(mucat.lawvere, name, lambda *a, real=real, log=log: log.append(a) or real(*a))
    code, out, _ = run_cli(capsys, "verify", "--m", "2", "--level-min", "-3")
    assert (code, out.splitlines()[:2]) == (0, ["objects 8", "morphisms 40"])
    # one order built per object, one lattice test per object
    assert calls["_walk"] == [] and len(calls["_object_order"]) == 8
    assert len({x for _, x in calls["_object_order"]}) == len(calls["_is_lattice"]) == 8
    assert len(calls["_moebius_to"]) == 40


def test_verify_rereads_the_intervals_of_an_object_whose_order_is_no_lattice(capsys, monkeypatch):
    # a wrong verdict on one object's order sends its morphisms to their own
    # tests, which pass; a wrong verdict on one interval's fails the count
    real = mucat.lawvere._is_lattice
    monkeypatch.setattr(mucat.lawvere, "_is_lattice", _wrong_once(real, False))
    assert run_cli(capsys, "verify", "--m", "2", "--level-min", "-2") == (
        0, "\n".join(VERIFY_PASS_LINES) + "\n", "")
    verdicts = []
    monkeypatch.setattr(mucat.lawvere, "_is_lattice", lambda up: verdicts.append(up) or False)
    code, out, _ = run_cli(capsys, "verify", "--m", "2", "--level-min", "-2")
    assert code == 1 and "intervals-lattice 0/20 FAIL" in out.splitlines()
    assert len(verdicts) == 6 + 20  # each object's order, then each interval


def test_verify_trusts_the_verdict_its_window_was_built_with(capsys, monkeypatch):
    # factor_slice runs the law check's identity pass, count and Light's test
    # as it builds the window and marks it; verify reads the mark instead of
    # running them again, and never scans
    lights, scanned = _calls(monkeypatch, "_light"), _calls(monkeypatch)
    code, out, _ = run_cli(capsys, "verify", "--m", "3", "--level-min", "-4")
    assert code == 0 and "slice-valid PASS" in out.splitlines()
    assert len(lights) == 1 and lights[0]._associative and scanned == []


# -- interval-dot ------------------------------------------------------------------

def test_interval_dot_diamond(capsys, tmp_path):
    out_path = tmp_path / "interval.dot"
    code, _, _ = run_cli(capsys, "interval-dot", "--m", "2", "1,0,0,-2", "--out", str(out_path))
    assert code == 0
    dot = out_path.read_text(encoding="utf-8")
    assert dot.count("->") == 4  # diamond has four cover edges
    for label in ('"(0,0)"', '"(0,-1)"', '"(1,-1)"', '"(1,-2)"'):
        assert label in dot


def test_interval_dot_identity_single_node(capsys):
    code, out, _ = run_cli(capsys, "interval-dot", "--m", "2", "0,1,-1,-1")
    assert code == 0
    assert out.count("->") == 0
    assert '"(0,-1)"' in out


def test_interval_dot_grid_cover_count(capsys):
    code, out, _ = run_cli(capsys, "interval-dot", "--m", "3", "2,0,0,-3")
    assert code == 0
    assert out.count("->") == 7  # 3 x 2 grid


# -- poset-mu ----------------------------------------------------------------------

def test_poset_mu_divisor_file(capsys, tmp_path):
    path = tmp_path / "divisors12.json"
    path.write_text(poset_json(divisor_poset(12)), encoding="utf-8")
    code, out, _ = run_cli(capsys, "poset-mu", str(path), "1", "12")
    assert code == 0
    assert out == "0\n"


def test_poset_mu_not_comparable(capsys, tmp_path):
    path = tmp_path / "divisors12.json"
    path.write_text(poset_json(divisor_poset(12)), encoding="utf-8")
    code, _, err = run_cli(capsys, "poset-mu", str(path), "12", "1")
    assert code == 2
    assert "error" in err


def test_poset_mu_missing_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, "poset-mu", str(tmp_path / "nope.json"), "1", "2")
    assert code == 2
    assert "error" in err


# -- semigroup ---------------------------------------------------------------------

def write_chain_semilattice(tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(semigroup_json(meet_semilattice(chain(["f", "e"]))), encoding="utf-8")
    return path


def test_semigroup_three_rules(capsys, tmp_path):
    path = write_chain_semilattice(tmp_path)
    code, out, _ = run_cli(capsys, "semigroup", str(path), "f,e")
    assert code == 0
    assert out == "-1 -1 -1 AGREE\n"


def test_semigroup_json_format(capsys, tmp_path):
    path = write_chain_semilattice(tmp_path)
    code, out, _ = run_cli(capsys, "semigroup", str(path), "f,e", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "quotient_rule": -1,
        "idempotent_rule": -1,
        "lawvere_rule": -1,
        "agree": True,
    }


def test_semigroup_explicit_transversal(capsys, tmp_path):
    path = write_chain_semilattice(tmp_path)
    code, out, _ = run_cli(capsys, "semigroup", str(path), "e,e", "--transversal", "f,e")
    assert code == 0
    assert out == "1 1 1 AGREE\n"


def test_semigroup_empty_transversal_is_checked(capsys, tmp_path):
    path = tmp_path / "one.json"
    path.write_text(semigroup_json(meet_semilattice(chain(["e"]))), encoding="utf-8")
    assert run_cli(capsys, "semigroup", str(path), "e,e")[:2] == (0, "1 1 1 AGREE\n")
    assert run_cli(capsys, "semigroup", str(path), "e,e", "--transversal", "") == (
        2, "", "error: '' is not an idempotent\n"
    )


def test_semigroup_boolean_lattice_file(capsys, tmp_path):
    square = FinitePoset(
        ["bot", "a", "b", "top"],
        covers=[("bot", "a"), ("bot", "b"), ("a", "top"), ("b", "top")],
    )
    path = tmp_path / "square.json"
    path.write_text(semigroup_json(meet_semilattice(square)), encoding="utf-8")
    code, out, _ = run_cli(capsys, "semigroup", str(path), "bot,top")
    assert code == 0
    assert out == "1 1 1 AGREE\n"


def test_semigroup_names_holding_commas(capsys, tmp_path):
    # semigroup_json names frozenset elements through str(), e.g. "frozenset({1, 2})"
    s = meet_semilattice(boolean_lattice(3))
    path = tmp_path / "b3.json"
    path.write_text(semigroup_json(s), encoding="utf-8")
    names = {e: str(e) for e in s.elements}
    specs = [f"{names[x]},{names[e]}" for x in s.elements for e in s.elements if x <= e]
    assert len(specs) == 27
    for spec in specs:
        code, out, _ = run_cli(capsys, "semigroup", str(path), spec)
        assert code == 0
        assert out.endswith(" AGREE\n")
    code, _, err = run_cli(capsys, "semigroup", str(path), "frozenset({1, 2}),frozenset({1")
    assert code == 2
    assert err == "error: morphism spec must be 's,e', got 'frozenset({1, 2}),frozenset({1'\n"


def test_semigroup_transversal_names_holding_commas(capsys, tmp_path):
    s = meet_semilattice(boolean_lattice(3))
    path = tmp_path / "b3.json"
    path.write_text(semigroup_json(s), encoding="utf-8")
    spec = "frozenset(),frozenset({1})"
    transversal = ",".join(str(e) for e in default_transversal(s))
    assert run_cli(capsys, "semigroup", str(path), spec, "--transversal", transversal) == (
        0, "-1 -1 -1 AGREE\n", ""
    )


def test_semigroup_ambiguous_comma_split(capsys, tmp_path):
    path = tmp_path / "chain.json"
    s = meet_semilattice(chain(["a", "a,b", "b,c", "c"]))
    path.write_text(semigroup_json(s), encoding="utf-8")
    for extra, what in (([], "morphism spec"), (["--transversal", "a,b,c"], "transversal")):
        code, out, err = run_cli(capsys, "semigroup", str(path), "a,b,c", *extra)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {what} 'a,b,c' is ambiguous") and err.count("\n") == 1
    assert run_cli(capsys, "semigroup", str(path), "a,a,b")[:2] == (0, "-1 -1 -1 AGREE\n")
    transversal = ["--transversal", "c,b,c,a,b,a"]
    assert run_cli(capsys, "semigroup", str(path), "a,a,b", *transversal)[:2] == (
        0, "-1 -1 -1 AGREE\n"
    )


def test_semigroup_rejects_non_morphism(capsys, tmp_path):
    path = write_chain_semilattice(tmp_path)
    code, out, err = run_cli(capsys, "semigroup", str(path), "e,f")
    assert (code, out) == (2, "")
    assert err == "error: ('e', 'f') is not a morphism of the division category\n"


def test_semigroup_rejects_invalid_table(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps({"elements": ["a", "b"], "table": [["a", "a"], ["b", "b"]]}),
        encoding="utf-8",
    )
    code, _, err = run_cli(capsys, "semigroup", str(path), "a,a")
    assert code == 2
    assert "not an inverse semigroup" in err


def test_semigroup_names_the_triple_lights_test_meets(capsys, tmp_path):
    # a a = a b = b b = a and b a = b: b is the one generator, and row b b = a
    # differs from row b read through row b at c = b
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps({"elements": ["a", "b"], "table": [["a", "a"], ["b", "a"]]}),
        encoding="utf-8",
    )
    assert run_cli(capsys, "semigroup", str(path), "a,a") == (
        2, "", "error: not an inverse semigroup: associativity fails on ('b', 'b', 'b')\n"
    )


def test_semigroup_rejects_unhashable_element_names(capsys, tmp_path):
    path = tmp_path / "nested.json"
    path.write_text(json.dumps({"elements": [["a"]], "table": [[["a"]]]}), encoding="utf-8")
    code, out, err = run_cli(capsys, "semigroup", str(path), "a,a")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("n", [2, 3])
def test_semigroup_names_a_non_combinatorial_semigroup(capsys, tmp_path, n):
    # I_n holds the swap of 0 and 1, a non-idempotent s with s s⁻¹ = s⁻¹ s; its
    # D-classes hold several idempotents, and no transversal gives a one-way category
    path = tmp_path / f"i{n}.json"
    path.write_text(semigroup_json(symmetric_inverse_monoid(n)), encoding="utf-8")
    for extra in ([], ["--transversal", ",".join(partial_identities(n))]):
        assert run_cli(capsys, "semigroup", str(path), "{},{}", *extra) == (
            2, "", "error: '{0>1 1>0}' lies in a nontrivial subgroup\n"
        )


@pytest.mark.parametrize(
    "data", [{"elements": 5, "leq": []}, {"elements": ["a"], "leq": 7}]
)
def test_poset_mu_rejects_non_array_fields(capsys, tmp_path, data):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run_cli(capsys, "poset-mu", str(path), "a", "a")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "text",
    [
        '{"elements": ["a"], "covers": [[["a"], "a"]]}',
        '{"elements": ["a"], "leq": [[{"a": 1}, "a"]]}',
        "[" * 100_000 + "]" * 100_000,
    ],
    ids=["list_in_covers_row", "object_in_leq_row", "deep_nesting"],
)
@pytest.mark.parametrize("command, spec", [("poset-mu", ["a", "a"]), ("semigroup", ["a,a"])])
def test_malformed_json_exits_two(capsys, tmp_path, text, command, spec):
    path = tmp_path / "bad.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, command, str(path), *spec)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


# -- failure reports: each route or check forced to disagree ---------------------

def _wrong_once(real, wrong):
    """``real``, except that the first call returns ``wrong``."""
    calls = []

    def patched(*args):
        calls.append(None)
        return wrong if len(calls) == 1 else real(*args)
    return patched


def _report(capsys, argv):
    """Text and JSON runs of one invocation, each as (exit code, stdout, stderr)."""
    return run_cli(capsys, *argv), run_cli(capsys, *argv, "--format", "json")


@pytest.mark.parametrize("argv, route, text, payload", [
    (["mu-cm", "--m", "3", "2,0,0,-2", "--verify"], 1, "0 0 7 DISAGREE",
     {"closed_form": 0, "lawvere": 0, "convolution": 7}),
    (["mu-cm", "--m", "3", "2,0,0,-2", "--verify"], 0, "0 7 0 DISAGREE",
     {"closed_form": 0, "lawvere": 7, "convolution": 0}),
    (["mu-dm", "--m", "3", "3,2", "--verify"], 1, "-1 -1 7 DISAGREE",
     {"closed_form": -1, "lawvere": -1, "convolution": 7}),
    (["mu-dm", "--m", "3", "3,2", "--verify"], 0, "-1 7 -1 DISAGREE",
     {"closed_form": -1, "lawvere": 7, "convolution": -1}),
], ids=["mu-cm-convolution", "mu-cm-lawvere", "mu-dm-convolution", "mu-dm-lawvere"])
def test_single_morphism_disagreement_report(capsys, monkeypatch, argv, route, text, payload):
    # the shared pass returns (Lawvere value, convolution value); route 0 or 1 reads 7
    real = cli._both_routes

    def one_route_wrong(c, f):
        values = list(real(c, f))
        values[route] = 7
        return tuple(values)

    monkeypatch.setattr(cli, "_both_routes", one_route_wrong)
    assert _report(capsys, argv) == (
        (1, text + "\n", ""),
        (1, json.dumps({**payload, "agree": False}, sort_keys=True) + "\n", ""),
    )


@pytest.mark.parametrize("rule, text, key", [
    ("moebius_via_quotients", "5 -1 -1 DISAGREE", "quotient_rule"),
    ("moebius_via_idempotent_lattice", "-1 5 -1 DISAGREE", "idempotent_rule"),
    ("moebius_via_lawvere", "-1 -1 5 DISAGREE", "lawvere_rule"),
])
def test_semigroup_disagreement_report(capsys, monkeypatch, tmp_path, rule, text, key):
    path = write_chain_semilattice(tmp_path)
    monkeypatch.setattr(cli, rule, lambda s, morphism: 5)
    payload = {"quotient_rule": -1, "idempotent_rule": -1, "lawvere_rule": -1, key: 5, "agree": False}
    assert _report(capsys, ["semigroup", str(path), "f,e"]) == (
        (1, text + "\n", ""),
        (1, json.dumps(payload, sort_keys=True) + "\n", ""),
    )


VERIFY_PASS_LINES = [
    "objects 6",
    "morphisms 20",
    "slice-valid PASS",
    "moebius-test 20/20 PASS",
    "intervals-lattice 20/20 PASS",
    "mu-agreement 20/20 PASS",
    "convolution-identity PASS",
    "RESULT PASS",
]


def _unmarked(c):
    """c without the associativity verdict factor_slice gave it."""
    c._associative = False
    return c


@pytest.mark.parametrize("check, owner, name, wrong, line", [
    ("slice-valid", cli, "find_slice_violation", "broken", "slice-valid FAIL"),
    ("intervals-lattice", mucat.lawvere, "_is_lattice", False, "intervals-lattice 19/20 FAIL"),
    ("mu-agreement", cli, "cm_moebius_closed_form", 7, "mu-agreement 19/20 FAIL"),
    ("convolution-identity", cli, "convolve", 7, "convolution-identity FAIL"),
])
def test_verify_failure_report(capsys, monkeypatch, check, owner, name, wrong, line):
    argv = ["verify", "--m", "2", "--level-min", "-2"]
    real = getattr(owner, name)
    lines = [line if row.startswith(check + " ") else row for row in VERIFY_PASS_LINES]
    lines[-1] = "RESULT FAIL"
    payload = {
        "m": 2, "level_min": -2, "objects": 6, "morphisms": 20, "slice_valid": True,
        "moebius_test": True, "intervals_lattice": True, "mu_agreement": True,
        "convolution_identity": True, check.replace("-", "_"): False, "pass": False,
    }
    if check == "slice-valid":  # verify trusts a marked window: build it unmarked
        build = cli.cm_slice
        monkeypatch.setattr(cli, "cm_slice", lambda m, level_min: _unmarked(build(m, level_min)))
    if check == "intervals-lattice":  # with no order per object, each interval takes its own test
        monkeypatch.setattr(mucat.lawvere, "_object_order", lambda c, x: None)
    monkeypatch.setattr(owner, name, _wrong_once(real, wrong))
    assert run_cli(capsys, *argv) == (1, "\n".join(lines) + "\n", "")
    monkeypatch.setattr(owner, name, _wrong_once(real, wrong))
    assert run_cli(capsys, *argv, "--format", "json") == (
        1, json.dumps(payload, sort_keys=True) + "\n", ""
    )


@pytest.mark.parametrize("make, bypass, message", [
    (iso_pair_category, False, "factorization recursion revisits '1X'; slice is not one-way"),
    (iso_pair_category, True, "interval of '1X': relation is not antisymmetric on "),
    (idempotent_endo_category, False, "factorization recursion revisits 's'; slice is not one-way"),
    (idempotent_endo_category, True, "hom-set (Factorization(left='s', right='s', subject='s'), "
                                     "Factorization(left='s', right='s', subject='s')) has 2 elements"),
], ids=["iso-pair", "iso-pair-route", "idempotent", "idempotent-route"])
def test_verify_refuses_a_window_that_is_not_one_way(capsys, monkeypatch, make, bypass, message):
    # there is no moebius-test FAIL line: the slice's mu refuses such a window,
    # and with it bypassed the position route's thin or poset-law check does
    monkeypatch.setattr(cli, "cm_slice", lambda m, level_min: make())
    if bypass:
        monkeypatch.setattr(cli, "moebius_of_slice", IncidenceFunction.zeta)
        monkeypatch.setattr(cli, "cm_moebius_closed_form", lambda f: None)
    for form in ("text", "json"):
        code, out, err = run_cli(capsys, "verify", "--m", "2", "--format", form)
        assert (code, out) == (2, "")
        assert err.startswith("error: " + message) and err.count("\n") == 1 and err.endswith("\n")


# -- one parser per process ------------------------------------------------------

def _outcome(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = f"SystemExit({exc.code})"
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_main_reuses_one_parser_and_answers_as_a_new_one_would(capsys, tmp_path):
    semilattice = str(write_chain_semilattice(tmp_path))
    calls = [
        ["mu-cm", "--m", "3", "2,0,0,-2", "--verify"],
        ["mu-dm", "--m", "3", "3,2", "--verify", "--format", "json"],
        ["mu-cm", "--m", "3", "1,1,0"],
        ["mu-dm", "--m", "3", "--verify"],
        ["verify", "--m", "2", "--level-min", "-3"],
        ["semigroup", semilattice, "f,e"],
        ["mu-cm", "--m", "3", "2,0,0,-2", "--verify"],
    ]
    cli.build_parser.cache_clear()
    reused = [_outcome(capsys, argv) for argv in calls]
    assert cli.build_parser.cache_info().misses == 1
    new = []
    for argv in calls:
        cli.build_parser.cache_clear()
        new.append(_outcome(capsys, argv))
    assert reused == new
    assert [code for code, _, _ in reused] == [0, 0, 2, "SystemExit(2)", 0, 0, 0]
    assert reused[2][2].startswith("error: ") and reused[3][2].startswith("usage: mucat mu-dm")
    assert cli.build_parser() is cli.build_parser()


def test_importing_the_cli_builds_no_parser():
    script = "import mucat.cli as c; print(c.build_parser.cache_info().currsize)"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True, env=env
    )
    assert result.stdout == "0\n"


FOOTPRINT = """\
import sys
import mucat, mucat.cli
print(sorted({"decimal", "fractions", "numbers", "json", "graphlib"} & set(sys.modules)))
from fractions import Fraction
c = mucat.poset_as_category(mucat.chain("ab"))
xi = mucat.IncidenceFunction(c, dict.fromkeys(c.morphisms, Fraction(2, 2)))
print(sorted(map(type, xi.values()), key=str))
text = '{"elements": ["a", "b", "c"], "covers": [["a", "b"], ["b", "c"]%s]}'
p = mucat.FinitePoset.from_json(text % "")
print(p.covers(), p.moebius("a", "c"))
try:
    mucat.FinitePoset.from_json(text % ', ["c", "a"]')
except mucat.InvalidPoset as exc:
    print(exc)
sys.exit(mucat.cli.main(["mu-cm", "--m", "5", "6,0,-1,-13", "--verify", "--format", "json"]))
"""


def test_importing_mucat_loads_none_of_the_deferred_modules():
    # -S: no site hooks, so sys.modules holds only what the interpreter and mucat load
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-S", "-c", FOOTPRINT],
                            capture_output=True, text=True, env=env)
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout.splitlines() == [
        "[]",
        "[<class 'int'>, <class 'int'>, <class 'int'>]",
        "[('a', 'b'), ('b', 'c')] 0",
        "cyclic cover input: 'c' and 'a'",
        '{"agree": true, "closed_form": 0, "convolution": 0, "lawvere": 0}',
    ]


def test_module_entry_point_exits_with_the_command_code():
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "mucat.cli", *argv],
                              capture_output=True, text=True, env=env)

    agree = run("mu-cm", "--m", "3", "2,0,0,-2", "--verify")
    assert (agree.returncode, agree.stdout, agree.stderr) == (0, "0 0 0 AGREE\n", "")
    refused = run("verify", "--m", "1")
    assert (refused.returncode, refused.stdout) == (2, "")
    assert refused.stderr.startswith("error: ") and refused.stderr.count("\n") == 1
