"""Acceptance suite: the executable exit criteria for this library.

Each test covers one numbered criterion, checks it at its stated tolerance
(exact integer/rational equality everywhere; three criteria also carry wall
clock budgets), and prints one PASS/FAIL line (visible with ``pytest -s``).
"""

import random
import time

import pytest

from mucat import (
    IncidenceFunction,
    chain,
    cm_moebius_closed_form,
    cm_slice,
    convolve,
    dm_compose,
    dm_moebius_closed_form,
    dm_slice,
    functor_F,
    CmMorphism,
    DmMorphism,
    division_category,
    find_semigroup_violation,
    interval_as_poset,
    is_one_way,
    lawvere_interval,
    meet_semilattice,
    moebius_inversion_check,
    moebius_of_slice,
    moebius_via_idempotent_lattice,
    moebius_via_lawvere,
    moebius_via_quotients,
)

from helpers import B2, boolean_lattice, classical_moebius, divisor_poset, fork_poset, is_total_order

MODULI = (2, 3, 5)
LEVEL_MIN = -8
DM_SPAN = 10


@pytest.fixture(scope="module")
def cm_windows():
    return {m: cm_slice(m, LEVEL_MIN) for m in MODULI}


@pytest.fixture(scope="module")
def dm_windows():
    return {m: dm_slice(m, (m - 1) + DM_SPAN) for m in MODULI}


def report(name, violations):
    status = "PASS" if not violations else "FAIL"
    print(f"[{status}] {name}")
    assert not violations, f"{name}: {violations[:5]} (+{max(0, len(violations) - 5)} more)"


def test_criterion_1_three_way_mu_agreement_on_level_windows(cm_windows):
    started = time.perf_counter()
    violations = []
    checked = 0
    for m in MODULI:
        c = cm_windows[m]
        mu = moebius_of_slice(c)
        for f in c.morphisms:
            closed = cm_moebius_closed_form(f)
            law = moebius_via_lawvere(c, f)
            conv = mu[f]
            if not (closed == law == conv):
                violations.append((m, f, closed, law, conv))
            checked += 1
    elapsed = time.perf_counter() - started
    if elapsed >= 30.0:
        violations.append(("runtime", elapsed))
    report(
        f"criterion 1: closed form == interval mu == convolution mu on {checked} "
        f"level-category morphisms in {elapsed:.1f}s",
        violations,
    )


def test_criterion_2_residue_category_reproduction(dm_windows):
    started = time.perf_counter()
    violations = []
    checked = 0
    for m in MODULI:
        d = dm_windows[m]
        mu = moebius_of_slice(d)
        for f in d.morphisms:
            if f.alpha - f.x > DM_SPAN:
                continue
            closed = dm_moebius_closed_form(f)
            law = moebius_via_lawvere(d, f)
            if not (closed == law == mu[f]):
                violations.append((m, f, closed, law, mu[f]))
            if len(d.factorizations(f)) != f.alpha - f.x + 1:
                violations.append((m, f, "factorization count"))
            if not is_total_order(interval_as_poset(lawvere_interval(d, f))):
                violations.append((m, f, "interval not a chain"))
            checked += 1
    elapsed = time.perf_counter() - started
    if elapsed >= 5.0:
        violations.append(("runtime", elapsed))
    report(
        f"criterion 2: chain intervals and three-way mu agreement on {checked} "
        f"residue-category morphisms in {elapsed:.1f}s",
        violations,
    )


def test_criterion_3_one_way_lattice_and_hom_structure(cm_windows):
    violations = []
    intervals = 0
    for m in MODULI:
        c = cm_windows[m]
        for f in c.morphisms:
            iv = lawvere_interval(c, f)
            if not is_one_way(iv):
                violations.append((m, f, "interval not one-way"))
            poset = interval_as_poset(iv)
            if not poset.is_lattice():
                violations.append((m, f, "interval not a lattice"))

            def coords(obj):
                b = obj.right.a
                return b, obj.right.j - (f.a - b + f.j)

            for one in iv.objects:
                b1, t1 = coords(one)
                for two in iv.objects:
                    b2, t2 = coords(two)
                    hom = iv.homs.get((one, two), ())
                    if len(hom) > 1:
                        violations.append((m, f, "hom-set too big"))
                    if bool(hom) != (b1 <= b2 and t2 <= t1):
                        violations.append((m, f, "hom-set existence"))
            intervals += 1
    report(
        f"criterion 3: one-way + lattice + singleton-hom structure of {intervals} intervals",
        violations,
    )


def test_criterion_4_convolution_algebra(cm_windows, dm_windows):
    violations = []
    rng = random.Random(1315423911)
    for label, c in [(f"cm{m}", cm_windows[m]) for m in MODULI] + [
        (f"dm{m}", dm_windows[m]) for m in MODULI
    ]:
        mu = moebius_of_slice(c)
        zeta = IncidenceFunction.zeta(c)
        delta = IncidenceFunction.delta(c)
        for f in c.morphisms:
            if convolve(c, mu, zeta, f) != delta[f]:
                violations.append((label, f, "mu * zeta"))
            if convolve(c, zeta, mu, f) != delta[f]:
                violations.append((label, f, "zeta * mu"))
        for trial in range(100):
            eta = IncidenceFunction({f: rng.randint(-9, 9) for f in c.morphisms})
            if not moebius_inversion_check(c, eta):
                violations.append((label, trial, "inversion check"))
    report("criterion 4: mu*zeta = delta = zeta*mu and 100 random inversions per slice", violations)


def test_criterion_5_grid_product_law(cm_windows):
    def chain_mu(k):
        return 1 if k == 0 else (-1 if k == 1 else 0)

    violations = []
    for m in MODULI:
        c = cm_windows[m]
        for f in c.morphisms:
            grid = chain_mu(f.a) * chain_mu(f.i - f.j - f.a)
            if grid != cm_moebius_closed_form(f):
                violations.append((m, f, "closed form"))
            if grid != moebius_via_lawvere(c, f):
                violations.append((m, f, "interval value"))
    report("criterion 5: grid product law reproduces the closed form", violations)


def test_criterion_6_level_collapsing_functor():
    m, level_min = 3, -6
    c = cm_slice(m, level_min)
    d = dm_slice(m, (m - 1) + 12)
    violations = []

    for (g, f), gf in c.compose.items():
        if functor_F(gf) != dm_compose(m, functor_F(g), functor_F(f)):
            violations.append((g, f, "functoriality"))
    for x in c.objects:
        image = functor_F(c.identities[x])
        if image != DmMorphism(x.residue, x.residue):
            violations.append((x, "identity preservation"))

    window = set(c.morphisms)
    for x in range(m):
        for alpha in range(x, x - level_min + 1):
            preimage = CmMorphism(alpha - x, x, 0, -(alpha - x))
            if preimage not in window or functor_F(preimage) != DmMorphism(alpha, x):
                violations.append((alpha, x, "surjectivity"))

    for f in c.morphisms:
        iv = lawvere_interval(c, f)
        image_pairs = {(functor_F(o.left), functor_F(o.right)) for o in iv.objects}
        chain_pairs = set(d.factorizations(functor_F(f)))
        if image_pairs != chain_pairs:
            violations.append((f, "interval image is not the factorization chain"))
        if moebius_via_lawvere(d, functor_F(f)) != dm_moebius_closed_form(functor_F(f)):
            violations.append((f, "chain mu mismatch"))
    report("criterion 6: functor preserves composition, is surjective, maps intervals to chains", violations)


def test_criterion_7_inverse_semigroup_rules():
    corpus = [chain([f"c{k}" for k in range(n)]) for n in range(1, 6)]
    corpus += [B2, boolean_lattice(3), fork_poset()]
    violations = []
    for poset in corpus:
        s = meet_semilattice(poset)
        if find_semigroup_violation(s) is not None:
            violations.append((poset, "invalid semigroup"))
            continue
        c = division_category(s)
        mu = moebius_of_slice(c)
        for morphism in c.morphisms:
            quot = moebius_via_quotients(c, morphism)
            idem = moebius_via_idempotent_lattice(s, morphism)
            law = moebius_via_lawvere(c, morphism)
            if not (quot == idem == law == mu[morphism]):
                violations.append((morphism, quot, idem, law, mu[morphism]))
        # semilattice reduction: the division category is the poset itself
        for x in poset.elements:
            for y in poset.elements:
                if poset.leq(x, y):
                    if mu[(x, y)] != poset.moebius(x, y):
                        violations.append((x, y, "semilattice reduction"))
    report("criterion 7: quotient, idempotent-lattice, interval and convolution rules agree", violations)


def test_criterion_8_divisor_poset_oracle():
    started = time.perf_counter()
    violations = []
    for n in range(1, 201):
        value = divisor_poset(n).moebius(1, n)
        if value != classical_moebius(n):
            violations.append((n, value))
    elapsed = time.perf_counter() - started
    if elapsed >= 1.0:
        violations.append(("runtime", elapsed))
    report(
        f"criterion 8: divisor-poset mu equals factorization Möbius for n <= 200 in {elapsed:.2f}s",
        violations,
    )
