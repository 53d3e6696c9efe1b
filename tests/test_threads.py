"""Public objects shared across threads: every lazily built table of a slice or
a semigroup is published whole, so concurrent first reads give the values a
sequential run gives.

Each test starts its threads together at a barrier, with the interpreter's
switch interval shortened so that they interleave inside the first reads, and
each thread keeps its own exceptions, so that a failure names them here
instead of reaching ``threading.excepthook``."""

import sys
import threading

from mucat import (
    division_category,
    find_semigroup_violation,
    find_slice_violation,
    moebius_via_idempotent_lattice,
    moebius_via_lawvere,
    moebius_via_quotients,
)
from mucat.category import _rows

from helpers import boolean_lattice, meet_semilattice

THREADS = 4


def _together(read) -> tuple[list, list]:
    """(results, errors) of ``read(i)`` run in THREADS threads started at one
    barrier; results are listed by thread."""
    barrier, results, errors = threading.Barrier(THREADS, timeout=60), [None] * THREADS, []

    def run(i):
        try:
            barrier.wait()
            results[i] = read(i)
        except Exception as exc:  # kept for the assertion, not the excepthook
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    return results, errors


def _b7():
    """A fresh division category of the boolean B_7 meet semilattice (2,187
    morphisms), its tables unread, and a composable pair (f, 1_dom f)."""
    c = division_category(meet_semilattice(boolean_lattice(7)))
    f = c.morphisms[-1]
    return c, (f, c.identities[c.dom[f]])


def test_first_reads_in_four_threads_equal_a_sequential_run():
    ref, pair = _b7()
    expected = [(find_slice_violation(ref), ref.morphisms_from(x), ref.compose[pair])
                for x in ref.objects[:THREADS]]
    c, _ = _b7()
    results, errors = _together(
        lambda i: (find_slice_violation(c), c.morphisms_from(c.objects[i]), c.compose[pair]))
    assert errors == []
    assert results == expected
    assert [c.morphisms_from(x) for x in c.objects] == [ref.morphisms_from(x) for x in ref.objects]
    assert (c._slot, _rows(c), c._associative) == (ref._slot, _rows(ref), ref._associative)


def _three_rules(s, c) -> list:
    """The three rules' values at every morphism of c, in slice order."""
    return [(moebius_via_quotients(c, f), moebius_via_idempotent_lattice(s, f),
             moebius_via_lawvere(c, f)) for f in c.morphisms]


def _b5():
    """(s, c): a fresh boolean B_5 meet semilattice s, unread, and the division
    category of a checked twin of s, marked, so that the rules build every
    cache in turn: s's inverses, idempotent poset and its columns, c's
    quotient posets and its per-object orders."""
    checked = meet_semilattice(boolean_lattice(5))
    assert find_semigroup_violation(checked) is None
    c = division_category(checked)
    assert c._associative
    return meet_semilattice(boolean_lattice(5)), c


def test_the_three_semigroup_rules_in_four_threads_equal_a_sequential_run():
    expected = _three_rules(*_b5())
    s, c = _b5()
    results, errors = _together(lambda i: _three_rules(s, c))
    assert errors == []
    assert results == [expected] * THREADS
