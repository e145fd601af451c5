"""Finite permutation group helpers."""

import itertools
import math
import random

import pytest

from treeclose.errors import TooLarge, ValidationError
from treeclose.permgroup import (
    StabChain,
    closure_chain,
    compose_perm,
    identity_perm,
    invert_perm,
    perm_from_cycles,
    perm_order,
    structure_fingerprint,
)

from germ_reference import mulclose


# brute-force references for structure_fingerprint, which reads these off a
# stabiliser chain


def is_closed(perms):
    s = set(perms)
    return all(compose_perm(a, b) in s for a in s for b in s)


def is_abelian(perms):
    els = list(perms)
    return all(
        compose_perm(a, b) == compose_perm(b, a) for i, a in enumerate(els) for b in els[i + 1 :]
    )


def is_transitive(perms, n):
    seen = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for p in perms:
            y = p[x]
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return len(seen) == n


def test_closure_of_nothing_is_trivial():
    g = tuple(closure_chain([], 4).elements())
    assert len(g) == 1
    assert identity_perm(4) in g


def test_closure_generates_s3():
    three_cycle = perm_from_cycles(3, [(0, 1, 2)])
    swap = perm_from_cycles(3, [(0, 1)])
    g = tuple(closure_chain([three_cycle, swap], 3).elements())
    assert len(g) == 6
    assert is_closed(g)
    assert not is_abelian(g)
    assert is_transitive(g, 3)


def test_closure_of_n_cycle_is_cyclic():
    for n in (2, 5, 7):
        cyc = perm_from_cycles(n, [tuple(range(n))])
        g = tuple(closure_chain([cyc], n).elements())
        assert len(g) == n
        assert is_abelian(g)


def test_closure_order_divides_factorial():
    rng = random.Random(3)
    for _ in range(10):
        n = rng.randint(2, 6)
        gens = []
        for _ in range(2):
            p = list(range(n))
            rng.shuffle(p)
            gens.append(tuple(p))
        g = tuple(closure_chain(gens, n).elements())
        assert math.factorial(n) % len(g) == 0
        assert is_closed(g)


def test_mulclose_multiplies_only_by_generators_that_add_something(monkeypatch):
    s4 = list(itertools.permutations(range(4)))
    used = set()

    def mul(a, b):
        used.add(b)
        return compose_perm(a, b)

    assert sorted(mulclose(s4, mul=mul)) == s4
    # each kept generator at least doubles the closure: 2**4 < 24 < 2**5
    assert len(used) <= 4
    # the limit trips exactly when the closure passes it
    monkeypatch.setenv("TREECLOSE_MAX_ELEMENTS", "24")
    assert len(mulclose(s4)) == 24
    monkeypatch.setenv("TREECLOSE_MAX_ELEMENTS", "23")
    with pytest.raises(TooLarge):
        mulclose(s4)


def test_mulclose_multiplies_old_elements_by_the_new_generator_only():
    # the elements there before a kept generator are closed under the
    # earlier ones, so they are multiplied by it alone; each element it
    # adds is multiplied by every kept generator
    swap = perm_from_cycles(4, [(0, 1)])
    cycle = perm_from_cycles(4, [(0, 1, 2, 3)])
    products = []

    def mul(a, b):
        products.append(b)
        return compose_perm(a, b)

    assert len(mulclose([swap, cycle, swap], mul=mul)) == 24
    # swap adds itself and the identity, each times swap; cycle multiplies
    # those two and adds 22 elements, each times both generators
    assert products.count(swap) == 2 + 22
    assert products.count(cycle) == 2 + 22


def test_perm_order():
    assert perm_order(identity_perm(5)) == 1
    assert perm_order(perm_from_cycles(5, [(0, 1), (2, 3, 4)])) == 6


def test_fingerprint_cyclic_six():
    cyc = perm_from_cycles(6, [tuple(range(6))])
    fp = structure_fingerprint(tuple(closure_chain([cyc], 6).elements()))
    assert fp["order"] == 6
    assert fp["abelian"] is True
    assert sorted(fp["element_orders"]) == [1, 2, 3, 3, 6, 6]
    assert fp["transitive"] is True


def test_fingerprint_s3():
    g = tuple(
        closure_chain([perm_from_cycles(3, [(0, 1, 2)]), perm_from_cycles(3, [(0, 1)])], 3).elements()
    )
    fp = structure_fingerprint(g)
    assert fp["order"] == 6
    assert fp["abelian"] is False
    assert sorted(fp["element_orders"]) == [1, 2, 2, 2, 3, 3]
    assert fp["transitive"] is True


def test_fingerprint_trivial_group():
    fp = structure_fingerprint([identity_perm(1)])
    assert fp["order"] == 1
    assert fp["abelian"] is True
    assert sorted(fp["element_orders"]) == [1]


def test_fingerprint_rejects_an_empty_or_unclosed_set():
    with pytest.raises(ValidationError, match="^empty permutation set$"):
        structure_fingerprint([])
    # S3 without one of its transpositions
    s3 = list(closure_chain([perm_from_cycles(3, [(0, 1, 2)]), perm_from_cycles(3, [(0, 1)])], 3).elements())
    for unclosed in (s3[:-1], [perm_from_cycles(3, [(0, 1, 2)])]):
        assert not is_closed(unclosed)
        with pytest.raises(ValidationError, match="^set is not closed under composition$"):
            structure_fingerprint(unclosed)


def test_fingerprint_invariant_under_conjugation():
    rng = random.Random(9)
    gens = [perm_from_cycles(4, [(0, 1, 2, 3)]), perm_from_cycles(4, [(0, 1)])]
    g = tuple(closure_chain(gens, 4).elements())
    c = list(range(4))
    rng.shuffle(c)
    c = tuple(c)
    conj = [compose_perm(invert_perm(c), compose_perm(p, c)) for p in gens]
    h = tuple(closure_chain(conj, 4).elements())
    fa, fb = structure_fingerprint(g), structure_fingerprint(h)
    assert fa["order"] == fb["order"]
    assert fa["abelian"] == fb["abelian"]
    assert sorted(fa["element_orders"]) == sorted(fb["element_orders"])
    assert fa["transitive"] == fb["transitive"]


# --- stabiliser chains -----------------------------------------------------------


def _random_group(rng, n):
    gens = []
    for _ in range(rng.randint(0, 3)):
        p = list(range(n))
        moved = rng.sample(range(n), rng.randint(0, n))
        images = moved[:]
        rng.shuffle(images)
        for a, b in zip(moved, images):
            p[a] = b
        gens.append(tuple(p))
    return gens


@pytest.mark.parametrize("seed", range(40))
def test_chain_against_the_closure(seed):
    # order of every base prefix's pointwise stabiliser, its generators, and
    # the listing in lexicographic order of the base positions of the images
    rng = random.Random(seed)
    n = rng.randint(1, 7)
    gens = _random_group(rng, n)
    group = set(mulclose(gens + [identity_perm(n)]))
    base = list(range(n))
    rng.shuffle(base)
    chain = StabChain(gens, base)
    pos = {b: i for i, b in enumerate(base)}
    assert list(chain.elements()) == sorted(group, key=lambda g: [pos[g[b]] for b in base])
    fp = structure_fingerprint(group)
    assert fp == {
        "order": len(group),
        "abelian": is_abelian(group),
        "transitive": is_transitive(group, n),
        "element_orders": tuple(sorted(map(perm_order, group))),
    }
    # the group without its last element, when that leaves it unclosed
    part = sorted(group)[:-1]
    if part and not is_closed(part):
        with pytest.raises(ValidationError, match="^set is not closed under composition$"):
            structure_fingerprint(part)
    for prefix in range(n + 1):
        fixing = {g for g in group if all(g[b] == b for b in base[:prefix])}
        assert chain.order(prefix) == len(fixing)
        assert set(mulclose(chain.generators(prefix) + [identity_perm(n)])) == fixing
        points = rng.sample(range(n), prefix)
        assert chain.fixing_order(points) == sum(all(g[x] == x for x in points) for g in group)


@pytest.mark.parametrize("seed", range(40))
def test_chain_refuses_exactly_the_groups_past_the_limit(seed, monkeypatch):
    # the same groups as above: with a refusal message, the chain raises it
    # iff the order passes the limit; without one, it counts past the limit
    rng = random.Random(seed)
    n = rng.randint(1, 7)
    gens = _random_group(rng, n)
    order = len(set(mulclose(gens + [identity_perm(n)])))
    base = list(range(n))
    rng.shuffle(base)
    for limit in sorted({max(order // 2, 1), max(order - 1, 1), order}):
        monkeypatch.setenv("TREECLOSE_MAX_ELEMENTS", str(limit))
        if order > limit:
            with pytest.raises(TooLarge, match=f"^more than {limit} in this group$"):
                StabChain(gens, base, "more than {} in this group")
        else:
            assert StabChain(gens, base, "more than {} in this group").order() == order
        assert StabChain(gens, base).order() == order


def test_chain_takes_generators_only_until_it_refuses(monkeypatch):
    # adjacent transpositions of 0..19: the first four generate Sym(5), of
    # order 120, and the chain refuses before it asks for a fifth
    taken = []

    def swaps():
        for i in range(19):
            taken.append(i)
            yield perm_from_cycles(20, [(i, i + 1)])

    monkeypatch.setenv("TREECLOSE_MAX_ELEMENTS", "100")
    with pytest.raises(TooLarge, match="^more than 100 in this group$"):
        StabChain(swaps(), range(20), "more than {} in this group")
    assert taken == [0, 1, 2, 3]


def test_chain_refuses_before_it_builds_what_shows_the_order(monkeypatch):
    # each of these orbits holds more elements than the entry cap of 100 x
    # limit allows; a chain that refuses stops first, one that counts
    # past the limit stops at the cap before it builds any of them
    monkeypatch.setenv("TREECLOSE_MAX_ELEMENTS", "1000")
    # a 500-cycle and a 3-cycle: the generator's order, 1,500, divides
    # the group's before any orbit is grown
    g = perm_from_cycles(503, [tuple(range(500)), (500, 501, 502)])
    # Sym(1000): the orbits of 1,000 and 999 points grow from one generator
    sym = [perm_from_cycles(1000, [(0, 1)]), perm_from_cycles(1000, [tuple(range(1000))])]
    for gens, n in (([g], 503), (sym, 1000)):
        with pytest.raises(TooLarge, match="^more than 1000 in this group$"):
            StabChain(gens, range(n), "more than {} in this group")
        with pytest.raises(TooLarge, match=r"^stabilizer chain exceeded 100 x 1000 entries$"):
            StabChain(gens, range(n))


def test_chain_orders_past_any_listing():
    # Sym(12) from a transposition and a 12-cycle, and its point stabilisers
    n = 12
    chain = StabChain([perm_from_cycles(n, [(0, 1)]), perm_from_cycles(n, [tuple(range(n))])],
                      range(n))
    assert [chain.order(i) for i in range(n + 1)] == [
        math.factorial(n - i) for i in range(n + 1)
    ]


def test_chain_listing_stops_at_the_element_limit(monkeypatch):
    chain = StabChain([perm_from_cycles(5, [(0, 1)]), perm_from_cycles(5, [(0, 1, 2, 3, 4)])],
                      range(5))
    monkeypatch.setenv("TREECLOSE_MAX_ELEMENTS", "100")
    listing = chain.elements()
    assert len(list(itertools.islice(listing, 100))) == 100
    with pytest.raises(TooLarge, match="^listing exceeded 100 elements$"):
        next(listing)


def test_chain_entry_cap(monkeypatch):
    # the chain of Sym(10) builds 502 perms of 10 positions, transversal
    # elements, their inverses, the Schreier generators it sifts and the
    # sifts of its two input generators: past 100 x 50 entries, and within
    # 100 x 51
    gens = [perm_from_cycles(10, [(0, 1)]), perm_from_cycles(10, [tuple(range(10))])]
    monkeypatch.setenv("TREECLOSE_MAX_ELEMENTS", "50")
    with pytest.raises(TooLarge, match=r"^stabilizer chain exceeded 100 x 50 entries$"):
        StabChain(gens, range(10))
    monkeypatch.setenv("TREECLOSE_MAX_ELEMENTS", "51")
    assert StabChain(gens, range(10)).order() == math.factorial(10)


def test_membership_builds_nothing_toward_the_entry_cap(monkeypatch):
    # within 100 x 51 entries the Sym(10) chain is built (see above); each
    # membership sift makes up to 9 more perms of 10 positions, so 10,000
    # of them would pass the cap a hundred times over if they counted
    gens = [perm_from_cycles(10, [(0, 1)]), perm_from_cycles(10, [tuple(range(10))])]
    monkeypatch.setenv("TREECLOSE_MAX_ELEMENTS", "51")
    chain = StabChain(gens, range(10))
    rng = random.Random(4)
    for _ in range(10000):
        p = list(range(10))
        rng.shuffle(p)
        assert tuple(p) in chain
    # and a sift leaves out what the group does not hold
    even = StabChain([perm_from_cycles(10, [(0, 1, 2)]), perm_from_cycles(10, [tuple(range(1, 10))])],
                     range(10))
    assert even.order() == math.factorial(10) // 2
    assert perm_from_cycles(10, [(0, 1)]) not in even
    assert perm_from_cycles(10, [(0, 1), (2, 3)]) in even


def test_generators_are_sifted_before_they_are_kept():
    # every element of Sym(4) given as a generator: only the three that
    # leave a residue through the chain of the ones before them become
    # strong generators, not all 23 non-identity ones
    s4 = list(itertools.permutations(range(4)))
    chain = StabChain(s4, range(4))
    assert chain.order() == 24
    assert chain.generators() == [(0, 1, 3, 2), (0, 2, 1, 3), (1, 0, 2, 3)]
