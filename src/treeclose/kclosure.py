"""Exact laboratory for k-closures of groups acting on regular trees.

Everything here works on finite windows with exact arithmetic. Checks
that are only semi-decidable at finite truncation return a three-valued
Verdict: "holds" (possibly truncation-qualified, see the notes), "fails"
(always backed by an exact witness), or "inconclusive" (budget ran out
or no certificate applies). Witnesses and details are kept JSON-safe so
reports can serialize them verbatim.
"""

from __future__ import annotations

import itertools
import random
from operator import itemgetter

from .errors import (
    AmplitudeMismatch,
    DegreeMismatch,
    FactorOutsideGroup,
    RadiusTooSmall,
    Record,
    TooLarge,
    ValidationError,
    max_elements,
    read_int,
)
from .permgroup import StabChain, closure_chain, perm_order, structure_fingerprint
from .tree_core import (
    ROOT,
    Germ,
    VertexAddr,
    are_adjacent,
    ball_addresses,
    ball_size,
    ball_vertices,
    compose,
    germ_of_map,
    invert,
    iterate_ball_germs,
    project_to_path,
    restrict,
    sorted_germs,
    thicken,
    tree_distance,
)

HOLDS = "holds"
FAILS = "fails"
INCONCLUSIVE = "inconclusive"


class Verdict(Record):
    _fields = ("outcome", "witness", "budget_used", "notes", "details")

    def __init__(self, outcome, witness=None, budget_used=0, notes=(), details=None):
        super().__init__(outcome, witness, budget_used, notes, {} if details is None else details)

    def to_json(self):
        return {
            "outcome": self.outcome,
            "witness": self.witness,
            "budget_used": self.budget_used,
            "notes": list(self.notes),
            "details": self.details,
        }


def germ_to_json(g):
    return {
        "src": g.src_center.render(),
        "dst": g.dst_center.render(),
        "radius": g.radius,
        "pairs": g.rendered_pairs(),
    }


def germ_from_json(data):
    if not isinstance(data, dict):
        raise ValidationError("a germ must be an object")
    try:
        mapping = {
            VertexAddr.parse(a): VertexAddr.parse(b) for a, b in data["pairs"]
        }
        src, dst = VertexAddr.parse(data["src"]), VertexAddr.parse(data["dst"])
    except KeyError as exc:
        raise ValidationError(f"germ is missing {exc.args[0]!r}") from None
    except (TypeError, ValueError):
        raise ValidationError("germ 'pairs' must be [vertex, vertex] pairs") from None
    return Germ.from_mapping(src, dst, read_int(data, "radius", where="germ"), mapping)


def edge_region(v, w, k, degree):
    """B(v,k-1) ∪ B(w,k-1), which equals B(v,k) ∩ B(w,k) for an edge."""
    if k < 1:
        raise ValidationError("need k >= 1")
    if not are_adjacent(v, w):
        raise ValidationError(f"{v!r} and {w!r} are not adjacent")
    region = thicken((v, w), k - 1, degree)
    if ball_size(degree, k) <= 10**5:
        inter = set(ball_vertices(v, k, degree)) & set(
            ball_vertices(w, k, degree)
        )
        if set(region) != inter:
            raise ValidationError("edge region identity violated")
    return region


# --- legality ---------------------------------------------------------------


def check_k_legal(model, germ, k, cache=None, explain=False):
    """Exact membership test for r-germs of the k-closure.

    The germ is k-legal when, around every vertex u whose k-ball sits
    inside the domain, it agrees with some model element: u and its image
    x lie in the orbit of one representative r, and T_x⁻¹ ∘ (k-germ at u)
    ∘ T_u, for the transporter germs T out of r, sifts through the model's
    stab_germ_chain(r, k). The cache maps each vertex to its r, T and T⁻¹
    at radius k, so calls share one only for the same model and k.
    """
    if k < 1:
        raise ValidationError("need k >= 1")
    if germ.radius < k:
        raise RadiusTooSmall(
            f"germ radius {germ.radius} cannot be tested at k={k}"
        )
    deg = model.degree
    cache = {} if cache is None else cache
    for u in ball_vertices(germ.src_center, germ.radius - k, deg):
        x = germ.apply(u)
        for w in (u, x):
            if w not in cache:
                r, t = model.from_rep(w)
                into = model.germ_of(t, r, k)
                cache[w] = r, into, invert(into)
        (r, into, _), (rx, _, back) = cache[u], cache[x]
        local = compose(back, compose(restrict(germ, u, k, deg), into))
        if rx != r or local.perm not in model.stab_germ_chain(r, k):
            return (False, u) if explain else False
    return (True, None) if explain else True


def element_germs_at(model, center, radius, target):
    """The set of germs at (center -> target, radius) of model elements."""
    t = model.transporter(center, target)
    if t is None:
        return frozenset()
    tg = model.germ_of(t, center, radius)
    stab = model.stab_germ_chain(center, radius).elements()
    return frozenset(compose(tg, Germ(center, center, radius, s, model.degree)) for s in stab)


def closure_germs_at_targets(model, center, radius, k, targets=None):
    """All k-legal germs at the given radius from center to each target."""
    if targets is None:
        targets = (center,) + tuple(
            center.step(c) for c in range(model.degree)
        )
    cache = {}
    out = []
    for w in targets:
        for germ in iterate_ball_germs(model.degree, center, w, radius):
            if check_k_legal(model, germ, k, cache):
                out.append(germ)
    return sorted_germs(out)


def germ_closure(germs):
    """Composition closure of germs that all fix one center at one radius,
    as a frozenset; TooLarge past the element limit."""
    germs = list(germs)
    if not germs:
        return frozenset()
    v, radius, deg = germs[0].src_center, germs[0].radius, germs[0].degree
    if any((g.src_center, g.dst_center, g.radius) != (v, v, radius) for g in germs):
        raise ValidationError("closure germs must all fix one center at one radius")
    chain = closure_chain([g.perm for g in germs], len(germs[0].perm))
    return frozenset(Germ(v, v, radius, p, deg) for p in chain.elements())


def local_action(model, v):
    """Fingerprint of the permutation group induced on the edges at v."""
    # position c + 1 of the radius-1 ball is v.step(c)
    perms = [tuple(x - 1 for x in p[1:]) for p in model.stab_germ_chain(v, 1).elements()]
    fp = structure_fingerprint(perms)
    fp["degree"] = model.degree
    fp["cyclic"] = fp["order"] in fp["element_orders"]
    return fp


# --- discreteness -----------------------------------------------------------


def _orbit_edges(model, k):
    deg = model.degree
    edges = []
    for v in model.orbit_reps():
        for c in range(deg):
            w = v.step(c)
            for e in ((v, w), (w, v)):
                if e not in edges:
                    edges.append(e)
    return [(e, edge_region(e[0], e[1], k, deg)) for e in edges]


def nondiscreteness_certificate(model, k, budget=2000):
    """Search the model's candidate stream for an element fixing the
    k-region of some edge while moving the k-ball on the far side.

    A witness is exact. Without one the verdict stays inconclusive:
    candidates come from the model group only, so even a provably
    discrete model group says nothing about its k-closure here.
    """
    deg = model.degree
    edges = _orbit_edges(model, k)
    proofs = [model.region_fixator_trivial(region) for _, region in edges]
    if all(p is True for p in proofs):
        return Verdict(
            INCONCLUSIVE,
            budget_used=0,
            notes=(
                "every edge region has a provably trivial pointwise fixator "
                "in the model group (the group itself is discrete); no "
                "witness can exist among model elements",
            ),
            details={"model_group_discrete": True},
        )
    tested = 0
    for g in model.nondiscreteness_candidates(k):
        if tested >= budget:
            break
        tested += 1
        for (v, w), region in edges:
            if any(model.act(g, x) != x for x in region):
                continue
            far = ball_vertices(w, k, deg)
            moved = [y for y in far if model.act(g, y) != y]
            if not moved:
                continue
            # independent re-verification through a single germ
            germ = model.germ_of(g, v, k + 1)
            if not germ.fixes(region) or all(
                germ.apply(y) == y for y in far
            ):
                raise ValidationError("witness failed germ re-verification")
            return Verdict(
                HOLDS,
                witness={
                    "element": model.element_to_json(g),
                    "edge": [v.render(), w.render()],
                    "moved_vertex": moved[0].render(),
                },
                budget_used=tested,
                notes=(
                    "a nontrivial element fixes the edge region pointwise "
                    "yet moves the far k-ball; re-verified on its germ",
                ),
                details={"k": k},
            )
    return Verdict(
        INCONCLUSIVE,
        budget_used=tested,
        notes=(f"no witness among the first {tested} candidates",),
        details={"k": k},
    )


def discreteness_certificate(model, k):
    """Exact discreteness proof: trivial pointwise fixator of some k-ball."""
    for v in model.orbit_reps():
        ball = ball_vertices(v, k, model.degree)
        if model.region_fixator_trivial(ball) is True:
            return Verdict(
                HOLDS,
                notes=(
                    f"the pointwise fixator of the radius-{k} ball at "
                    f"{v.render()} is provably trivial, so the group is "
                    "discrete",
                ),
                details={"vertex": v.render(), "radius": k},
            )
    return Verdict(
        INCONCLUSIVE,
        notes=("no ball-fixator triviality certificate at this radius",),
        details={"radius": k},
    )


# --- independence properties -------------------------------------------------


_NO_FACTORIZATION = (
    "the model certifies both one-sided fixators are "
    "trivial, yet the region fixator is not; no "
    "factorization exists"
)


def _two_sided_witness(fixator, tube, v, w, R, deg):
    """A non-identity map of the fixator chain as a germ on B(v, R): the
    first in its listing that moves both sides of the edge inside that
    ball, else the first that is not the identity. When that one moves
    nothing in B(v, R), it moves something in B(w, R), and the germ is
    taken there."""
    # prefer a map whose two-sided movement is visible inside B(v, R)
    near = {v: [], w: []}
    for p, x in enumerate(tube):
        dv, dw = tree_distance(x, v), tree_distance(x, w)
        if dv != dw and dv <= R:
            near[v if dv < dw else w].append(p)
    ident = tuple(range(len(tube)))
    pick = None
    for m in fixator.elements():
        if m == ident:
            continue
        pick = pick or m
        if all(any(m[p] != p for p in side) for side in near.values()):
            pick = m
            break
    image = {x: tube[i] for x, i in zip(tube, pick)}.__getitem__
    germ = germ_of_map(image, v, R, deg)
    return germ_of_map(image, w, R, deg) if germ.is_identity_map else germ


def _path_window(model, path, region, R):
    """The tube thicken(path, R), the fixator of the region on it as a
    chain (see fixator_maps_on), and the tube positions of the fiber over
    each path vertex: the vertices nearest it."""
    tube = thicken(path, R, model.degree)
    fixator = model.fixator_maps_on(tube, region)
    fibers = {x: [] for x in path}
    for p, y in enumerate(tube):
        fibers[project_to_path(y, path)].append(p)
    return tube, fixator, fibers


def ipk_check(model, v, w, k, R):
    """Window test of the edge-independence property at (v, w).

    The fixator F of the edge k-region acts on the tube B(v,R) ∪ B(w,R),
    as a stabiliser chain. Independence predicts every element of F
    factors as (trivial on the w half) after (trivial on the v half); the
    counts below are orders of pointwise stabilisers in F. Product
    equality gives Holds, saturated at this window. On a product gap
    the verdict is Fails only when the model certifies that the true
    one-sided fixators are both trivial; the factorization would then
    force the fixator set itself to be trivial, and it is not. Without
    that certificate a gap stays Inconclusive: the window subsets only
    over-approximate the true one-sided fixators.
    """
    if R < k:
        raise ValidationError("window radius must be at least k")
    if tree_distance(v, w) != 1:
        raise ValidationError("(v, w) must be an edge")
    deg = model.degree
    tube, fixator, fibers = _path_window(model, (v, w), edge_region(v, w, k, deg), R)
    fixator_count = fixator.order()
    left_window = fixator.fixing_order(fibers[w])
    right_window = fixator.fixing_order(fibers[v])
    certified = bool(model.one_sided_fixators_trivial((v, w)))
    if certified:
        left_count = right_count = 1
    else:
        left_count, right_count = left_window, right_window
    # L and R are subgroups of F, and every tube vertex is strictly nearer
    # v or strictly nearer w, so L ∩ R = {id} and L·R is a subset of F
    # with |L|·|R| elements
    missing_count = fixator_count - left_count * right_count
    details = {
        "fixator_count": fixator_count,
        "fixing_w_side_count": left_count,
        "fixing_v_side_count": right_count,
        "w_side_window_count": left_window,
        "v_side_window_count": right_window,
        "one_sided_trivial_certified": certified,
        "missing_count": missing_count,
        "window_radius": R,
        "k": k,
    }
    if not missing_count:
        return Verdict(
            HOLDS,
            details=details,
            notes=(
                "every region-fixator map factors through the two "
                f"one-sided subsets; saturated at window radius {R}",
            ),
        )
    if certified:
        # L = R = {id}: every non-identity map is missing
        witness = _two_sided_witness(fixator, tube, v, w, R, deg)
        return Verdict(
            FAILS,
            witness={"germ": germ_to_json(witness)},
            details=details,
            notes=(_NO_FACTORIZATION,),
        )
    return Verdict(
        INCONCLUSIVE,
        details=details,
        notes=(
            "the window one-sided subsets do not reproduce the fixator "
            "set, but they only over-approximate the true one-sided "
            "fixators, so the gap is not certified as a failure",
        ),
    )


def pk_check(model, path, k, R):
    """Window test of the path-independence property.

    Fixators of the thickened path region are restricted to the fibers
    over each path vertex; independence predicts the full fixator set is
    the product of its fiber marginals. The marginal of fiber X has
    |F| / |F_(X)| elements, F_(X) the maps fixing X; a product of at most
    10^4 is re-verified by exhaustive reconstruction. On a single edge
    whose one-sided fixators the model certifies trivial, the property
    forces F = {id}, as in the edge-independence check: a gap fails with
    the count of unrealized combinations, any other nontrivial F with
    that check's witness germ. All other gaps stay inconclusive.
    """
    if k < 1:
        raise ValidationError("need k >= 1")
    if R < k - 1:
        raise ValidationError("window radius must be at least k - 1")
    path = tuple(path)
    if len(path) < 2:
        raise ValidationError("need a path with at least one edge")
    for a, b in zip(path, path[1:]):
        if not are_adjacent(a, b):
            raise ValidationError(f"{a!r} and {b!r} are not adjacent")
    if tree_distance(path[0], path[-1]) != len(path) - 1:
        raise ValidationError("the path turns back: it must be a geodesic")
    deg = model.degree
    tube, fixator, fibers = _path_window(model, path, thicken(path, k - 1, deg), R)
    fixator_count = fixator.order()
    counts = [fixator_count // fixator.fixing_order(fibers[x]) for x in path]
    product_count = 1
    for count in counts:
        product_count *= count
    details = {
        "fixator_count": fixator_count,
        "fiber_counts": {x.render(): count for x, count in zip(path, counts)},
        "product_count": product_count,
        "window_radius": R,
        "k": k,
        "path": [x.render() for x in path],
    }
    certified = len(path) == 2 and bool(
        model.one_sided_fixators_trivial((path[0], path[1]))
    )
    if product_count == fixator_count and not (certified and fixator_count > 1):
        if product_count <= 10**4:
            # a fiber's marginal of a map is the images of the fiber's
            # positions; the fibers partition the tube, so a map is the
            # tuple of its marginals
            marginal_of = [itemgetter(*fibers[x]) for x in path]
            listing = list(fixator.elements())
            marginals = [set(map(get, listing)) for get in marginal_of]
            realized = {tuple([get(m) for get in marginal_of]) for m in listing}
            if [len(seen) for seen in marginals] != counts or set(
                itertools.product(*marginals)
            ) != realized:
                raise ValidationError("fiber reconstruction inconsistency")
            details["reconstruction"] = "exhaustive"
        return Verdict(
            HOLDS,
            details=details,
            notes=(
                "the restriction map to fiber marginals is bijective "
                f"at window radius {R}",
            ),
        )
    details["one_sided_trivial_certified"] = certified
    if certified and product_count != fixator_count:
        return Verdict(
            FAILS,
            witness={"unrealized_combinations": product_count - fixator_count},
            details=details,
            notes=(
                "fiber marginals admit combinations no region fixator "
                "realizes, and the model certifies both one-sided "
                "fixators are trivial",
            ),
        )
    if certified:
        witness = _two_sided_witness(fixator, tube, path[0], path[1], R, deg)
        return Verdict(
            FAILS,
            witness={"germ": germ_to_json(witness)},
            details=details,
            notes=(_NO_FACTORIZATION,),
        )
    return Verdict(
        INCONCLUSIVE,
        details=details,
        notes=(
            "fiber product is not reconstructed at this window; the gap "
            "is not certified as a failure",
        ),
    )


# --- closure comparison -------------------------------------------------------


def germ_group_difference(chain_a, chain_b):
    """First element of chain_a's listing outside chain_b, else of
    chain_b's outside chain_a; None when the groups are equal. For two
    stab_germ_chain results at one vertex and radius, that is the least
    germ of (a - b) or else (b - a) in sorted_germs order."""
    if chain_a.order() == chain_b.order() and all(g in chain_b for g in chain_a.generators()):
        return None
    for one, other in ((chain_a, chain_b), (chain_b, chain_a)):
        for p in one.elements():
            if p not in other:
                return p


def first_stab_germ_difference(model_a, model_b, v=ROOT, kmax=4):
    """Smallest radius at which the stabilizer germ sets differ, with a
    distinguishing germ; None if none up to kmax."""
    for k in range(1, kmax + 1):
        chain_a = model_a.stab_germ_chain(v, k)
        diff = germ_group_difference(chain_a, model_b.stab_germ_chain(v, k))
        if diff is not None:
            return k, Germ(v, v, k, diff, model_a.degree)
    return None


def _common_germ_count(model_a, model_b, radius, x):
    """How many germs ROOT -> x on B(ROOT, radius) both models' elements
    have; None when neither sends ROOT to x. A side's germs are the coset
    t∘S of its transporter germ and stabiliser chain: the smaller coset is
    listed, and each germ sifted, after the other t⁻¹, through the other S."""
    ta, tb = model_a.transporter(ROOT, x), model_b.transporter(ROOT, x)
    if ta is None or tb is None:
        return None if ta is None and tb is None else 0
    (small, t_small), (large, t_large) = sorted(
        ((m.stab_germ_chain(ROOT, radius), m.germ_of(t, ROOT, radius))
         for m, t in ((model_a, ta), (model_b, tb))),
        key=lambda side: side[0].order(),
    )
    shift = compose(invert(t_large), t_small).perm
    return sum(tuple(map(shift.__getitem__, s)) in large for s in small.elements())


def kclosure_equal(model_a, model_b, k, probe_radius=None):
    """Window comparison of two k-closures.

    Exact failure on an orbit mismatch or a stabilizer germ set
    difference at radius k (closure stabilizer germs at radius k are the
    model's own). Holds requires, additionally, a common transitive
    element germ-for-germ at the probe radius toward every root
    neighbor; that evidence is truncation-qualified.
    """
    if k < 1:
        raise ValidationError("need k >= 1")
    if model_a.degree != model_b.degree:
        raise DegreeMismatch(
            f"{model_a.degree} vs {model_b.degree}"
        )
    deg = model_a.degree
    probe = k + 2 if probe_radius is None else probe_radius
    window = ball_vertices(ROOT, probe, deg)

    # each a orbit names the b orbit of its first vertex; the partitions
    # differ where a vertex is not in the b orbit named, or two names agree
    la, lb = [{u: m.from_rep(u)[0] for u in window} for m in (model_a, model_b)]
    pairing = {la[u]: lb[u] for u in reversed(window)}
    named = list(pairing.values())
    bad = next(itertools.chain(
        (u for u in window if pairing[la[u]] != lb[u]),
        (u for u in window if named.count(lb[u]) > 1),
    ), None)
    if bad is not None:
        return Verdict(
            FAILS,
            witness={"kind": "orbit", "vertex": bad.render()},
            notes=("model orbits partition the window differently",),
        )

    reps = tuple(dict.fromkeys(model_a.orbit_reps() + model_b.orbit_reps()))
    stab_orders = {}
    for u in reps:
        chain_a = model_a.stab_germ_chain(u, k)
        stab_orders[u.render()] = chain_a.order()
        diff = germ_group_difference(chain_a, model_b.stab_germ_chain(u, k))
        if diff is not None:
            return Verdict(
                FAILS,
                witness={
                    "kind": "stab_germ",
                    "vertex": u.render(),
                    "germ": germ_to_json(Germ(u, u, k, diff, deg)),
                },
                notes=(
                    f"stabilizer germ sets at radius {k} differ, and the "
                    "closure's stabilizer germs at its own radius are "
                    "exactly the model's",
                ),
            )

    common_counts = {}
    for c in range(deg):
        x = ROOT.step(c)
        common = _common_germ_count(model_a, model_b, probe, x)
        if common is None:
            continue
        if not common:
            return Verdict(
                INCONCLUSIVE,
                notes=(
                    "no common transitive element toward "
                    f"{x.render()} at probe radius {probe}",
                ),
                details={"probe_radius": probe},
            )
        common_counts[x.render()] = common

    notes = [
        f"orbits, stabilizer germ sets at radius {k}, and common "
        f"transitive germs verified through probe radius {probe}; "
        "equality beyond the truncation is not certified",
    ]
    hook = model_a.common_transitive_pairs(model_b)
    if hook is not None:
        for ga, gb, x in hook:
            germ_a = model_a.germ_of(ga, ROOT, probe)
            germ_b = model_b.germ_of(gb, ROOT, probe)
            if germ_a != germ_b or germ_a.apply(ROOT) != x:
                return Verdict(
                    INCONCLUSIVE,
                    notes=(
                        "the models' paired transitive elements disagree "
                        "at the probe radius; refusing to certify",
                    ),
                    details={"probe_radius": probe, "target": x.render()},
                )
        notes.append(
            "cross-checked against the models' own paired transitive "
            "elements"
        )
    return Verdict(
        HOLDS,
        notes=tuple(notes),
        details={
            "probe_radius": probe,
            "stab_orders": stab_orders,
            "common_counts": common_counts,
        },
    )


# --- generator constructions ---------------------------------------------------


def plusk_generator_germs(model, v, k, radius=None, samples=0, rng_seed=0):
    """Germs generating the subgroup built from edge k-region fixators.

    The union runs over all edges at the anchor: every model contributes
    its fixator maps on B(v, radius) (fixator_maps_on) as germs. BS adds
    `samples` twisted stabilizer powers per base exponent, each one kept
    if it fixes some region; other models refuse samples. TooLarge when
    the candidates would pass the element limit.
    """
    radius = k + 1 if radius is None else radius
    if radius < k:
        raise ValidationError("radius must be at least k")
    if samples and not hasattr(model, "sigma_construction"):
        raise ValidationError(f"the {model.name} model draws no twisted samples")
    deg = model.degree
    regions = [edge_region(v, v.step(c), k, deg) for c in range(deg)]
    # on the canonical ball a tube map is a germ's perm
    ball = ball_addresses(v, radius, deg)
    # every map lies in the stabilizer germ group at v, whose chain stops
    # past the limit before any fixator chain is built
    model.stab_germ_chain(v, radius)
    maps = set()
    for region in regions:
        chain = model.fixator_maps_on(ball, region)
        # every map is listed, so check the listing's size before it starts
        chain.check_listing()
        maps.update(chain.elements())
    germs = [Germ(v, v, radius, m, deg) for m in maps]
    if samples:
        # the twisted candidates do not depend on the edge: build them once
        base = model.sigma_base(v, radius)
        rng = random.Random(rng_seed)
        twist_targets = [y for y in ball_vertices(v, radius - 1, deg) if y != v]
        order, limit = perm_order(base[0].perm), max_elements()
        if order * (1 + samples) > limit:
            raise TooLarge(f"more than {limit} generator candidates")
        for c in range(order):
            for _ in range(samples):
                twists = {y: rng.randrange(0, 3) for y in twist_targets}
                g = model.sigma_construction(v, c, twists, radius, base, k)
                if any(g.fixes(region) for region in regions):
                    germs.append(g)
    return sorted_germs(germs)


# --- commutator solving ----------------------------------------------------------


def random_fiber_auto(degree, fiber, anchor, rng):
    """Random automorphism of the branch hanging at the anchor."""
    fset = set(fiber)
    mapping = {anchor: anchor}
    frontier = [(anchor, anchor, None, None)]
    while frontier:
        nxt = []
        for s, d, sp, dp in frontier:
            s_kids = [x for x in s.neighbors(degree) if x in fset and x != sp]
            d_kids = [x for x in d.neighbors(degree) if x in fset and x != dp]
            if len(s_kids) != len(d_kids):
                raise ValidationError("fiber is not branch-homogeneous")
            rng.shuffle(d_kids)
            for sk, dk in zip(s_kids, d_kids):
                mapping[sk] = dk
                nxt.append((sk, dk, s, d))
        frontier = nxt
    del mapping[anchor]
    return mapping


def random_ball_germ(degree, src_center, dst_center, radius, rng):
    """Random adjacency-preserving germ, uniform over children pairings."""
    mapping = {src_center: dst_center}
    frontier = [(src_center, dst_center, None, None)]
    for _ in range(radius):
        nxt = []
        for s, d, sp, dp in frontier:
            s_kids = [x for x in s.neighbors(degree) if x != sp]
            d_kids = [x for x in d.neighbors(degree) if x != dp]
            rng.shuffle(d_kids)
            for sk, dk in zip(s_kids, d_kids):
                mapping[sk] = dk
                nxt.append((sk, dk, s, d))
        frontier = nxt
    return Germ.from_mapping(src_center, dst_center, radius, mapping)


def _fiber_compose(m2, m1):
    return {y: m2[v] for y, v in m1.items()}


def _fiber_invert(m):
    return {v: y for y, v in m.items()}


def _check_fiber_auto(fiber, anchor, m, degree):
    fset = set(fiber)
    if set(m) != fset or set(m.values()) != fset:
        raise FactorOutsideGroup("factor is not a bijection of its fiber")
    full = dict(m)
    full[anchor] = anchor
    for y in fiber:
        for nb in y.neighbors(degree):
            if nb in full and not are_adjacent(full[y], full[nb]):
                raise FactorOutsideGroup("factor breaks adjacency")


def axis_fibers(model, margin_amplitude, R, z_lo, z_hi):
    """Fibers hanging off the axis segment, truncated at distance R.

    Projection runs against an axis extended by a margin so endpoint
    fibers do not swallow the axis continuation. Returns (core, fibers)
    keyed by axis index; the axis vertex itself is excluded from its
    fiber.
    """
    deg = model.degree
    margin = margin_amplitude + 1
    ext = [
        model.axis_vertex(z) for z in range(z_lo - margin, z_hi + margin + 1)
    ]
    core = {z: model.axis_vertex(z) for z in range(z_lo, z_hi + 1)}
    tube = thicken(list(core.values()), R, deg)
    fibers = {z: [] for z in core}
    for y in tube:
        proj = project_to_path(y, ext)
        for z, xz in core.items():
            if proj == xz:
                if y != xz:
                    fibers[z].append(y)
                break
    return core, fibers


def commutator_translation(model, amplitude, R, z_lo, z_hi):
    """The axis translation solve_commutator uses, exact on its window.

    Checks the window first, so a caller can run this before it builds
    the fibers of a window too large to build.
    """
    if amplitude <= 0:
        raise ValidationError("amplitude must be positive")
    if not (z_lo <= 0 and amplitude <= z_hi):
        raise ValidationError("need z_lo <= 0 < amplitude <= z_hi")
    # every vertex h acts on sits within margin + R of the axis segment
    window = max(abs(z_lo), abs(z_hi)) + amplitude + 1 + R
    return model.translation(amplitude, window)


def solve_commutator(model, amplitude, f_maps, R, z_lo=-4, z_hi=4, free_choices=None):
    """Solve [h, g] = f along a translation axis segment, fiberwise.

    h is the model's axis translation by `amplitude`. f is given as one
    automorphism per fiber hanging off the axis vertices z_lo..z_hi
    (truncated at distance R). g is free on the fibers 0..amplitude-1,
    identity unless free_choices supplies them, and propagates outward
    by the conjugation recursion; the result is re-verified factorwise
    on every index with both sides determined.
    """
    a = amplitude
    deg = model.degree
    margin = a + 1
    h = commutator_translation(model, a, R, z_lo, z_hi)
    h_inv = model.inv(h)
    for z in range(z_lo - margin, z_hi + margin + 1 - a):
        if model.act(h, model.axis_vertex(z)) != model.axis_vertex(z + a):
            raise AmplitudeMismatch(
                f"translation does not shift the axis by {a} at z={z}"
            )
    core, fibers = axis_fibers(model, a, R, z_lo, z_hi)
    for z in core:
        if z not in f_maps:
            raise ValidationError(f"missing factor for fiber {z}")
        _check_fiber_auto(fibers[z], core[z], f_maps[z], deg)

    def eta(z, m):
        out = {model.act(h, s): model.act(h, t) for s, t in m.items()}
        if set(out) != set(fibers[z + a]):
            raise AmplitudeMismatch(
                f"translation maps fiber {z} off fiber {z + a}"
            )
        return out

    def eta_inv(z, m):
        out = {model.act(h_inv, s): model.act(h_inv, t) for s, t in m.items()}
        if set(out) != set(fibers[z]):
            raise AmplitudeMismatch(
                f"translation does not return fiber {z + a} onto fiber {z}"
            )
        return out

    g = {}
    for z in range(0, a):
        if free_choices and z in free_choices:
            _check_fiber_auto(fibers[z], core[z], free_choices[z], deg)
            g[z] = dict(free_choices[z])
        else:
            g[z] = {y: y for y in fibers[z]}
    for z in range(a, z_hi + 1):
        g[z] = _fiber_compose(_fiber_invert(f_maps[z]), eta(z - a, g[z - a]))
    for z in range(-1, z_lo - 1, -1):
        g[z] = eta_inv(z, _fiber_compose(f_maps[z + a], g[z + a]))
    verified = []
    for z in range(z_lo + a, z_hi + 1):
        lhs = _fiber_compose(eta(z - a, g[z - a]), _fiber_invert(g[z]))
        if lhs != f_maps[z]:
            raise ValidationError(f"reconstruction failed at fiber {z}")
        verified.append(z)
    return {
        "g": g,
        "fibers": fibers,
        "verified": tuple(verified),
        "free": tuple(range(0, a)),
    }


# --- idempotence oracle ------------------------------------------------------------


class KClosureOracleModel:
    """Truncation oracle whose stabilizer germs at radius k are the
    k-legal germs of the base model, enumerated independently. Lets the
    legality check run against the closure itself, through a chain over
    those germs as for a model."""

    def __init__(self, base, k):
        self.base = base
        self.k = k
        self.degree = base.degree
        self.name = f"closure-of-{base.name}"
        self._cache = {}

    def from_rep(self, v):
        return self.base.from_rep(v)

    def germ_of(self, g, center, radius):
        return self.base.germ_of(g, center, radius)

    def stab_germ_chain(self, v, radius):
        if radius > self.k:
            raise ValidationError(
                "the closure oracle only enumerates up to its own truncation"
            )
        got = self._cache.get((v, radius))
        if got is None:
            full = closure_germs_at_targets(self.base, v, self.k, self.k, (v,))
            # shallower radii restrict the enumerated truncation
            perms = [restrict(g, v, radius, self.degree).perm for g in full]
            got = self._cache[(v, radius)] = StabChain(perms, range(len(perms[0])))
        return got
