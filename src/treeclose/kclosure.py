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
from .permgroup import induced_perm_group, mulclose, perm_order, structure_fingerprint
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
        "pairs": [[a.render(), b.render()] for a, b in g.pairs],
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
    inside the domain, it agrees with some model element: the center must
    stay in the model orbit of u and the recentered k-germ must land in
    the coset (transporter germ) ∘ (stabilizer germs at u). The cache
    maps (u, germ(u)) to the inverse transporter germ at radius k, so
    calls share one only for the same model and k.
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
        back = cache.get((u, x))
        if back is None:
            t = model.transporter(u, x)
            if t is None:
                return (False, u) if explain else False
            back = invert(model.germ_of(t, u, k))
            cache[u, x] = back
        local = compose(back, restrict(germ, u, k, deg))
        if local not in model.stab_germ_group(u, k):
            return (False, u) if explain else False
    return (True, None) if explain else True


def element_germs_at(model, center, radius, target):
    """The set of germs at (center -> target, radius) of model elements."""
    t = model.transporter(center, target)
    if t is None:
        return frozenset()
    tg = model.germ_of(t, center, radius)
    return frozenset(compose(tg, s) for s in model.stab_germ_group(center, radius))


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
    """Composition closure of germs sharing one center and radius, as a frozenset."""
    return frozenset(mulclose(germs, mul=compose))


def local_action(model, v):
    """Fingerprint of the permutation group induced on the edges at v."""
    germs = model.stab_germ_group(v, 1)
    points = tuple(v.step(c) for c in range(model.degree))
    perms = induced_perm_group(germs, points)
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


def tube_order(tube, maps):
    """Maps on the tube, as int tuples over tube positions, sorted by their
    image words taken in the word order of the tube."""
    by_word = sorted(range(len(tube)), key=lambda p: tube[p].word)
    rank = [0] * len(tube)
    for r, p in enumerate(by_word):
        rank[p] = r
    return tuple(sorted(maps, key=lambda m: [rank[m[p]] for p in by_word]))


def _map_trivial_on(m, side):
    return all(m[p] == p for p in side)


def ipk_check(model, v, w, k, R):
    """Window test of the edge-independence property at (v, w).

    The fixator of the edge k-region is enumerated as maps on the tube
    B(v,R) ∪ B(w,R). Independence predicts every such map factors as
    (trivial on the w half) after (trivial on the v half). Product
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
    region = edge_region(v, w, k, deg)
    tube = thicken([v, w], R, deg)
    maps = model.fixator_maps_on(tube, region)
    # maps are int tuples over tube positions (see fixator_maps_on)
    dist = [(tree_distance(x, v), tree_distance(x, w)) for x in tube]
    w_side = [p for p, (dv, dw) in enumerate(dist) if dw < dv]
    v_side = [p for p, (dv, dw) in enumerate(dist) if dv < dw]
    left_window = [m for m in maps if _map_trivial_on(m, w_side)]
    right_window = [m for m in maps if _map_trivial_on(m, v_side)]
    certified = bool(model.one_sided_fixators_trivial((v, w)))
    if certified:
        left_count = right_count = 1
    else:
        left_count, right_count = len(left_window), len(right_window)
    # L and R are subgroups of the group F = maps, and every tube vertex is
    # strictly nearer v or strictly nearer w, so L ∩ R = {id} and L·R is a
    # subset of F with |L|·|R| elements
    missing_count = len(maps) - left_count * right_count
    details = {
        "fixator_count": len(maps),
        "fixing_w_side_count": left_count,
        "fixing_v_side_count": right_count,
        "w_side_window_count": len(left_window),
        "v_side_window_count": len(right_window),
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
        missing = tube_order(tube, maps - {tuple(range(len(tube)))})
        # the witness germ is serialized on B(v,R) only, so prefer a map
        # whose two-sided movement is visible inside that ball
        near_w = [p for p in w_side if dist[p][0] <= R]
        near_v = [p for p in v_side if dist[p][0] <= R]
        pick = next(
            (
                m
                for m in missing
                if not _map_trivial_on(m, near_w)
                and not _map_trivial_on(m, near_v)
            ),
            missing[0],
        )
        pos = {x: p for p, x in enumerate(tube)}
        witness = germ_of_map(lambda x: tube[pick[pos[x]]], v, R, deg)
        return Verdict(
            FAILS,
            witness={"germ": germ_to_json(witness)},
            details=details,
            notes=(
                "the model certifies both one-sided fixators are "
                "trivial, yet the region fixator is not; no "
                "factorization exists",
            ),
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
    the product of its fiber marginals, checked by exhaustive
    reconstruction. A gap on a single edge is reported as a failure when
    the model certifies the true one-sided fixators are trivial, the
    same gate the edge-independence check uses; all other gaps stay
    inconclusive.
    """
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
    region = thicken(path, k - 1, deg)
    tube = thicken(path, R, deg)
    maps = model.fixator_maps_on(tube, region)
    fibers = {x: [] for x in path}
    for p, y in enumerate(tube):
        fibers[project_to_path(y, path)].append(p)
    # a fiber's marginal of a map is the images of the fiber's positions;
    # the fibers partition the tube, so a map is the tuple of its marginals
    marginal_of = [itemgetter(*fibers[x]) for x in path]
    marginals = [set(map(get, maps)) for get in marginal_of]
    product_count = 1
    for seen in marginals:
        product_count *= len(seen)
    details = {
        "fixator_count": len(maps),
        "fiber_counts": {x.render(): len(seen) for x, seen in zip(path, marginals)},
        "product_count": product_count,
        "window_radius": R,
        "k": k,
        "path": [x.render() for x in path],
    }
    if product_count == len(maps):
        if product_count <= 10**4:
            realized = {tuple([get(m) for get in marginal_of]) for m in maps}
            if set(itertools.product(*marginals)) != realized:
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
    certified = len(path) == 2 and bool(
        model.one_sided_fixators_trivial((path[0], path[1]))
    )
    details["one_sided_trivial_certified"] = certified
    if certified:
        return Verdict(
            FAILS,
            witness={"unrealized_combinations": product_count - len(maps)},
            details=details,
            notes=(
                "fiber marginals admit combinations no region fixator "
                "realizes, and the model certifies both one-sided "
                "fixators are trivial",
            ),
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


def germ_group_difference(group_a, group_b):
    """Least germ in just one of two germ groups, from group_a's first; None if equal."""
    if group_a == group_b:
        return None
    return sorted_germs((group_a - group_b) or (group_b - group_a))[0]


def first_stab_germ_difference(model_a, model_b, v=ROOT, kmax=4):
    """Smallest radius at which the stabilizer germ sets differ, with a
    distinguishing germ; None if none up to kmax."""
    for k in range(1, kmax + 1):
        ga, gb = model_a.stab_germ_group(v, k), model_b.stab_germ_group(v, k)
        diff = germ_group_difference(ga, gb)
        if diff is not None:
            return k, diff
    return None


def kclosure_equal(model_a, model_b, k, probe_radius=None):
    """Window comparison of two k-closures.

    Exact failure on an orbit mismatch or a stabilizer germ set
    difference at radius k (closure stabilizer germs at radius k are the
    model's own). Holds requires, additionally, a common transitive
    element germ-for-germ at the probe radius toward every root
    neighbor; that evidence is truncation-qualified.
    """
    if model_a.degree != model_b.degree:
        raise DegreeMismatch(
            f"{model_a.degree} vs {model_b.degree}"
        )
    deg = model_a.degree
    probe = k + 2 if probe_radius is None else probe_radius
    window = ball_vertices(ROOT, probe, deg)

    def labels(model):
        reps = model.orbit_reps()
        out = {}
        for u in window:
            for i, r in enumerate(reps):
                if model.transporter(r, u) is not None:
                    out[u] = i
                    break
            else:
                raise ValidationError("orbit representatives incomplete")
        return out

    la, lb = labels(model_a), labels(model_b)
    pairing = {}
    for u in window:
        if pairing.setdefault(la[u], lb[u]) != lb[u]:
            return Verdict(
                FAILS,
                witness={"kind": "orbit", "vertex": u.render()},
                notes=("model orbits partition the window differently",),
            )
    if len(set(pairing.values())) != len(pairing):
        bad = next(
            u for u in window
            if list(pairing.values()).count(lb[u]) > 1
        )
        return Verdict(
            FAILS,
            witness={"kind": "orbit", "vertex": bad.render()},
            notes=("model orbits partition the window differently",),
        )

    reps = tuple(dict.fromkeys(model_a.orbit_reps() + model_b.orbit_reps()))
    stab_orders = {}
    for u in reps:
        group_a = model_a.stab_germ_group(u, k)
        stab_orders[u.render()] = len(group_a)
        diff = germ_group_difference(group_a, model_b.stab_germ_group(u, k))
        if diff is not None:
            return Verdict(
                FAILS,
                witness={
                    "kind": "stab_germ",
                    "vertex": u.render(),
                    "germ": germ_to_json(diff),
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
        ga = element_germs_at(model_a, ROOT, probe, x)
        gb = element_germs_at(model_b, ROOT, probe, x)
        if not ga and not gb:
            continue
        common = ga & gb
        if not common:
            return Verdict(
                INCONCLUSIVE,
                notes=(
                    "no common transitive element toward "
                    f"{x.render()} at probe radius {probe}",
                ),
                details={"probe_radius": probe},
            )
        common_counts[x.render()] = len(common)

    notes = [
        f"orbits, stabilizer germ sets at radius {k}, and common "
        f"transitive germs verified through probe radius {probe}; "
        "equality beyond the truncation is not certified",
    ]
    hook = model_a.common_transitive_pairs(model_b)
    if hook is None:
        swapped = model_b.common_transitive_pairs(model_a)
        if swapped is not None:
            hook = [(a_el, b_el, x) for (b_el, a_el, x) in swapped]
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

    The union runs over all edges at the anchor. Models with a stabilizer
    power construction contribute one germ per base exponent that fixes
    the region (plus optional twisted samples); other models contribute
    the fixator maps on B(v, radius) (fixator_maps_on) as germs. TooLarge
    when the candidates would pass the element limit.
    """
    radius = k + 1 if radius is None else radius
    if radius < k:
        raise ValidationError("radius must be at least k")
    deg = model.degree
    regions = [edge_region(v, v.step(c), k, deg) for c in range(deg)]
    if not hasattr(model, "sigma_construction"):
        # on the canonical ball a tube map is a germ's perm
        ball = ball_addresses(v, radius, deg)
        maps = {m for region in regions for m in model.fixator_maps_on(ball, region)}
        return sorted_germs(Germ(v, v, radius, m, deg) for m in maps)
    # the candidates do not depend on the edge: build them once and keep
    # each one that fixes some edge region
    base = model.sigma_base(v, radius)
    rng = random.Random(rng_seed)
    twist_targets = [y for y in ball_vertices(v, radius - 1, deg) if y != v]
    order, limit = perm_order(base[0].perm), max_elements()
    if order * (1 + samples) > limit:
        raise TooLarge(f"more than {limit} generator candidates")
    candidates = []
    for c in range(order):
        candidates.append(model.sigma_construction(v, c, {}, radius, base))
        for _ in range(samples):
            twists = {y: rng.randrange(0, 3) for y in twist_targets}
            candidates.append(model.sigma_construction(v, c, twists, radius, base, k))
    return sorted_germs(
        g for g in candidates if any(g.fixes(region) for region in regions)
    )


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
    legality check run against the closure itself."""

    def __init__(self, base, k):
        self.base = base
        self.k = k
        self.degree = base.degree
        self.name = f"closure-of-{base.name}"
        self._cache = {}

    def transporter(self, u, w):
        return self.base.transporter(u, w)

    def germ_of(self, g, center, radius):
        return self.base.germ_of(g, center, radius)

    def stab_germ_group(self, v, radius):
        if radius > self.k:
            raise ValidationError(
                "the closure oracle only enumerates up to its own truncation"
            )
        key = (v, radius)
        got = self._cache.get(key)
        if got is None:
            full = self._cache.get((v, self.k))
            if full is None:
                full = frozenset(
                    closure_germs_at_targets(self.base, v, self.k, self.k, (v,))
                )
                self._cache[(v, self.k)] = full
            if radius == self.k:
                got = full
            else:
                # shallower radii restrict the enumerated truncation
                got = frozenset(restrict(g, v, radius, self.degree) for g in full)
            self._cache[key] = got
        return got
