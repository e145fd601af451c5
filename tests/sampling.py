"""Model elements for the tests, drawn through the production API only."""

import itertools

from treeclose.tree_core import ROOT, ball_vertices


def element_pool(model):
    """The products t·g. t runs over the transporters from the root to the
    vertices of B(ROOT, 2) that have one; g over the first 20 discreteness
    candidates plus, for the families that name them, the radius-2
    stabiliser generators at the root."""
    gens = list(itertools.islice(model.nondiscreteness_candidates(1), 20))
    if hasattr(model, "stab_generators"):
        gens += model.stab_generators(ROOT, 2)
    movers = (model.transporter(ROOT, x) for x in ball_vertices(ROOT, 2, model.degree))
    return [model.mul(t, g) for t in movers if t is not None for g in gens]
