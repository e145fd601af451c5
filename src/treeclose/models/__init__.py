"""Group model backends and the descriptor registry."""

from __future__ import annotations

from ..errors import ValidationError, echo, read_int
from .bass_serre import BassSerreModel
from .constant_local import ConstantLocalModel
from .cover import CoverModel, CycleGraph, StripGraph
from .full_aut import FullAutModel
from .padic import PSL2Model


def build_model(descriptor):
    """Construct a model backend from a plain-dict descriptor.

    Shapes:
      {"model": "constant_local", "d": 3, "F": "sym"}
      {"model": "full_aut", "d": 3}
      {"model": "bs", "m": 2, "n": 3}
      {"model": "psl2", "p": 2}
      {"model": "cover", "graph": "C", "p": 2, "r": 5}
      {"model": "cover", "graph": "strip", "p": 2}

    A field that its model does not read is refused, so a misspelt or
    misplaced one cannot go unseen.
    """
    if not isinstance(descriptor, dict):
        raise ValidationError("model descriptor must be an object")
    kind = descriptor.get("model")

    def field(key):
        return read_int(descriptor, key, where="model descriptor")

    def reads(what, *keys):
        """Refuse a field that the model does not read."""
        for key in descriptor:
            if key != "model" and key not in keys:
                raise ValidationError(f"the {what} model does not read descriptor field {echo(key)}")

    if kind == "constant_local":
        reads(kind, "d", "F")
        return ConstantLocalModel(field("d"), descriptor.get("F", "sym"))
    if kind == "full_aut":
        reads(kind, "d")
        return FullAutModel(field("d"))
    if kind == "bs":
        reads(kind, "m", "n")
        return BassSerreModel(field("m"), field("n"))
    if kind == "psl2":
        reads(kind, "p")
        return PSL2Model(field("p"))
    if kind == "cover":
        graph = descriptor.get("graph", "C")
        if graph == "strip":
            reads("strip cover", "graph", "p")
            return CoverModel(StripGraph(field("p")))
        if graph != "C":
            raise ValidationError(f"unknown cover graph {echo(graph)}: use \"C\" or \"strip\"")
        reads("C cover", "graph", "p", "r")
        return CoverModel(CycleGraph(field("p"), field("r")))
    raise ValidationError(f"unknown model kind: {echo(kind)}")
