"""Group model backends and the descriptor registry."""

from __future__ import annotations

from ..errors import ValidationError, read_int
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
    """
    if not isinstance(descriptor, dict):
        raise ValidationError("model descriptor must be an object")
    kind = descriptor.get("model")

    def field(key):
        return read_int(descriptor, key, where="model descriptor")

    if kind == "constant_local":
        return ConstantLocalModel(field("d"), descriptor.get("F", "sym"))
    if kind == "full_aut":
        return FullAutModel(field("d"))
    if kind == "bs":
        return BassSerreModel(field("m"), field("n"))
    if kind == "psl2":
        return PSL2Model(field("p"))
    if kind == "cover":
        graph = descriptor.get("graph", "C")
        if graph not in ("C", "strip"):
            raise ValidationError(f"unknown cover graph {graph!r}: use \"C\" or \"strip\"")
        p = field("p")
        return CoverModel(StripGraph(p) if graph == "strip" else CycleGraph(p, field("r")))
    raise ValidationError(f"unknown model kind: {kind!r}")
