"""JSON schemas for point sets and models, shared by library and CLI.

Point set:  {"base": [...], "radius": r, "points": [[...], ...],
             "values": [...] | null}
Model:      {"c": c, "g": [...], "H": [[...], ...], "base": [...]}
             (H omitted/null for affine models)
"""

from __future__ import annotations

import json

import numpy as np

from .linear_models import InterpolationSet
from .quadratic_models import Quadratics

__all__ = [
    "set_to_dict",
    "set_from_dict",
    "save_set",
    "load_set",
    "model_to_dict",
    "model_from_dict",
    "save_model",
    "load_model",
]


def set_to_dict(iset):
    return {
        "base": iset.base.tolist(),
        "radius": float(iset.radius),
        "points": iset.points.tolist(),
        "values": None if iset.values is None else iset.values.tolist(),
    }


def set_from_dict(data):
    return InterpolationSet(
        base=np.asarray(data["base"], dtype=float),
        radius=float(data["radius"]),
        points=np.asarray(data["points"], dtype=float),
        values=None if data.get("values") is None else np.asarray(data["values"], dtype=float),
    )


def save_set(iset, path):
    with open(path, "w") as fh:
        json.dump(set_to_dict(iset), fh, indent=2)
        fh.write("\n")


def load_set(path):
    with open(path) as fh:
        return set_from_dict(json.load(fh))


def model_to_dict(model):
    """JSON form of a one-row model; its Hessian is written out dense."""
    (c,), (g,) = model.c, model.g
    return {
        "c": float(c),
        "g": g.tolist(),
        "base": np.asarray(model.base, dtype=float).tolist(),
        "H": None if model.U is None else model.hessians()[0].tolist(),
    }


def model_from_dict(data):
    return Quadratics.from_hessian(data["base"], data["c"], data["g"], data.get("H"))


def save_model(model, path):
    with open(path, "w") as fh:
        json.dump(model_to_dict(model), fh, indent=2)
        fh.write("\n")


def load_model(path):
    with open(path) as fh:
        return model_from_dict(json.load(fh))
