"""Cluster validity index specifications and their string syntax.

``PARAMS`` declares each family's parameters once, in spec-string order, as
(``CVISpec`` field, prefix in the string, parser of the rest).  The family
list, ``str``, ``parse_spec``, the check that a spec sets exactly its
family's fields, and ``params()``, the arguments of the family's
:mod:`cviopt.cvi.indices` function, all read it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from ..errors import ParameterError
from ..owa import OWASpec

PARAMS = {
    "BallHall": (),
    "CalinskiHarabasz": (),
    "DaviesBouldin": (),
    "Silhouette": (),
    "SilhouetteW": (),
    "GDunn": (("d_variant", "d", int), ("big_d_variant", "D", int)),
    "DuNN": (("m", "", int), ("owa_s", "", OWASpec.parse), ("owa_c", "", OWASpec.parse)),
    "WCNN": (("m", "", int),),
}
FAMILIES = tuple(PARAMS)


@dataclass(frozen=True)
class CVISpec:
    """One index from the menu, with its parameters.

    All indices are oriented so that larger is better (BallHall and
    DaviesBouldin carry a sign flip for that purpose).
    """

    family: str
    d_variant: int | None = None  # GDunn separation, 1..5
    big_d_variant: int | None = None  # GDunn compactness, 1..3
    m: int | None = None  # neighbour count for DuNN/WCNN
    owa_s: OWASpec | None = None
    owa_c: OWASpec | None = None

    def __post_init__(self) -> None:
        if self.family not in PARAMS:
            raise ParameterError(f"unknown CVI family {self.family!r}")
        declared = [name for name, _, _ in PARAMS[self.family]]
        given = [f.name for f in fields(self)[1:] if getattr(self, f.name) is not None]
        if set(given) != set(declared):
            raise ParameterError(f"{self.family} takes {declared or 'no parameters'}, not {given}")
        if self.d_variant not in (None, 1, 2, 3, 4, 5) or self.big_d_variant not in (None, 1, 2, 3):
            raise ParameterError("GDunn needs variants d1..d5 and D1..D3")
        if self.m is not None and self.m < 1:
            raise ParameterError(f"{self.family} needs a neighbour count M >= 1")
        if self.owa_s is not None and self.owa_s.is_const:
            raise ParameterError("the separation OWA cannot be Const")

    @property
    def needs_knn(self) -> bool:
        return self.m is not None  # only the M-NN families declare m

    def params(self) -> tuple:
        """The parameter values in spec-string order, as ``indices`` takes them."""
        return tuple(getattr(self, name) for name, _, _ in PARAMS[self.family])

    def __str__(self) -> str:
        parts = (f"{prefix}{getattr(self, name)}" for name, prefix, _ in PARAMS[self.family])
        return "_".join((self.family, *parts))


def parse_spec(text: str) -> CVISpec:
    """Parse "CalinskiHarabasz", "GDunn_d3_D2", "DuNN_25_SMin:5_Const", "WCNN_25".

    Only the spelling ``str`` gives back is accepted: "WCNN_05" names the
    index "WCNN_5" and is refused, so one index never runs under two names.
    """
    family, *parts = text.split("_")
    if family not in PARAMS:
        raise ParameterError(f"unknown CVI spec {text!r}")
    params = PARAMS[family]
    prefixes = [prefix for _, prefix, _ in params]
    if len(parts) != len(params) or not all(map(str.startswith, parts, prefixes)):
        form = "_".join((family, *(f"{prefix}<{name}>" for name, prefix, _ in params)))
        raise ParameterError(f"bad CVI spec {text!r}: expected {form}")
    try:
        values = {name: parse(part[len(pre):]) for part, (name, pre, parse) in zip(parts, params)}
        spec = CVISpec(family, **values)
    except ValueError as exc:  # ParameterError is a ValueError
        raise ParameterError(f"bad CVI spec {text!r}: {exc}") from exc
    if str(spec) != text:
        raise ParameterError(f"bad CVI spec {text!r}: write it as {str(spec)!r}")
    return spec
