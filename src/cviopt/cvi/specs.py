"""Cluster validity index specifications and their string syntax."""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ParameterError
from ..owa import OWASpec

FAMILIES = (
    "BallHall",
    "CalinskiHarabasz",
    "DaviesBouldin",
    "Silhouette",
    "SilhouetteW",
    "GDunn",
    "DuNN",
    "WCNN",
)


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
        if self.family not in FAMILIES:
            raise ParameterError(f"unknown CVI family {self.family!r}")
        if self.family == "GDunn":
            if self.d_variant not in (1, 2, 3, 4, 5):
                raise ParameterError("GDunn needs a separation variant d1..d5")
            if self.big_d_variant not in (1, 2, 3):
                raise ParameterError("GDunn needs a compactness variant D1..D3")
        if self.family == "DuNN":
            if self.m is None or self.m < 1:
                raise ParameterError("DuNN needs a neighbour count M >= 1")
            if self.owa_s is None or self.owa_c is None:
                raise ParameterError("DuNN needs both OWA operators")
            if self.owa_s.is_const:
                raise ParameterError("the separation OWA cannot be Const")
        if self.family == "WCNN" and (self.m is None or self.m < 1):
            raise ParameterError("WCNN needs a neighbour count M >= 1")

    @property
    def needs_knn(self) -> bool:
        return self.family in ("DuNN", "WCNN")

    def __str__(self) -> str:
        if self.family == "GDunn":
            return f"GDunn_d{self.d_variant}_D{self.big_d_variant}"
        if self.family == "DuNN":
            return f"DuNN_{self.m}_{self.owa_s}_{self.owa_c}"
        if self.family == "WCNN":
            return f"WCNN_{self.m}"
        return self.family


def parse_spec(text: str) -> CVISpec:
    """Parse "CalinskiHarabasz", "GDunn_d3_D2", "DuNN_25_SMin:5_Const", "WCNN_25".

    Only the spelling ``str`` gives back is accepted: "WCNN_05" names the
    index "WCNN_5" and is refused, so one index never runs under two names.
    """
    spec = _parse(text)
    if str(spec) != text:
        raise ParameterError(f"bad CVI spec {text!r}: write it as {str(spec)!r}")
    return spec


def _parse(text: str) -> CVISpec:
    parts = text.split("_")
    family = parts[0]
    try:
        if family == "GDunn":
            if len(parts) != 3 or not parts[1].startswith("d") or not parts[2].startswith("D"):
                raise ParameterError(f"bad GDunn spec {text!r}")
            return CVISpec("GDunn", d_variant=int(parts[1][1:]), big_d_variant=int(parts[2][1:]))
        if family == "DuNN":
            if len(parts) != 4:
                raise ParameterError(f"bad DuNN spec {text!r}")
            return CVISpec(
                "DuNN",
                m=int(parts[1]),
                owa_s=OWASpec.parse(parts[2]),
                owa_c=OWASpec.parse(parts[3]),
            )
        if family == "WCNN":
            if len(parts) != 2:
                raise ParameterError(f"bad WCNN spec {text!r}")
            return CVISpec("WCNN", m=int(parts[1]))
        if len(parts) == 1 and family in FAMILIES:
            return CVISpec(family)
    except ValueError as exc:
        raise ParameterError(f"bad CVI spec {text!r}") from exc
    raise ParameterError(f"unknown CVI spec {text!r}")
