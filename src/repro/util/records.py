"""Result records shared by the experiment harness and its writers.

A figure in the paper maps to a :class:`FigureResult` holding one
:class:`Series` per plotted line; a table maps to a ``FigureResult`` whose
``extra`` dict carries the table cells.  These records render to aligned
ASCII (what ``repro run`` prints) and to CSV (for offline plotting).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class SeriesPoint:
    """One x position of one line: mean +/- std over trials."""

    x: float
    mean: float
    std: float = 0.0

    def __post_init__(self):
        if self.std < 0:
            raise ValueError("std must be >= 0")


@dataclass(frozen=True)
class Series:
    """One plotted line."""

    label: str
    points: tuple[SeriesPoint, ...]

    @property
    def xs(self) -> tuple[float, ...]:
        """The x coordinates, in plotting order."""
        return tuple(p.x for p in self.points)

    @property
    def means(self) -> tuple[float, ...]:
        """The mean y values, in plotting order."""
        return tuple(p.mean for p in self.points)

    def at(self, x: float) -> SeriesPoint:
        """The point at exactly ``x`` (KeyError if absent)."""
        for p in self.points:
            if p.x == x:
                return p
        raise KeyError(f"series {self.label!r} has no point at x={x}")


@dataclass
class FigureResult:
    """All data needed to regenerate one paper figure or table."""

    fig_id: str
    title: str
    xlabel: str
    ylabel: str
    series: list[Series] = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def get(self, label: str) -> Series:
        """The series with this label (KeyError lists the valid ones)."""
        for s in self.series:
            if s.label == label:
                return s
        raise KeyError(f"{self.fig_id}: no series labelled {label!r}; "
                       f"have {[s.label for s in self.series]}")

    @property
    def labels(self) -> list[str]:
        """Series labels in plotting order."""
        return [s.label for s in self.series]

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def to_ascii(self, value_format: str = "{:>12.3g}") -> str:
        """Aligned table: one row per x, one column per series."""
        lines = [f"== {self.fig_id}: {self.title} ==",
                 f"   ({self.ylabel} vs {self.xlabel})"]
        if self.series:
            xs = sorted({p.x for s in self.series for p in s.points})
            header = f"{self.xlabel[:18]:>18} |" + "".join(
                f"{s.label[:24]:>26}" for s in self.series)
            lines.append(header)
            lines.append("-" * len(header))
            for x in xs:
                row = f"{x:>18g} |"
                for s in self.series:
                    try:
                        p = s.at(x)
                        row += value_format.format(p.mean).rjust(26)
                    except KeyError:
                        row += " " * 26
                lines.append(row)
        for key, value in self.extra.items():
            lines.append(f"{key}: {value}")
        return "\n".join(lines)

    def to_csv(self) -> str:
        """Long-form CSV: fig,series,x,mean,std."""
        rows = ["fig,series,x,mean,std"]
        for s in self.series:
            for p in s.points:
                rows.append(f"{self.fig_id},{s.label},{p.x!r},{p.mean!r},{p.std!r}")
        return "\n".join(rows) + "\n"
