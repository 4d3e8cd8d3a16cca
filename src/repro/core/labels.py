"""Application and snapshot class labels.

The classifier labels every snapshot with one of five classes (the
training classes of paper Figure 3a): IDLE, IO, CPU, NET, MEM.  At the
application level the paper groups IO and MEM into a single
"I/O and paging-intensive" category; majority vote over snapshot labels
gives the application class, and per-class fractions give the *class
composition* used by the cost model.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np


class SnapshotClass(IntEnum):
    """The five snapshot-level classes, in training-application order."""

    IDLE = 0
    IO = 1
    CPU = 2
    NET = 3
    MEM = 4

    @classmethod
    def from_label(cls, label: str) -> "SnapshotClass":
        """Parse a class from its string label (case-insensitive).

        Raises
        ------
        KeyError
            For unknown labels.
        """
        try:
            return cls[label.upper()]
        except KeyError:
            raise KeyError(
                f"unknown class label {label!r}; known: {[c.name for c in cls]}"
            ) from None


#: All classes in enum order.
ALL_CLASSES: tuple[SnapshotClass, ...] = tuple(SnapshotClass)

#: Paper Table 3 column order.
TABLE3_ORDER: tuple[SnapshotClass, ...] = (
    SnapshotClass.IDLE,
    SnapshotClass.IO,
    SnapshotClass.CPU,
    SnapshotClass.NET,
    SnapshotClass.MEM,
)


@dataclass(frozen=True)
class ClassComposition:
    """Per-class fractions of an application's snapshots.

    Fractions sum to 1 (within numerical tolerance).  This is the
    classifier's second output format (beyond the single majority-vote
    class) and the direct input to the cost model of paper §4.4.
    """

    fractions: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.fractions) != len(ALL_CLASSES):
            raise ValueError(f"need {len(ALL_CLASSES)} fractions, got {len(self.fractions)}")
        if any(f < 0 for f in self.fractions):
            raise ValueError("fractions must be non-negative")
        total = sum(self.fractions)
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"fractions must sum to 1, got {total}")

    @classmethod
    def from_class_vector(cls, classes: np.ndarray) -> "ClassComposition":
        """Build from the class vector ``C``, shape ``(m,)`` — the paper's
        ``C(1×m)`` stage output of :class:`SnapshotClass` codes.

        Raises
        ------
        ValueError
            If the vector is empty or contains unknown class codes.
        """
        classes = np.asarray(classes, dtype=np.int64)
        if classes.size == 0:
            raise ValueError("cannot compute a composition from zero snapshots")
        if classes.min() < 0 or classes.max() >= len(ALL_CLASSES):
            raise ValueError("class vector contains unknown class codes")
        counts = np.bincount(classes, minlength=len(ALL_CLASSES))
        return cls(fractions=tuple((counts / classes.size).tolist()))

    def fraction(self, c: SnapshotClass) -> float:
        """Fraction of snapshots labelled *c*."""
        return self.fractions[int(c)]

    @property
    def idle(self) -> float:
        """Fraction of snapshots classified IDLE."""
        return self.fraction(SnapshotClass.IDLE)

    @property
    def io(self) -> float:
        """Fraction of snapshots classified IO."""
        return self.fraction(SnapshotClass.IO)

    @property
    def cpu(self) -> float:
        """Fraction of snapshots classified CPU."""
        return self.fraction(SnapshotClass.CPU)

    @property
    def net(self) -> float:
        """Fraction of snapshots classified NET."""
        return self.fraction(SnapshotClass.NET)

    @property
    def mem(self) -> float:
        """Fraction of snapshots classified MEM."""
        return self.fraction(SnapshotClass.MEM)

    def dominant(self) -> SnapshotClass:
        """Majority class; ties break toward the lower class code."""
        return SnapshotClass(int(np.argmax(self.fractions)))

    def as_dict(self) -> dict[str, float]:
        """``{class_name: fraction}`` in enum order."""
        return {c.name: self.fractions[int(c)] for c in ALL_CLASSES}

    def as_percentages(self) -> dict[str, float]:
        """``{class_name: percent}`` — the paper's Table 3 format."""
        return {name: 100.0 * frac for name, frac in self.as_dict().items()}


def majority_vote(classes: np.ndarray) -> SnapshotClass:
    """The application class: majority vote over the shape-``(m,)`` class vector."""
    return ClassComposition.from_class_vector(classes).dominant()


#: Idle share bounds of the paper's interactive category: a composition
#: with ``IDLE_MIX_LOW <= idle < IDLE_MIX_HIGH`` is "Idle + Others".
IDLE_MIX_LOW: float = 0.15
IDLE_MIX_HIGH: float = 0.9

#: The application category of a composition outside the interactive
#: band, by dominant class code.
DOMINANT_CATEGORIES: tuple[str, ...] = (
    "Idle",
    "IO & Paging Intensive",
    "CPU Intensive",
    "Network Intensive",
    "IO & Paging Intensive",
)

#: The interactive category: substantial idle mixed with real activity.
INTERACTIVE_CATEGORY: str = "Idle + Others"


def application_category(
    composition: ClassComposition, dominant: SnapshotClass | None = None
) -> str:
    """Map a composition to the paper's application-level category.

    IO and MEM merge into "IO & Paging Intensive"; applications with a
    substantial idle share and a mix of other activity are the paper's
    "Idle + Others" interactive category.  Callers that already computed
    the composition's dominant class may pass it to skip the
    re-derivation; it must equal ``composition.dominant()``.  The
    stacked classify kernel applies the same two tables
    (:data:`IDLE_MIX_LOW`/:data:`IDLE_MIX_HIGH` and
    :data:`DOMINANT_CATEGORIES`) to a whole fleet at once.
    """
    if IDLE_MIX_LOW <= composition.idle < IDLE_MIX_HIGH:
        return INTERACTIVE_CATEGORY
    if dominant is None:
        dominant = composition.dominant()
    return DOMINANT_CATEGORIES[dominant]
