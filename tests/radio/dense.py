"""The brute-force RF medium: the differential oracle for :class:`RfMedium`.

:class:`DenseRfMedium` keeps every predicate, every random stream and the
whole capture composition of the production medium, and replaces only its
cell-grid candidate scans with the obvious ones: every attached radio, in
the order it was (last) attached, and every transmission, in identifier
order.  It keeps its own attach list rather than reading the production
index, so an ordering bug in that index shows up as a difference.
"""

from typing import List

from repro.radio import RfMedium, Transmission

__all__ = ["DenseRfMedium"]


class DenseRfMedium(RfMedium):
    """O(radios) delivery scan and O(transmissions) composition scan."""

    def __init__(self, *args, **kwargs):
        self._attached: List = []
        super().__init__(*args, **kwargs)

    def attach(self, radio) -> None:
        super().attach(radio)
        if radio not in self._attached:
            self._attached.append(radio)

    def detach(self, radio) -> None:
        super().detach(radio)
        if radio in self._attached:
            self._attached.remove(radio)

    def _delivery_candidates(self, tx: Transmission) -> List:
        return list(self._attached)

    def _compose_candidates(self, radio) -> List[Transmission]:
        return list(self._transmissions)
