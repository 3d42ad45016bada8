"""Registry for the multiplicative constants the bounds leave unpinned.

Every inequality in the toolkit carries a constant that theory does not pin
down.  The ledger gives each one a name, a value, and a provenance tag so
experiment manifests can state exactly which constants produced a table.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["LedgerEntry", "ConstantLedger"]

_DEFAULTS = {
    # upper constant of the heat-kernel comparison profile
    "dm_upper_C": 1.0,
    # multiplicative constant of the closed-form kernel lower bound
    "gbar_C": 1.0,
    # constant of the chaos-norm recursion feeding the renewal profiles
    "chaos_C": 1.0,
}

_PROVENANCES = ("default", "calibrated", "user", "derived")


@dataclass
class LedgerEntry:
    value: float
    provenance: str
    note: str = ""


class ConstantLedger:
    def __init__(self, overrides: dict | None = None):
        self._entries: dict[str, LedgerEntry] = {
            k: LedgerEntry(v, "default") for k, v in _DEFAULTS.items()
        }
        for k, v in (overrides or {}).items():
            self.set(k, float(v), "user")

    def set(self, name: str, value: float, provenance: str = "user", note: str = "") -> None:
        if provenance not in _PROVENANCES:
            raise ValueError(f"unknown provenance {provenance!r}")
        if not 0.0 < value < float("inf"):
            raise ValueError("ledger constants must be positive and finite")
        self._entries[name] = LedgerEntry(float(value), provenance, note)

    def value(self, name: str) -> float:
        if name not in self._entries:
            raise KeyError(f"no ledger entry named {name!r}")
        return self._entries[name].value

    def entry(self, name: str) -> LedgerEntry:
        return self._entries[name]

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def as_dict(self) -> dict:
        return {
            k: {"value": e.value, "provenance": e.provenance, "note": e.note}
            for k, e in sorted(self._entries.items())
        }
