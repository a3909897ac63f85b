"""MPI info objects; carries the assertion keys the paper studies.

The one that matters here is ``mpi_assert_allow_overtaking`` (paper
section IV-D): attached to a communicator it releases the non-overtaking
matching guarantee, letting the implementation skip sequence-number
validation and match every incoming message immediately.
"""

from __future__ import annotations

ALLOW_OVERTAKING = "mpi_assert_allow_overtaking"

_TRUE_STRINGS = ("true", "1", "yes", "on")


class Info:
    """A string-keyed info dictionary with typed accessors."""

    def __init__(self, entries: dict | None = None):
        self._entries: dict[str, str] = {}
        for k, v in (entries or {}).items():
            self.set(k, v)

    def set(self, key: str, value) -> None:
        """Store ``value`` under ``key`` (stringified; bools lowercase)."""
        if not isinstance(key, str) or not key:
            raise ValueError("info keys must be non-empty strings")
        self._entries[key] = str(value).lower() if isinstance(value, bool) else str(value)

    def get(self, key: str, default: str | None = None) -> str | None:
        """The stored string for ``key``, or ``default``."""
        return self._entries.get(key, default)

    def get_bool(self, key: str, default: bool = False) -> bool:
        """Interpret the stored value as a boolean hint."""
        raw = self._entries.get(key)
        if raw is None:
            return default
        return raw.strip().lower() in _TRUE_STRINGS

    @property
    def allow_overtaking(self) -> bool:
        """The mpi_assert_allow_overtaking hint (section IV-B)."""
        return self.get_bool(ALLOW_OVERTAKING)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def __eq__(self, other) -> bool:
        return isinstance(other, Info) and self._entries == other._entries

    def copy(self) -> "Info":
        """Independent copy (communicators snapshot their info)."""
        return Info(dict(self._entries))
