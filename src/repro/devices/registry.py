"""The device-profile registry.

Loads every ``profiles/*.json`` document shipped with the package
(schema-validated) and exposes the profiles by slug (``k40c``) *or* by
the spec's full display name (``Tesla K40c``).  The specs come from
:data:`repro.gpusim.device.DEVICES`, which reads the same documents at
import: each shipped profile wraps the very spec object ``DEVICES``
holds (``get_profile("k40c").spec is K40C``) and adds power and cost.

Use the module-level helpers (:func:`get_profile`,
:func:`resolve_device`, :func:`profile_names`) against the shared
default registry; construct a :class:`DeviceRegistry` directly only in
tests that need an isolated catalogue.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

from ..errors import UnknownDeviceError
from ..gpusim.device import PROFILE_DIR, DeviceSpec
from .profile import DeviceProfile
from .schema import ensure_valid


class DeviceRegistry:
    """A catalogue of named device profiles."""

    def __init__(self) -> None:
        self._profiles: Dict[str, DeviceProfile] = {}
        # Display-name -> slug, for resolve() on full device names.
        self._by_display: Dict[str, str] = {}

    # -- loading -----------------------------------------------------------

    def register(self, profile: DeviceProfile) -> DeviceProfile:
        """Add ``profile`` to the catalogue.

        Re-registering a slug is an error unless the profile is
        identical (idempotent reload).
        """
        existing = self._profiles.get(profile.name)
        if existing is not None:
            if existing == profile:
                return existing
            raise ValueError(
                f"profile {profile.name!r} already registered with "
                f"different content (digest {existing.digest} vs "
                f"{profile.digest})")
        self._profiles[profile.name] = profile
        self._by_display[profile.spec.name] = profile.name
        return profile

    def load_file(self, path: Union[str, Path]) -> DeviceProfile:
        path = Path(path)
        with open(path) as fh:
            doc = json.load(fh)
        ensure_valid(doc, name=path.name)
        profile = DeviceProfile.from_dict(doc)
        if profile.name != path.stem:
            raise ValueError(f"profile file {path.name!r} declares name "
                             f"{profile.name!r}; file name and profile "
                             f"name must match")
        return self.register(profile)

    def load_dir(self, directory: Union[str, Path]) -> List[DeviceProfile]:
        """Load every ``*.json`` under ``directory``, sorted by name."""
        return [self.load_file(path)
                for path in sorted(Path(directory).glob("*.json"))]

    # -- lookup ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._profiles)

    def __iter__(self) -> Iterator[DeviceProfile]:
        return iter(self._profiles.values())

    def __contains__(self, name: str) -> bool:
        return name in self._profiles or name in self._by_display

    def names(self) -> List[str]:
        return sorted(self._profiles)

    def get(self, name: str) -> DeviceProfile:
        """Profile by slug or by the spec's full display name."""
        slug = self._by_display.get(name, name)
        try:
            return self._profiles[slug]
        except KeyError:
            known = ", ".join(self.names()) or "<none>"
            raise UnknownDeviceError(f"unknown device profile {name!r} "
                                     f"(known: {known})") from None

    def find(self, name: str) -> Optional[DeviceProfile]:
        slug = self._by_display.get(name, name)
        return self._profiles.get(slug)

    def resolve(self, device: Union[str, DeviceSpec]) -> DeviceSpec:
        """Map a slug, display name, or spec onto a :class:`DeviceSpec`.

        Accepting specs verbatim lets call sites take one
        ``device=`` argument for both worlds.
        """
        if isinstance(device, DeviceSpec):
            return device
        return self.get(device).spec


# ---------------------------------------------------------------------------
# shared default registry
# ---------------------------------------------------------------------------

_default: Optional[DeviceRegistry] = None


def default_registry() -> DeviceRegistry:
    """The process-wide registry, loading the shipped catalogue once."""
    global _default
    if _default is None:
        registry = DeviceRegistry()
        registry.load_dir(PROFILE_DIR)
        _default = registry
    return _default


def profile_names() -> List[str]:
    return default_registry().names()


def get_profile(name: str) -> DeviceProfile:
    return default_registry().get(name)


def resolve_device(device: Union[str, DeviceSpec]) -> DeviceSpec:
    """Resolve a slug, display name or spec against the default
    registry (see :meth:`DeviceRegistry.resolve`)."""
    return default_registry().resolve(device)


def selftest() -> List[str]:
    """Round-trip every registered profile through its JSON form.

    Returns a list of problems (empty == healthy);
    ``repro devices --validate`` fails on any.
    """
    return [f"{profile.name}: to_dict/from_dict round trip not identical"
            for profile in default_registry()
            if DeviceProfile.from_dict(profile.to_dict()) != profile]
