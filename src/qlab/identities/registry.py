"""Assembly of the full identity registry, keyed by stable ids R01-R45."""

from __future__ import annotations

from typing import Dict

from . import classical, entries, four_parameter, moments, phi_sum, spt_family
from .model import Identity


def _build() -> Dict[str, Identity]:
    registry: Dict[str, Identity] = {}
    for module in (four_parameter, entries, phi_sum, spt_family, moments, classical):
        for identity in module.entries():
            if identity.id in registry:
                raise ValueError(f"duplicate registry id {identity.id}")
            registry[identity.id] = identity
    return dict(sorted(registry.items()))


REGISTRY: Dict[str, Identity] = _build()


def get_identity(identity_id: str) -> Identity:
    try:
        return REGISTRY[identity_id]
    except KeyError:
        raise KeyError(
            f"unknown identity id {identity_id!r}; valid ids: {', '.join(REGISTRY)}"
        ) from None
