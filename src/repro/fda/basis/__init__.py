"""Basis systems for functional approximation (paper Eq. 1)."""

from repro.exceptions import BasisError
from repro.fda.basis.bspline import BSplineBasis

__all__ = [
    "BSplineBasis",
    "basis_from_config",
]


def basis_from_config(config: dict) -> BSplineBasis:
    """Rebuild a basis from a :meth:`BSplineBasis.to_config` dictionary.

    The inverse of :meth:`BSplineBasis.to_config`:
    ``basis_from_config(b.to_config())`` returns a basis with the same
    :attr:`~BSplineBasis.cache_key` as ``b`` (and therefore bit-identical
    design matrices).  ``BSplineBasis`` is the one basis a persisted
    config can name.
    """
    if not isinstance(config, dict) or "type" not in config:
        raise BasisError(f"basis config must be a dict with a 'type' key, got {config!r}")
    kwargs = dict(config)
    name = kwargs.pop("type")
    if name != "BSplineBasis":
        raise BasisError(f"unknown basis type {name!r}; known: ['BSplineBasis']")
    domain = kwargs.pop("domain", None)
    if domain is None or len(domain) != 2:
        raise BasisError(f"basis config needs a 2-element 'domain', got {domain!r}")
    return BSplineBasis(tuple(float(v) for v in domain), **kwargs)
