"""High-level kSPR query interface.

:func:`kspr` is the main entry point of the library: it dispatches to one of
the algorithms (LP-CTA by default, the paper's best method) and returns a
:class:`~repro.core.result.KSPRResult` containing the preference regions,
their exact geometry and the query statistics.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..approx.estimator import ApproxSpec, sample_kspr
from ..approx.result import ApproxKSPRResult
from ..exceptions import InvalidQueryError
from ..records import Dataset
from ..robust import Tolerance, resolve_tolerance, validate_query_inputs
from .base import ORIGINAL_SPACE, TRANSFORMED_SPACE
from .bounds import BoundsMode
from .cta import cta
from .lpcta import lpcta
from .original_space import olp_cta, op_cta
from .pcta import pcta
from .result import KSPRResult

__all__ = [
    "kspr",
    "available_methods",
    "normalize_method",
    "resolve_method",
    "validate_query",
    "canonical_options",
    "query_space",
]

_METHODS: dict[str, Callable[..., KSPRResult | ApproxKSPRResult]] = {
    "cta": cta,
    "pcta": pcta,
    "p-cta": pcta,
    "lpcta": lpcta,
    "lp-cta": lpcta,
    "op-cta": op_cta,
    "olp-cta": olp_cta,
    "sample": sample_kspr,
}


def available_methods() -> list[str]:
    """Names accepted by the ``method`` argument of :func:`kspr` (aliases included)."""
    return sorted(_METHODS)


def normalize_method(method: str) -> str:
    """Canonical spelling of a method name; raises for unknown methods."""
    normalized = method.strip().lower().replace("_", "-")
    if normalized not in _METHODS:
        raise InvalidQueryError(
            f"unknown method {method!r}; available: {', '.join(available_methods())}"
        )
    return normalized


def resolve_method(method: str) -> tuple[str, Callable[..., KSPRResult]]:
    """Resolve a method name (or alias) to ``(canonical name, callable)``.

    Aliases collapse to one canonical name (``"p-cta"`` and ``"pcta"`` both
    resolve to ``"pcta"``) so callers such as :class:`repro.engine.Engine`
    can key caches without alias-induced duplicates.
    """
    func = _METHODS[normalize_method(method)]
    return func.__name__, func


def validate_query(dataset: Dataset, focal: np.ndarray, k: int) -> np.ndarray:
    """Validate a (dataset, focal, k) query triple up front.

    Raises :class:`~repro.exceptions.InvalidQueryError` for a non-integral or
    out-of-range ``k`` (``k < 1`` or ``k > n``), a ``d = 1`` dataset, a focal
    record of the wrong shape or dimensionality, or non-finite focal values.
    Returns the focal record as a float vector.  This is a thin alias for
    :func:`repro.robust.validate_query_inputs`, the canonical validation
    shared by :func:`kspr`, :class:`repro.engine.Engine` and
    :class:`repro.parallel.ShardedExecutor`.
    """
    return validate_query_inputs(dataset, focal, k)


def canonical_options(
    options: dict, method_name: str, default_tolerance: Tolerance | None = None
) -> dict:
    """Canonical per-query options: one spelling per query, ready to key a cache.

    ``bounds_mode`` strings become :class:`~repro.core.bounds.BoundsMode`
    members.  A tolerance is resolved to a :class:`~repro.robust.Tolerance`
    (so a float and its equivalent policy never produce two keys); an
    explicit ``tolerance=None`` means "not given", and ``default_tolerance``
    fills in whenever the query brings none.  For the sampling method
    (``method_name == "sample_kspr"``) ``warn`` is dropped, since it never
    changes the answer, and every accuracy-contract field is expanded to the
    full :class:`~repro.approx.ApproxSpec`, so the ``approx=`` and
    ``method="sample"`` spellings, with or without the default values
    written out, all share one key.  ``options`` itself is not modified.
    """
    options = dict(options)
    if isinstance(options.get("bounds_mode"), str):
        options["bounds_mode"] = BoundsMode(options["bounds_mode"])
    if options.get("tolerance") is not None:
        options["tolerance"] = resolve_tolerance(options["tolerance"])
    elif default_tolerance is not None:
        options["tolerance"] = default_tolerance
    else:
        options.pop("tolerance", None)
    if method_name == "sample_kspr":
        options.pop("warn", None)
        overrides = {
            name: options.pop(name)
            for name in list(options)
            if name in ApproxSpec.__dataclass_fields__
        }
        options.update(ApproxSpec(**overrides).as_options())
    return options


def query_space(method_name: str, options: dict) -> str:
    """The preference space a query runs in.

    The original-space variants of Appendix C (``op_cta``, ``olp_cta``)
    always work in the original space; every other method honours its
    ``space`` option and defaults to the transformed space.
    """
    if method_name in ("op_cta", "olp_cta"):
        return ORIGINAL_SPACE
    return options.get("space", TRANSFORMED_SPACE)


def kspr(
    dataset: Dataset | np.ndarray | Sequence[Sequence[float]],
    focal: np.ndarray | Sequence[float],
    k: int,
    method: str = "lpcta",
    **options,
) -> KSPRResult | ApproxKSPRResult:
    """Answer a k-Shortlist Preference Region query.

    Parameters
    ----------
    dataset:
        The competing options, either as a :class:`~repro.records.Dataset` or
        as a raw ``(n, d)`` array-like.
    focal:
        The focal record ``p`` whose impact regions are sought.
    k:
        Shortlist size: the regions where ``p`` ranks among the top-``k`` are
        reported.
    method:
        ``"lpcta"`` (default), ``"pcta"``, ``"cta"``, ``"op-cta"``,
        ``"olp-cta"`` — the exact algorithms — or ``"sample"``, the Monte
        Carlo approximate mode (see :mod:`repro.approx`).
    options:
        Forwarded to the selected algorithm (e.g. ``bounds_mode="group"`` for
        LP-CTA, ``finalize_geometry=False`` to skip exact geometry,
        ``tolerance=Tolerance(...)`` to tighten or loosen the numerical
        policy for this query — see :mod:`repro.robust`; for
        ``method="sample"``: ``epsilon``, ``delta``, ``samples``, ``mode``,
        ``seed``, ``adaptive`` — see :func:`repro.approx.sample_kspr`).

    Returns
    -------
    KSPRResult or ApproxKSPRResult
        For the exact methods, the preference regions (each with its rank
        and exact geometry) plus query statistics.  For ``"sample"``, an
        :class:`~repro.approx.ApproxKSPRResult`: the estimated impact
        probability with its confidence intervals — no region geometry.

    Raises
    ------
    InvalidQueryError
        For an unknown ``method`` or malformed query inputs (``k < 1``,
        ``k > n``, ``d = 1`` datasets, focal shape or dimensionality
        mismatches, non-finite focal values).

    Examples
    --------
    >>> import numpy as np
    >>> from repro import Dataset, kspr
    >>> data = Dataset(np.array([[3, 8, 8], [9, 4, 4], [8, 3, 4], [4, 3, 6]]))
    >>> result = kspr(data, focal=[5, 5, 7], k=3)
    >>> result.is_empty
    False
    """
    if not isinstance(dataset, Dataset):
        dataset = Dataset(np.asarray(dataset, dtype=float))
    focal = validate_query(dataset, focal, k)
    normalized = normalize_method(method)
    if normalized == "lpcta" and "bounds_mode" in options and isinstance(options["bounds_mode"], str):
        options["bounds_mode"] = BoundsMode(options["bounds_mode"])
    if normalized == "sample":
        # The line above already validated (and possibly warned about) the
        # query; the estimator must not warn a second time.
        options.setdefault("warn", False)
    return _METHODS[normalized](dataset, focal, k, **options)
