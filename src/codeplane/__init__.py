"""Exact rate/distance geometry of block codes.

Subpackages cover exact plane geometry, block-code parameters, linear
codes over small fields, the parameter-spoiling calculus, certified bound
curves, desk-scale search, and pixel approximations of planar closed sets.
"""

__version__ = "0.1.0"

from .geometry import GridBall, RatBall, RatInterval, RatPoint, max_distance

__all__ = [
    "Code",
    "CodeParams",
    "GridBall",
    "RatBall",
    "RatInterval",
    "RatPoint",
    "__version__",
    "code_point",
    "hamming_distance",
    "max_distance",
    "min_distance",
    "params",
]

# the names from ``codes`` load numpy, so they resolve on first use (PEP 562)
_FROM_CODES = ("Code", "CodeParams", "code_point", "hamming_distance", "min_distance", "params")


def __getattr__(name: str):
    if name in _FROM_CODES:
        from . import codes

        return getattr(codes, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
