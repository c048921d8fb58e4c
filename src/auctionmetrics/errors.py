"""Exception hierarchy shared across the package, the one number check and
the one grid size check.

The CLI maps these onto exit codes: validation problems (bad parameters,
malformed inputs) exit 2, estimator failures exit 3, I/O problems exit 4.
"""

import math
import numbers


class AuctionMetricsError(Exception):
    """Base class for all package errors."""


class ValidationError(AuctionMetricsError, ValueError):
    """Invalid parameters, domains, or malformed input data."""


class EstimationError(AuctionMetricsError, RuntimeError):
    """An estimator could not produce a usable result.

    Instances may carry a ``diagnostics`` dict with partial results.
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


def check_number(name, x, lo=-math.inf, hi=math.inf, bounds="[]", integer=False):
    """``x``, if it is a finite real number (an integer if ``integer``) between
    ``lo`` and ``hi``, each end closed by ``[``/``]`` or opened by ``(``/``)``
    in ``bounds``; otherwise ValidationError naming ``name``. A bool is not a
    number (``np.bool_`` is no ``numbers.Real``); numpy numbers are."""
    if isinstance(x, bool) or not isinstance(x, numbers.Integral if integer else numbers.Real):
        raise ValidationError(f"{name} must be {'an integer' if integer else 'a number'}, "
                              f"not {type(x).__name__}")
    if not -math.inf < x < math.inf:  # NaN too; an int of any size passes
        raise ValidationError(f"{name} must be finite, not {x}")
    left, right = bounds
    if not (lo < x if left == "(" else lo <= x) or not (x < hi if right == ")" else x <= hi):
        need = f"{'>' if left == '(' else '>='} {lo:g}" if hi == math.inf \
            else f"in {left}{lo:g}, {hi:g}{right}"
        raise ValidationError(f"{name} must be {need}, not {x}")
    return x


def check_window(lo, hi, name="window", point=False):
    """(lo, hi) if both are numbers with 0 <= lo < hi <= 1 (or lo == hi, if
    ``point``); otherwise ValidationError naming ``name``."""
    check_number("lo", lo)
    check_number("hi", hi)
    if not 0.0 <= lo <= hi <= 1.0 or (lo == hi and not point):
        raise ValidationError(f"{name} [{lo}, {hi}] must satisfy "
                              f"0 <= lo {'<=' if point else '<'} hi <= 1")
    return lo, hi


# the most points a grid may hold: over 500 times the largest grid that a test
# or a benchmark workload builds (a second-price lattice of 17,590 points)
MAX_GRID_POINTS = 10**7


def check_grid_size(what, span, step):
    """ValidationError naming ``what``, a grid at ``step`` over ``span``, and
    its point count span/step if that is above ``MAX_GRID_POINTS``. A step
    that underflowed to 0 counts as too small."""
    size = span / step if step > 0.0 else math.inf
    if not size <= MAX_GRID_POINTS:
        raise ValidationError(f"{what} would hold {size:.3g} points, more than the "
                              f"{MAX_GRID_POINTS:,} a grid may hold")
