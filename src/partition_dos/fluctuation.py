"""How far the exact counts swing around their smooth asymptote.

The distinct-square counts oscillate visibly about the smooth curve, waxing
and waning like beats.  This module extracts the residual exact - smooth,
tracks its windowed amplitude relative to the smooth level, and offers a
descriptive spectral peak finder for the beat pattern.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .asymptotic import FERMI, BOSE, AsymptoticModel, rho_unrestricted_grid
from .counting import PartitionTable
from .errors import DomainError, PrecisionLossError
from .limits import integer

#: Largest integer a float represents exactly.
FLOAT_EXACT_MAX = 2**53


def _check_match(table: PartitionTable, model: AsymptoticModel) -> None:
    spec = table.spec
    if float(spec.s) != model.s:
        raise DomainError(f"table has s={spec.s} but model has s={model.s}")
    expected = FERMI if spec.distinct else BOSE
    if model.statistics != expected:
        raise DomainError(
            f"table distinct={spec.distinct} needs {expected!r} statistics, "
            f"model has {model.statistics!r}"
        )
    if spec.max_parts is not None:
        raise DomainError("residuals compare against the unbounded smooth curve")


def smooth_curve(model: AsymptoticModel, n_values) -> np.ndarray:
    """Smooth density evaluated at each (integer) n, in one grid pass."""
    return np.array(list(rho_unrestricted_grid(model, map(float, n_values))))


def _residual_pass(table: PartitionTable, model: AsymptoticModel,
                   n_min: int) -> tuple[np.ndarray, np.ndarray]:
    """(exact - smooth, smooth) for n = n_min .. n_max, as floats.

    Counts above 2**53 would not survive the float conversion at integer
    precision, so they raise PrecisionLossError instead of silently degrading.
    """
    _check_match(table, model)
    integer("n_min", n_min, 1, table.n_max)
    counts = table.counts[n_min:]
    if max(counts) > FLOAT_EXACT_MAX:
        n = next(n for n, c in enumerate(counts, n_min) if c > FLOAT_EXACT_MAX)
        raise PrecisionLossError(
            f"count at n={n} exceeds 2**53; residuals would lose integer precision"
        )
    smooth = smooth_curve(model, range(n_min, table.n_max + 1))
    return np.array(counts, dtype=float) - smooth, smooth


def residuals(table: PartitionTable, model: AsymptoticModel, n_min: int = 1) -> np.ndarray:
    """exact(n) - smooth(n) for n = n_min .. n_max, as floats.

    Counts above 2**53 raise PrecisionLossError.
    """
    return _residual_pass(table, model, n_min)[0]


def _paired(residual, smooth) -> tuple[np.ndarray, np.ndarray]:
    """residual and smooth as float arrays of one shape, else DomainError."""
    residual = np.asarray(residual, dtype=float)
    smooth = np.asarray(smooth, dtype=float)
    if residual.shape != smooth.shape:
        raise DomainError("residual and smooth sequences must have equal length")
    return residual, smooth


def amplitude_ratio(residual, smooth, window: int) -> np.ndarray:
    """Windowed oscillation size relative to the smooth level.

    Each output r[i] is max|residual| over a length-`window` slice divided
    by the mean of `smooth` over the same slice; the output is shorter than
    the input by window - 1 (the window edges).  Both reductions run over
    strided window views, with |residual| taken before the view so that no
    (len - window + 1) x window array is built.
    """
    residual, smooth = _paired(residual, smooth)
    integer("window", window, 3, residual.size)
    peaks = sliding_window_view(np.abs(residual), window).max(axis=1)
    return peaks / sliding_window_view(smooth, window).mean(axis=1)


def beat_spectrum(residual, smooth) -> list[tuple[float, float]]:
    """Spectral peaks of the residual sequence, strongest first.

    The residual is divided by the smooth curve (so the decaying envelope
    does not drown the oscillation), mean-subtracted, tapered with a Hann
    window, and Fourier transformed.  A peak is a local maximum of
    the power spectrum at least five times the median power (with a tiny
    relative floor to ignore rounding noise).  Frequencies are in cycles
    per unit n.  Purely descriptive output.
    """
    x, smooth = _paired(residual, smooth)
    integer("len(residual)", x.size, 64)
    x = x / smooth
    x = x - x.mean()
    power = np.abs(np.fft.rfft(x * np.hanning(x.size))) ** 2
    freqs = np.fft.rfftfreq(x.size, d=1.0)
    floor = max(5.0 * float(np.median(power[1:])), 1e-12 * float(power.max()))
    at = _local_peaks(power, floor)
    peaks = list(zip(freqs[at].tolist(), power[at].tolist()))
    peaks.sort(key=lambda fp: (-fp[1], fp[0]))
    return peaks


def _local_peaks(power: np.ndarray, floor: float) -> np.ndarray:
    """Indices i, 0 < i < len(power) - 1, where power[i] rises strictly from
    the left, is at least its right neighbour and at least `floor`: one
    numpy mask, so the left end of a plateau is the peak."""
    inner = power[1:-1]
    return 1 + np.flatnonzero((inner > power[:-2]) & (inner >= power[2:]) & (inner >= floor))


@dataclass
class FluctuationReport:
    """Residuals, windowed amplitude ratios, and a one-glance summary."""

    n_grid: np.ndarray
    residual: np.ndarray
    smooth: np.ndarray
    ratio: np.ndarray
    window: int
    summary: dict = field(default_factory=dict)


def analyze(
    table: PartitionTable,
    model: AsymptoticModel,
    window: int = 50,
    n_min: int = 1,
    spectrum: bool = False,
) -> FluctuationReport:
    """Full residual/ratio pass over a table, with optional spectral peaks.

    The smooth curve is evaluated once and serves both the residuals and
    the ratios.
    """
    res, smooth = _residual_pass(table, model, n_min)
    n_grid = np.arange(n_min, table.n_max + 1)
    ratio = amplitude_ratio(res, smooth, window)
    summary = {
        "first_ratio": float(ratio[0]),
        "last_ratio": float(ratio[-1]),
        "decreasing": bool(ratio[-1] < ratio[0]),
    }
    if spectrum:
        summary["peaks"] = beat_spectrum(res, smooth)[:5]
    return FluctuationReport(
        n_grid=n_grid,
        residual=res,
        smooth=smooth,
        ratio=ratio,
        window=window,
        summary=summary,
    )
