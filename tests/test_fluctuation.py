import numpy as np
import pytest

import partition_dos as pd
from partition_dos import fluctuation
from partition_dos.errors import DomainError, PrecisionLossError


def test_residuals_of_rounded_model_are_small():
    # A table fabricated by rounding the smooth curve leaves |residual| <= 0.5.
    model = pd.make_model(1, pd.BOSE)
    counts = (1,) + tuple(round(pd.rho_unrestricted(model, n)) for n in range(1, 81))
    table = pd.PartitionTable(pd.SpectrumSpec(1), counts)
    res = pd.residuals(table, model)
    assert np.all(np.abs(res) <= 0.5)


def test_residuals_reconstruct_counts():
    table = pd.build_table(pd.SpectrumSpec(2, True), 400)
    model = pd.make_model(2, pd.FERMI)
    res = pd.residuals(table, model)
    smooth = pd.smooth_curve(model, range(1, 401))
    exact = np.array([float(c) for c in table.counts[1:]])
    assert np.allclose(res + smooth, exact, rtol=1e-12, atol=0)


def test_residuals_spec_mismatch():
    table = pd.build_table(pd.SpectrumSpec(2, True), 100)
    with pytest.raises(DomainError, match=r"^table distinct=True needs 'fermi' statistics"):
        pd.residuals(table, pd.make_model(2, pd.BOSE))
    with pytest.raises(DomainError, match=r"^table has s=2 but model has s=1\.0$"):
        pd.residuals(table, pd.make_model(1, pd.FERMI))
    bounded = pd.build_table(pd.SpectrumSpec(1, False, 10), 50)
    with pytest.raises(DomainError, match=r"^residuals compare against the unbounded"):
        pd.residuals(bounded, pd.make_model(1, pd.BOSE))


def test_residuals_overflow_guard():
    # p(n) crosses 2**53 at n = 300.
    table = pd.build_table(pd.SpectrumSpec(1), 310)
    with pytest.raises(PrecisionLossError):
        pd.residuals(table, pd.make_model(1, pd.BOSE))
    ok = pd.build_table(pd.SpectrumSpec(1), 299)
    assert pd.residuals(ok, pd.make_model(1, pd.BOSE)).size == 299


def test_amplitude_ratio_zero_residual():
    smooth = np.linspace(10.0, 20.0, 100)
    r = pd.amplitude_ratio(np.zeros(100), smooth, 11)
    assert np.all(r == 0.0)
    assert r.size == 100 - 11 + 1


def test_amplitude_ratio_of_smooth_itself():
    smooth = np.linspace(100.0, 101.0, 200)  # slowly varying
    r = pd.amplitude_ratio(smooth.copy(), smooth, 21)
    assert np.all(np.abs(r - 1.0) < 0.02)


def test_amplitude_ratio_validation():
    with pytest.raises(DomainError):
        pd.amplitude_ratio(np.zeros(10), np.ones(10), 2)
    with pytest.raises(DomainError):
        pd.amplitude_ratio(np.zeros(10), np.ones(10), 11)
    with pytest.raises(DomainError):
        pd.amplitude_ratio(np.zeros(10), np.ones(9), 3)


def _loop_ratio(residual, smooth, window):
    """Oracle for amplitude_ratio: one slice per window, as it was computed before."""
    out = np.empty(residual.size - window + 1)
    for i in range(out.size):
        out[i] = np.abs(residual[i : i + window]).max() / smooth[i : i + window].mean()
    return out


def test_amplitude_ratio_matches_loop_oracle():
    table = pd.build_table(pd.SpectrumSpec(2, True), 600)
    model = pd.make_model(2, pd.FERMI)
    res = pd.residuals(table, model)
    smooth = pd.smooth_curve(model, range(1, 601))
    rng = np.random.default_rng(5)
    noise, level = rng.normal(size=300), rng.uniform(1.0, 1e6, size=300)
    for r, sm in ((res, smooth), (noise, level)):
        for window in (3, 50, r.size):
            assert np.array_equal(pd.amplitude_ratio(r, sm, window), _loop_ratio(r, sm, window))


def test_analyze_residual_is_counts_minus_smooth():
    table = pd.build_table(pd.SpectrumSpec(2, True), 500)
    model = pd.make_model(2, pd.FERMI)
    rep = pd.analyze(table, model, n_min=20)
    exact = np.array([float(c) for c in table.counts[20:]])
    assert np.array_equal(rep.residual, exact - rep.smooth)
    assert np.array_equal(rep.smooth, pd.smooth_curve(model, range(20, 501)))
    assert np.array_equal(rep.residual, pd.residuals(table, model, n_min=20))


def test_s1_ratios_stay_small():
    # The smooth formulas track the exact s=1 counts closely; the window
    # metric inflates with the growth of the counts, hence the measured caps.
    bose = pd.analyze(
        pd.build_table(pd.SpectrumSpec(1), 299), pd.make_model(1, pd.BOSE), n_min=200
    )
    assert bose.ratio.max() < 0.12
    assert bose.ratio[35:].max() < 0.1  # windows starting at n >= 235
    shifted = pd.analyze(
        pd.build_table(pd.SpectrumSpec(1), 299),
        pd.make_model(1, pd.BOSE, rademacher_shift=True),
        n_min=200,
    )
    assert shifted.ratio.max() < 0.1
    fermi = pd.analyze(
        pd.build_table(pd.SpectrumSpec(1, True), 560),
        pd.make_model(1, pd.FERMI),
        n_min=200,
    )
    assert fermi.ratio.max() < 0.05


def test_distinct_square_ratios_dominate_s1_and_decay():
    table = pd.build_table(pd.SpectrumSpec(2, True), 500)
    rep = pd.analyze(table, pd.make_model(2, pd.FERMI), n_min=200)
    assert rep.ratio.min() > 0.12  # larger than both s=1 caps at matched n
    full = pd.analyze(
        pd.build_table(pd.SpectrumSpec(2, True), 1000), pd.make_model(2, pd.FERMI)
    )
    assert full.summary["decreasing"]
    assert full.summary["last_ratio"] < full.summary["first_ratio"]


def test_beat_spectrum_single_sinusoid():
    t = np.arange(256)
    peaks = pd.beat_spectrum(np.sin(2 * np.pi * 16 / 256 * t), np.ones(256))
    assert len(peaks) == 1
    assert peaks[0][0] == pytest.approx(16 / 256, abs=1e-12)


def test_beat_spectrum_two_sinusoids():
    t = np.arange(256)
    x = np.sin(2 * np.pi * 16 / 256 * t) + 0.5 * np.sin(2 * np.pi * 48 / 256 * t)
    peaks = pd.beat_spectrum(x, np.ones(256))
    assert len(peaks) == 2
    assert peaks[0][0] == pytest.approx(16 / 256, abs=1e-12)
    assert peaks[1][0] == pytest.approx(48 / 256, abs=1e-12)
    assert peaks[0][1] > peaks[1][1]


def test_beat_spectrum_needs_enough_samples():
    with pytest.raises(DomainError):
        pd.beat_spectrum(np.zeros(63), np.ones(63))


def test_beat_spectrum_smooth_must_match_the_residual():
    # The same rule and message as amplitude_ratio, not numpy's broadcasting error.
    with pytest.raises(DomainError, match=r"^residual and smooth sequences must have equal length$"):
        pd.beat_spectrum(np.zeros(64), np.ones(63))


def test_beat_spectrum_of_distinct_squares():
    table = pd.build_table(pd.SpectrumSpec(2, True), 600)
    model = pd.make_model(2, pd.FERMI)
    res = pd.residuals(table, model)
    smooth = pd.smooth_curve(model, range(1, 601))
    peaks = pd.beat_spectrum(res, smooth)
    assert len(peaks) >= 2
    # Two dominant, well-separated interfering components.
    assert abs(peaks[0][0] - peaks[1][0]) > 2 / 600


def test_analyze_report_shape():
    table = pd.build_table(pd.SpectrumSpec(2, True), 300)
    rep = pd.analyze(table, pd.make_model(2, pd.FERMI), window=50, spectrum=True)
    assert rep.n_grid[0] == 1 and rep.n_grid[-1] == 300
    assert rep.residual.size == rep.smooth.size == 300
    assert rep.ratio.size == 300 - 50 + 1
    assert rep.window == 50
    assert set(rep.summary) == {"first_ratio", "last_ratio", "decreasing", "peaks"}
    assert len(rep.summary["peaks"]) <= 5


def _local_peaks_loop(power, floor):
    """The peak indices by one Python comparison chain per bin: the loop the
    numpy mask of fluctuation._local_peaks replaced, kept as its oracle."""
    return [i for i in range(1, power.size - 1)
            if power[i] > power[i - 1] and power[i] >= power[i + 1] and power[i] >= floor]


@pytest.mark.parametrize(
    "power",
    [
        [0.0, 3.0, 3.0, 1.0, 5.0, 5.0, 5.0, 2.0, 2.0, 4.0],  # plateaus, peak at the end
        [1.0, 1.0, 1.0, 1.0],  # flat: no strict rise, no peak
        [0.0, 2.0, 1.0, 2.0, 2.0, 0.0, 9.0],
        [5.0, 4.0, 4.0, 6.0, 6.0],
        [0.0, np.nan, 1.0, 0.5, np.inf, np.inf, 0.0],
    ],
)
@pytest.mark.parametrize("floor", [0.0, 2.0, 4.5])
def test_local_peaks_match_the_loop(power, floor):
    power = np.array(power)
    assert fluctuation._local_peaks(power, floor).tolist() == _local_peaks_loop(power, floor)


def test_local_peaks_match_the_loop_on_rounded_noise():
    # Rounding to 1 decimal makes many equal neighbours.
    rng = np.random.default_rng(7)
    for _ in range(50):
        power = np.round(rng.random(rng.integers(3, 60)), 1)
        floor = float(np.median(power))
        assert fluctuation._local_peaks(power, floor).tolist() == _local_peaks_loop(power, floor)
