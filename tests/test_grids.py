import numpy as np
import pytest

from dynkit.grids import (
    MOMENTUM,
    POSITION,
    SpectralSignal,
    _alt_signs,
    cft_forward,
    cft_forward_custom,
    cft_inverse,
    fft_bridge,
    frft,
    ifft_bridge,
    make_grid,
)


def quadrature_ft(f_values, x, p_targets, hbar=1.0):
    """O(N^2) Riemann-sum oracle for int f(x) exp(-i x p / hbar) dx."""
    dx = x[1] - x[0]
    kernel = np.exp(-1j * np.outer(p_targets, x) / hbar)
    return kernel @ f_values * dx


def direct_frft(x, alpha):
    n = len(x)
    k = np.arange(n)
    return np.exp(-2j * np.pi * alpha * np.outer(k, k)) @ x


class TestMakeGrid:
    def test_small_grid_fields(self):
        g = make_grid(1.0, 4)
        assert g.dx == 0.5
        np.testing.assert_allclose(g.x, [-1.0, -0.5, 0.0, 0.5])
        np.testing.assert_allclose(g.p_fft, [-2 * np.pi, -np.pi, 0.0, np.pi])

    def test_spacing_and_span(self):
        g = make_grid(2.0, 8)
        assert g.dx == 0.5
        assert g.x[0] == -2.0
        assert g.x[-1] == 1.5

    def test_conjugacy_invariant(self):
        for n in (4, 16, 250, 512):
            g = make_grid(3.7, n)
            assert abs(g.dx * (g.p_fft[1] - g.p_fft[0]) - 2 * np.pi / n) < 1e-15

    def test_hbar_scales_momenta(self):
        g = make_grid(2.0, 8, hbar=2.0)
        assert abs(g.dx * (g.p_fft[1] - g.p_fft[0]) - 2 * np.pi * 2.0 / 8) < 1e-15

    @pytest.mark.parametrize("L,n", [(1.0, 3), (1.0, 2), (1.0, 5), (-1.0, 8), (0.0, 8)])
    def test_rejects_bad_arguments(self, L, n):
        with pytest.raises(ValueError):
            make_grid(L, n)

    @pytest.mark.parametrize("hbar", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_hbar(self, hbar):
        with pytest.raises(ValueError, match="hbar"):
            make_grid(1.0, 8, hbar)

    def test_signal_length_validated(self):
        g = make_grid(1.0, 8)
        with pytest.raises(ValueError):
            SpectralSignal(np.zeros(7), g, POSITION)
        with pytest.raises(ValueError):
            SpectralSignal(np.zeros(8), g, "phase-space")


class TestCftForward:
    def test_gaussian_pair_against_quadrature_and_analytic(self):
        g = make_grid(16.0, 256)
        f = np.exp(-g.x ** 2 / 2)
        sig = SpectralSignal(f, g, POSITION)
        out = cft_forward(sig)
        oracle = quadrature_ft(f, g.x, g.p_fft)
        assert np.max(np.abs(out.values - oracle)) < 1e-10
        analytic = np.sqrt(2 * np.pi) * np.exp(-g.p_fft ** 2 / 2)
        assert np.max(np.abs(out.values - analytic)) < 1e-10

    def test_zero_maps_to_zero(self):
        g = make_grid(4.0, 32)
        out = cft_forward(SpectralSignal(np.zeros(32), g, POSITION))
        assert np.all(out.values == 0)

    def test_rejects_n_not_divisible_by_4(self):
        g = make_grid(4.0, 250)
        with pytest.raises(ValueError):
            cft_forward(SpectralSignal(np.zeros(250), g, POSITION))

    def test_rejects_momentum_space_input(self):
        g = make_grid(4.0, 32)
        with pytest.raises(ValueError):
            cft_forward(SpectralSignal(np.zeros(32), g, MOMENTUM))

    def test_plancherel_raw_convention(self):
        rng = np.random.default_rng(7)
        g = make_grid(10.0, 128)
        f = np.exp(-g.x ** 2) * (rng.normal(size=128) + 1j * rng.normal(size=128))
        # band-limit so the grid resolves the signal
        f = np.exp(-g.x ** 2 / 4) * np.cos(2 * g.x) + 0.3j * np.exp(-g.x ** 2 / 3)
        out = cft_forward(SpectralSignal(f, g, POSITION))
        dp = g.p_fft[1] - g.p_fft[0]
        lhs = np.sum(np.abs(f) ** 2) * g.dx
        rhs = np.sum(np.abs(out.values) ** 2) * dp / (2 * np.pi * g.hbar)
        assert abs(lhs - rhs) < 1e-10

    def test_normalized_convention_is_unitary(self):
        g = make_grid(10.0, 128)
        f = np.exp(-g.x ** 2 / 2) * np.exp(1j * g.x)
        out = cft_forward(SpectralSignal(f, g, POSITION), normalized=True)
        dp = g.p_fft[1] - g.p_fft[0]
        lhs = np.sum(np.abs(f) ** 2) * g.dx
        rhs = np.sum(np.abs(out.values) ** 2) * dp
        assert abs(lhs - rhs) < 1e-10


class TestCftInverse:
    def test_roundtrip_identity(self):
        g = make_grid(12.0, 128)
        f = np.exp(-g.x ** 2 / 2) * np.exp(0.5j * g.x)
        back = cft_inverse(cft_forward(SpectralSignal(f, g, POSITION)))
        assert np.max(np.abs(back.values - f)) < 1e-12
        back_norm = cft_inverse(
            cft_forward(SpectralSignal(f, g, POSITION), normalized=True),
            normalized=True,
        )
        assert np.max(np.abs(back_norm.values - f)) < 1e-12

    def test_zero_maps_to_zero(self):
        g = make_grid(4.0, 32)
        out = cft_inverse(SpectralSignal(np.zeros(32), g, MOMENTUM))
        assert np.all(out.values == 0)

    def test_gaussian_inverse_against_quadrature(self):
        g = make_grid(16.0, 256)
        gp = np.sqrt(2 * np.pi) * np.exp(-g.p_fft ** 2 / 2)
        out = cft_inverse(SpectralSignal(gp, g, MOMENTUM))
        dp = g.p_fft[1] - g.p_fft[0]
        kernel = np.exp(1j * np.outer(g.x, g.p_fft))
        oracle = kernel @ gp * dp / (2 * np.pi)
        assert np.max(np.abs(out.values - oracle)) < 1e-10
        assert np.max(np.abs(out.values - np.exp(-g.x ** 2 / 2))) < 1e-10


def test_bridge_signs_cached_read_only():
    signs = _alt_signs(12)
    assert _alt_signs(12) is signs
    assert not signs.flags.writeable
    assert np.array_equal(signs, (-1.0) ** np.arange(12))


@pytest.mark.parametrize("bridge,transform", [(fft_bridge, np.fft.fft),
                                               (ifft_bridge, np.fft.ifft)],
                         ids=["fft", "ifft"])
def test_bridges_leave_their_input_and_return_a_fresh_array(bridge, transform):
    rng = np.random.default_rng(5)
    writable = rng.normal(size=(8, 12)) + 1j * rng.normal(size=(8, 12))
    read_only = writable.copy()
    read_only.setflags(write=False)
    for values in (writable, read_only, writable.real.copy()):
        before = values.copy()
        for axis in (0, 1, -1):
            out = bridge(values, axis=axis)
            assert not np.shares_memory(out, values)
            assert values.tobytes() == before.tobytes()
            # (-1)^k transform[(-1)^l f_l] through the np.fft wrapper, bit for bit
            s = _alt_signs(8)[:, None] if axis == 0 else _alt_signs(12)
            expected = s * transform(s * values, axis=axis)
            assert out.tobytes() == expected.tobytes()


class TestFrft:
    def test_alpha_one_over_n_is_dft(self):
        rng = np.random.default_rng(3)
        for n in (8, 64, 256):
            x = rng.normal(size=n) + 1j * rng.normal(size=n)
            np.testing.assert_allclose(frft(x, 1.0 / n), np.fft.fft(x),
                                       atol=1e-10, rtol=0)

    def test_alpha_zero_sums_input(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=33) + 1j * rng.normal(size=33)
        np.testing.assert_allclose(frft(x, 0.0), np.full(33, x.sum()),
                                   atol=1e-12, rtol=0)

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(5)
        for n, alpha in [(64, 0.137), (100, -0.311), (256, 0.0173)]:
            x = rng.normal(size=n) + 1j * rng.normal(size=n)
            np.testing.assert_allclose(frft(x, alpha), direct_frft(x, alpha),
                                       atol=1e-10, rtol=0)

    def test_empty_input_gives_an_empty_output(self):
        y = frft(np.array([]), 0.25)
        assert y.shape == (0,) and y.dtype == complex

    @pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_alpha(self, alpha):
        # a NaN or infinite chirp made every output NaN without an error
        with pytest.raises(ValueError, match="alpha must be finite"):
            frft(np.ones(16), alpha)


class TestCftForwardCustom:
    def test_agrees_with_method_one_at_native_spacing(self):
        g = make_grid(16.0, 256)
        f = np.exp(-g.x ** 2 / 2) * np.exp(0.3j * g.x)
        sig = SpectralSignal(f, g, POSITION)
        native = cft_forward(sig)
        custom = cft_forward_custom(sig, dp=np.pi * g.hbar / g.half_width)
        assert np.max(np.abs(native.values - custom.values)) < 1e-10
        np.testing.assert_allclose(custom.momenta, g.p_fft, atol=1e-12)

    def test_zoomed_momentum_window_against_quadrature(self):
        g = make_grid(16.0, 256)
        f = np.exp(-g.x ** 2 / 2)
        dp = 0.5 * np.pi / g.half_width
        out = cft_forward_custom(SpectralSignal(f, g, POSITION), dp=dp)
        oracle = quadrature_ft(f, g.x, out.momenta)
        assert np.max(np.abs(out.values - oracle)) < 1e-9

    def test_zero_maps_to_zero(self):
        g = make_grid(4.0, 32)
        out = cft_forward_custom(SpectralSignal(np.zeros(32), g, POSITION), dp=0.2)
        assert np.max(np.abs(out.values)) == 0

    def test_rejects_nonpositive_dp(self):
        g = make_grid(4.0, 32)
        with pytest.raises(ValueError):
            cft_forward_custom(SpectralSignal(np.zeros(32), g, POSITION), dp=0.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("dp", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_dp(self, dp):
        # an infinite dp warned and returned NaN; a NaN one failed inside frft
        # with a message about alpha
        g = make_grid(4.0, 32)
        with pytest.raises(ValueError, match="^dp must be positive and finite"):
            cft_forward_custom(SpectralSignal(np.ones(32), g, POSITION), dp=dp)

    def test_works_with_hbar_not_one(self):
        g = make_grid(16.0, 256, hbar=0.5)
        f = np.exp(-g.x ** 2 / 2)
        dp = 0.7 * np.pi * g.hbar / g.half_width
        out = cft_forward_custom(SpectralSignal(f, g, POSITION), dp=dp)
        oracle = quadrature_ft(f, g.x, out.momenta, hbar=g.hbar)
        assert np.max(np.abs(out.values - oracle)) < 1e-9
