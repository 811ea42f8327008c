import numpy as np
import pytest

from nvholo.core import ConfigError, hermitian_deviation
from nvholo.hamiltonians import (
    ENVELOPE_KINDS,
    HERMITIZED,
    LITERAL,
    LevelSpec,
    PulseChannel,
    PulsedHamiltonian,
    PulseSet,
    build_interaction_8,
    build_rotating_frame_4,
    build_rotating_frame_8,
    envelope_values,
    silent_channel,
)

EXP_MINUS_HALF = 0.6065306597126334

GAUSS = "gaussian"
CONST = "constant"
SIN2 = "sin_squared"


def constant_channel(rabi, carrier=0.0, width=10.0, phase=0.0):
    return PulseChannel(
        rabi_mhz=rabi,
        carrier_mhz=carrier,
        envelope=CONST,
        t_center_us=0.0,
        t_width_us=width,
        phase_rad=phase,
    )


def pulse_set_8(p1=None, p2=None, p3=None, s1=None, s2=None, s3=None):
    off = silent_channel()
    return PulseSet(
        pump=(p1 or off, p2 or off, p3 or off),
        stokes=(s1 or off, s2 or off, s3 or off),
    )


def random_channel(rng):
    return PulseChannel(
        rabi_mhz=float(rng.uniform(0.0, 20.0)),
        carrier_mhz=float(rng.uniform(-50.0, 50.0)),
        envelope=str(rng.choice(ENVELOPE_KINDS)),
        t_center_us=float(rng.uniform(-1.0, 1.0)),
        t_width_us=float(rng.uniform(0.05, 2.0)),
        phase_rad=float(rng.uniform(-np.pi, np.pi)),
    )


class TestEnvelopes:
    def test_constant_support(self):
        values = envelope_values(CONST, [0.0, 1.0, 1.0001], 0.0, 2.0)
        assert values.tolist() == [1.0, 1.0, 0.0]

    def test_gaussian_center_and_width(self):
        center, one_width = envelope_values(GAUSS, [3.0, 3.5], 3.0, 0.5)
        assert center == 1.0
        assert one_width == pytest.approx(EXP_MINUS_HALF, abs=1e-12)

    def test_gaussian_truncated_at_four_widths(self):
        outside, inside = envelope_values(GAUSS, [4.001, 3.999], 0.0, 1.0)
        assert outside == 0.0
        assert inside > 0.0

    def test_sin_squared_profile(self):
        values = envelope_values(SIN2, [0.0, 0.5, -0.5, 0.6], 0.0, 1.0)
        assert values[:3] == pytest.approx([1.0, 0.0, 0.0], abs=1e-12)
        assert values[3] == 0.0

    def test_all_kinds_bounded(self):
        rng = np.random.default_rng(31)
        times = rng.uniform(-10, 10, size=500)
        for kind in ENVELOPE_KINDS:
            values = envelope_values(kind, times, 0.3, 0.7)
            assert np.all((0.0 <= values) & (values <= 1.0))

    def test_rejects_unknown_kind(self):
        with pytest.raises(ConfigError):
            PulseChannel(1.0, envelope="triangle")
        with pytest.raises(ConfigError):
            envelope_values("triangle", [0.0], 0.0, 1.0)


class TestPulseTypes:
    def test_channel_rejects_negative_rabi(self):
        with pytest.raises(ConfigError):
            PulseChannel(rabi_mhz=-1.0)

    def test_channel_rejects_zero_width(self):
        with pytest.raises(ConfigError):
            PulseChannel(rabi_mhz=1.0, t_width_us=0.0)

    @pytest.mark.parametrize("width", [1e200, 1e-200, 4e153])
    def test_gaussian_width_out_of_range_names_t_width_us(self, width):
        # 1e200 us squares to inf (the Python float power would raise a bare
        # OverflowError), 1e-200 us to 0 (the exponent would divide by it, a
        # RuntimeWarning, which the suite turns into a failure), and 4e153 us
        # squares to a finite number that is not, times 16, at the window's edge
        with pytest.raises(ConfigError, match="t_width_us"):
            PulseChannel(rabi_mhz=1.0, t_width_us=width)
        with pytest.raises(ConfigError, match="t_width_us"):
            envelope_values("gaussian", [0.0], 0.0, width)
        # the rule is the Gaussian's: a constant envelope of that width evaluates
        constant = PulseChannel(rabi_mhz=1.0, envelope="constant", t_width_us=width)
        assert constant.amplitudes([0.0])[0] == pytest.approx(2.0 * np.pi)

    def test_channel_accepts_kind_string(self):
        ch = PulseChannel(rabi_mhz=1.0, envelope="constant")
        assert ch.envelope == CONST

    def test_silent_channel_is_silent(self):
        ch = silent_channel()
        assert np.all(ch.amplitudes(np.linspace(-5, 5, 50)) == 0.0)

    def test_pulse_set_counts(self):
        off = silent_channel()
        with pytest.raises(ConfigError):
            PulseSet(pump=(off,), stokes=(off,))
        with pytest.raises(ConfigError):
            PulseSet(pump=(off, off, off), stokes=(off, off))

    def test_level_spec_validation(self):
        with pytest.raises(ConfigError):
            LevelSpec(dim=5, energies_mhz=(0,) * 5)
        with pytest.raises(ConfigError):
            LevelSpec(dim=4, energies_mhz=(0, 0, 0))
        with pytest.raises(ConfigError):
            LevelSpec(dim=4, energies_mhz=(0,) * 4, detunings_mhz=(0, 0))


class TestRotatingFrame8:
    def test_all_zero_gives_zero_matrix(self):
        spec = LevelSpec(dim=8, energies_mhz=(0.0,) * 8)
        h = build_rotating_frame_8(spec, pulse_set_8(), 0.0)
        assert np.all(h.entries == 0.0)

    def test_zero_drives_leave_diagonal(self):
        energies = (1.0, -2.0, 3.0, 0.0, 5.0, 0.0, 7.0, -8.0)
        spec = LevelSpec(dim=8, energies_mhz=energies)
        h = build_rotating_frame_8(spec, pulse_set_8(), 0.3)
        assert np.allclose(h.entries, np.diag(2 * np.pi * np.array(energies)))

    def test_single_pump3_coupling(self):
        spec = LevelSpec(dim=8, energies_mhz=(0.0,) * 8)
        pulses = pulse_set_8(p3=constant_channel(15.0))
        h = build_rotating_frame_8(spec, pulses, 0.0).entries
        assert h[0, 2] == pytest.approx(1j * np.pi * 15.0, abs=1e-12)
        assert h[2, 0] == pytest.approx(-1j * np.pi * 15.0, abs=1e-12)
        mask = np.zeros((8, 8), dtype=bool)
        mask[0, 2] = mask[2, 0] = True
        assert np.all(h[~mask] == 0.0)

    def test_pump_stokes_sign_pattern(self):
        spec = LevelSpec(dim=8, energies_mhz=(0.0,) * 8)
        pulses = pulse_set_8(
            p1=constant_channel(15.0), s1=constant_channel(15.0)
        )
        h = build_rotating_frame_8(spec, pulses, 0.0).entries
        assert h[0, 6] == pytest.approx(1j * np.pi * 15.0, abs=1e-12)
        assert h[0, 7] == pytest.approx(-1j * np.pi * 15.0, abs=1e-12)
        assert h[1, 6] == pytest.approx(-1j * np.pi * 15.0, abs=1e-12)
        assert h[1, 7] == pytest.approx(-1j * np.pi * 15.0, abs=1e-12)
        assert h[0, 6] == -h[0, 7]
        assert h[1, 6] == h[1, 7]

    def test_carrier_rotates_coupling_phase(self):
        spec = LevelSpec(dim=8, energies_mhz=(0.0,) * 8)
        pulses = pulse_set_8(p3=constant_channel(10.0, carrier=1.0))
        h = build_rotating_frame_8(spec, pulses, 0.25).entries
        # 0.5j * 2*pi*10 * exp(-i*pi/2) is purely real
        assert h[0, 2] == pytest.approx(np.pi * 10.0, abs=1e-12)

    def test_hermitian_for_random_drives(self):
        rng = np.random.default_rng(101)
        spec = LevelSpec(dim=8, energies_mhz=tuple(rng.uniform(-30, 30, size=8)))
        for _ in range(10):
            pulses = PulseSet(
                pump=tuple(random_channel(rng) for _ in range(3)),
                stokes=tuple(random_channel(rng) for _ in range(3)),
            )
            for t in rng.uniform(-2, 2, size=5):
                h = build_rotating_frame_8(spec, pulses, float(t))
                assert hermitian_deviation(h.entries) <= 1e-12

    def test_wrong_dim_rejected(self):
        spec = LevelSpec(dim=4, energies_mhz=(0.0,) * 4)
        with pytest.raises(ConfigError):
            build_rotating_frame_8(spec, pulse_set_8(), 0.0)

    def test_missing_channels_rejected(self):
        spec = LevelSpec(dim=8, energies_mhz=(0.0,) * 8)
        off = silent_channel()
        short = PulseSet(pump=(off, off), stokes=(off, off))
        with pytest.raises(ConfigError):
            build_rotating_frame_8(spec, short, 0.0)


class TestRotatingFrame4:
    def test_zero_drives_leave_diagonal(self):
        spec = LevelSpec(dim=4, energies_mhz=(0.0, 0.0, 20.0, -20.0))
        off = silent_channel()
        h = build_rotating_frame_4(spec, PulseSet((off, off), (off, off)), 0.0)
        assert np.allclose(
            h.entries, np.diag(2 * np.pi * np.array([0.0, 0.0, 20.0, -20.0]))
        )

    def test_pump_sign_pattern(self):
        spec = LevelSpec(dim=4, energies_mhz=(0.0,) * 4)
        off = silent_channel()
        pulses = PulseSet((constant_channel(7.0), off), (off, off))
        h = build_rotating_frame_4(spec, pulses, 0.0).entries
        assert h[0, 2] == pytest.approx(1j * np.pi * 7.0, abs=1e-12)
        assert h[0, 3] == pytest.approx(-1j * np.pi * 7.0, abs=1e-12)
        assert h[1, 2] == 0.0 and h[1, 3] == 0.0

    def test_stokes_sign_pattern(self):
        spec = LevelSpec(dim=4, energies_mhz=(0.0,) * 4)
        off = silent_channel()
        pulses = PulseSet((off, off), (constant_channel(7.0), off))
        h = build_rotating_frame_4(spec, pulses, 0.0).entries
        assert h[1, 2] == pytest.approx(-1j * np.pi * 7.0, abs=1e-12)
        assert h[1, 3] == pytest.approx(-1j * np.pi * 7.0, abs=1e-12)
        assert h[0, 2] == 0.0 and h[0, 3] == 0.0


def per_channel_sample(spec, pulses, times):
    """PulsedHamiltonian.sample with every channel evaluated on its own."""
    dim = spec.dim
    h = np.zeros((times.shape[0], dim, dim), dtype=np.complex128)
    pump = [ch.amplitudes(times) for ch in pulses.pump]
    stokes = [ch.amplitudes(times) for ch in pulses.stokes]
    pump_pair, stokes_pair = pump[0] - pump[1], stokes[0] - stokes[1]
    if dim == 8:
        h[:, 0, 6], h[:, 0, 7] = 0.5j * pump_pair, -0.5j * pump_pair
        h[:, 1, 6], h[:, 1, 7] = -0.5j * stokes_pair, -0.5j * stokes_pair
        h[:, 0, 2], h[:, 1, 3] = 0.5j * pump[2], -0.5j * stokes[2]
    else:
        h[:, 0, 2], h[:, 0, 3] = 0.5j * pump_pair, -0.5j * pump_pair
        h[:, 1, 2], h[:, 1, 3] = -0.5j * stokes_pair, -0.5j * stokes_pair
    h += np.conj(np.transpose(h, (0, 2, 1)))
    idx = np.arange(dim)
    h[:, idx, idx] += 2.0 * np.pi * np.asarray(spec.energies_mhz)
    return h


class TestSampler:
    def test_sample_matches_scalar_builds(self):
        rng = np.random.default_rng(11)
        spec = LevelSpec(dim=8, energies_mhz=tuple(rng.uniform(-10, 10, size=8)))
        pulses = PulseSet(
            pump=tuple(random_channel(rng) for _ in range(3)),
            stokes=tuple(random_channel(rng) for _ in range(3)),
        )
        ham = PulsedHamiltonian(spec, pulses)
        times = rng.uniform(-2, 2, size=40)
        stack = ham.sample(times)
        for k, t in enumerate(times):
            direct = build_rotating_frame_8(spec, pulses, float(t)).entries
            assert np.array_equal(stack[k], direct)

    @pytest.mark.parametrize("dim", [4, 8])
    def test_shared_and_silent_channels_sample_as_per_channel(self, monkeypatch, dim):
        # pump and Stokes share tones and silent slots, as in two-qubit-pi2
        rng = np.random.default_rng(dim)
        spec = LevelSpec(dim=dim, energies_mhz=tuple(rng.uniform(-10, 10, size=dim)))
        tone, other, off = random_channel(rng), random_channel(rng), silent_channel()
        pairs = dim // 4 + 1
        pulses = PulseSet(
            pump=(tone, off, tone)[:pairs], stokes=(tone, other, PulseChannel(0.0))[:pairs]
        )
        times = rng.uniform(-2, 2, size=40)
        expected = per_channel_sample(spec, pulses, times)
        calls = []
        amplitudes = PulseChannel.amplitudes
        monkeypatch.setattr(
            PulseChannel, "amplitudes", lambda ch, t: calls.append(ch) or amplitudes(ch, t)
        )
        stack = PulsedHamiltonian(spec, pulses).sample(times)
        assert np.array_equal(stack, expected)  # signed zeros compare equal
        assert calls == [tone, other]  # once per distinct driven channel

    @pytest.mark.parametrize("dim", [4, 8])
    def test_terms_are_hermitian_and_coefficients_real(self, dim):
        rng = np.random.default_rng(30 + dim)
        pairs = dim // 4 + 1
        for _ in range(20):
            spec = LevelSpec(dim=dim, energies_mhz=tuple(rng.uniform(-10, 10, size=dim)))
            channels = [
                random_channel(rng) if rng.uniform() < 0.7 else silent_channel()
                for _ in range(2 * pairs)
            ]
            channels[-1] = channels[int(rng.integers(2 * pairs))]  # a shared slot, at times
            ham = PulsedHamiltonian(spec, PulseSet(tuple(channels[:pairs]), tuple(channels[pairs:])))
            basis = ham.terms()
            times = rng.uniform(-2, 2, size=30)
            coefficients = ham.coefficients(times)
            driven = {ch for ch in channels if ch.rabi_mhz}
            assert basis.shape == (1 + 2 * len(driven), dim, dim)
            assert np.array_equal(basis, np.conj(np.swapaxes(basis, 1, 2)))
            assert coefficients.dtype == np.float64 and coefficients.shape == (30, len(basis))
            assert np.all(np.isfinite(coefficients)) and np.all(coefficients[:, 0] == 1.0)
            # sample is the combination, and matches the per-channel layout
            stack = ham.sample(times)
            assert np.array_equal(stack, np.einsum("nk,kij->nij", coefficients, basis))
            assert np.max(np.abs(stack - per_channel_sample(spec, ham.pulses, times))) < 1e-12

    def test_channel_count_checked(self):
        spec = LevelSpec(dim=8, energies_mhz=(0.0,) * 8)
        off = silent_channel()
        with pytest.raises(ConfigError):
            PulsedHamiltonian(spec, PulseSet((off, off), (off, off)))


def amplitude_formula(ch, times):
    """A channel's complex drive amplitude with one phase per time."""
    env = envelope_values(ch.envelope, times, ch.t_center_us, ch.t_width_us)
    phases = ch.phase_rad - 2.0 * np.pi * ch.carrier_mhz * times
    return 2.0 * np.pi * ch.rabi_mhz * env * np.exp(1j * phases)


class TestCoefficients:
    """coefficients on the integrator's grids: a chunk of steps k0..k1 asks
    for the times t0 + dt/2 * j, j = 2 k0 .. 2 k1."""

    CHANNELS = [
        PulseChannel(1.7, envelope=GAUSS, t_center_us=2.0, t_width_us=0.5),
        PulseChannel(3.0, envelope=SIN2, t_center_us=1.0, t_width_us=1.5, phase_rad=2.5),
        PulseChannel(2.0, carrier_mhz=-12.5, envelope=CONST, t_center_us=1.5, t_width_us=2.0),
        PulseChannel(0.8, carrier_mhz=30.0, envelope=GAUSS, t_center_us=0.5, phase_rad=-4.0),
    ]

    @staticmethod
    def grid(t0, dt, k0, k1):
        return t0 + (dt / 2.0) * np.arange(2 * k0, 2 * k1 + 1)

    def test_columns_are_the_amplitude_formula(self):
        # zero and nonzero carriers, zero and nonzero phases; pump and
        # Stokes share a tone, so it adds its columns once. A zero carrier
        # (a, b) takes one column, |a(t)|, and a carrier (c, d) two
        a, b, c, d = self.CHANNELS
        spec = LevelSpec(dim=8, energies_mhz=tuple(range(8)))
        ham = PulsedHamiltonian(spec, PulseSet((a, b, c), (a, d, silent_channel())))
        for t0, dt, k0, k1 in [(0.0, 1e-3, 0, 445), (0.0, 1e-3, 445, 890), (-0.3, 7e-4, 3, 19), (1.0, 0.05, 0, 1)]:
            times = self.grid(t0, dt, k0, k1)
            got = ham.coefficients(times)
            assert got.shape == (times.shape[0], 7) and np.all(got[:, 0] == 1.0)
            for k, ch in enumerate([a, b]):
                magnitude = 2.0 * np.pi * ch.rabi_mhz * envelope_values(ch.envelope, times, ch.t_center_us, ch.t_width_us)
                assert np.array_equal(got[:, k + 1], magnitude)
                assert np.max(np.abs(np.abs(amplitude_formula(ch, times)) - magnitude)) <= 1e-15 * np.max(magnitude)
            for k, ch in enumerate([c, d]):
                expected = amplitude_formula(ch, times)
                assert np.array_equal(got[:, 2 * k + 3], expected.real)
                assert np.array_equal(got[:, 2 * k + 4], expected.imag)
            for ch in (a, b, c, d):
                assert np.array_equal(ch.amplitudes(times), amplitude_formula(ch, times))

    def test_repeated_calls_share_no_state_between_instances(self):
        a, b, c, d = self.CHANNELS
        spec = LevelSpec(dim=4, energies_mhz=(0.0, 0.0, 5.0, -5.0))
        first = PulsedHamiltonian(spec, PulseSet((a, silent_channel()), (a, silent_channel())))
        second = PulsedHamiltonian(spec, PulseSet((b, c), (d, silent_channel())))
        times = [self.grid(0.0, 2e-3, k, k + 300) for k in (0, 300, 600)]
        once = [first.coefficients(t) for t in times]
        for t, expected in zip(times, once):
            assert second.coefficients(t).shape == (t.shape[0], 6)  # b and d: 1 + 1 + 2 + 2
            assert np.array_equal(first.coefficients(t), expected)
        # a fresh instance of the same pulses reads the same, and the other's differ
        again = PulsedHamiltonian(spec, first.pulses)
        assert all(np.array_equal(again.coefficients(t), e) for t, e in zip(times, once))
        assert np.array_equal(
            second.coefficients(times[0]), PulsedHamiltonian(spec, second.pulses).coefficients(times[0])
        )


@pytest.mark.parametrize("phase", [0.0, 2.5, -np.pi / 2.0])
def test_zero_carrier_channel_takes_one_term(phase):
    # a C + conj(a) C^dag = Re a X + Im a Y with a = |a| e^(i phase) at every
    # time: one term, cos(phase) X + sin(phase) Y, with coefficient |a|
    tone = PulseChannel(3.0, envelope=GAUSS, t_center_us=1.0, t_width_us=0.5, phase_rad=phase)
    carried = PulseChannel(2.0, carrier_mhz=7.0, envelope=SIN2, t_center_us=1.0, t_width_us=1.5)
    spec = LevelSpec(dim=4, energies_mhz=(0.0, 0.0, 5.0, -5.0))
    pulses = PulseSet((tone, silent_channel()), (tone, carried))
    ham = PulsedHamiltonian(spec, pulses)
    basis = ham.terms()
    assert basis.shape == (1 + 1 + 2, 4, 4)
    assert np.array_equal(basis, np.conj(np.swapaxes(basis, 1, 2)))
    times = np.linspace(-0.5, 2.5, 301)
    stack = ham.sample(times)
    assert np.max(np.abs(stack - per_channel_sample(spec, pulses, times))) <= 1e-14 * np.max(np.abs(stack))


class TestInteraction8:
    SPEC = LevelSpec(dim=8, energies_mhz=(0.0,) * 8, detunings_mhz=(7.0, 8.0, 9.0))

    def test_all_zero(self):
        spec = LevelSpec(dim=8, energies_mhz=(0.0,) * 8)
        h = build_interaction_8(spec, np.zeros(6), mode=LITERAL)
        assert np.all(h.entries == 0.0)

    def test_literal_layout(self):
        m = build_interaction_8(self.SPEC, [1, 2, 3, 4, 5, 6], mode=LITERAL).entries
        pi = np.pi
        assert m[0, 2] == pytest.approx(1j * pi * 1, abs=1e-12)
        assert m[0, 6] == pytest.approx(1j * pi * 2, abs=1e-12)
        assert m[0, 7] == pytest.approx(1j * pi * 3, abs=1e-12)
        assert m[1, 5] == pytest.approx(-1j * pi * 6, abs=1e-12)
        assert m[1, 6] == pytest.approx(-1j * pi * 5, abs=1e-12)
        assert m[1, 7] == pytest.approx(-1j * pi * 4, abs=1e-12)
        assert m[2, 2] == pytest.approx(2 * pi * 7, abs=1e-12)
        assert m[2, 6] == pytest.approx(2 * pi * 7, abs=1e-12)
        assert m[5, 2] == pytest.approx(2 * pi * 7, abs=1e-12)
        assert m[5, 5] == pytest.approx(2 * pi * 7, abs=1e-12)
        assert m[6, 6] == pytest.approx(2 * pi * 8, abs=1e-12)
        assert m[7, 7] == pytest.approx(2 * pi * 9, abs=1e-12)
        assert np.all(m[3, :] == 0.0) and np.all(m[4, :] == 0.0)
        assert np.all(m[:, 3] == 0.0) and np.all(m[:, 4] == 0.0)

    def test_literal_asymmetry_is_exactly_delta1(self):
        m = build_interaction_8(self.SPEC, [1, 2, 3, 4, 5, 6], mode=LITERAL).entries
        assert hermitian_deviation(m) == pytest.approx(2 * np.pi * 7.0, abs=1e-12)

    def test_hermitized_mode(self):
        h = build_interaction_8(self.SPEC, [1, 2, 3, 4, 5, 6], mode=HERMITIZED)
        assert hermitian_deviation(h.entries) == 0.0
        assert h.entries[2, 6] == pytest.approx(np.pi * 7.0, abs=1e-12)
        assert h.entries[6, 2] == pytest.approx(np.pi * 7.0, abs=1e-12)
        assert np.all(h.entries[:, 3] == 0.0) and np.all(h.entries[:, 4] == 0.0)

    def test_wrong_rabi_count(self):
        with pytest.raises(ConfigError):
            build_interaction_8(self.SPEC, [1, 2, 3])

    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            build_interaction_8(self.SPEC, np.zeros(6), mode="other")

