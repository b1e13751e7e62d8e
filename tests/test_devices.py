import numpy as np
import pytest

from qcompat.devices import (
    DimMismatch,
    Instrument,
    InvariantViolation,
    Observable,
    QuantumChannel,
    choi_compose,
    choi_tensor,
    composite_label,
    compose_instrument_channel,
    induced_observable,
    kraus_to_choi,
    luders_instrument,
    split_composite,
    total_channel,
)
from qcompat.linalg import partial_trace, psd_sqrt
from qcompat.sampling import random_channel, random_instrument

from conftest import (
    EYE2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    apply_choi,
    dual_apply,
    noisy_pauli,
    random_density,
    random_observable,
)

OMEGA = np.zeros(4, dtype=complex)
OMEGA[0] = OMEGA[3] = 1.0
IDENT_CHOI = np.outer(OMEGA, OMEGA.conj())


class TestChoiOfMap:
    def test_identity_channel(self):
        j = QuantumChannel.identity(2).choi
        assert np.allclose(j, IDENT_CHOI)
        assert np.trace(j) == pytest.approx(2.0)
        assert np.linalg.matrix_rank(j, tol=1e-10) == 1

    def test_depolarizing(self):
        # Basis expansion: off-diagonal units have trace zero, so only the
        # diagonal units contribute and the result is I/2 on each block.  The
        # Pauli twirl rho -> sum_P P rho P / 4 is the same map.
        j = kraus_to_choi([p / 2 for p in (EYE2, PAULI_X, PAULI_Y, PAULI_Z)])
        assert np.allclose(j, np.eye(4) / 2)
        assert np.allclose(QuantumChannel.depolarizing(2).choi, j)

    def test_x_conjugation(self):
        j = QuantumChannel.unitary(PAULI_X).choi
        expected = np.zeros((4, 4), dtype=complex)
        expected[1:3, 1:3] = 1.0
        assert np.allclose(j, expected)
        assert np.linalg.matrix_rank(j, tol=1e-10) == 1


class TestApplyAndDual:
    """The Choi matrices the devices hold, applied with the reference
    helpers of ``conftest``."""

    def test_identity_apply(self, rng):
        rho = random_density(2, rng)
        chan = QuantumChannel.identity(2)
        assert np.allclose(apply_choi(chan.choi, rho, 2, 2), rho)

    def test_depolarizing_apply(self, rng):
        rho = random_density(2, rng)
        chan = QuantumChannel.depolarizing(2)
        assert np.allclose(apply_choi(chan.choi, rho, 2, 2), EYE2 / 2)

    def test_choi_and_kraus_agree(self, rng):
        for _ in range(5):
            chan = random_channel(2, 3, 2, rng)
            rho = random_density(2, rng)
            via_choi = apply_choi(chan.choi, rho, 2, 3)
            via_kraus = sum(k @ rho @ k.conj().T for k in chan.kraus)
            assert np.linalg.norm(via_choi - via_kraus) <= 1e-10

    def test_dual_unitality(self, rng):
        # Phi*(I) is the transposed output partial trace of the Choi matrix.
        for dims in [(2, 2), (2, 3), (3, 2)]:
            chan = random_channel(*dims, 2, rng)
            dual_of_eye = partial_trace(chan.choi, dims, {1}).T
            assert np.linalg.norm(dual_of_eye - np.eye(chan.in_dim)) <= 1e-10

    def test_dual_of_identity_channel(self, rng):
        chan = QuantumChannel.identity(2)
        x = PAULI_X + 0.3 * PAULI_Z
        assert np.allclose(dual_apply(chan.choi, x, 2, 2), x)

    def test_dual_defining_identity(self, rng):
        for _ in range(5):
            chan = random_channel(2, 3, 2, rng)
            rho = random_density(2, rng)
            x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            lhs = np.trace(sum(k @ rho @ k.conj().T for k in chan.kraus) @ x)
            rhs = np.trace(rho @ dual_apply(chan.choi, x, 2, 3))
            assert abs(lhs - rhs) <= 1e-10

    def test_luders_branch_dual_gives_effect(self, rng):
        a = random_observable(3, 2, rng)
        inst = luders_instrument(a)
        eye = np.eye(3)
        for label, effect in zip(a.outcomes, a.effects):
            recovered = dual_apply(inst.branch(label), eye, 3, 3)
            assert np.linalg.norm(recovered - effect) <= 1e-10


class TestKrausChoi:
    def test_identity_kraus(self):
        assert np.allclose(kraus_to_choi([np.eye(2)]), IDENT_CHOI)


class TestInstrumentOps:
    def test_induced_observable_of_luders(self, rng):
        a = random_observable(2, 3, rng)
        induced = induced_observable(luders_instrument(a))
        for e1, e2 in zip(induced.effects, a.effects):
            assert np.linalg.norm(e1 - e2) <= 1e-10

    def test_induced_observable_of_weighted_channel(self, rng):
        chan = random_channel(2, 2, 2, rng)
        weights = (0.3, 0.7)
        inst = Instrument([w * chan.choi for w in weights], 2, 2, ["a", "b"])
        induced = induced_observable(inst)
        for w, e in zip(weights, induced.effects):
            assert np.linalg.norm(e - w * EYE2) <= 1e-10

    def test_single_branch_induces_identity_effect(self, rng):
        chan = random_channel(2, 3, 2, rng)
        inst = Instrument([chan.choi], 2, 3, ["only"])
        assert np.linalg.norm(induced_observable(inst).effects[0] - EYE2) <= 1e-10

    def test_total_channel_of_sharp_z_luders_is_dephasing(self, sharp_z):
        total = total_channel(luders_instrument(sharp_z))
        assert np.allclose(total.choi, np.diag([1.0, 0, 0, 1.0]))

    def test_total_channel_of_weighted_channel(self, rng):
        chan = random_channel(2, 2, 3, rng)
        inst = Instrument([0.25 * chan.choi, 0.75 * chan.choi], 2, 2)
        assert np.linalg.norm(total_channel(inst).choi - chan.choi) <= 1e-12

    def test_probability_consistency(self, rng):
        for _ in range(5):
            inst = random_instrument(2, 3, 3, 2, rng)
            effects = induced_observable(inst)
            rho = random_density(2, rng)
            for branch, effect in zip(inst.branches, effects.effects):
                p_branch = np.trace(apply_choi(branch, rho, 2, 3)).real
                p_effect = np.trace(rho @ effect).real
                assert p_branch == pytest.approx(p_effect, abs=1e-10)


class TestLuders:
    def test_sharp_z_gives_projector_branches(self, sharp_z):
        inst = luders_instrument(sharp_z)
        p0 = np.diag([1.0, 0.0])
        p1 = np.diag([0.0, 1.0])
        assert np.allclose(inst.branch("+"), kraus_to_choi([p0]))
        assert np.allclose(inst.branch("-"), kraus_to_choi([p1]))

    def test_trivial_observable_halves_state(self, rng):
        inst = luders_instrument(Observable([EYE2 / 2, EYE2 / 2]))
        rho = random_density(2, rng)
        for branch in inst.branches:
            assert np.allclose(apply_choi(branch, rho, 2, 2), rho / 2)

    def test_noisy_x_effects_recovered(self):
        a = noisy_pauli(PAULI_X, 0.7)
        inst = luders_instrument(a)
        # Oracle: branch Kraus is the principal square root of the effect,
        # computed here directly from the eigendecomposition.
        for label, effect in zip(a.outcomes, a.effects):
            root = psd_sqrt(effect)
            assert np.linalg.norm(inst.branch(label) - kraus_to_choi([root])) <= 1e-12
        recovered = induced_observable(inst)
        assert recovered.outcomes[0] == "+"
        assert np.linalg.norm(recovered.effects[0] - (EYE2 + 0.7 * PAULI_X) / 2) <= 1e-10


class TestCompose:
    def test_identity_pre_channel(self, rng):
        inst = random_instrument(2, 2, 2, 2, rng)
        composed = compose_instrument_channel(inst, QuantumChannel.identity(2))
        for b1, b2 in zip(composed.branches, inst.branches):
            assert np.linalg.norm(b1 - b2) <= 1e-12

    def test_weighted_identity_instrument(self, rng):
        chan = random_channel(2, 2, 2, rng)
        ident_choi = QuantumChannel.identity(2).choi
        post = Instrument([0.4 * ident_choi, 0.6 * ident_choi], 2, 2)
        composed = compose_instrument_channel(post, chan)
        assert np.linalg.norm(composed.branch("0") - 0.4 * chan.choi) <= 1e-10
        assert np.linalg.norm(composed.branch("1") - 0.6 * chan.choi) <= 1e-10

    def test_composition_acts_in_sequence(self, rng):
        post = random_instrument(2, 2, 2, 1, rng)
        pre = QuantumChannel.depolarizing(2)
        composed = compose_instrument_channel(post, pre)
        rho = random_density(2, rng)
        mid = apply_choi(pre.choi, rho, 2, 2)
        for direct, after in zip(composed.branches, post.branches):
            chained = apply_choi(after, mid, 2, 2)
            assert np.linalg.norm(apply_choi(direct, rho, 2, 2) - chained) <= 1e-10

    def test_dim_mismatch(self, rng):
        post = random_instrument(3, 2, 2, 1, rng)
        with pytest.raises(DimMismatch):
            compose_instrument_channel(post, QuantumChannel.identity(2))

    def test_choi_tensor_on_product_states(self, rng):
        c1 = random_channel(2, 2, 2, rng)
        c2 = random_channel(2, 3, 2, rng)
        j = choi_tensor(c1.choi, (2, 2), c2.choi, (2, 3))
        rho1 = random_density(2, rng)
        rho2 = random_density(2, rng)
        out = apply_choi(j, np.kron(rho1, rho2), 4, 6)
        expected = np.kron(apply_choi(c1.choi, rho1, 2, 2), apply_choi(c2.choi, rho2, 2, 3))
        assert np.linalg.norm(out - expected) <= 1e-10

    def test_choi_compose_matches_sequential_apply(self, rng):
        inner = random_channel(2, 3, 2, rng)
        outer = random_channel(3, 2, 2, rng)
        j = choi_compose(outer.choi, (3, 2), inner.choi, (2, 3))
        rho = random_density(2, rng)
        chained = apply_choi(outer.choi, apply_choi(inner.choi, rho, 2, 3), 3, 2)
        assert np.linalg.norm(apply_choi(j, rho, 2, 2) - chained) <= 1e-10


    def test_choi_compose_equals_probed_composition(self, rng):
        # Reference: the Choi matrix of the products of the Kraus operators.
        for _ in range(10):
            inner = random_channel(2, 3, 2, rng)
            outer = random_channel(3, 2, 3, rng)
            chained = kraus_to_choi([a @ b for a in outer.kraus for b in inner.kraus])
            j = choi_compose(outer.choi, (3, 2), inner.choi, (2, 3))
            assert np.max(np.abs(j - chained)) <= 1e-12


class TestValidation:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entries(self, bad):
        e = np.array([[bad, 0.0], [0.0, 0.5]])
        choi = IDENT_CHOI.copy()
        choi[0, 0] = bad
        cases = [
            (lambda: Observable([e, EYE2 - e]), "observable.effect_finite"),
            (lambda: QuantumChannel(choi, 2, 2), "channel.finite"),
            (lambda: QuantumChannel(IDENT_CHOI, 2, 2, kraus=[e]), "channel.finite"),
            (lambda: Instrument([choi, IDENT_CHOI], 2, 2), "instrument.branch_finite"),
        ]
        for build, invariant in cases:
            with pytest.raises(InvariantViolation) as err:
                build()
            assert err.value.invariant == invariant

    def test_effect_not_psd(self):
        with pytest.raises(InvariantViolation) as err:
            Observable([1.5 * EYE2, -0.5 * EYE2])
        assert err.value.invariant == "observable.effect_psd"

    def test_effects_do_not_sum_to_identity(self):
        with pytest.raises(InvariantViolation) as err:
            Observable([EYE2 / 2, EYE2 / 3])
        assert err.value.invariant == "observable.effects_sum_to_identity"

    def test_effect_not_hermitian(self):
        e = np.array([[0.5, 0.1], [0.0, 0.5]])
        with pytest.raises(InvariantViolation) as err:
            Observable([e, EYE2 - e])
        assert err.value.invariant == "observable.effect_hermitian"

    def test_duplicate_labels(self):
        with pytest.raises(InvariantViolation) as err:
            Observable([EYE2 / 2, EYE2 / 2], ["a", "a"])
        assert err.value.invariant == "observable.outcomes"

    def test_channel_not_trace_preserving(self):
        with pytest.raises(InvariantViolation) as err:
            QuantumChannel(IDENT_CHOI / 2, 2, 2)
        assert err.value.invariant == "channel.trace_preserving"

    def test_channel_not_cp(self):
        with pytest.raises(InvariantViolation) as err:
            QuantumChannel(np.diag([2.0, -1.0, 1.0, 1.0]), 2, 2)
        assert err.value.invariant == "channel.choi_psd"

    def test_kraus_choi_inconsistency(self):
        with pytest.raises(InvariantViolation) as err:
            QuantumChannel(IDENT_CHOI, 2, 2, kraus=[PAULI_X])
        assert err.value.invariant == "channel.kraus_choi_consistency"

    def test_instrument_total_not_tp(self):
        with pytest.raises(InvariantViolation) as err:
            Instrument([IDENT_CHOI / 2, IDENT_CHOI / 4], 2, 2)
        assert err.value.invariant == "instrument.total_trace_preserving"

    def test_instrument_branch_not_psd(self):
        up = np.diag([1.5, 0, 0, 0.0])
        down = IDENT_CHOI - up
        with pytest.raises(InvariantViolation) as err:
            Instrument([up, down], 2, 2)
        assert err.value.invariant == "instrument.branch_psd"

    def test_arrays_frozen(self, sharp_z):
        with pytest.raises(ValueError):
            sharp_z.effects[0][0, 0] = 9.0


# One input per invariant of each kind, and inputs with two faults, with the
# invariant that must be reported first.
_UP = np.diag([1.0, 0, 0, 0.0])
_SKEW = np.array([[0.0, 1e-10], [0.0, 0.0]])  # Hermiticity deviation 1e-10
_SKEW4 = np.pad(_SKEW, (0, 2))
_NAN = np.diag([np.nan, 0.5])
_INVARIANT_CASES = [
    ("observable.outcomes", lambda: Observable([])),
    ("observable.outcomes", lambda: Observable([EYE2 / 2, EYE2 / 2], ["a"])),
    ("observable.outcomes", lambda: Observable([EYE2 / 2, EYE2 / 2], ["a", "a"])),
    ("observable.effect_shape", lambda: Observable([EYE2 / 2, np.eye(3) / 2])),
    ("observable.effect_finite", lambda: Observable([_NAN, EYE2 - _NAN])),
    # Observables keep the strict TOL_HERM; the other kinds allow 1e-9.
    ("observable.effect_hermitian", lambda: Observable([EYE2 / 2 + _SKEW, EYE2 / 2 - _SKEW])),
    ("observable.effect_psd", lambda: Observable([1.5 * EYE2, -0.5 * EYE2])),
    ("observable.effects_sum_to_identity", lambda: Observable([EYE2 / 2, EYE2 / 3])),
    ("channel.shape", lambda: QuantumChannel(EYE2, 2, 2)),
    ("channel.finite", lambda: QuantumChannel(np.diag([np.nan, 1, 1, 1.0]), 2, 2)),
    ("channel.finite", lambda: QuantumChannel(IDENT_CHOI, 2, 2, kraus=[_NAN])),
    ("channel.choi_hermitian", lambda: QuantumChannel(IDENT_CHOI + 1e3 * _SKEW4, 2, 2)),
    ("channel.choi_psd", lambda: QuantumChannel(np.diag([2.0, -1.0, 1.0, 1.0]), 2, 2)),
    ("channel.trace_preserving", lambda: QuantumChannel(IDENT_CHOI / 2, 2, 2)),
    ("channel.kraus_completeness", lambda: QuantumChannel(IDENT_CHOI, 2, 2, kraus=[2 * EYE2])),
    ("channel.kraus_choi_consistency", lambda: QuantumChannel(IDENT_CHOI, 2, 2, kraus=[PAULI_X])),
    ("instrument.outcomes", lambda: Instrument([], 2, 2)),
    ("instrument.outcomes", lambda: Instrument([IDENT_CHOI / 2] * 2, 2, 2, ["a"])),
    ("instrument.outcomes", lambda: Instrument([IDENT_CHOI / 2] * 2, 2, 2, ["a", "a"])),
    ("instrument.branch_shape", lambda: Instrument([IDENT_CHOI, EYE2], 2, 2)),
    ("instrument.branch_finite", lambda: Instrument([IDENT_CHOI, np.pad(_NAN, (0, 2))], 2, 2)),
    ("instrument.branch_hermitian", lambda: Instrument([IDENT_CHOI, 1e3 * _SKEW4], 2, 2)),
    ("instrument.branch_psd", lambda: Instrument([1.5 * _UP, IDENT_CHOI - 1.5 * _UP], 2, 2)),
    ("instrument.total_trace_preserving", lambda: Instrument([IDENT_CHOI / 2, IDENT_CHOI / 4], 2, 2)),
    # Two faults: labels before matrices, Hermitian before PSD, every
    # matrix before the sum.
    ("observable.outcomes", lambda: Observable([1.5 * EYE2, -0.5 * EYE2], ["a", "a"])),
    ("observable.effect_hermitian", lambda: Observable([-EYE2 + _SKEW, EYE2])),
    ("instrument.branch_psd", lambda: Instrument([-_UP, IDENT_CHOI / 4], 2, 2)),
    # A 0-d effect is reported by shape, as a 0-d branch is.
    ("observable.effect_shape", lambda: Observable([1.0])),
    ("instrument.branch_shape", lambda: Instrument([1.0], 1, 1)),
]


@pytest.mark.parametrize(
    "invariant, build", _INVARIANT_CASES, ids=[f"{i}-{n}" for n, (i, _) in enumerate(_INVARIANT_CASES)]
)
def test_each_invariant_is_reported(invariant, build):
    with pytest.raises(InvariantViolation) as err:
        build()
    assert err.value.invariant == invariant


def test_hermiticity_tolerance_of_channels_and_instruments():
    # The 1e-10 deviation that an observable rejects passes elsewhere.
    QuantumChannel(IDENT_CHOI + _SKEW4, 2, 2)
    Instrument([IDENT_CHOI / 2 + _SKEW4, IDENT_CHOI / 2 - _SKEW4], 2, 2)


def test_composite_label_round_trip():
    label = composite_label("up", "down")
    assert split_composite(label) == ("up", "down")
    with pytest.raises(ValueError):
        split_composite("plain")
