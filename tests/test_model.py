import pytest

from chainflux import (
    BathSpec,
    ChainSpec,
    BadBathAttachment,
    LengthMismatch,
    NegativeTemperature,
    NonPositiveGap,
    NTooLarge,
    SpecError,
    chain,
    dimer,
    monomer,
    validate_spec,
)


def test_figure2_configuration_is_valid():
    spec = chain([1.5, 1.5], [1.0], t1=2.0, t2=0.0)
    assert spec.n_qubits == 2
    assert spec.epsilons == (1.5, 1.5)
    assert spec.couplings == (1.0,)
    assert spec.baths[0].attached_site == 0
    assert spec.baths[1].attached_site == 1
    assert spec.baths[0].gamma == 1.0


def test_monomer_attaches_both_baths_to_site_zero():
    spec = monomer(1.0, t1=1.0, t2=0.0)
    assert spec.couplings == ()
    assert spec.baths[0].attached_site == 0
    assert spec.baths[1].attached_site == 0


def test_zero_temperature_is_legal():
    spec = dimer(1.5, 1.5, 1.0, t1=0.0, t2=0.0)
    assert spec.baths[0].temperature == 0.0


def test_nonpositive_gap_rejected():
    with pytest.raises(NonPositiveGap):
        chain([-1.0, 1.0], [1.0], t1=1.0, t2=1.0)


def test_negative_temperature_rejected():
    with pytest.raises(NegativeTemperature):
        monomer(1.0, t1=-0.5, t2=0.0)


def test_nonpositive_rate_rejected():
    with pytest.raises(SpecError):
        monomer(1.0, t1=1.0, t2=0.0, gamma1=0.0)


def test_length_mismatch_rejected():
    bad = ChainSpec(
        n_qubits=2, epsilons=(1.0,), couplings=(1.0,),
        baths=(BathSpec(1.0, attached_site=0), BathSpec(0.0, attached_site=1)),
    )
    with pytest.raises(LengthMismatch):
        validate_spec(bad)


def test_bad_bath_attachment_rejected():
    bad = ChainSpec(
        n_qubits=2, epsilons=(1.0, 1.0), couplings=(1.0,),
        baths=(BathSpec(1.0, attached_site=1), BathSpec(0.0, attached_site=1)),
    )
    with pytest.raises(BadBathAttachment):
        validate_spec(bad)


def test_chain_too_long_rejected():
    with pytest.raises(NTooLarge):
        chain([1.0] * 6, [0.5] * 5, t1=1.0, t2=0.0)


def test_all_violations_reported_together():
    bad = ChainSpec(
        n_qubits=2, epsilons=(-1.0, 1.0), couplings=(1.0,),
        baths=(BathSpec(-2.0, attached_site=0), BathSpec(0.0, attached_site=1)),
    )
    with pytest.raises(SpecError) as excinfo:
        validate_spec(bad)
    assert "NonPositiveGap" in excinfo.value.violations
    assert "NegativeTemperature" in excinfo.value.violations


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("field", ["epsilon", "coupling", "t1", "t2", "gamma1", "gamma2"])
def test_non_finite_field_rejected(field, value):
    args = {"epsilons": [1.5, 1.5], "couplings": [1.0], "t1": 1.0, "t2": 0.0}
    if field in ("epsilon", "coupling"):
        args[field + "s"] = [value] + args[field + "s"][1:]
    else:
        args[field] = value
    with pytest.raises(SpecError, match="must be finite") as excinfo:
        chain(**args)
    assert excinfo.value.violations == ("SpecError",)


def test_negative_coupling_is_legal():
    assert dimer(1.5, 1.5, -1.0, t1=1.0, t2=0.0).couplings == (-1.0,)


def test_validate_is_idempotent():
    raw = ChainSpec(
        n_qubits=2, epsilons=[1.5, 1.5], couplings=[1], baths=(
            BathSpec(2, attached_site=0), BathSpec(0, attached_site=1)),
    )
    once = validate_spec(raw)
    twice = validate_spec(once)
    assert once == twice
    assert isinstance(once.epsilons[0], float)
