import pytest

from dirac_toa.studies import auto_tau_max
from dirac_toa.wavepacket import PacketSpec

from conftest import desk_run


@pytest.mark.parametrize("p0, bound", [(0.5, 5e-4), (0.75, 5e-6), (1.0, 1e-7), (2.0, 1e-10)])
def test_auto_tau_max_truncation_bias(p0, bound):
    """The bounds auto_tau_max states for the fig4-desk lattice: running 0.5
    past the automatic run length moves T by less than bound * T."""
    base = desk_run(p0, x_lo=-4.0)
    longer = desk_run(p0, x_lo=-4.0, tau_max=auto_tau_max(PacketSpec(p0=p0)) + 0.5)
    assert longer.record.tau_samples[-1] == pytest.approx(base.record.tau_samples[-1] + 0.5)
    assert abs(longer.T - base.T) / base.T < bound
