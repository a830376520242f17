"""Number checks: every rule on an input number is worded once, in `mbl.errors`."""
import pytest

from mbl.analytic import optimal_detuning
from mbl.cli import main
from mbl.core import Space
from mbl.errors import ParameterError
from mbl.model import SystemParams, dressed_spectrum
from mbl.sweep import EvolutionJob, SweepAxis

_GAMMA_ZERO = ["sweep", "--axis1", "delta=5.0", "--quantity", "g2_analytic", "--format", "json", "--gamma-mhz", "0"]

# each site that checks a number a user gives: a call that breaks its rule, and the message
NUMBER_RULES = {
    "Space": (lambda: Space(1), "fock_dim must be an integer >= 2, got 1"),
    "SweepAxis.linspace": (lambda: SweepAxis.linspace("delta", 0.0, 1.0, 1),
                           "axis 'delta': count must be an integer >= 2, got 1"),
    "EvolutionJob.num": (lambda: EvolutionJob(SystemParams(), 1.0, True), "num must be an integer >= 2, got True"),
    "dressed_spectrum.n_max": (lambda: dressed_spectrum(7, 7, 2, 0), "n_max must be an integer >= 1, got 0"),
    "SystemParams": (lambda: SystemParams(kappa_m=-0.1), "kappa_m must be >= 0, got -0.1"),
    "dressed_spectrum.g": (lambda: dressed_spectrum(7, 7, -2, 3), "g must be >= 0, got -2.0"),
    "optimal_detuning": (lambda: optimal_detuning(-0.5), "g must be >= 0, got -0.5"),
    "EvolutionJob.t_end": (lambda: EvolutionJob(SystemParams(), 0, 5), "t_end must be > 0, got 0.0"),
    "cli.gamma_mhz": (lambda: main([*_GAMMA_ZERO, "--out", "unwritten.json"]), "gamma_mhz must be > 0, got 0.0"),
}


@pytest.mark.parametrize("site", list(NUMBER_RULES))
def test_number_rule_messages(capsys, tmp_path, monkeypatch, site):
    monkeypatch.chdir(tmp_path)
    call, message = NUMBER_RULES[site]
    try:
        code = call()
    except ParameterError as exc:
        assert str(exc) == message
    else:  # the CLI reports the same message, on stderr, and exits 1
        assert (code, capsys.readouterr().err) == (1, f"error: {message}\n")
        assert not list(tmp_path.iterdir())


def test_finiteness_is_checked_before_sign():
    # two bad fields: the first finiteness failure wins over an earlier sign failure
    with pytest.raises(ParameterError, match=r"^kappa_s must be a finite real number, got nan$"):
        SystemParams(g_ms=-1.0, kappa_s=float("nan"))
