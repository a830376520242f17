"""Shared fixtures plus a terminal summary for the acceptance checks."""
import pytest

from mbl import lindblad
from mbl.model import SystemParams

ACCEPTANCE_LINES: list[str] = []


@pytest.fixture(scope="session")
def acceptance_log():
    """Recorder used by tests/test_acceptance.py to emit one line per check."""
    def record(line: str) -> None:
        ACCEPTANCE_LINES.append(line)
    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance summary")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def without_dgbsv(monkeypatch):
    """numpy's OpenBLAS bound as if its LAPACK had no dgbsv (MKL, Accelerate): every solve is the dense LU."""
    blas = lindblad._openblas()
    monkeypatch.setattr(lindblad, "_openblas", lambda: blas._replace(dgbsv=None))


@pytest.fixture
def bright_params():
    # narrow-linewidth working point used for the deep antibunching dip
    return SystemParams(delta_m=9.8, delta_s=9.8, g_ms=19.6, omega_s=0.06,
                        omega_d=0.01, kappa_m=0.15, kappa_s=0.15)


@pytest.fixture
def broad_params():
    # same working point at unit linewidth
    return SystemParams(delta_m=9.8, delta_s=9.8, g_ms=19.6, omega_s=0.06,
                        omega_d=0.01, kappa_m=1.0, kappa_s=1.0)
