"""Shared pytest wiring: acceptance criteria summary lines."""

import re

# maps acceptance test basenames to the criterion they verify
ACCEPTANCE_LABELS = {
    "test_criterion_01_closed_form_effective_quantities": "1 closed-form effective quantities",
    "test_criterion_02_harmonic_mean_moments": "2 harmonic-mean moment envelopes",
    "test_criterion_03_lyapunov_growth_formula": "3 growth-exponent formula",
    "test_criterion_04_shell_variable_moments": "4 shell-variable moment asymptotics",
    "test_criterion_05_free_spectral_density": "5 free spectral density",
    "test_criterion_06_free_m_function": "6 free m-function",
    "test_criterion_07_lattice_shell_geometry": "7 lattice shell geometry",
    "test_criterion_08_phase_classifier": "8 phase classifier rule table",
    "test_criterion_09_decay_rate_fit": "9 subordinate decay-rate fit (d < 2)",
    "test_criterion_09b_decay_rate_fit_d2_slow": "9b log-rate fit at d = 2 (slow)",
    "test_criterion_10_engine_invariants": "10 engine invariants",
    "test_criterion_11_reproducibility": "11 byte-identical reproducibility",
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    results = set()
    for outcome in ("passed", "failed", "error", "skipped"):
        for rep in terminalreporter.stats.get(outcome, []):
            name = getattr(rep, "location", ("", "", ""))[2]
            base = name.split("[")[0]
            if base in ACCEPTANCE_LABELS:
                status = {"passed": "PASS", "failed": "FAIL",
                          "error": "FAIL", "skipped": "SKIP"}[outcome]
                results.add((ACCEPTANCE_LABELS[base], status))
    if results:
        terminalreporter.write_sep("-", "acceptance criteria")
        # by criterion number: 1, 2, ..., 9, 9b, 10, 11
        for label, status in sorted(results, key=lambda r: (int(re.match(r"\d+", r[0])[0]), r)):
            terminalreporter.write_line(f"  criterion {label}: {status}")
