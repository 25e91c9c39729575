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


STATUS = {"passed": "PASS", "failed": "FAIL", "error": "FAIL", "skipped": "SKIP"}


def _number(label):
    return int(re.match(r"\d+", label)[0]), label


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    status = {}
    for outcome in STATUS:
        for rep in terminalreporter.stats.get(outcome, []):
            base = getattr(rep, "location", ("", "", ""))[2].split("[")[0]
            if base in ACCEPTANCE_LABELS:
                status.setdefault(ACCEPTANCE_LABELS[base], set()).add(STATUS[outcome])
    deselected = {item.name.split("[")[0] for item in terminalreporter.stats.get("deselected", [])}
    if status or deselected & ACCEPTANCE_LABELS.keys():
        terminalreporter.write_sep("-", "acceptance criteria")
        # by criterion number: 1, 2, ..., 9, 9b, 10, 11; a criterion that did
        # not run (deselected, say 9b under -m "not slow") reads NOT RUN
        for label in sorted(ACCEPTANCE_LABELS.values(), key=_number):
            for st in sorted(status.get(label, {"NOT RUN"})):
                terminalreporter.write_line(f"  criterion {label}: {st}")
