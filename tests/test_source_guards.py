"""Source guards: rules of the ``src/pme`` text that no run would show.

Each guard counts the lines of ``src/pme/**/*.py`` that match one pattern,
as ``grep -rn`` would, and fails above its limit, printing the lines.
"""

import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "pme"


def matching_lines(pattern, fixed=False, exclude=()):
    """``path:line: text`` of each source line that matches ``pattern`` (a
    regular expression, or a plain string if ``fixed``), in files not named
    in ``exclude``."""
    found = re.compile(re.escape(pattern) if fixed else pattern).search
    return [
        f"{path.relative_to(SRC)}:{number}: {line.strip()}"
        for path in sorted(SRC.rglob("*.py"))
        if path.name not in exclude
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if found(line)
    ]


@pytest.mark.parametrize(
    "pattern,fixed,exclude,limit",
    [
        # a float radius is the 0-d case of the array code: no isscalar fork
        pytest.param("isscalar", True, (), 0, id="isscalar"),
        # the time factor (1 - t/T)^(-1/(m-1)) has one body, barriers.blowup_factor
        pytest.param(r"\(1(\.0)? - [A-Za-z_]+ ?/ ?[A-Za-z_.]+\) ?\*\*", False, (), 1, id="time-factor"),
        # docstrings and comments state rules, not timings, which belong in CHANGES.md
        pytest.param(r"[0-9] ?(us|µs|ms)\b", False, (), 0, id="timings"),
        # the scheme's cell balance has one body: outside grid.py only
        # Integrator.__init__ reads coeff_plus and coeff_minus
        pytest.param(r"\.coeff_(plus|minus)\b", False, ("grid.py",), 1, id="face-coefficients"),
        # log|S_rho| has one body: log_sphere_area is defined, and called only
        # in ModelManifold.log_surface_measure
        pytest.param("log_sphere_area(", True, (), 2, id="log-sphere-area"),
        # psi''/psi is read only in ModelManifold.curvature
        pytest.param(".ratio2(", True, (), 1, id="ratio2"),
        # the odd power u^m = u |u|^(m-1) has one body, Window.residual: no
        # sign pass, and one power, whose |u|^(m-1) the Jacobian reads too
        pytest.param("_sign", True, (), 0, id="odd-power-sign"),
        pytest.param("_power(", True, (), 1, id="odd-power"),
        # a history scans for -0.0 once, in one body (solver._holds_negative_zero)
        pytest.param(
            r"[=!<>] ?_NEGATIVE_ZERO_BITS|_NEGATIVE_ZERO_BITS ?([=!]=|[<>])",
            False, (), 1, id="negative-zero-scan",
        ),
        # a windowed step fills only the gap past ``Integrator.zeros``: no
        # fill of a buffer's whole tail, x[k:] = 0.0
        pytest.param(r"\[ ?[A-Za-z_.]+ ?: ?\] ?= ?[-+]?0", False, (), 0, id="whole-tail-fill"),
    ],
)
def test_source_guard(pattern, fixed, exclude, limit):
    lines = matching_lines(pattern, fixed, exclude)
    assert len(lines) <= limit, "\n".join(lines)
