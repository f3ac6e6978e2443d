"""Golden corpus: fresh ``run_config`` artifacts match the committed ones.

Sentinel strings ("+inf", "-inf", "nan", verdicts, names) must match
exactly; numbers match to 1e-9 relative, allowing one unit in the ninth
significant digit because the CSV and summary artifacts are rounded to 9
digits.  Regenerate with ``tests/golden/make_golden.py``.
"""

import contextlib
import io
import json
import math

import pytest

from horizonrisk.cli import EXIT_OK, run_config

from golden.make_golden import ARTIFACTS, golden_configs

_REL = 1e-9


def _number(token):
    if isinstance(token, bool):
        return None
    if isinstance(token, (int, float)):
        return float(token)
    try:
        value = float(token)
    except (TypeError, ValueError):
        return None
    return value if math.isfinite(value) else None


def _close(got: float, want: float) -> bool:
    if want == 0.0:
        return got == 0.0
    # count in integer units of want's ninth significant digit: the float
    # difference of two 9-digit decimals carries rounding noise, so a float
    # margin rejects some one-unit differences
    unit = 10.0 ** (math.floor(math.log10(abs(want))) - 8)
    return (abs(got - want) <= _REL * abs(want)
            or abs(round(got / unit) - round(want / unit)) <= 1)


def _assert_match(got, want, where: str) -> None:
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            _assert_match(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_match(g, w, f"{where}[{i}]")
    else:
        w, g = _number(want), _number(got)
        if w is None or g is None:
            assert got == want, f"{where}: {got!r} != {want!r}"
        else:
            assert _close(g, w), f"{where}: {got!r} != {want!r}"


def _parse(path):
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        return json.loads(text)
    return [line.split(",") for line in text.splitlines()]


@pytest.mark.parametrize("config", golden_configs(), ids=lambda p: p.stem)
def test_artifacts_match_golden(config, tmp_path):
    expected_dir = ARTIFACTS / config.stem
    with contextlib.redirect_stdout(io.StringIO()):
        assert run_config(config, out_dir=tmp_path) == EXIT_OK
    produced = sorted(p.name for p in tmp_path.iterdir())
    assert produced == sorted(p.name for p in expected_dir.iterdir())
    for name in produced:
        _assert_match(_parse(tmp_path / name), _parse(expected_dir / name),
                      f"{config.stem}/{name}")


@pytest.mark.parametrize("got, want, ok", [
    ("0.433780831", "0.43378083", True),      # one unit in the 9th digit
    ("0.433780832", "0.43378083", False),
    ("0.317717121", "0.317717122", True),     # |g - w| = 1.0000000272e-9
    ("0.317717121", "0.317717123", False),
    ("-inf", "-inf", True),
    ("+inf", "-inf", False),
    ("nan", "-inf", False),
    ("0", "0", True),
])
def test_comparison_rules(got, want, ok):
    if ok:
        _assert_match([got], [want], "cell")
    else:
        with pytest.raises(AssertionError):
            _assert_match([got], [want], "cell")


def test_make_golden_refuses_an_unknown_stem():
    from golden.make_golden import main
    with pytest.raises(SystemExit, match="no golden config named nope"):
        main(["nope"])
