"""Regenerate the golden artifact corpus under ``tests/golden/artifacts``.

Every shipped config in ``configs/`` and every extra config in
``tests/golden/configs/`` (larger nodewise shortfall and VaR runs, mixed
sentinels, axiom suites in which each of the eight axioms is checked and
five of them fail with a witness, 3-atom duals of a scaled-additive and an
exponential aggregator) is run through :func:`horizonrisk.cli.run_config`,
and its artifacts are written to ``tests/golden/artifacts/<config stem>/``.
``tests/test_golden.py`` compares fresh runs against these files, so a
solver rewrite is checked against the artifacts of the code it replaces.
Regenerate only when an artifact is meant to change, and record why.
Config stems given as arguments regenerate only those configs' artifacts,
so a config can be added without rewriting the others:

    PYTHONPATH=src python tests/golden/make_golden.py [STEM ...]
"""

from __future__ import annotations

import contextlib
import io
import shutil
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent
ARTIFACTS = GOLDEN / "artifacts"
ROOT = GOLDEN.parent.parent


def golden_configs() -> list[Path]:
    """Shipped configs first, then the extra golden configs, each sorted."""
    return (sorted((ROOT / "configs").glob("*.json"))
            + sorted((GOLDEN / "configs").glob("*.json")))


def main(stems: list[str]) -> None:
    from horizonrisk.cli import EXIT_OK, run_config

    configs = golden_configs()
    unknown = set(stems) - {config.stem for config in configs}
    if unknown:
        raise SystemExit(f"no golden config named {', '.join(sorted(unknown))}")
    for config in configs:
        if stems and config.stem not in stems:
            continue
        out = ARTIFACTS / config.stem
        shutil.rmtree(out, ignore_errors=True)
        with contextlib.redirect_stdout(io.StringIO()):
            code = run_config(config, out_dir=out)
        if code != EXIT_OK:
            raise SystemExit(f"{config.name}: riskctl exit code {code}")
        print(f"{config.name}: {', '.join(sorted(p.name for p in out.iterdir()))}")


if __name__ == "__main__":
    main(sys.argv[1:])
