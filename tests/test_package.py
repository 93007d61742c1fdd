import re
from pathlib import Path

import numpy as np

import corrspectra

from helpers import (
    random_walk_prices,
    weekly_dates,
    write_meta_csv,
    write_prices_csv,
)

README = Path(__file__).resolve().parents[1] / "README.md"


def test_all_exports_resolve_once():
    # a name deleted from the package but left in __all__ breaks
    # `from corrspectra import *`
    assert len(set(corrspectra.__all__)) == len(corrspectra.__all__)
    for name in corrspectra.__all__:
        assert getattr(corrspectra, name, None) is not None, name


def test_readme_library_example_runs(tmp_path, monkeypatch):
    # the first code block of the README's Library section, run as written
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", library, re.DOTALL).group(1)
    n_assets, n_dates = 12, 110
    tickers = [f"A{i:02d}" for i in range(n_assets)]
    prices = random_walk_prices(np.random.default_rng(3), n_assets, n_dates)
    write_prices_csv(tmp_path / "prices.csv", weekly_dates(n_dates), prices,
                     tickers)
    write_meta_csv(tmp_path / "meta.csv", tickers, ["equities"] * n_assets)
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    decomposition = namespace["decomposition"]
    assert decomposition.window_index == 9  # the last of 10 windows
    assert namespace["values"].shape == (n_assets, n_assets)
    assert namespace["abs_r"].shape == (n_assets, n_assets)
    assert namespace["abs_r_adjusted"].shape == (n_assets, n_assets)
