"""Top-level package surface: only what the tests and the CLI need."""

import vihpm


def test_top_level_surface_is_pinned():
    assert sorted(vihpm.__all__) == ["__version__", "builtin", "solve", "with_settings"]
    for name in vihpm.__all__:
        getattr(vihpm, name)

    from vihpm import builtin, solve, with_settings

    assert solve(with_settings(builtin(1), truncation=12, iterations=1)).converged
