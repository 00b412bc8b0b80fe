import pytest


def pytest_terminal_summary(terminalreporter):
    try:
        from test_acceptance import RESULTS
    except ImportError:
        return
    if RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in RESULTS:
            terminalreporter.write_line(line)


@pytest.fixture
def fespace_builds(monkeypatch):
    """The FESpace constructions made through sltfem.config, one entry each."""
    import sltfem.config

    built = []
    cls = sltfem.config.FESpace

    def count(*args, **kwargs):
        built.append(args)
        return cls(*args, **kwargs)

    monkeypatch.setattr(sltfem.config, "FESpace", count)
    return built
