import eqsat


def test_every_exported_name_resolves():
    missing = [name for name in eqsat.__all__ if not hasattr(eqsat, name)]
    assert missing == []
    assert len(set(eqsat.__all__)) == len(eqsat.__all__)
