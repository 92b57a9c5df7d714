"""Hypothesis profiles for the property tests.

Every property pins its own example budget, sized so that tier-1 stays
fast.  The ``tier1`` profile (the default) runs those budgets as written;
``ci`` runs each property with ten times its budget::

    python -m pytest tests -m hypothesis --hypothesis-profile=ci

(the hypothesis plugin marks every ``@given`` test ``hypothesis``).
"""

from hypothesis import settings

#: how many times its own budget each property runs, per profile
_SCALE = {"tier1": 1, "ci": 10}

settings.register_profile("tier1", deadline=None)
settings.register_profile("ci", deadline=None, max_examples=10 * settings.default.max_examples)
settings.load_profile("tier1")


def pytest_collection_modifyitems(config, items):
    scale = _SCALE.get(config.getoption("hypothesis_profile", None) or "tier1", 1)
    if scale == 1:
        return
    scaled = set()
    for item in items:
        # A method's settings live on its function, which every
        # parametrized item of the test shares: scale each one once.
        obj = getattr(item, "obj", None)
        test = getattr(obj, "__func__", obj)
        own = getattr(test, "_hypothesis_internal_use_settings", None)
        if own is not None and id(test) not in scaled:
            scaled.add(id(test))
            test._hypothesis_internal_use_settings = settings(
                own, max_examples=own.max_examples * scale
            )
