import sys

import pytest

from assetval import InvalidInput


@pytest.fixture
def entered():
    """entered(fn, *args): the code of each Python function that fn(*args)
    enters, fn's own first (an InvalidInput it raises is caught). For the
    one-frame pins: a per-call helper costs more than the formula it
    guards, so none may quietly come back."""

    def entered(fn, *args):
        codes = []

        def profile(frame, event, arg):
            if event == "call":
                codes.append(frame.f_code)

        sys.setprofile(profile)
        try:
            fn(*args)
        except InvalidInput:
            pass
        finally:
            sys.setprofile(None)
        return codes

    return entered
