"""A rolling window series built window by window, for the tests.

The program serves a series through
:class:`~repro.service.frontend.QueryService`, which adds a frame cache
and a document around it; the tests compare the bare windows.
"""

from repro.service.query import complete_windows


def series(reader, *, since, window, step):
    """Every complete window of a rolling span (simulated seconds), each
    built by ``reader.window`` (see
    :func:`~repro.service.query.complete_windows`)."""
    _, spans = complete_windows(since=since, window=window, step=step,
                                horizon=reader.horizon)
    return [reader.window(t0, t1) for t0, t1 in spans]
