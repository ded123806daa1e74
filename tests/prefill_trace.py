"""The hidden-state trace of a prefill, recorded through its layer hook.

``Decoder.prefill`` keeps no trace of its own; tests that need every
layer's input states (oracles, the two-pass stage-2 route) collect them
with this hook.
"""


def traced_prefill(decoder, embedded, spans, **prefill_kwargs):
    """(PrefillResult, trace) of a prefill that stores every layer whole;
    trace[l] is a copy of layer l's (T, d) input states. Other keyword
    arguments (``spare_rows``) go to ``prefill``."""
    trace = []

    def record(states, layer):
        trace.append(states.copy())
        return layer

    return decoder.prefill(embedded, spans, layer_hook=record, **prefill_kwargs), trace
