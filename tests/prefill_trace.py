"""The hidden-state trace of a prefill, recorded through its layer hook.

``Decoder.prefill`` keeps no trace of its own; tests that need every
layer's input states (oracles, the two-pass stage-2 route) collect them
with this hook.
"""


def traced_prefill(decoder, embedded, spans):
    """(PrefillResult, trace) of a prefill that stores every layer whole;
    trace[l] is a copy of layer l's (T, d) input states."""
    trace = []

    def record(states, layer):
        trace.append(states.copy())
        return layer

    return decoder.prefill(embedded, spans, layer_hook=record), trace
