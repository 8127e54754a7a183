"""Hand-built measurement histories from per-trial beams."""

import numpy as np

from svamsim.sensing import beam_responses


def append_beams(history, values, beams):
    """Append one block of (trials, n_v) values sensed with one beam per
    trial (a Beamformer or a weight array, all of one tap count), and return
    the (trials, grid) beam_responses the history folded."""
    (taps,) = {f.size for f in beams}
    responses = np.stack([beam_responses(f, history.grid) for f in beams])
    history.append(values, responses, taps)
    return responses
