"""melsynth: teacher/student spectrogram synthesis on a numpy autodiff core."""

__version__ = "0.1.0"
