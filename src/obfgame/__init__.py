"""Equilibria of the bi-level obfuscation game between data-perturbing users
and a privacy-promising learner, with an empirical ERM laboratory and a
differential-privacy calibrator.

The package's names are its modules' ``__all__``, re-exported as they are."""

from .dp import *
from .erm import *
from .errors import *
from .mfg import *
from .model import *
from .stackelberg import *

__version__ = "0.1.0"
